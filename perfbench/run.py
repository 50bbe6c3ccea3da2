"""Driver entry point: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Prints one JSON object as the last line of standard output.  Fails with
a traceback, and no result, where the program under ``src/`` is absent.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import main  # noqa: E402 - needs the path above

if __name__ == "__main__":
    sys.exit(main())
