"""``PYTHONPATH=src python -m perfbench run|all|compare`` from the repo root.

``run`` is ``perfbench/run.py``; ``all`` runs every workload (untraced
over several seeds, traced once) in fresh processes, prints every metric
by name and fails if any answer was wrong; ``compare`` sets two such
result files side by side under the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One driver-style run in a process of its own; the result line."""
    done = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def run_all(args) -> int:
    results = {
        "meta": {
            "seed": args.seed, "runs": args.runs, "seconds": args.seconds,
            "nproc": os.cpu_count(), "python": platform.python_version(),
        },
        "workloads": {},
    }
    wrong = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        entry = {"end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0}
        for index in range(args.runs + 1):
            trace = int(index == args.runs)  # the last run is the traced one
            seed = args.seed if trace else args.seed + index
            result = run_once(workload, seed, args.seconds, trace)
            wrong += not result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                if trace:
                    entry["per_layer"][name] = metric["value"]
                else:
                    entry["end_to_end"].setdefault(name, []).append(
                        metric["value"]
                    )
        results["workloads"][workload] = entry
        print(f"{workload}: attempted {entry['attempted']}, "
              f"failed {entry['failed']}")
        for metric in SPEC["end_to_end"]:
            values = entry["end_to_end"][metric["name"]]
            print(f"  {metric['name']:<28} {statistics.median(values):>14.6g} "
                  f"{metric['unit']:<6} n={len(values)} "
                  f"spread={spread(values):.1%}")
        for metric in SPEC["per_layer"]:
            value = entry["per_layer"][metric["name"]]
            if value:
                print(f"  {metric['name']:<28} {value:>14.6g} {metric['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    if wrong:
        print(f"{wrong} run(s) gave a wrong answer", file=sys.stderr)
    return 1 if wrong else 0


def compare(args) -> int:
    """One row per (workload, end-to-end metric); B is judged against A."""
    before = json.loads(Path(args.before).read_text())["workloads"]
    after = json.loads(Path(args.after).read_text())["workloads"]
    verdicts: dict[str, int] = {}
    print(f"{'workload':<14} {'metric':<20} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload in before:
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = before[workload]["end_to_end"][name]
            b = after[workload]["end_to_end"][name]
            base, new = statistics.median(a), statistics.median(b)
            change = (new - base) / base
            if metric["better"] == "higher":
                change = -change  # positive now always means worse
            widest = max(spread(a), spread(b))
            # As the driver does, set-up is judged on its medians only:
            # a run has three set-ups where it has hundreds of queries.
            if widest > bound and name != "setup_s":
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
            elif change < -bound:
                verdict = "better"
            else:
                verdict = "same"
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            print(f"{workload:<14} {name:<20} {base:>12.5g} {new:>12.5g} "
                  f"{change:>+8.1%} {widest:>7.1%} {bound:>6.0%}  {verdict}")
    print(", ".join(f"{count} {verdict}" for verdict, count in verdicts.items()))
    return 1 if verdicts.get("worse") or verdicts.get("unresolved") else 0


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("run", add_help=False,
                        help="one workload; see perfbench/run.py --help")
    everything = commands.add_parser("all", help="every workload, every metric")
    everything.add_argument("--seed", type=int, default=1)
    everything.add_argument("--runs", type=int, default=3,
                            help="untraced runs per workload, seeds seed..")
    everything.add_argument("--seconds", type=float,
                            default=SPEC["run_seconds"])
    everything.add_argument("--out", default=None, metavar="results.json")
    versus = commands.add_parser("compare", help="two result files, A then B")
    versus.add_argument("before")
    versus.add_argument("after")
    args, rest = parser.parse_known_args()
    if args.command == "run":
        from perfbench.harness import main as run_main

        return run_main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return run_all(args) if args.command == "all" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
