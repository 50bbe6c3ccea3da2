"""Baseline join-encryption schemes from the paper's Section 2 analysis.

Each baseline implements the common :class:`~repro.baselines.api.JoinScheme`
interface so the leakage analyzer can replay the same query series against
every scheme and compare the equality pairs each one reveals:

- :class:`~repro.baselines.deterministic.DeterministicScheme` —
  Hacigümüş et al. [15]: deterministic join-column encryption; reveals
  every equality pair at upload time (t0).
- :class:`~repro.baselines.cryptdb.CryptDBScheme` — Popa et al. [33]:
  onion encryption; reveals nothing at t0 but strips the probabilistic
  layer of the whole column pair at the first join (t1).
- :class:`~repro.baselines.hahn.HahnScheme` — Hahn et al. [16]:
  KP-ABE-gated unwrapping; per-query leakage is minimal, but unwrapped
  rows stay comparable across queries (super-additive leakage), joins
  are nested-loop, and only primary-key/foreign-key joins are supported.
- :class:`~repro.baselines.securejoin_adapter.SecureJoinAdapter` — the
  paper's scheme behind the same interface.

Beside the schemes sits the *execution* baseline of the engine
ablation: :class:`~repro.baselines.serial.SerialEngine`, the naive
product of pairings, handed to the server an ablation builds.
"""

from repro.baselines.api import JoinScheme, SchemeAnswer
from repro.baselines.cryptdb import CryptDBScheme
from repro.baselines.deterministic import DeterministicScheme
from repro.baselines.hahn import HahnScheme
from repro.baselines.securejoin_adapter import SecureJoinAdapter
from repro.baselines.serial import SerialEngine

__all__ = [
    "CryptDBScheme",
    "DeterministicScheme",
    "HahnScheme",
    "JoinScheme",
    "SchemeAnswer",
    "SecureJoinAdapter",
    "SerialEngine",
]
