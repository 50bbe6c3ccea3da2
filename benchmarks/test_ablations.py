"""Ablations over the scheme's design choices.

1. Pre-filter on/off — the paper's evaluation regime (SSE pre-filter,
   decrypt only selected rows) vs. the maximally private regime
   (decrypt everything).
2. Backend — the identical scheme operation on the real BN254 pairing
   vs. the fast exponent backend (quantifies the stand-in of README.md,
   "Two backends").
3. Multi-pairing — Secure Join decryption is a product of pairings;
   sharing one final exponentiation across the d Miller loops vs.
   computing d full pairings.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.workloads import build_encrypted_tpch, tpch_query
from repro.core.scheme import SecureJoinParams, SecureJoinScheme
from repro.crypto.backend import get_backend
from repro.crypto.curve import G1Point, G2Point
from repro.crypto.field import Fp12
from repro.crypto.pairing import (
    final_exponentiation,
    miller_loop,
    multi_pairing,
    pairing,
)
from repro.crypto.pairing_fast import (
    final_exponentiation_fast,
    miller_loop_fast,
    pairing_fast,
)

_SCALE_FACTOR = 0.01
_SELECTIVITY = 1 / 25


@pytest.mark.parametrize("prefilter", [True, False])
def test_prefilter_ablation(benchmark, prefilter):
    workload = build_encrypted_tpch(
        _SCALE_FACTOR, in_clause_limit=1, prefilter=prefilter
    )
    query = tpch_query(_SELECTIVITY)
    encrypted_query = workload.client.create_query(query)

    result = benchmark.pedantic(
        lambda: workload.server.execute_join(encrypted_query),
        rounds=3, iterations=1,
    )
    total_rows = workload.num_customers + workload.num_orders
    if prefilter:
        assert result.stats.decryptions < total_rows
    else:
        assert result.stats.decryptions == total_rows


@pytest.mark.parametrize(
    "backend_name",
    [
        "fast",
        pytest.param(
            "bn254", marks=[pytest.mark.bn254, pytest.mark.slow]
        ),
    ],
)
def test_backend_ablation_decryption(benchmark, backend_name):
    """One SJ.Dec on each backend (m=2, t=1: a 9-dimensional pairing)."""
    backend = get_backend(backend_name)
    scheme = SecureJoinScheme(
        SecureJoinParams(2, 1, backend_name), backend, random.Random(5)
    )
    msk = scheme.setup()
    token = scheme.token(msk, {0: ["x"]}, scheme.new_query_key())
    ciphertext = scheme.encrypt_row(msk, 1, ["x", "y"])

    handle = benchmark.pedantic(
        lambda: scheme.decrypt(token, ciphertext), rounds=2, iterations=1
    )
    assert handle is not None


@pytest.mark.slow
@pytest.mark.bn254
class TestPairingImplementations:
    """Reference vs. optimized pairing: Miller loop and final exponentiation.

    The optimized path (twist-native affine Miller loop + sparse line
    multiplication + addition-chain hard part) is what the BN254 backend
    uses; the reference implementation is the correctness oracle.
    """

    _P = G1Point.generator() * 123456789
    _Q = G2Point.generator() * 987654321

    def test_reference_pairing(self, benchmark):
        result = benchmark.pedantic(
            lambda: pairing(self._P, self._Q), rounds=3, iterations=1
        )
        assert not result.is_one()

    def test_optimized_pairing(self, benchmark):
        result = benchmark.pedantic(
            lambda: pairing_fast(self._P, self._Q), rounds=3, iterations=1
        )
        assert result == pairing(self._P, self._Q)

    def test_reference_miller_loop(self, benchmark):
        benchmark.pedantic(
            lambda: miller_loop(self._Q, self._P), rounds=3, iterations=1
        )

    def test_optimized_miller_loop(self, benchmark):
        benchmark.pedantic(
            lambda: miller_loop_fast(self._Q, self._P), rounds=3, iterations=1
        )

    def test_reference_final_exponentiation(self, benchmark):
        f = miller_loop(self._Q, self._P)
        benchmark.pedantic(
            lambda: final_exponentiation(f), rounds=3, iterations=1
        )

    def test_optimized_final_exponentiation(self, benchmark):
        f = miller_loop_fast(self._Q, self._P)
        benchmark.pedantic(
            lambda: final_exponentiation_fast(f), rounds=3, iterations=1
        )


@pytest.mark.slow
@pytest.mark.bn254
class TestMultiPairing:
    _PAIRS = [
        (G1Point.generator() * a, G2Point.generator() * b)
        for a, b in [(2, 3), (5, 7), (11, 13), (17, 19)]
    ]

    def test_shared_final_exponentiation(self, benchmark):
        result = benchmark.pedantic(
            lambda: multi_pairing(self._PAIRS), rounds=2, iterations=1
        )
        assert not result.is_one()

    def test_naive_product_of_pairings(self, benchmark):
        def naive():
            product = Fp12.one()
            for p, q in self._PAIRS:
                product = product * pairing(p, q)
            return product

        result = benchmark.pedantic(naive, rounds=2, iterations=1)
        assert result == multi_pairing(self._PAIRS)
