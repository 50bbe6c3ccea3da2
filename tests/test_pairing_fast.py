"""Tests for the optimized pairing against the reference implementation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import SecureJoinClient
from repro.core.server import SecureJoinServer
from repro.crypto.backend import BN254Backend
from repro.crypto.curve import G1Point, G2Point, untwist
from repro.crypto.field import Fp2, Fp12
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.errors import FieldError, PairingError
from repro.crypto.pairing import (
    final_exponentiation,
    miller_loop,
    multi_pairing,
    pairing,
)
from repro.crypto.numtheory import naf_digits
from repro.crypto.pairing_fast import (
    G2Prepared,
    _pow_by_x,
    _twist_frobenius,
    final_exponentiation_fast,
    miller_loop_fast,
    multi_miller_prepared,
    multi_pairing_fast,
    pairing_fast,
)
from repro.crypto.params import BN_X, CURVE_ORDER

_rng = random.Random(2718)


class TestAgreementWithReference:
    def test_generator_pairing(self):
        g1, g2 = G1Point.generator(), G2Point.generator()
        assert pairing_fast(g1, g2) == pairing(g1, g2)

    def test_random_points(self):
        for _ in range(3):
            a = _rng.randrange(2, 10**9)
            b = _rng.randrange(2, 10**9)
            p = G1Point.generator() * a
            q = G2Point.generator() * b
            assert pairing_fast(p, q) == pairing(p, q)

    def test_multi_pairing_agreement(self):
        pairs = [
            (G1Point.generator() * a, G2Point.generator() * b)
            for a, b in [(3, 4), (5, 6), (7, 8)]
        ]
        assert multi_pairing_fast(pairs) == multi_pairing(pairs)

    def test_final_exponentiation_agreement(self):
        """Both hard parts compute the same map on Miller outputs."""
        f = miller_loop(G2Point.generator() * 9, G1Point.generator() * 4)
        assert final_exponentiation_fast(f) == final_exponentiation(f)

    def test_miller_values_equal_after_fe(self):
        """Raw Miller values may differ by subfield factors; the final
        exponentiation must reconcile them."""
        q = G2Point.generator() * 13
        p = G1Point.generator() * 17
        naive = miller_loop(q, p)
        fast = miller_loop_fast(q, p)
        assert final_exponentiation(naive) == final_exponentiation(fast)


class TestFastPairingProperties:
    def test_bilinearity(self):
        e = pairing_fast(G1Point.generator(), G2Point.generator())
        lhs = pairing_fast(G1Point.generator() * 6, G2Point.generator() * 7)
        assert lhs == e.pow(42)

    def test_non_degenerate(self):
        assert not pairing_fast(G1Point.generator(), G2Point.generator()).is_one()

    def test_order(self):
        e = pairing_fast(G1Point.generator(), G2Point.generator())
        assert e.pow(CURVE_ORDER).is_one()

    def test_infinity(self):
        assert pairing_fast(G1Point.infinity(), G2Point.generator()).is_one()
        assert pairing_fast(G1Point.generator(), G2Point.infinity()).is_one()

    def test_multi_pairing_empty(self):
        assert multi_pairing_fast([]).is_one()


class TestTwistFrobenius:
    def test_commutes_with_untwist(self):
        """psi(pi_twist(Q)) == Frobenius(psi(Q)) — the map's defining property."""
        q = G2Point.generator() * 5
        fx, fy = _twist_frobenius((q.x, q.y))
        ux, uy = untwist(q)
        assert untwist(G2Point(fx, fy, check=False)) == (
            ux.frobenius(), uy.frobenius()
        )

    def test_frobenius_image_on_twist(self):
        """pi(Q) stays on the twist curve (and in the subgroup)."""
        q = G2Point.generator() * 3
        fx, fy = _twist_frobenius((q.x, q.y))
        image = G2Point(fx, fy)  # constructor checks the curve equation
        assert image.is_in_subgroup()

    def test_order_twelve(self):
        q = G2Point.generator()
        point = (q.x, q.y)
        for _ in range(12):
            point = _twist_frobenius(point)
        assert point == (q.x, q.y)


class TestSparseMultiplication:
    def test_mul_by_line_matches_generic(self):
        """The sparse path equals building the line element and multiplying."""
        from repro.crypto.field import XI, Fp2, Fp6

        f = Fp12(
            Fp6(Fp2(3, 1), Fp2(4, 1), Fp2(5, 9)),
            Fp6(Fp2(2, 6), Fp2(5, 3), Fp2(5, 8)),
        )
        a, b, c = 12345, Fp2(67, 89), Fp2(10, 11)
        line = Fp12(Fp6(Fp2(a), Fp2.zero(), Fp2.zero()),
                    Fp6(b, c, Fp2.zero()))
        assert f.mul_by_line(a, b, c) == f * line


class TestNAFPowByX:
    """The cyclotomic NAF ladder inside the final exponentiation."""

    def test_bn_x_naf_weight_pinned(self):
        # x = 4965661367192848881 has binary weight 28; its NAF weight
        # is 24.  The ladder multiplies once per nonzero digit, so this
        # pin IS the op-count regression test for _pow_by_x.
        digits = naf_digits(BN_X)
        assert sum(d << i for i, d in enumerate(digits)) == BN_X
        assert sum(1 for d in digits if d) == 24
        assert bin(BN_X).count("1") == 28

    def test_pow_by_x_matches_generic_pow_on_cyclotomic_input(self):
        # _pow_by_x uses conjugation as inversion, which is only valid
        # in the cyclotomic subgroup — so feed it what production feeds
        # it: the output of the easy part.
        p = G1Point.generator() * _rng.randrange(1, CURVE_ORDER)
        q = G2Point.generator() * _rng.randrange(1, CURVE_ORDER)
        f = miller_loop_fast(q, p)
        t = f.conjugate() * f.inverse()
        t = t.frobenius().frobenius() * t
        assert _pow_by_x(t) == t.pow(BN_X)

    def test_pairing_byte_identity_with_reference(self):
        # The NAF ladders (curve scalar_mul + _pow_by_x) must not move
        # a single byte of the pairing output vs the reference path.
        for _ in range(3):
            p = G1Point.generator() * _rng.randrange(1, CURVE_ORDER)
            q = G2Point.generator() * _rng.randrange(1, CURVE_ORDER)
            assert (
                pairing_fast(p, q).to_bytes()
                == pairing(p, q).to_bytes()
            )


_scalar = st.integers(min_value=1, max_value=CURVE_ORDER - 1)


@pytest.mark.bn254
class TestSimultaneousMillerLoop:
    """One loop for a whole row: raw points stepped in lock-step with a
    batched inversion, prepared points replayed beside them."""

    @given(
        st.lists(st.tuples(_scalar, _scalar, st.booleans()),
                 min_size=1, max_size=6)
    )
    @settings(max_examples=8, deadline=None)
    def test_equals_product_of_independent_loops(self, triples):
        g1, g2 = G1Point.generator(), G2Point.generator()
        pairs = [(g1 * a, g2 * b) for a, b, _ in triples]
        expected = Fp12.one()
        for p, q in pairs:
            expected = expected * miller_loop_fast(q, p)
        mixed = [
            (p, G2Prepared.from_point(q) if prepared else q)
            for (p, q), (_, _, prepared) in zip(pairs, triples)
        ]
        assert multi_miller_prepared(pairs) == expected
        assert multi_miller_prepared(mixed) == expected

    def test_infinity_entries_are_skipped(self):
        g1, g2 = G1Point.generator(), G2Point.generator()
        live = [(g1 * 3, g2 * 5), (g1 * 7, G2Prepared.from_point(g2 * 11))]
        padded = [
            (G1Point.infinity(), g2),
            live[0],
            (g1, G2Point.infinity()),
            live[1],
            (g1, G2Prepared.from_point(G2Point.infinity())),
        ]
        assert multi_pairing_fast(padded) == multi_pairing_fast(live)
        backend = BN254Backend()
        handle = backend.pair_vectors(*zip(*padded))
        assert handle.value == multi_pairing_fast(live)
        assert backend.ops.snapshot() == (1, 1, 1, 0, 0)

    def test_degenerate_addition_raises_inside_a_batch(self):
        # (0, y) is an inflection point of y^2 = x^3 + y^2, so 2Q = -Q:
        # the loop's first addition meets T = -Q, the vertical line the
        # affine formulas cannot take.  The batched inversion must not
        # hide it behind a healthy neighbour's denominator.
        good = G2Point.generator() * 9
        bad = G2Point(Fp2(0), Fp2(5, 7), check=False)
        p = G1Point.generator()
        for pairs in ([(p, bad)], [(p, good), (p, bad), (p, good)]):
            with pytest.raises(PairingError, match="degenerate addition"):
                multi_miller_prepared(pairs)
        with pytest.raises(PairingError, match="degenerate addition"):
            G2Prepared.from_point(bad)

    def test_two_torsion_point_raises_field_error(self):
        # y = 0: the tangent is vertical, its denominator 2y is zero.
        bad = G2Point(Fp2(3, 4), Fp2(0), check=False)
        pairs = [(G1Point.generator(), G2Point.generator()),
                 (G1Point.generator(), bad)]
        with pytest.raises(FieldError, match="cannot invert zero in Fp2"):
            multi_miller_prepared(pairs)


@pytest.mark.bn254
class TestSmallJoinOpCounts:
    """The shape perfbench's ``bn254_small`` runs: 2 + 4 rows, d = 5."""

    def test_cold_query_then_replay(self, bn254_backend):
        schema = Schema.of(("k", "int"), ("v", "str"))
        left = Table("L", schema, [(7, "l0"), (8, "l1")])
        right = Table("R", schema, [(7, "r0"), (8, "r1"), (7, "r2"), (8, "r3")])
        client = SecureJoinClient.for_tables(
            [(left, "k"), (right, "k")], in_clause_limit=1,
            backend=bn254_backend, rng=random.Random(16),
        )
        with SecureJoinServer(client.params, backend=bn254_backend) as server:
            server.store(client.encrypt_table(left, "k"))
            server.store(client.encrypt_table(right, "k"))
            query = client.create_query(
                JoinQuery.build("L", "R", on=("k", "k"))
            )
            before = bn254_backend.ops.snapshot()
            cold = server.execute_join(query)
            spent = bn254_backend.ops.since(before)
            assert (spent.miller_loops, spent.final_exponentiations) == (30, 6)
            assert spent.prepared_miller_loops == 0
            before = bn254_backend.ops.snapshot()
            replay = server.execute_join(query)
            assert bn254_backend.ops.since(before).snapshot() == (0, 0, 0, 0, 0)
        assert sorted(cold.index_pairs) == sorted(replay.index_pairs) == [
            (0, 0), (0, 2), (1, 1), (1, 3)
        ]
