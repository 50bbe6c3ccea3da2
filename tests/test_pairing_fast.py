"""Tests for the optimized pairing against the reference implementation."""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.server import SecureJoinServer
from repro.crypto.backend import BN254Backend
from repro.crypto.curve import G1Point, G2Point, untwist
from repro.crypto.field import Fp2, Fp12
from repro.errors import FieldError, PairingError
from repro.crypto.pairing import (
    final_exponentiation,
    miller_loop,
    multi_pairing,
    pairing,
)
from repro.crypto.numtheory import naf_digits, signed_window_digits
from repro.crypto.pairing_fast import (
    _REPLAY_SQUARES,
    PREPARED_COEFF_COUNT,
    PREPARED_ELEMENT_SIZE,
    G2Prepared,
    _pow_by_x,
    _twist_frobenius,
    final_exponentiation_fast,
    miller_loop_fast,
    multi_miller_prepared,
    multi_miller_rows,
    multi_pairing_fast,
    pairing_fast,
)
from repro.crypto.params import ATE_LOOP_COUNT, BN_X, CURVE_ORDER
from tests.conftest import bn254_small_join

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
    """The two fixed exponents the kernel walks in signed digits — the
    ate loop count in NAF, the BN parameter in a width-3 window — and
    the ladder inside the final exponentiation."""

    def test_bn_x_window_weight_pinned(self):
        # x = 4965661367192848881 has binary weight 28 and NAF weight
        # 24; in a width-3 window (digits +-1, +-3) it has 18 nonzero
        # digits.  The ladder multiplies once per nonzero digit, so this
        # pin IS the op-count regression test for _pow_by_x.
        digits = signed_window_digits(BN_X, 3)
        assert sum(d << i for i, d in enumerate(digits)) == BN_X
        assert set(digits) <= {0, 1, -1, 3, -3}
        assert sum(1 for d in digits if d) == 18
        assert sum(1 for d in naf_digits(BN_X) if d) == 24
        assert bin(BN_X).count("1") == 28

    def test_ate_loop_schedule_pinned(self):
        # 6x + 2 has 65 bits of weight 37 (64 + 36 + 2 = 102 lines in
        # plain binary); its NAF has 66 digits of weight 22, so a
        # trajectory is 65 doublings + 21 additions + 2 Frobenius steps.
        assert ATE_LOOP_COUNT.bit_length() == 65
        assert bin(ATE_LOOP_COUNT).count("1") == 37
        digits = naf_digits(ATE_LOOP_COUNT)
        assert (len(digits), sum(1 for d in digits if d)) == (66, 22)
        assert len(_REPLAY_SQUARES) == PREPARED_COEFF_COUNT == 88
        assert sum(_REPLAY_SQUARES) == 65
        assert PREPARED_ELEMENT_SIZE == 11265

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
        # The signed-digit ladders (curve scalar_mul, the ate loop,
        # _pow_by_x) must not move a single byte of the pairing output
        # vs the reference path, which walks plain binary.
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
        # ... nor behind a healthy neighbour *row* of the same chunk.
        healthy = [(p, good), (p, good)]
        with pytest.raises(PairingError, match="degenerate addition"):
            multi_miller_rows([healthy, [(p, good), (p, bad)], healthy])
        with pytest.raises(PairingError, match="degenerate addition"):
            G2Prepared.from_points([good, bad, good])
        with pytest.raises(PairingError, match="degenerate addition"):
            BN254Backend().pair_vectors_batch(
                [p, p], [[good, good], [good, bad], [good, good]]
            )

    def test_two_torsion_point_raises_field_error(self):
        # y = 0: the tangent is vertical, its denominator 2y is zero.
        # Caught by name before the chunk's shared inversion, which
        # would only report that some product was not invertible.
        bad = G2Point(Fp2(3, 4), Fp2(0), check=False)
        p, good = G1Point.generator(), G2Point.generator()
        pairs = [(p, good), (p, bad)]
        with pytest.raises(FieldError, match="cannot invert zero in Fp2"):
            multi_miller_prepared(pairs)
        with pytest.raises(FieldError, match="cannot invert zero in Fp2"):
            multi_miller_rows([[(p, good)], pairs, [(p, good)]])
        with pytest.raises(FieldError, match="cannot invert zero in Fp2"):
            BN254Backend().pair_vectors_batch(
                [p, p], [[good, good], [good, bad], [good, good]]
            )


# A small pool of G2 elements in every form a stored row can hold them.
_INFINITY = G2Point.infinity()
_POOL_SCALARS = (5, 2**200 + 9, CURVE_ORDER - 3)


@functools.cache
def _element_pool():
    points = [G2Point.generator() * s for s in _POOL_SCALARS]
    return points, G2Prepared.from_points(points)


_element = st.one_of(
    st.tuples(st.sampled_from(["raw", "prepared"]),
              st.integers(0, len(_POOL_SCALARS) - 1)),
    st.just(("infinity", 0)),
    st.just(("prepared_infinity", 0)),
)
_D = 3
_row = st.one_of(
    st.lists(_element, min_size=_D, max_size=_D),
    st.just([("infinity", 0)] * _D),
)


@pytest.mark.bn254
class TestChunkKernel:
    """A chunk of rows in one lock-step trajectory is the rows one at a
    time: same handles, same operation counts."""

    @given(
        st.lists(_row, min_size=1, max_size=6),
        st.lists(st.integers(0, 40), min_size=_D, max_size=_D),
    )
    @example(
        [[("raw", 0), ("prepared", 1), ("infinity", 0)],
         [("infinity", 0)] * _D,
         [("prepared_infinity", 0), ("raw", 2), ("raw", 1)]],
        [7, 0, 9],
    )
    @settings(max_examples=6, deadline=None)
    def test_batch_equals_rows_one_at_a_time(self, shapes, token_scalars):
        points, prepared = _element_pool()
        forms = {
            "raw": points.__getitem__,
            "prepared": prepared.__getitem__,
            "infinity": lambda _: _INFINITY,
            "prepared_infinity": lambda _: G2Prepared(()),
        }
        rows = [[forms[kind](i) for kind, i in shape] for shape in shapes]
        # A zero scalar is the G1 point at infinity.
        token = [G1Point.generator() * s for s in token_scalars]
        backend = BN254Backend()
        before = backend.ops.snapshot()
        batched = backend.pair_vectors_batch(token, rows)
        batch_ops = backend.ops.since(before)
        before = backend.ops.snapshot()
        singly = [backend.pair_vectors(token, row) for row in rows]
        assert batched == [gt.to_bytes() for gt in singly]
        assert batch_ops == backend.ops.since(before)
        live = [
            [q for s, q in zip(token_scalars, row)
             if s and not q.is_infinity()]
            for row in rows
        ]
        assert batch_ops.final_exponentiations == sum(map(bool, live))
        assert batch_ops.prepared_miller_loops == sum(
            isinstance(q, G2Prepared) for row in live for q in row
        )
        assert batch_ops.miller_loops == (
            sum(map(len, live)) - batch_ops.prepared_miller_loops
        )

    def test_lock_step_preparation_is_point_by_point_preparation(self):
        points, _ = _element_pool()
        qs = [points[0], _INFINITY, points[1], points[2], _INFINITY]
        together = G2Prepared.from_points(qs)
        assert [t.coeffs for t in together] == [
            G2Prepared.from_point(q).coeffs for q in qs
        ]
        assert [len(t.coeffs) for t in together] == [88, 0, 88, 88, 0]
        assert G2Prepared.from_points([]) == []
        backend = BN254Backend()
        row = backend.prepare_row(qs)
        assert [t.coeffs for t in row.prepared] == [
            t.coeffs for t in together
        ]
        assert backend.ops.preparations == 3


@pytest.mark.bn254
class TestSmallJoinOpCounts:
    """The shape perfbench's ``bn254_small`` runs: 2 + 4 rows, d = 5."""

    def test_cold_query_then_replay(self, bn254_backend):
        client, tables, query = bn254_small_join(bn254_backend)
        with SecureJoinServer(client.params, backend=bn254_backend) as server:
            for table in tables:
                server.store(table)
            cold = server.execute_join(query)
            # Read off the stats, which count pooled work too: at the
            # default width the sides may run in worker processes.
            spent = cold.stats
            assert (spent.miller_loops, spent.final_exponentiations) == (30, 6)
            assert spent.prepared_miller_loops == 0
            before = bn254_backend.ops.snapshot()
            replay = server.execute_join(query)
            assert bn254_backend.ops.since(before).snapshot() == (0, 0, 0, 0, 0)
        assert sorted(cold.tuples) == sorted(replay.tuples) == [
            (0, 0), (0, 2), (1, 1), (1, 3)
        ]
