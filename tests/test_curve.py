"""Unit tests for the BN254 curve groups G1 and G2."""

from __future__ import annotations

import random

import pytest

from repro.crypto.curve import (
    TWIST_B,
    G1Point,
    G2Point,
    embed_g1,
    sum_affine_lists,
    untwist,
)
from repro.crypto.field import Fp2, Fp12
from repro.crypto.numtheory import naf_digits
from repro.crypto.params import CURVE_ORDER
from repro.errors import CurveError, FieldError

_rng = random.Random(7)


class TestG1:
    def test_generator_on_curve(self):
        g = G1Point.generator()
        assert not g.is_infinity()

    def test_invalid_point_rejected(self):
        with pytest.raises(CurveError):
            G1Point(1, 3)

    def test_identity_laws(self):
        g = G1Point.generator()
        inf = G1Point.infinity()
        assert g + inf == g
        assert inf + g == g
        assert inf + inf == inf

    def test_inverse(self):
        g = G1Point.generator()
        assert (g + (-g)).is_infinity()

    def test_double_matches_add(self):
        g = G1Point.generator()
        assert g.double() == g + g

    def test_associativity(self):
        g = G1Point.generator()
        a, b, c = g * 3, g * 5, g * 11
        assert (a + b) + c == a + (b + c)

    def test_scalar_mul_distributes(self):
        g = G1Point.generator()
        assert g * 7 + g * 9 == g * 16

    def test_order(self):
        g = G1Point.generator()
        assert (g * CURVE_ORDER).is_infinity()
        assert g * (CURVE_ORDER + 1) == g

    def test_scalar_zero(self):
        g = G1Point.generator()
        assert (g * 0).is_infinity()

    def test_random_scalar_round_trip(self):
        g = G1Point.generator()
        k = _rng.randrange(1, CURVE_ORDER)
        assert g * k + g * (CURVE_ORDER - k) == G1Point.infinity()

    def test_to_bytes_distinct(self):
        g = G1Point.generator()
        assert g.to_bytes() != (g * 2).to_bytes()
        assert len(g.to_bytes()) == 64

    def test_hashable(self):
        g = G1Point.generator()
        assert len({g, g * 1}) == 1


class TestG2:
    def test_generator_on_twist(self):
        g = G2Point.generator()
        assert not g.is_infinity()

    def test_generator_in_subgroup(self):
        assert G2Point.generator().is_in_subgroup()

    def test_twist_b_value(self):
        # b' = 3/xi must satisfy the generator equation, checked in ctor.
        assert TWIST_B == Fp2(3) * Fp2(9, 1).inverse()

    def test_invalid_point_rejected(self):
        with pytest.raises(CurveError):
            G2Point(Fp2(1, 0), Fp2(1, 0))

    def test_group_laws(self):
        g = G2Point.generator()
        assert g.double() == g + g
        assert (g + (-g)).is_infinity()
        a, b, c = g * 2, g * 3, g * 5
        assert (a + b) + c == a + (b + c)

    def test_order(self):
        g = G2Point.generator()
        assert (g * CURVE_ORDER).is_infinity()

    def test_scalar_mul_distributes(self):
        g = G2Point.generator()
        assert g * 4 + g * 6 == g * 10


class TestUntwist:
    def test_untwist_lands_on_fp12_curve(self):
        """psi(Q) must satisfy y^2 = x^3 + 3 over Fp12."""
        q = G2Point.generator() * 5
        x, y = untwist(q)
        assert y.square() == x.square() * x + Fp12.from_int(3)

    def test_untwist_infinity_raises(self):
        with pytest.raises(CurveError):
            untwist(G2Point.infinity())

    def test_embed_g1_on_curve(self):
        p = G1Point.generator() * 3
        x, y = embed_g1(p)
        assert y.square() == x.square() * x + Fp12.from_int(3)

    def test_untwist_is_homomorphic_on_doubling(self):
        """psi(2Q) equals doubling psi(Q) on the Fp12 curve."""
        from repro.crypto.pairing import _double

        q = G2Point.generator()
        assert untwist(q.double()) == _double(untwist(q))


class TestNAFScalarMul:
    """The NAF ladder: same results, pinned-lower addition count."""

    def test_naf_digits_reconstruct_and_are_non_adjacent(self):
        for _ in range(100):
            k = _rng.randrange(0, CURVE_ORDER)
            digits = naf_digits(k)
            assert sum(d << i for i, d in enumerate(digits)) == k
            assert all(d in (-1, 0, 1) for d in digits)
            assert all(
                not (digits[i] and digits[i + 1])
                for i in range(len(digits) - 1)
            )

    def test_naf_rejects_negative(self):
        with pytest.raises(FieldError):
            naf_digits(-1)

    def test_matches_plain_double_and_add(self):
        def naive(point, k):
            result = type(point).infinity()
            addend = point
            while k:
                if k & 1:
                    result = result + addend
                addend = addend.double()
                k >>= 1
            return result

        g1, g2 = G1Point.generator(), G2Point.generator()
        for k in (0, 1, 2, 3, CURVE_ORDER - 1, CURVE_ORDER,
                  _rng.randrange(CURVE_ORDER)):
            assert g1.scalar_mul(k) == naive(g1, k % CURVE_ORDER)
            assert g2.scalar_mul(k) == naive(g2, k % CURVE_ORDER)

    def test_addition_count_regression(self, monkeypatch):
        """scalar_mul must perform exactly one addition per nonzero NAF
        digit plus one doubling per digit — strictly fewer additions
        than the binary ladder's Hamming-weight count."""
        adds = {"n": 0}
        doubles = {"n": 0}
        real_add = G1Point.__add__
        real_double = G1Point.double

        def counting_add(self, other):
            adds["n"] += 1
            return real_add(self, other)

        def counting_double(self):
            doubles["n"] += 1
            return real_double(self)

        monkeypatch.setattr(G1Point, "__add__", counting_add)
        monkeypatch.setattr(G1Point, "double", counting_double)
        k = _rng.randrange(1, CURVE_ORDER)
        digits = naf_digits(k)
        naf_weight = sum(1 for d in digits if d)
        G1Point.generator().scalar_mul(k)
        assert adds["n"] == naf_weight
        assert doubles["n"] == len(digits)
        assert naf_weight < bin(k).count("1") or naf_weight <= 2


@pytest.mark.parametrize("group", [G1Point, G2Point])
class TestJacobianSum:
    """``sum`` runs the lock-step affine kernel (``sum_affine_lists``:
    pairwise rounds, one shared inversion per round; the name is the
    Jacobian sum's it replaced); it must return the very point repeated
    affine ``+`` returns."""

    @staticmethod
    def _chain(group, points):
        total = group.infinity()
        for point in points:
            total = total + point
        return total

    def test_matches_affine_chain(self, group):
        g = group.generator()
        points = [g * _rng.randrange(1, CURVE_ORDER) for _ in range(7)]
        total = group.sum(points)
        assert total.to_bytes() == self._chain(group, points).to_bytes()
        group.from_bytes(total.to_bytes())  # still on the curve

    def test_collisions_and_infinity(self, group):
        g = group.generator()
        a, b = g * 1234567, g * 7654321
        infinity = group.infinity()
        for points in (
            [],
            [infinity],
            [a],
            [a, a],                      # doubling inside the sum
            [a, -a],                     # cancels to infinity ...
            [a, -a, b],                  # ... and restarts from it
            [a, b, a + b],               # running total equals the addend
            [a, b, -(a + b), b],
            [infinity, a, infinity, b],
            [a, a, a, a],
        ):
            assert group.sum(points) == self._chain(group, points)

    def test_many_lists_in_one_call(self, group):
        """Lists of every length, degenerate ones beside ordinary ones,
        summed in one kernel call: each must be its own affine chain."""
        g = group.generator()
        a, b = g * 1234567, g * 7654321
        ordinary = [g * _rng.randrange(1, CURVE_ORDER) for _ in range(9)]
        lists = [
            [],
            ordinary[:5],
            [a, a],
            [a, -a],
            [],
            [a, -a, b],
            ordinary,
            [a, b, a + b],
            [a],
            [a, a, a, a],
            ordinary[:2],
            [a, -a, a, -a],
        ]
        sums = sum_affine_lists(
            [[point.affine() for point in points] for points in lists]
        )
        assert len(sums) == len(lists)
        for points, total in zip(lists, sums):
            expected = self._chain(group, points)
            assert group.from_affine(total).to_bytes() == expected.to_bytes()
            assert (total is None) == expected.is_infinity()

    def test_fixed_base_powers_are_byte_identical(self, group, bn254_backend):
        g = group.generator()
        powers = (
            bn254_backend.g1_powers if group is G1Point
            else bn254_backend.g2_powers
        )
        exponents = [0, 1, 15, 16, 17, 127, 128, 129, 255, 256, 2**252,
                     CURVE_ORDER - 1, CURVE_ORDER,
                     _rng.randrange(CURVE_ORDER), -3]
        for exponent, point in zip(exponents, powers(exponents)):
            assert point.to_bytes() == (g * exponent).to_bytes()
