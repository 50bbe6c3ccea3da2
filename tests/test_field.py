"""Unit and property tests for the BN254 field tower."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.field import XI, Fp2, Fp6, Fp12, P
from repro.errors import FieldError

_rng = random.Random(42)


def _random_fp2(rng=_rng) -> Fp2:
    return Fp2(rng.randrange(P), rng.randrange(P))


def _random_fp6(rng=_rng) -> Fp6:
    return Fp6(_random_fp2(rng), _random_fp2(rng), _random_fp2(rng))


def _random_fp12(rng=_rng) -> Fp12:
    return Fp12(_random_fp6(rng), _random_fp6(rng))


fp2_elements = st.builds(
    Fp2, st.integers(min_value=0, max_value=P - 1),
    st.integers(min_value=0, max_value=P - 1),
)


class TestFp2:
    def test_u_squared_is_minus_one(self):
        u = Fp2(0, 1)
        assert u * u == Fp2(-1)

    def test_add_sub_round_trip(self):
        a, b = _random_fp2(), _random_fp2()
        assert (a + b) - b == a

    def test_mul_commutative(self):
        a, b = _random_fp2(), _random_fp2()
        assert a * b == b * a

    def test_mul_one(self):
        a = _random_fp2()
        assert a * Fp2.one() == a

    def test_square_matches_mul(self):
        a = _random_fp2()
        assert a.square() == a * a

    def test_inverse(self):
        a = _random_fp2()
        assert a * a.inverse() == Fp2.one()

    def test_inverse_zero_raises(self):
        with pytest.raises(FieldError):
            Fp2.zero().inverse()

    def test_conjugate_is_frobenius(self):
        a = _random_fp2()
        assert a.conjugate() == a.pow(P)

    def test_pow_negative(self):
        a = _random_fp2()
        assert a.pow(-1) == a.inverse()

    @given(fp2_elements, fp2_elements, fp2_elements)
    @settings(max_examples=25, deadline=None)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    def test_fermat_little(self):
        # a^(p^2) == a in Fp2.
        a = _random_fp2()
        assert a.pow(P * P) == a


class TestFp6:
    def test_v_cubed_is_xi(self):
        v = Fp6(Fp2.zero(), Fp2.one(), Fp2.zero())
        v3 = v * v * v
        assert v3 == Fp6(XI, Fp2.zero(), Fp2.zero())

    def test_inverse(self):
        a = _random_fp6()
        assert a * a.inverse() == Fp6.one()

    def test_mul_associative(self):
        a, b, c = _random_fp6(), _random_fp6(), _random_fp6()
        assert (a * b) * c == a * (b * c)

    def test_frobenius_is_p_power(self):
        # Verify on a few random elements that frobenius(a) == a^p by
        # checking multiplicativity + agreement on Fp2-embedded elements.
        a, b = _random_fp6(), _random_fp6()
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()
        c = Fp2(12345, 678)
        embedded = Fp6(c, Fp2.zero(), Fp2.zero())
        assert embedded.frobenius() == Fp6(c.conjugate(), Fp2.zero(), Fp2.zero())

    def test_frobenius_order_six(self):
        a = _random_fp6()
        result = a
        for _ in range(6):
            result = result.frobenius()
        assert result == a


class TestFp12:
    def test_w_squared_is_v(self):
        w = Fp12(Fp6.zero(), Fp6.one())
        v = Fp12(Fp6(Fp2.zero(), Fp2.one(), Fp2.zero()), Fp6.zero())
        assert w * w == v

    def test_w_sixth_is_xi(self):
        w = Fp12(Fp6.zero(), Fp6.one())
        w6 = w.pow(6)
        assert w6 == Fp12(Fp6(XI, Fp2.zero(), Fp2.zero()), Fp6.zero())

    def test_inverse(self):
        a = _random_fp12()
        assert a * a.inverse() == Fp12.one()

    def test_square_matches_mul(self):
        a = _random_fp12()
        assert a.square() == a * a

    def test_conjugate_is_p6_power(self):
        a = _random_fp12()
        frob6 = a
        for _ in range(6):
            frob6 = frob6.frobenius()
        assert a.conjugate() == frob6

    def test_frobenius_multiplicative(self):
        a, b = _random_fp12(), _random_fp12()
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()

    def test_frobenius_order_twelve(self):
        a = _random_fp12()
        result = a
        for _ in range(12):
            result = result.frobenius()
        assert result == a

    def test_frobenius_agrees_with_pow_on_base(self):
        a = Fp12.from_int(987654321)
        assert a.frobenius() == a  # base-field elements are fixed by Frobenius

    def test_pow_addition_law(self):
        a = _random_fp12()
        assert a.pow(13) * a.pow(29) == a.pow(42)

    def test_pow_zero(self):
        a = _random_fp12()
        assert a.pow(0) == Fp12.one()

    def test_to_bytes_round_trip_equality(self):
        a = _random_fp12()
        b = Fp12(a.b0, a.b1)
        assert a.to_bytes() == b.to_bytes()
        assert len(a.to_bytes()) == 384

    def test_hashable(self):
        a = _random_fp12()
        b = Fp12(a.b0, a.b1)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_frobenius_is_actual_p_power(self):
        """The definitive check: frobenius(a) == a^p for a random element."""
        a = _random_fp12()
        assert a.frobenius() == a.pow(P)


# ---------------------------------------------------------------------
# The flat Fp12 kernel against an independent model.
#
# Fp12 is also Fp[w] / (w^12 - 18 w^6 + 82): w^6 = xi = 9 + u gives
# u = w^6 - 9, and u^2 = -1 becomes the modulus.  The model multiplies
# degree-11 polynomials the schoolbook way and reduces after every
# product — no tower, no Karatsuba, no lazy reduction.
# ---------------------------------------------------------------------

#: Exponent of ``w`` carried by each Fp2 coefficient, in the order
#: ``Fp12.to_bytes`` writes them (b0.a0, b0.a1, b0.a2, b1.a0, b1.a1, b1.a2).
_W_POWERS = (0, 2, 4, 1, 3, 5)


def _fp12_from_ints(values) -> Fp12:
    pairs = [Fp2(values[i], values[i + 1]) for i in range(0, 12, 2)]
    return Fp12(Fp6(*pairs[:3]), Fp6(*pairs[3:]))


def _to_poly(element: Fp12) -> list[int]:
    data = element.to_bytes()
    ints = [int.from_bytes(data[i:i + 32], "big") for i in range(0, 384, 32)]
    poly = [0] * 12
    for index, power in enumerate(_W_POWERS):
        x, y = ints[2 * index], ints[2 * index + 1]
        # (x + y u) w^k = (x - 9 y) w^k + y w^(k+6)
        poly[power] = (x - 9 * y) % P
        poly[power + 6] = y
    return poly


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * 23
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % P
    for k in range(22, 11, -1):  # w^12 = 18 w^6 - 82
        out[k - 6] = (out[k - 6] + 18 * out[k]) % P
        out[k - 12] = (out[k - 12] - 82 * out[k]) % P
    return out[:12]


def _poly_pow(a: list[int], exponent: int) -> list[int]:
    result = [1] + [0] * 11
    for bit in bin(exponent)[2:]:
        result = _poly_mul(result, result)
        if bit == "1":
            result = _poly_mul(result, a)
    return result


_coefficient = st.integers(min_value=0, max_value=P - 1)
_edge_or_random = st.one_of(
    st.sampled_from([
        [P - 1] * 12,                    # every lazy sum at its largest
        [0] * 12,
        [1] + [0] * 11,
        [0] * 6 + [P - 1] + [0] * 5,     # a lone w
        [P - 1, 0] * 6,
        [0, P - 1] * 6,
    ]),
    st.lists(_coefficient, min_size=12, max_size=12),
)
fp12_elements = _edge_or_random.map(_fp12_from_ints)


class TestFlatKernelAgainstSchoolbookModel:
    @given(fp12_elements, fp12_elements)
    @settings(max_examples=60, deadline=None)
    def test_mul(self, a, b):
        assert _to_poly(a * b) == _poly_mul(_to_poly(a), _to_poly(b))

    @given(fp12_elements)
    @settings(max_examples=60, deadline=None)
    def test_square(self, a):
        assert _to_poly(a.square()) == _poly_mul(_to_poly(a), _to_poly(a))

    @given(fp12_elements, _coefficient, fp2_elements, fp2_elements)
    @settings(max_examples=60, deadline=None)
    def test_mul_by_line(self, f, a, b, c):
        line = [0] * 12   # a + b w + c v w, and v w = w^3
        line[0] = a
        line[1], line[7] = (b.c0 - 9 * b.c1) % P, b.c1
        line[3], line[9] = (c.c0 - 9 * c.c1) % P, c.c1
        assert _to_poly(f.mul_by_line(a, b, c)) == _poly_mul(_to_poly(f), line)

    def test_mul_by_line_at_the_largest_inputs(self):
        top = Fp2(P - 1, P - 1)
        f = _fp12_from_ints([P - 1] * 12)
        line = [0] * 12
        line[0] = P - 1
        line[1] = line[3] = (P - 1 - 9 * (P - 1)) % P
        line[7] = line[9] = P - 1
        assert _to_poly(f.mul_by_line(P - 1, top, top)) == _poly_mul(
            _to_poly(f), line
        )

    @given(fp12_elements)
    @settings(max_examples=40, deadline=None)
    def test_inverse(self, a):
        if a.is_zero():
            with pytest.raises(FieldError):
                a.inverse()
            return
        product = _poly_mul(_to_poly(a), _to_poly(a.inverse()))
        assert product == [1] + [0] * 11

    @given(fp12_elements)
    @settings(max_examples=40, deadline=None)
    def test_conjugate(self, a):
        # b0 - b1 w: the odd powers of w change sign.
        expected = [
            -x % P if power % 2 else x
            for power, x in enumerate(_to_poly(a))
        ]
        assert _to_poly(a.conjugate()) == expected

    @given(fp12_elements)
    @settings(max_examples=8, deadline=None)
    def test_frobenius(self, a):
        assert _to_poly(a.frobenius()) == _poly_pow(_to_poly(a), P)

    @given(fp12_elements, fp12_elements)
    @settings(max_examples=40, deadline=None)
    def test_add_sub_neg(self, a, b):
        pa, pb = _to_poly(a), _to_poly(b)
        assert _to_poly(a + b) == [(x + y) % P for x, y in zip(pa, pb)]
        assert _to_poly(a - b) == [(x - y) % P for x, y in zip(pa, pb)]
        assert _to_poly(-a) == [-x % P for x in pa]

    def test_tower_views_round_trip(self):
        a = _random_fp12()
        assert Fp12(a.b0, a.b1) == a
        # Fp6 sits inside Fp12 as the w-free elements.
        assert Fp12(a.b0, Fp6.zero()) * Fp12(a.b1, Fp6.zero()) == Fp12(
            a.b0 * a.b1, Fp6.zero()
        )


class TestCyclotomicSquare:
    @staticmethod
    def _easy_part(f: Fp12) -> Fp12:
        t = f.conjugate() * f.inverse()
        return t.frobenius().frobenius() * t

    @given(fp12_elements)
    @settings(max_examples=25, deadline=None)
    def test_equals_square_after_the_easy_part(self, f):
        if f.is_zero():
            return
        t = self._easy_part(f)
        assert t.cyclotomic_square() == t.square()
        assert _to_poly(t.cyclotomic_square()) == _poly_mul(
            _to_poly(t), _to_poly(t)
        )

    def test_not_valid_on_a_generic_element(self):
        # Granger-Scott squaring uses the relations an element of the
        # cyclotomic subgroup satisfies (a^(p^6+1) = 1 and
        # a^(p^4-p^2+1) = 1) to drop half the products; w alone
        # satisfies neither, and the shortcut returns something else
        # than w^2 = v.  Hence: only ever after the easy part.
        w = Fp12(Fp6.zero(), Fp6.one())
        assert w.cyclotomic_square() != w.square()
        a = _random_fp12()
        assert a.cyclotomic_square() != a.square()
