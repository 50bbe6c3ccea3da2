"""Unit tests for repro.crypto.numtheory."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import numtheory as nt
from repro.crypto.params import CURVE_ORDER, FIELD_MODULUS
from repro.errors import FieldError


class TestEgcd:
    def test_bezout_identity(self):
        g, x, y = nt.egcd(240, 46)
        assert g == 2
        assert 240 * x + 46 * y == g

    def test_coprime(self):
        g, x, y = nt.egcd(17, 31)
        assert g == 1
        assert 17 * x + 31 * y == 1

    @given(st.integers(min_value=1, max_value=10**12),
           st.integers(min_value=1, max_value=10**12))
    def test_bezout_property(self, a, b):
        g, x, y = nt.egcd(a, b)
        assert a * x + b * y == g
        assert a % g == 0 and b % g == 0


class TestModInverse:
    def test_small(self):
        assert nt.mod_inverse(3, 7) == 5

    def test_round_trip_large(self):
        a = 123456789123456789
        inv = nt.mod_inverse(a, CURVE_ORDER)
        assert a * inv % CURVE_ORDER == 1

    def test_zero_raises(self):
        for zero in (0, 7, -14):
            with pytest.raises(FieldError, match="^0 has no modular inverse$"):
                nt.mod_inverse(zero, 7)

    def test_non_invertible_raises(self):
        with pytest.raises(FieldError, match="^6 is not invertible modulo 9$"):
            nt.mod_inverse(6, 9)
        with pytest.raises(FieldError, match="^6 is not invertible modulo 9$"):
            nt.mod_inverse(-3, 9)

    def test_negative_and_oversized_inputs(self):
        assert nt.mod_inverse(-3, 7) == nt.mod_inverse(4, 7) == 2
        assert nt.mod_inverse(3 + 7 * 10**30, 7) == 5

    @given(st.integers(min_value=1, max_value=CURVE_ORDER - 1))
    def test_inverse_property(self, a):
        assert a * nt.mod_inverse(a, CURVE_ORDER) % CURVE_ORDER == 1


class TestPrimality:
    def test_known_primes(self):
        for p in (2, 3, 5, 7, 97, 2**61 - 1, FIELD_MODULUS, CURVE_ORDER):
            assert nt.is_probable_prime(p), p

    def test_known_composites(self):
        for n in (0, 1, 4, 9, 561, 2**61 + 1, FIELD_MODULUS - 1):
            assert not nt.is_probable_prime(n), n

    def test_carmichael_numbers(self):
        # Fermat pseudoprimes that Miller-Rabin must reject.
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not nt.is_probable_prime(n), n


class TestLegendreAndSqrt:
    def test_legendre_values(self):
        p = 23
        residues = {pow(x, 2, p) for x in range(1, p)}
        for a in range(1, p):
            expected = 1 if a in residues else -1
            assert nt.legendre_symbol(a, p) == expected

    def test_sqrt_3_mod_4(self):
        p = 23  # 23 % 4 == 3
        r = nt.tonelli_shanks(2, p)
        assert r * r % p == 2

    def test_sqrt_1_mod_4(self):
        p = 13  # 13 % 4 == 1
        r = nt.tonelli_shanks(4, p)
        assert r * r % p == 4

    def test_sqrt_non_residue_raises(self):
        with pytest.raises(FieldError):
            nt.tonelli_shanks(5, 23)

    def test_sqrt_zero(self):
        assert nt.tonelli_shanks(0, 23) == 0

    @given(st.integers(min_value=1, max_value=FIELD_MODULUS - 1))
    def test_sqrt_of_square(self, x):
        a = x * x % FIELD_MODULUS
        r = nt.tonelli_shanks(a, FIELD_MODULUS)
        assert r * r % FIELD_MODULUS == a


class TestSignedWindowDigits:
    @given(st.integers(min_value=0, max_value=2**256),
           st.integers(min_value=2, max_value=5))
    def test_reconstructs_with_sparse_odd_digits(self, k, width):
        digits = nt.signed_window_digits(k, width)
        assert sum(d << i for i, d in enumerate(digits)) == k
        assert all(d % 2 and abs(d) < 1 << (width - 1) for d in digits if d)
        # A nonzero digit is followed by at least width - 1 zeros.
        nonzero = [i for i, d in enumerate(digits) if d]
        assert all(b - a >= width for a, b in zip(nonzero, nonzero[1:]))
        assert not digits or digits[-1] > 0

    def test_rejects_negative(self):
        with pytest.raises(FieldError):
            nt.signed_window_digits(-1, 3)


class TestCrt:
    def test_pair(self):
        x, m = nt.crt_pair(2, 3, 3, 5)
        assert m == 15
        assert x % 3 == 2 and x % 5 == 3

    def test_non_coprime_raises(self):
        with pytest.raises(FieldError):
            nt.crt_pair(1, 4, 3, 6)


class TestSampling:
    def test_random_zq_range(self):
        rng = random.Random(1)
        values = [nt.random_zq(97, rng) for _ in range(500)]
        assert all(0 <= v < 97 for v in values)
        assert len(set(values)) > 50

    def test_random_nonzero(self):
        rng = random.Random(2)
        values = [nt.random_zq_nonzero(5, rng) for _ in range(200)]
        assert all(1 <= v < 5 for v in values)
