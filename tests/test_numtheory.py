"""Unit tests for repro.crypto.numtheory."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import numtheory as nt
from repro.crypto.params import CURVE_ORDER, FIELD_MODULUS
from repro.errors import FieldError


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

