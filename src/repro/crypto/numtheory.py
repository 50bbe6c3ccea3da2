"""Number-theoretic primitives used throughout the crypto substrate.

All functions operate on plain Python integers so they work at any size,
including the 254-bit BN254 field and group orders.
"""

from __future__ import annotations

import random

from repro.errors import FieldError

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)


def mod_inverse(a: int, modulus: int) -> int:
    """Return the inverse of ``a`` modulo ``modulus``.

    Raises :class:`FieldError` if ``a`` is not invertible.
    """
    try:
        return pow(a, -1, modulus)
    except ValueError:
        a %= modulus
        if a == 0:
            raise FieldError("0 has no modular inverse") from None
        raise FieldError(
            f"{a} is not invertible modulo {modulus}"
        ) from None


def signed_window_digits(k: int, width: int) -> list[int]:
    """Width-``width`` non-adjacent form of ``k >= 0``, LSB first: every
    nonzero digit is odd with ``|digit| < 2**(width - 1)`` and is
    followed by at least ``width - 1`` zeros.

    ``k == sum(d * 2**i for i, d in enumerate(digits))``; the nonzero
    density is ``1 / (width + 1)``, paid for with a table of the odd
    multiples below ``2**(width - 1)`` and cheap negation.
    """
    if k < 0:
        raise FieldError("NAF recoding expects a non-negative scalar")
    window = 1 << width
    digits = []
    while k:
        if k & 1:
            digit = k & (window - 1)
            if digit >= window >> 1:
                digit -= window
            k -= digit
        else:
            digit = 0
        digits.append(digit)
        k >>= 1
    return digits


def naf_digits(k: int) -> list[int]:
    """Non-adjacent form of ``k >= 0``: digits in ``{-1, 0, 1}``, LSB first.

    ``k == sum(d * 2**i for i, d in enumerate(digits))`` and no two
    consecutive digits are nonzero, so the expected nonzero-digit density
    drops from 1/2 (binary) to 1/3 — fewer group additions in a
    double-and-add ladder, at the price of needing cheap negation.
    """
    return signed_window_digits(k, 2)


def is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller-Rabin primality test with ``rounds`` random bases.

    Deterministic-looking in practice: the failure probability is at most
    ``4**-rounds`` per call.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n - 1 = d * 2**r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.Random(0xC0FFEE ^ n)
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True

