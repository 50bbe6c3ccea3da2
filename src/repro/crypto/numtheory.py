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


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return ``(g, x, y)`` with ``a*x + b*y == g``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    return old_r, old_s, old_t


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


def legendre_symbol(a: int, p: int) -> int:
    """Return the Legendre symbol ``(a|p)`` for odd prime ``p``."""
    a %= p
    if a == 0:
        return 0
    result = pow(a, (p - 1) // 2, p)
    return -1 if result == p - 1 else result


def tonelli_shanks(a: int, p: int) -> int:
    """Return a square root of ``a`` modulo the odd prime ``p``.

    Raises :class:`FieldError` if ``a`` is a quadratic non-residue.
    """
    a %= p
    if a == 0:
        return 0
    if legendre_symbol(a, p) != 1:
        raise FieldError(f"{a} is not a quadratic residue modulo {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Factor p - 1 = q * 2**s with q odd.
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # Find a non-residue z.
    z = 2
    while legendre_symbol(z, p) != -1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        # Find least i with t^(2^i) == 1.
        i = 0
        t2i = t
        while t2i != 1:
            t2i = (t2i * t2i) % p
            i += 1
            if i == m:
                raise FieldError("Tonelli-Shanks failed (input not a residue)")
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = (b * b) % p
        t = (t * c) % p
        r = (r * b) % p
    return r


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """Combine ``x ≡ r1 (mod m1)`` and ``x ≡ r2 (mod m2)`` for coprime moduli.

    Returns ``(x, m1*m2)``.
    """
    g, p, _ = egcd(m1, m2)
    if g != 1:
        raise FieldError("CRT moduli must be coprime")
    lcm = m1 * m2
    x = (r1 + (r2 - r1) * p % m2 * m1) % lcm
    return x, lcm


def random_zq(modulus: int, rng: random.Random) -> int:
    """Sample a uniform element of ``Z_modulus`` from ``rng``."""
    return rng.randrange(modulus)


def random_zq_nonzero(modulus: int, rng: random.Random) -> int:
    """Sample a uniform element of ``Z_modulus \\ {0}`` from ``rng``."""
    return rng.randrange(1, modulus)
