"""Extension-field tower for BN254: Fp2, Fp6 and Fp12.

The tower is the standard one for BN curves:

- ``Fp2  = Fp[u]  / (u^2 + 1)``
- ``Fp6  = Fp2[v] / (v^3 - xi)`` with ``xi = 9 + u``
- ``Fp12 = Fp6[w] / (w^2 - v)``

Elements are immutable; all operators return new objects.  Base-field
coefficients are plain Python ints reduced modulo ``FIELD_MODULUS``.

``Fp2`` and ``Fp6`` are small objects.  ``Fp12`` — the only level the
pairing multiplies in — is *flat*: twelve ints, its products unrolled
integer code over them (Karatsuba at every level of the tower) with
*lazy reduction*: intermediates stay signed ~512-bit integers and each
output coefficient is reduced modulo ``P`` exactly once.  No ``Fp2`` or
``Fp6`` object is created inside an ``Fp12`` operation.

Frobenius endomorphisms use coefficients computed once at import time
(powers of ``xi``), so no magic constants are hard-coded.
"""

from __future__ import annotations

from repro.crypto.numtheory import mod_inverse
from repro.crypto.params import FIELD_MODULUS, XI_A0, XI_A1
from repro.errors import FieldError

P = FIELD_MODULUS

if (XI_A0, XI_A1) != (9, 1):  # the unrolled Fp6/Fp12 code spells xi out
    raise FieldError("the flat Fp12 kernel is written for xi = 9 + u")


class Fp2:
    """An element ``c0 + c1*u`` of ``Fp2 = Fp[u]/(u^2+1)``."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0: int, c1: int = 0):
        self.c0 = c0 % P
        self.c1 = c1 % P

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "Fp2":
        return Fp2(0, 0)

    @staticmethod
    def one() -> "Fp2":
        return Fp2(1, 0)

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fp2):
            return NotImplemented
        return self.c0 == other.c0 and self.c1 == other.c1

    def __hash__(self) -> int:
        return hash((self.c0, self.c1))

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "Fp2") -> "Fp2":
        return Fp2(self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other: "Fp2") -> "Fp2":
        return Fp2(self.c0 - other.c0, self.c1 - other.c1)

    def __neg__(self) -> "Fp2":
        return Fp2(-self.c0, -self.c1)

    def __mul__(self, other: "Fp2") -> "Fp2":
        # Karatsuba over u^2 = -1.
        a0, a1 = self.c0, self.c1
        b0, b1 = other.c0, other.c1
        t0 = a0 * b0
        t1 = a1 * b1
        t2 = (a0 + a1) * (b0 + b1)
        return Fp2(t0 - t1, t2 - t0 - t1)

    def mul_scalar(self, k: int) -> "Fp2":
        return Fp2(self.c0 * k, self.c1 * k)

    def square(self) -> "Fp2":
        # (a0 + a1 u)^2 = (a0+a1)(a0-a1) + 2 a0 a1 u.
        a0, a1 = self.c0, self.c1
        return Fp2((a0 + a1) * (a0 - a1), 2 * a0 * a1)

    def conjugate(self) -> "Fp2":
        """The Frobenius map on Fp2 (``u -> -u``)."""
        return Fp2(self.c0, -self.c1)

    def inverse(self) -> "Fp2":
        norm = (self.c0 * self.c0 + self.c1 * self.c1) % P
        if norm == 0:
            raise FieldError("cannot invert zero in Fp2")
        inv_norm = mod_inverse(norm, P)
        return Fp2(self.c0 * inv_norm, -self.c1 * inv_norm)

    def pow(self, exponent: int) -> "Fp2":
        if exponent < 0:
            return self.inverse().pow(-exponent)
        result = Fp2.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base.square()
            e >>= 1
        return result

    def __repr__(self) -> str:
        return f"Fp2({self.c0}, {self.c1})"

    def to_tuple(self) -> tuple[int, int]:
        return (self.c0, self.c1)


XI = Fp2(XI_A0, XI_A1)


def _mul6(a0, a1, a2, a3, a4, a5, b0, b1, b2, b3, b4, b5):
    """Fp6 product on raw coefficients, **unreduced**.

    ``(a0 + a1 u) + (a2 + a3 u) v + (a4 + a5 u) v^2`` times the same
    shape in ``b``: Karatsuba over ``v`` and again inside each of the six
    Fp2 products, 18 integer multiplications in all.  The caller reduces
    each output once.
    """
    p, q = a0 * b0, a1 * b1
    t00, t01 = p - q, (a0 + a1) * (b0 + b1) - p - q
    p, q = a2 * b2, a3 * b3
    t10, t11 = p - q, (a2 + a3) * (b2 + b3) - p - q
    p, q = a4 * b4, a5 * b5
    t20, t21 = p - q, (a4 + a5) * (b4 + b5) - p - q
    x0, x1, y0, y1 = a2 + a4, a3 + a5, b2 + b4, b3 + b5
    p, q = x0 * y0, x1 * y1
    m0, m1 = p - q - t10 - t20, (x0 + x1) * (y0 + y1) - p - q - t11 - t21
    x0, x1, y0, y1 = a0 + a2, a1 + a3, b0 + b2, b1 + b3
    p, q = x0 * y0, x1 * y1
    n0, n1 = p - q - t00 - t10, (x0 + x1) * (y0 + y1) - p - q - t01 - t11
    x0, x1, y0, y1 = a0 + a4, a1 + a5, b0 + b4, b1 + b5
    p, q = x0 * y0, x1 * y1
    return (
        t00 + 9 * m0 - m1, t01 + 9 * m1 + m0,
        n0 + 9 * t20 - t21, n1 + 9 * t21 + t20,
        p - q - t00 - t20 + t10,
        (x0 + x1) * (y0 + y1) - p - q - t01 - t21 + t11,
    )


def _mul6_sparse(a0, a1, a2, a3, a4, a5, b0, b1, c0, c1):
    """``(A0 + A1 v + A2 v^2) * (B + C v)`` on raw coefficients, unreduced."""
    p0, p1 = a4 * c0 - a5 * c1, a4 * c1 + a5 * c0
    return (
        a0 * b0 - a1 * b1 + 9 * p0 - p1, a0 * b1 + a1 * b0 + 9 * p1 + p0,
        a0 * c0 - a1 * c1 + a2 * b0 - a3 * b1,
        a0 * c1 + a1 * c0 + a2 * b1 + a3 * b0,
        a2 * c0 - a3 * c1 + a4 * b0 - a5 * b1,
        a2 * c1 + a3 * c0 + a4 * b1 + a5 * b0,
    )


def _inv6(a0, a1, a2, a3, a4, a5):
    """Fp6 inverse on raw coefficients (reduced in, reduced out)."""
    # Cofactors T0 = A0^2 - xi A1 A2, T1 = xi A2^2 - A0 A1, T2 = A1^2 - A0 A2.
    p0, p1 = a2 * a4 - a3 * a5, a2 * a5 + a3 * a4
    q0, q1 = (a4 + a5) * (a4 - a5), 2 * a4 * a5
    t = (
        ((a0 + a1) * (a0 - a1) - 9 * p0 + p1) % P,
        (2 * a0 * a1 - 9 * p1 - p0) % P,
        (9 * q0 - q1 - a0 * a2 + a1 * a3) % P,
        (9 * q1 + q0 - a0 * a3 - a1 * a2) % P,
        ((a2 + a3) * (a2 - a3) - a0 * a4 + a1 * a5) % P,
        (2 * a2 * a3 - a0 * a5 - a1 * a4) % P,
    )
    # A * T is the norm N = A0 T0 + xi (A2 T1 + A1 T2), an Fp2 element.
    n0, n1 = _mul6(a0, a1, a2, a3, a4, a5, *t)[:2]
    norm = (n0 * n0 + n1 * n1) % P
    if norm == 0:
        raise FieldError("cannot invert zero in Fp2")
    inv = mod_inverse(norm, P)
    # T / N, as the Fp6 product of T with the constant 1 / N.
    scaled = _mul6(*t, n0 * inv % P, -n1 * inv % P, 0, 0, 0, 0)
    return tuple(x % P for x in scaled)


class Fp6:
    """An element ``a0 + a1*v + a2*v^2`` of ``Fp6 = Fp2[v]/(v^3 - xi)``."""

    __slots__ = ("a0", "a1", "a2")

    def __init__(self, a0: Fp2, a1: Fp2, a2: Fp2):
        self.a0 = a0
        self.a1 = a1
        self.a2 = a2

    @staticmethod
    def zero() -> "Fp6":
        return Fp6(Fp2.zero(), Fp2.zero(), Fp2.zero())

    @staticmethod
    def one() -> "Fp6":
        return Fp6(Fp2.one(), Fp2.zero(), Fp2.zero())

    @staticmethod
    def _from_flat(c) -> "Fp6":
        return Fp6(Fp2(c[0], c[1]), Fp2(c[2], c[3]), Fp2(c[4], c[5]))

    def _flat(self) -> tuple[int, ...]:
        a0, a1, a2 = self.a0, self.a1, self.a2
        return (a0.c0, a0.c1, a1.c0, a1.c1, a2.c0, a2.c1)

    def is_zero(self) -> bool:
        return self.a0.is_zero() and self.a1.is_zero() and self.a2.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fp6):
            return NotImplemented
        return self.a0 == other.a0 and self.a1 == other.a1 and self.a2 == other.a2

    def __hash__(self) -> int:
        return hash((self.a0, self.a1, self.a2))

    def __add__(self, other: "Fp6") -> "Fp6":
        return Fp6(self.a0 + other.a0, self.a1 + other.a1, self.a2 + other.a2)

    def __sub__(self, other: "Fp6") -> "Fp6":
        return Fp6(self.a0 - other.a0, self.a1 - other.a1, self.a2 - other.a2)

    def __neg__(self) -> "Fp6":
        return Fp6(-self.a0, -self.a1, -self.a2)

    def __mul__(self, other: "Fp6") -> "Fp6":
        return Fp6._from_flat(_mul6(*self._flat(), *other._flat()))

    def inverse(self) -> "Fp6":
        return Fp6._from_flat(_inv6(*self._flat()))

    def frobenius(self) -> "Fp6":
        """The p-power Frobenius endomorphism on Fp6."""
        return Fp6(
            self.a0.conjugate(),
            self.a1.conjugate() * _GAMMA_6_1,
            self.a2.conjugate() * _GAMMA_6_2,
        )

    def __repr__(self) -> str:
        return f"Fp6({self.a0!r}, {self.a1!r}, {self.a2!r})"


def fp12_mul(a, b):
    """Product of two flat Fp12 coefficient tuples (Karatsuba over ``w``)."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11 = b
    t0, t1, t2, t3, t4, t5 = _mul6(a0, a1, a2, a3, a4, a5,
                                   b0, b1, b2, b3, b4, b5)
    u0, u1, u2, u3, u4, u5 = _mul6(a6, a7, a8, a9, a10, a11,
                                   b6, b7, b8, b9, b10, b11)
    m0, m1, m2, m3, m4, m5 = _mul6(
        a0 + a6, a1 + a7, a2 + a8, a3 + a9, a4 + a10, a5 + a11,
        b0 + b6, b1 + b7, b2 + b8, b3 + b9, b4 + b10, b5 + b11,
    )
    # (T + v U) + (M - T - U) w, with v * (U0, U1, U2) = (xi U2, U0, U1).
    return (
        (t0 + 9 * u4 - u5) % P, (t1 + 9 * u5 + u4) % P,
        (t2 + u0) % P, (t3 + u1) % P, (t4 + u2) % P, (t5 + u3) % P,
        (m0 - t0 - u0) % P, (m1 - t1 - u1) % P, (m2 - t2 - u2) % P,
        (m3 - t3 - u3) % P, (m4 - t4 - u4) % P, (m5 - t5 - u5) % P,
    )


def fp12_square(a):
    """Square of a flat Fp12 coefficient tuple (complex squaring)."""
    g0, g1, g2, g3, g4, g5, h0, h1, h2, h3, h4, h5 = a
    t0, t1, t2, t3, t4, t5 = _mul6(g0, g1, g2, g3, g4, g5,
                                   h0, h1, h2, h3, h4, h5)
    # (G + H)(G + v H) - T - v T  +  2 T w.
    m0, m1, m2, m3, m4, m5 = _mul6(
        g0 + h0, g1 + h1, g2 + h2, g3 + h3, g4 + h4, g5 + h5,
        g0 + 9 * h4 - h5, g1 + 9 * h5 + h4, g2 + h0, g3 + h1, g4 + h2, g5 + h3,
    )
    return (
        (m0 - t0 - 9 * t4 + t5) % P, (m1 - t1 - 9 * t5 - t4) % P,
        (m2 - t2 - t0) % P, (m3 - t3 - t1) % P,
        (m4 - t4 - t2) % P, (m5 - t5 - t3) % P,
        2 * t0 % P, 2 * t1 % P, 2 * t2 % P, 2 * t3 % P, 2 * t4 % P, 2 * t5 % P,
    )


def fp12_mul_by_line(f, a, b0, b1, c0, c1):
    """Flat ``f`` times the sparse line ``a + (b0 + b1 u) w + (c0 + c1 u) v w``.

    ``a`` is a base-field scalar (the G1 y-coordinate): twelve scalar
    products plus two sparse Fp6 products, about half a generic product.
    """
    g0, g1, g2, g3, g4, g5, h0, h1, h2, h3, h4, h5 = f
    s0, s1, s2, s3, s4, s5 = _mul6_sparse(h0, h1, h2, h3, h4, h5, b0, b1, c0, c1)
    r0, r1, r2, r3, r4, r5 = _mul6_sparse(g0, g1, g2, g3, g4, g5, b0, b1, c0, c1)
    return (
        (a * g0 + 9 * s4 - s5) % P, (a * g1 + 9 * s5 + s4) % P,
        (a * g2 + s0) % P, (a * g3 + s1) % P,
        (a * g4 + s2) % P, (a * g5 + s3) % P,
        (a * h0 + r0) % P, (a * h1 + r1) % P, (a * h2 + r2) % P,
        (a * h3 + r3) % P, (a * h4 + r4) % P, (a * h5 + r5) % P,
    )


def _sqr4(x0, x1, y0, y1):
    """``(X + Y s)^2`` in ``Fp4 = Fp2[s]/(s^2 - xi)``, unreduced:
    ``X^2 + xi Y^2`` and ``2 X Y``."""
    q0, q1 = (y0 + y1) * (y0 - y1), 2 * y0 * y1
    return (
        (x0 + x1) * (x0 - x1) + 9 * q0 - q1, 2 * x0 * x1 + 9 * q1 + q0,
        2 * (x0 * y0 - x1 * y1), 2 * (x0 * y1 + x1 * y0),
    )


def fp12_cyclotomic_square(a):
    """Granger-Scott squaring of a flat element of the cyclotomic subgroup.

    Valid only where ``a^(p^6 + 1) = 1`` and ``a^(p^4 - p^2 + 1) = 1``
    (after the easy part of the final exponentiation): there the square
    is determined by three Fp4 squarings — six Fp2 squarings and three
    products against the twelve products of :func:`fp12_square`.
    """
    g0, g1, g2, g3, g4, g5, h0, h1, h2, h3, h4, h5 = a
    t0, t1, t2, t3 = _sqr4(g0, g1, h2, h3)
    t4, t5, t6, t7 = _sqr4(h0, h1, g4, g5)
    t8, t9, t10, t11 = _sqr4(g2, g3, h4, h5)
    return (
        (3 * t0 - 2 * g0) % P, (3 * t1 - 2 * g1) % P,
        (3 * t4 - 2 * g2) % P, (3 * t5 - 2 * g3) % P,
        (3 * t8 - 2 * g4) % P, (3 * t9 - 2 * g5) % P,
        (3 * (9 * t10 - t11) + 2 * h0) % P, (3 * (9 * t11 + t10) + 2 * h1) % P,
        (3 * t2 + 2 * h2) % P, (3 * t3 + 2 * h3) % P,
        (3 * t6 + 2 * h4) % P, (3 * t7 + 2 * h5) % P,
    )


_FP12_ONE = (1,) + (0,) * 11


class Fp12:
    """An element ``b0 + b1*w`` of ``Fp12 = Fp6[w]/(w^2 - v)``, held flat.

    ``c`` is the twelve base-field coefficients in serialization order —
    ``b0.a0.c0, b0.a0.c1, b0.a1.c0, ... b1.a2.c1`` — all reduced.  The
    arithmetic is the ``fp12_*`` functions above; ``b0``/``b1`` build the
    ``Fp6`` halves on demand for callers that want the tower view.
    """

    __slots__ = ("c",)

    def __init__(self, b0: Fp6, b1: Fp6):
        self.c = b0._flat() + b1._flat()

    @staticmethod
    def from_flat(c: tuple[int, ...]) -> "Fp12":
        """Wrap twelve reduced coefficients (``fp12_*`` output) as is."""
        element = Fp12.__new__(Fp12)
        element.c = c
        return element

    @property
    def b0(self) -> Fp6:
        return Fp6._from_flat(self.c[:6])

    @property
    def b1(self) -> Fp6:
        return Fp6._from_flat(self.c[6:])

    @staticmethod
    def zero() -> "Fp12":
        return _flat12((0,) * 12)

    @staticmethod
    def one() -> "Fp12":
        return _flat12(_FP12_ONE)

    @staticmethod
    def from_int(value: int) -> "Fp12":
        return _flat12((value % P,) + (0,) * 11)

    def is_zero(self) -> bool:
        return not any(self.c)

    def is_one(self) -> bool:
        return self.c == _FP12_ONE

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fp12):
            return NotImplemented
        return self.c == other.c

    def __hash__(self) -> int:
        return hash(self.c)

    def __add__(self, other: "Fp12") -> "Fp12":
        return _flat12(tuple((x + y) % P for x, y in zip(self.c, other.c)))

    def __sub__(self, other: "Fp12") -> "Fp12":
        return _flat12(tuple((x - y) % P for x, y in zip(self.c, other.c)))

    def __neg__(self) -> "Fp12":
        return _flat12(tuple(-x % P for x in self.c))

    def __mul__(self, other: "Fp12") -> "Fp12":
        return _flat12(fp12_mul(self.c, other.c))

    def square(self) -> "Fp12":
        return _flat12(fp12_square(self.c))

    def cyclotomic_square(self) -> "Fp12":
        """:meth:`square` for an element of the cyclotomic subgroup only
        (see :func:`fp12_cyclotomic_square`)."""
        return _flat12(fp12_cyclotomic_square(self.c))

    def conjugate(self) -> "Fp12":
        """The ``p^6``-power map (unitary conjugation)."""
        c = self.c
        return _flat12(c[:6] + tuple(-x % P for x in c[6:]))

    def mul_by_line(self, a: int, b: Fp2, c: Fp2) -> "Fp12":
        """Multiply by the sparse line value ``a + b*w + c*(v*w)``.

        ``a`` lives in the base field (the G1 y-coordinate); ``b`` and
        ``c`` are the Fp2 line coefficients produced by the optimized
        Miller loop.
        """
        return _flat12(fp12_mul_by_line(self.c, a, b.c0, b.c1, c.c0, c.c1))

    def inverse(self) -> "Fp12":
        c = self.c
        g, h = c[:6], c[6:]
        s0, s1, s2, s3, s4, s5 = _mul6(*g, *g)
        t0, t1, t2, t3, t4, t5 = _mul6(*h, *h)
        # 1 / (G + H w) = (G - H w) / (G^2 - v H^2).
        inv = _inv6(
            (s0 - 9 * t4 + t5) % P, (s1 - 9 * t5 - t4) % P,
            (s2 - t0) % P, (s3 - t1) % P, (s4 - t2) % P, (s5 - t3) % P,
        )
        return _flat12(
            tuple(x % P for x in _mul6(*g, *inv))
            + tuple(-x % P for x in _mul6(*h, *inv))
        )

    def frobenius(self) -> "Fp12":
        """The p-power Frobenius endomorphism on Fp12."""
        c = self.c
        out = []
        for i, (k0, k1) in enumerate(_FROBENIUS_12):
            x, y = c[2 * i], c[2 * i + 1]
            # conj(x + y u) * (k0 + k1 u)
            out.append((x * k0 + y * k1) % P)
            out.append((x * k1 - y * k0) % P)
        return _flat12(tuple(out))

    def pow(self, exponent: int) -> "Fp12":
        if exponent < 0:
            return self.inverse().pow(-exponent)
        result = Fp12.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base.square()
            e >>= 1
        return result

    def __pow__(self, exponent: int) -> "Fp12":
        return self.pow(exponent)

    def __repr__(self) -> str:
        return f"Fp12({self.b0!r}, {self.b1!r})"

    def to_bytes(self) -> bytes:
        """Canonical 384-byte serialization (12 coefficients, 32 bytes each)."""
        return b"".join(x.to_bytes(32, "big") for x in self.c)


_flat12 = Fp12.from_flat

# Frobenius coefficients, computed once from xi.  (p - 1) is divisible by 6
# for BN primes, so the exponents below are exact integers.
_GAMMA_12 = XI.pow((P - 1) // 6)      # w^(p-1)   = xi^((p-1)/6)
_GAMMA_6_1 = XI.pow((P - 1) // 3)     # v^(p-1)   = xi^((p-1)/3)
_GAMMA_6_2 = _GAMMA_6_1.square()      # v^(2(p-1))
# gamma^k for the powers 1, w^2, w^4, w, w^3, w^5 — the flat coefficient order.
_FROBENIUS_12 = tuple(
    _GAMMA_12.pow(k).to_tuple() for k in (0, 2, 4, 1, 3, 5)
)
