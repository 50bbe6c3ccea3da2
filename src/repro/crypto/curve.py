"""BN254 elliptic-curve groups G1 and G2.

``G1`` lives on ``y^2 = x^3 + 3`` over Fp; ``G2`` lives on the sextic
D-twist ``y^2 = x^3 + 3/xi`` over Fp2.  Points are immutable affine
points; the point at infinity is represented by ``x is None``.

The module also provides the *untwist* map sending a G2 point into the
curve over Fp12, which the pairing's line functions operate on.
"""

from __future__ import annotations

from repro.crypto.field import XI, Fp2, Fp6, Fp12
from repro.crypto.numtheory import mod_inverse, naf_digits
from repro.crypto.params import (
    CURVE_B,
    CURVE_ORDER,
    FIELD_MODULUS,
    G1_GENERATOR,
    G2_GENERATOR_X,
    G2_GENERATOR_Y,
)
from repro.errors import CurveError

P = FIELD_MODULUS

# Twist coefficient b' = 3 / xi in Fp2.
TWIST_B = Fp2(CURVE_B) * XI.inverse()


def _fp2_mul(a0, a1, b0, b1):
    return (a0 * b0 - a1 * b1) % P, (a0 * b1 + a1 * b0) % P


def _fp2_sqr(a0, a1):
    return (a0 + a1) * (a0 - a1) % P, 2 * a0 * a1 % P


def _sum_affine(points):
    """Sum affine points ``(x0, x1, y0, y1)`` over Fp2 in Jacobian
    coordinates: mixed additions, one inversion at the end.

    The law of ``y^2 = x^3 + b`` does not involve ``b``, so the same
    code serves the twist (G2) and, with zero imaginary parts, G1.
    Returns the affine sum, or ``None`` for the point at infinity.
    """
    X0 = X1 = Y0 = Y1 = Z0 = Z1 = 0
    for x0, x1, y0, y1 in points:
        if not (Z0 or Z1):
            X0, X1, Y0, Y1, Z0, Z1 = x0, x1, y0, y1, 1, 0
            continue
        zz = _fp2_sqr(Z0, Z1)
        u0, u1 = _fp2_mul(x0, x1, *zz)
        s0, s1 = _fp2_mul(y0, y1, *_fp2_mul(Z0, Z1, *zz))
        h0, h1, r0, r1 = (u0 - X0) % P, (u1 - X1) % P, s0 - Y0, s1 - Y1
        if not (h0 or h1):
            if r0 % P or r1 % P:  # T + (-T)
                Z0 = Z1 = 0
                continue
            # T + T: double the affine copy (a = 0, Z = 1).
            m0, m1 = _fp2_sqr(x0, x1)
            m0, m1 = 3 * m0, 3 * m1
            yy = _fp2_sqr(y0, y1)
            v0, v1 = _fp2_mul(4 * x0, 4 * x1, *yy)
            q0, q1 = _fp2_sqr(*yy)
            X0, X1 = _fp2_sqr(m0, m1)
            X0, X1 = (X0 - 2 * v0) % P, (X1 - 2 * v1) % P
            Y0, Y1 = _fp2_mul(m0, m1, v0 - X0, v1 - X1)
            Y0, Y1, Z0, Z1 = Y0 - 8 * q0, Y1 - 8 * q1, 2 * y0, 2 * y1
            continue
        hh = _fp2_sqr(h0, h1)
        c0, c1 = _fp2_mul(h0, h1, *hh)
        v0, v1 = _fp2_mul(X0, X1, *hh)
        X0, X1 = _fp2_sqr(r0, r1)
        X0, X1 = (X0 - c0 - 2 * v0) % P, (X1 - c1 - 2 * v1) % P
        t0, t1 = _fp2_mul(Y0, Y1, c0, c1)
        Y0, Y1 = _fp2_mul(r0, r1, v0 - X0, v1 - X1)
        Y0, Y1 = Y0 - t0, Y1 - t1
        Z0, Z1 = _fp2_mul(Z0, Z1, h0, h1)
    if not (Z0 or Z1):
        return None
    i0, i1 = Fp2(Z0, Z1).inverse().to_tuple()
    ii = _fp2_sqr(i0, i1)
    return _fp2_mul(X0, X1, *ii) + _fp2_mul(Y0, Y1, *_fp2_mul(i0, i1, *ii))


class G1Point:
    """An affine point on the BN254 curve over Fp."""

    __slots__ = ("x", "y")

    def __init__(self, x: int | None, y: int | None, check: bool = True):
        if x is None:
            self.x = None
            self.y = None
            return
        self.x = x % P
        self.y = y % P
        if check and not self._on_curve():
            raise CurveError(f"({x}, {y}) is not on the BN254 G1 curve")

    # -- constructors -------------------------------------------------
    @staticmethod
    def infinity() -> "G1Point":
        return G1Point(None, None)

    @staticmethod
    def generator() -> "G1Point":
        return G1Point(*G1_GENERATOR)

    # -- predicates ----------------------------------------------------
    def is_infinity(self) -> bool:
        return self.x is None

    def _on_curve(self) -> bool:
        return (self.y * self.y - self.x * self.x * self.x - CURVE_B) % P == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, G1Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash(("G1", self.x, self.y))

    @staticmethod
    def sum(points) -> "G1Point":
        """Sum many points with a single inversion (see ``_sum_affine``)."""
        total = _sum_affine(
            (p.x, 0, p.y, 0) for p in points if not p.is_infinity()
        )
        if total is None:
            return G1Point.infinity()
        return G1Point(total[0], total[2], check=False)

    # -- group law -----------------------------------------------------
    def __neg__(self) -> "G1Point":
        if self.is_infinity():
            return self
        return G1Point(self.x, -self.y, check=False)

    def __add__(self, other: "G1Point") -> "G1Point":
        if self.is_infinity():
            return other
        if other.is_infinity():
            return self
        if self.x == other.x:
            if (self.y + other.y) % P == 0:
                return G1Point.infinity()
            return self.double()
        slope = (other.y - self.y) * mod_inverse(other.x - self.x, P) % P
        x3 = (slope * slope - self.x - other.x) % P
        y3 = (slope * (self.x - x3) - self.y) % P
        return G1Point(x3, y3, check=False)

    def double(self) -> "G1Point":
        if self.is_infinity() or self.y == 0:
            return G1Point.infinity()
        slope = 3 * self.x * self.x * mod_inverse(2 * self.y, P) % P
        x3 = (slope * slope - 2 * self.x) % P
        y3 = (slope * (self.x - x3) - self.y) % P
        return G1Point(x3, y3, check=False)

    def scalar_mul(self, k: int) -> "G1Point":
        # NAF double-and-add: negation is one sign flip, so recoding to
        # signed digits cuts expected additions from k.bit_length()/2 to
        # k.bit_length()/3 for the same number of doublings.
        k %= CURVE_ORDER
        negated = -self
        result = G1Point.infinity()
        for digit in reversed(naf_digits(k)):
            result = result.double()
            if digit == 1:
                result = result + self
            elif digit == -1:
                result = result + negated
        return result

    def __mul__(self, k: int) -> "G1Point":
        return self.scalar_mul(k)

    def __rmul__(self, k: int) -> "G1Point":
        return self.scalar_mul(k)

    def __repr__(self) -> str:
        if self.is_infinity():
            return "G1Point(infinity)"
        return f"G1Point({self.x}, {self.y})"

    def to_bytes(self) -> bytes:
        if self.is_infinity():
            return b"\x00" * 64
        return self.x.to_bytes(32, "big") + self.y.to_bytes(32, "big")

    @staticmethod
    def from_bytes(data: bytes) -> "G1Point":
        """Inverse of :meth:`to_bytes`; validates the curve equation."""
        if len(data) != 64:
            raise CurveError(f"G1 point needs 64 bytes, got {len(data)}")
        if data == b"\x00" * 64:
            return G1Point.infinity()
        x = int.from_bytes(data[:32], "big")
        y = int.from_bytes(data[32:], "big")
        return G1Point(x, y)


class G2Point:
    """An affine point on the BN254 sextic twist over Fp2."""

    __slots__ = ("x", "y")

    def __init__(self, x: Fp2 | None, y: Fp2 | None, check: bool = True):
        self.x = x
        self.y = y
        if x is not None and check and not self._on_curve():
            raise CurveError("point is not on the BN254 twist curve")

    @staticmethod
    def infinity() -> "G2Point":
        return G2Point(None, None)

    @staticmethod
    def generator() -> "G2Point":
        return G2Point(Fp2(*G2_GENERATOR_X), Fp2(*G2_GENERATOR_Y))

    def is_infinity(self) -> bool:
        return self.x is None

    def _on_curve(self) -> bool:
        lhs = self.y.square()
        rhs = self.x.square() * self.x + TWIST_B
        return lhs == rhs

    def is_in_subgroup(self) -> bool:
        """Check membership in the order-r subgroup (r * Q == infinity)."""
        return self.scalar_mul(CURVE_ORDER).is_infinity()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, G2Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        if self.is_infinity():
            return hash(("G2", None))
        return hash(("G2", self.x.to_tuple(), self.y.to_tuple()))

    @staticmethod
    def sum(points) -> "G2Point":
        """Sum many points with a single inversion (see ``_sum_affine``)."""
        total = _sum_affine(
            (p.x.c0, p.x.c1, p.y.c0, p.y.c1)
            for p in points if not p.is_infinity()
        )
        if total is None:
            return G2Point.infinity()
        return G2Point(Fp2(*total[:2]), Fp2(*total[2:]), check=False)

    def __neg__(self) -> "G2Point":
        if self.is_infinity():
            return self
        return G2Point(self.x, -self.y, check=False)

    def __add__(self, other: "G2Point") -> "G2Point":
        if self.is_infinity():
            return other
        if other.is_infinity():
            return self
        if self.x == other.x:
            if (self.y + other.y).is_zero():
                return G2Point.infinity()
            return self.double()
        slope = (other.y - self.y) * (other.x - self.x).inverse()
        x3 = slope.square() - self.x - other.x
        y3 = slope * (self.x - x3) - self.y
        return G2Point(x3, y3, check=False)

    def double(self) -> "G2Point":
        if self.is_infinity() or self.y.is_zero():
            return G2Point.infinity()
        slope = self.x.square().mul_scalar(3) * (self.y + self.y).inverse()
        x3 = slope.square() - self.x - self.x
        y3 = slope * (self.x - x3) - self.y
        return G2Point(x3, y3, check=False)

    def scalar_mul(self, k: int) -> "G2Point":
        # Same NAF ladder as G1; the saved additions matter more here
        # because every Fp2 inversion costs an Fp inversion plus
        # multiplications.
        k %= CURVE_ORDER
        negated = -self
        result = G2Point.infinity()
        for digit in reversed(naf_digits(k)):
            result = result.double()
            if digit == 1:
                result = result + self
            elif digit == -1:
                result = result + negated
        return result

    def __mul__(self, k: int) -> "G2Point":
        return self.scalar_mul(k)

    def __rmul__(self, k: int) -> "G2Point":
        return self.scalar_mul(k)

    def __repr__(self) -> str:
        if self.is_infinity():
            return "G2Point(infinity)"
        return f"G2Point({self.x!r}, {self.y!r})"

    def to_bytes(self) -> bytes:
        if self.is_infinity():
            return b"\x00" * 128
        return b"".join(
            c.to_bytes(32, "big")
            for c in (self.x.c0, self.x.c1, self.y.c0, self.y.c1)
        )

    @staticmethod
    def from_bytes(data: bytes) -> "G2Point":
        """Inverse of :meth:`to_bytes`; validates the twist equation."""
        if len(data) != 128:
            raise CurveError(f"G2 point needs 128 bytes, got {len(data)}")
        if data == b"\x00" * 128:
            return G2Point.infinity()
        coefficients = [
            int.from_bytes(data[i:i + 32], "big") for i in range(0, 128, 32)
        ]
        x = Fp2(coefficients[0], coefficients[1])
        y = Fp2(coefficients[2], coefficients[3])
        return G2Point(x, y)


def untwist(q: G2Point) -> tuple[Fp12, Fp12]:
    """Map a G2 point on the twist into the curve over Fp12.

    For the D-twist with ``w^6 = xi`` the map is
    ``(x', y') -> (x' * w^2, y' * w^3)``.  Since ``w^2 = v`` and
    ``w^3 = v*w``, the images are sparse Fp12 elements.
    """
    if q.is_infinity():
        raise CurveError("cannot untwist the point at infinity")
    x12 = Fp12(Fp6(Fp2.zero(), q.x, Fp2.zero()), Fp6.zero())
    y12 = Fp12(Fp6.zero(), Fp6(Fp2.zero(), q.y, Fp2.zero()))
    return x12, y12


def embed_g1(p: G1Point) -> tuple[Fp12, Fp12]:
    """Embed a G1 point into the curve over Fp12 (trivial inclusion)."""
    if p.is_infinity():
        raise CurveError("cannot embed the point at infinity")
    return Fp12.from_int(p.x), Fp12.from_int(p.y)
