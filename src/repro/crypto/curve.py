"""BN254 elliptic-curve groups G1 and G2.

``G1`` lives on ``y^2 = x^3 + 3`` over Fp; ``G2`` lives on the sextic
D-twist ``y^2 = x^3 + 3/xi`` over Fp2.  Points are immutable affine
points; the point at infinity is represented by ``x is None``.

The module also provides the *untwist* map sending a G2 point into the
curve over Fp12, which the pairing's line functions operate on.
"""

from __future__ import annotations

from itertools import islice

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


def _batch_inverse(values):
    """The inverses mod P of non-zero ``values`` with a single ``pow``
    (Montgomery's trick: three multiplications per value instead of an
    inversion each)."""
    if not values:
        return []
    prefixes = []
    product = 1
    for value in values:
        prefixes.append(product)
        product = product * value % P
    inverse = pow(product, -1, P)
    inverses = [0] * len(values)
    for k in range(len(values) - 1, -1, -1):
        inverses[k] = inverse * prefixes[k] % P
        inverse = inverse * values[k] % P
    return inverses


def add_affine_pairs(pairs):
    """``[a + b for a, b in pairs]`` on affine points ``(x0, x1, y0, y1)``
    over Fp2, every slope's denominator sharing one inversion.

    The law of ``y^2 = x^3 + b`` does not involve ``b``, so the same
    code serves the twist (G2) and, with zero imaginary parts, G1.
    ``a == b`` is a doubling and ``a == -b`` gives ``None``, the point
    at infinity; neither input may be infinity.  Coordinates in and out
    are reduced mod P.
    """
    slopes = []
    norms = []
    for (ax0, ax1, ay0, ay1), (bx0, bx1, by0, by1) in pairs:
        if ax0 != bx0 or ax1 != bx1:
            n0, n1, d0, d1 = by0 - ay0, by1 - ay1, bx0 - ax0, bx1 - ax1
        elif ay0 == by0 and ay1 == by1 and (ay0 or ay1):
            # T + T: the tangent slope 3x^2 / 2y (a = 0).
            n0, n1 = 3 * (ax0 + ax1) * (ax0 - ax1), 6 * ax0 * ax1
            d0, d1 = 2 * ay0, 2 * ay1
        else:  # T + (-T)
            slopes.append(None)
            continue
        slopes.append((n0, n1, d0, d1))
        # 1 / (d0 + d1 u) = (d0 - d1 u) / (d0^2 + d1^2), and the norm
        # of a non-zero element is non-zero (-1 is not a square mod P).
        norms.append((d0 * d0 + d1 * d1) % P)
    inverses = iter(_batch_inverse(norms))
    sums = []
    for ((ax0, ax1, ay0, ay1), (bx0, bx1, _, _)), slope in zip(pairs, slopes):
        if slope is None:
            sums.append(None)
            continue
        n0, n1, d0, d1 = slope
        inverse = next(inverses)
        # The slope n / d = n * conj(d) / norm(d), written out: this
        # loop is all of SJ.Enc and SJ.TokenGen on BN254.
        l0 = (n0 * d0 + n1 * d1) % P * inverse % P
        l1 = (n1 * d0 - n0 * d1) % P * inverse % P
        x0 = ((l0 + l1) * (l0 - l1) - ax0 - bx0) % P
        x1 = (2 * l0 * l1 - ax1 - bx1) % P
        t0, t1 = ax0 - x0, ax1 - x1
        sums.append((
            x0,
            x1,
            (l0 * t0 - l1 * t1 - ay0) % P,
            (l0 * t1 + l1 * t0 - ay1) % P,
        ))
    return sums


def sum_affine_lists(lists):
    """One sum per list of affine points ``(x0, x1, y0, y1)``, every
    list added up at once.

    Each round adds every list's terms in adjacent pairs through one
    :func:`add_affine_pairs` call, so a round costs one inversion for
    all lists together and ``n`` terms take ``ceil(log2 n)`` rounds.  A
    pair that cancels drops out of its list; a list left empty sums to
    ``None``, the point at infinity.
    """
    levels = list(lists)
    while True:
        pairs = [
            (terms[k], terms[k + 1])
            for terms in levels
            for k in range(0, len(terms) - 1, 2)
        ]
        if not pairs:
            return [terms[0] if terms else None for terms in levels]
        sums = iter(add_affine_pairs(pairs))
        for slot, terms in enumerate(levels):
            if len(terms) < 2:
                continue
            halved = [
                total for total in islice(sums, len(terms) // 2)
                if total is not None
            ]
            if len(terms) % 2:
                halved.append(terms[-1])
            levels[slot] = halved


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

    def affine(self) -> tuple[int, int, int, int]:
        """``(x, 0, y, 0)``: the point as the curve kernel's Fp2 tuple."""
        return self.x, 0, self.y, 0

    @staticmethod
    def from_affine(coordinates) -> "G1Point":
        """Inverse of :meth:`affine`; ``None`` is the point at infinity."""
        if coordinates is None:
            return G1Point.infinity()
        return G1Point(coordinates[0], coordinates[2], check=False)

    @staticmethod
    def sum(points) -> "G1Point":
        """Sum many points (see :func:`sum_affine_lists`)."""
        [total] = sum_affine_lists(
            [[p.affine() for p in points if not p.is_infinity()]]
        )
        return G1Point.from_affine(total)

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

    def affine(self) -> tuple[int, int, int, int]:
        """``(x.c0, x.c1, y.c0, y.c1)``: the curve kernel's tuple."""
        return self.x.c0, self.x.c1, self.y.c0, self.y.c1

    @staticmethod
    def from_affine(coordinates) -> "G2Point":
        """Inverse of :meth:`affine`; ``None`` is the point at infinity."""
        if coordinates is None:
            return G2Point.infinity()
        x0, x1, y0, y1 = coordinates
        return G2Point(Fp2(x0, x1), Fp2(y0, y1), check=False)

    @staticmethod
    def sum(points) -> "G2Point":
        """Sum many points (see :func:`sum_affine_lists`)."""
        [total] = sum_affine_lists(
            [[p.affine() for p in points if not p.is_infinity()]]
        )
        return G2Point.from_affine(total)

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
