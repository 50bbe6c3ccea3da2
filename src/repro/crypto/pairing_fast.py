"""Optimized optimal-ate pairing: the production code path.

What it does beyond :mod:`repro.crypto.pairing` (the reference
implementation it is tested against, byte for byte):

1. **Miller loop on the twist, on raw integers.** Point arithmetic
   stays in affine Fp2 coordinates on the twist curve, spelled out on
   plain ints; only the *line values* enter Fp12, as sparse elements
   ``a + b*w + c*(v*w)`` multiplied in by
   :func:`~repro.crypto.field.fp12_mul_by_line`.
2. **One simultaneous loop per row.** Every pair of a multi-pairing —
   raw G2 point or :class:`G2Prepared` — runs through
   :func:`multi_miller_prepared`: one shared squaring of the flat
   accumulator per iteration, raw points stepped in lock-step so the
   slope denominators of a step cost a *single* modular inversion
   (Montgomery's trick), prepared points replaying stored coefficients.
3. **Addition-chain hard part with cyclotomic squarings.** The final
   exponentiation's hard part ``(p^4 - p^2 + 1)/r`` uses the Scott et
   al. addition chain (three 63-bit exponentiations by the BN parameter
   x plus Frobenius maps); everything after the easy part lives in the
   cyclotomic subgroup, so its squarings are Granger-Scott ones.

The derivation of the line coefficients for the D-twist untwisting
``psi(x', y') = (x' w^2, y' w^3)``:

- slope through untwisted points is ``lambda' * w`` with ``lambda'``
  the Fp2 slope on the twist, so the line through ``psi(T)`` evaluated
  at ``P = (xP, yP)`` is
  ``yP  -  (lambda' xP) * w  +  (lambda' xT - yT) * (v w)``;
- the vertical line is ``xP - xT * v``.

**Prepared points.**  Every line above is determined by the G2
trajectory alone: the slope and the constant ``c = lambda' xT - yT``
never touch the G1 argument, which only enters through the sparse
multiplication by ``(yP, -slope * xP, c)``.  :class:`G2Prepared` holds
the ``(slope, c)`` sequence of one G2 point (all the twist point
arithmetic and inversions, paid once), and the loop replays it against
any G1 point.  Sharing one squaring across pairs keeps the accumulator
equal to the product of the independent Miller values —
``(prod f_i)^2 * prod l_i = prod (f_i^2 l_i)`` — so the result is the
exact field element the independent loops would produce (and therefore
byte-identical after the final exponentiation).
"""

from __future__ import annotations

from itertools import repeat

from repro.crypto.curve import G1Point, G2Point
from repro.crypto.field import (
    XI,
    Fp2,
    Fp12,
    fp12_mul_by_line,
    fp12_square,
)
from repro.crypto.numtheory import mod_inverse, naf_digits
from repro.crypto.params import ATE_LOOP_COUNT, BN_X, FIELD_MODULUS
from repro.errors import FieldError, PairingError

P = FIELD_MODULUS

# Twisted Frobenius constants: pi(psi(x, y)) = psi(conj(x)*FROB_X, conj(y)*FROB_Y).
_FROB_X = XI.pow((P - 1) // 3)
_FROB_Y = XI.pow((P - 1) // 2)

_TwistPoint = tuple[Fp2, Fp2]


def _twist_frobenius(point: _TwistPoint) -> _TwistPoint:
    """The p-power Frobenius endomorphism expressed on twist coordinates."""
    x, y = point
    return x.conjugate() * _FROB_X, y.conjugate() * _FROB_Y


#: A twist point, or the ``(slope, c)`` of one line, as four raw ints.
_Flat4 = tuple[int, int, int, int]


def _flat_point(x: Fp2, y: Fp2) -> _Flat4:
    return (x.c0, x.c1, y.c0, y.c1)


def _line_step(
    ts: list[_Flat4], qs: list[_Flat4]
) -> tuple[list[_Flat4], list[_Flat4]]:
    """Lines through ``T_i, Q_i`` (tangents where they coincide) for all
    ``i`` at once: ``([(slope, c)_i], [T_i + Q_i])``, all in raw Fp2.

    The slope denominators are inverted together: their Fp2 norms are
    multiplied up, inverted once, and unwound (Montgomery's trick).
    """
    pending = []
    product = 1
    for (x0, x1, y0, y1), (u0, u1, v0, v1) in zip(ts, qs):
        if x0 == u0 and x1 == u1:
            if y0 != v0 or y1 != v1:
                # Vertical line: T + (-T) = infinity should never occur
                # inside the optimal-ate loop for subgroup inputs.
                raise PairingError("degenerate addition in Miller loop")
            n0, n1 = 3 * (x0 + x1) * (x0 - x1), 6 * x0 * x1
            d0, d1 = 2 * y0, 2 * y1
        else:
            n0, n1, d0, d1 = v0 - y0, v1 - y1, u0 - x0, u1 - x1
        norm = (d0 * d0 + d1 * d1) % P
        if norm == 0:
            raise FieldError("cannot invert zero in Fp2")
        # numerator * conj(denominator), to be scaled by 1 / norm.
        pending.append((n0 * d0 + n1 * d1, n1 * d0 - n0 * d1,
                        product, norm, x0, x1, y0, y1, u0, u1))
        product = product * norm % P
    inverse = mod_inverse(product, P)
    lines, sums = [], []
    for f0, f1, prefix, norm, x0, x1, y0, y1, u0, u1 in reversed(pending):
        scale = inverse * prefix % P
        inverse = inverse * norm % P
        s0, s1 = f0 * scale % P, f1 * scale % P
        r0 = ((s0 + s1) * (s0 - s1) - x0 - u0) % P
        r1 = (2 * s0 * s1 - x1 - u1) % P
        c0, c1 = s0 * x0 - s1 * x1 - y0, s0 * x1 + s1 * x0 - y1
        lines.append((s0, s1, c0 % P, c1 % P))
        # y3 = slope * (x1 - x3) - y1 = c - slope * x3.
        sums.append((r0, r1, (c0 - s0 * r0 + s1 * r1) % P,
                     (c1 - s0 * r1 - s1 * r0) % P))
    lines.reverse()
    sums.reverse()
    return lines, sums


def _ate_lines(points: list[_Flat4]):
    """Yield, step by step, the ``(slope, c)`` line coefficients of each
    point's optimal-ate trajectory, in exactly the order the Miller loop
    consumes them.

    This is the single source of truth for the trajectory: the loop's
    raw pairs and the preparation builder both derive from it, so
    prepared replay is *structurally* guaranteed to consume the same
    coefficients in the same order as the raw loop computes them.
    """
    ts = points
    for i in range(ATE_LOOP_COUNT.bit_length() - 2, -1, -1):
        lines, ts = _line_step(ts, ts)
        yield lines
        if (ATE_LOOP_COUNT >> i) & 1:
            lines, ts = _line_step(ts, points)
            yield lines
    # Frobenius correction steps: T += pi(Q); T += -pi^2(Q).
    q1s = [
        _twist_frobenius((Fp2(x0, x1), Fp2(y0, y1)))
        for x0, x1, y0, y1 in points
    ]
    lines, ts = _line_step(ts, [_flat_point(*q1) for q1 in q1s])
    yield lines
    q2s = [_twist_frobenius(q1) for q1 in q1s]
    lines, _ = _line_step(ts, [_flat_point(x, -y) for x, y in q2s])
    yield lines


def _replay_schedule() -> tuple[bool, ...]:
    """Per-coefficient flags: True where the loop squares ``f`` first.

    Depends only on the (fixed) ate loop count, so one module-level
    schedule serves every prepared point.
    """
    flags = []
    for i in range(ATE_LOOP_COUNT.bit_length() - 2, -1, -1):
        flags.append(True)
        if (ATE_LOOP_COUNT >> i) & 1:
            flags.append(False)
    flags.extend((False, False))
    return tuple(flags)


_REPLAY_SQUARES = _replay_schedule()

#: Line coefficients per prepared G2 point (fixed by the ate loop count).
PREPARED_COEFF_COUNT = len(_REPLAY_SQUARES)

#: Serialized size of one :class:`G2Prepared`: an infinity flag byte
#: plus four 32-byte Fp coordinates per coefficient pair.
PREPARED_ELEMENT_SIZE = 1 + PREPARED_COEFF_COUNT * 128


class G2Prepared:
    """The Miller-loop precomputation of one G2 point.

    Holds the ``(slope, c)`` line coefficients of the point's full
    optimal-ate trajectory, four raw ints per line — everything about
    the loop that does *not* depend on the G1 argument.  Replaying them
    against a G1 point skips all twist point arithmetic and every
    inversion of the raw loop.  Instances are immutable and reusable
    across any number of pairings.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[_Flat4, ...]):
        if coeffs and len(coeffs) != PREPARED_COEFF_COUNT:
            raise PairingError(
                f"prepared point has {len(coeffs)} line coefficients; "
                f"the ate trajectory needs {PREPARED_COEFF_COUNT}"
            )
        self.coeffs = coeffs

    @classmethod
    def from_point(cls, q: G2Point) -> "G2Prepared":
        """Precompute ``Q``'s trajectory (the point at infinity prepares
        to an empty trajectory, matching the raw loop's early return)."""
        if q.is_infinity():
            return cls(())
        return cls(tuple(
            lines[0] for lines in _ate_lines([_flat_point(q.x, q.y)])
        ))

    def is_infinity(self) -> bool:
        return not self.coeffs

    def to_bytes(self) -> bytes:
        """Fixed-size canonical serialization (store/transport)."""
        if self.is_infinity():
            return b"\x01" + b"\x00" * (PREPARED_ELEMENT_SIZE - 1)
        return b"\x00" + b"".join(
            value.to_bytes(32, "big")
            for line in self.coeffs for value in line
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "G2Prepared":
        """Inverse of :meth:`to_bytes` (validating)."""
        if len(data) != PREPARED_ELEMENT_SIZE:
            raise PairingError(
                f"prepared element needs {PREPARED_ELEMENT_SIZE} bytes, "
                f"got {len(data)}"
            )
        if data[0] == 1:
            return cls(())
        if data[0] != 0:
            raise PairingError(f"bad prepared-element flag {data[0]}")
        values = [
            int.from_bytes(data[offset:offset + 32], "big")
            for offset in range(1, len(data), 32)
        ]
        if any(v >= P for v in values):
            raise PairingError(
                "prepared-element coordinate out of field range"
            )
        return cls(tuple(
            tuple(values[i:i + 4]) for i in range(0, len(values), 4)
        ))


def multi_miller_prepared(pairs: list[tuple[G1Point, object]]) -> Fp12:
    """``prod_i miller(Q_i, P_i)`` as one *simultaneous* loop, each
    ``Q_i`` a raw :class:`G2Point` or a :class:`G2Prepared`.

    One shared squaring per ate iteration covers every pair —
    ``(prod f_i)^2 = prod f_i^2`` keeps the accumulator equal to the
    product of the independent Miller values at every step, so the
    result is the identical field element at a fraction of the Fp12
    squaring work.  Infinity pairs must be filtered by the caller.
    """
    raw_g1, raw_g2, prepared = [], [], []
    for p, q in pairs:
        if isinstance(q, G2Prepared):
            prepared.append((p.x, p.y, q.coeffs))
        else:
            raw_g1.append((p.x, p.y))
            raw_g2.append(_flat_point(q.x, q.y))
    raw_lines = _ate_lines(raw_g2) if raw_g2 else repeat(())
    f = Fp12.one().c
    for index, (squares, lines) in enumerate(zip(_REPLAY_SQUARES, raw_lines)):
        if squares:
            f = fp12_square(f)
        for (xp, yp), (s0, s1, c0, c1) in zip(raw_g1, lines):
            f = fp12_mul_by_line(f, yp, -s0 * xp % P, -s1 * xp % P, c0, c1)
        for xp, yp, coeffs in prepared:
            s0, s1, c0, c1 = coeffs[index]
            f = fp12_mul_by_line(f, yp, -s0 * xp % P, -s1 * xp % P, c0, c1)
    return Fp12.from_flat(f)


def miller_loop_fast(q: G2Point | G2Prepared, p: G1Point) -> Fp12:
    """The optimal-ate Miller loop of one pair (raw or prepared ``q``)."""
    if q.is_infinity() or p.is_infinity():
        return Fp12.one()
    return multi_miller_prepared([(p, q)])


#: NAF recoding of the BN parameter x, MSB first.  Fixed for the curve,
#: so recode once at import instead of per exponentiation.
_BN_X_NAF = tuple(reversed(naf_digits(BN_X)))


def _pow_by_x(f: Fp12) -> Fp12:
    """``f^x`` for the 63-bit BN parameter x, via a signed-digit ladder.

    Only called on cyclotomic-subgroup elements (the easy part of the
    final exponentiation runs first), where ``conjugate`` computes the
    inverse — so the NAF's -1 digits cost a conjugation (sign flips)
    instead of a full Fp12 inversion — and squaring is the cheap
    cyclotomic one.
    """
    inverse = f.conjugate()
    result = Fp12.one()
    for digit in _BN_X_NAF:
        result = result.cyclotomic_square()
        if digit == 1:
            result = result * f
        elif digit == -1:
            result = result * inverse
    return result


def final_exponentiation_fast(f: Fp12) -> Fp12:
    """``f^((p^12 - 1)/r)`` via the easy part + Scott et al. hard part."""
    if f.is_zero():
        raise PairingError("final exponentiation of zero (degenerate input)")
    # Easy part: f^((p^6 - 1)(p^2 + 1)).  The result is in the cyclotomic
    # subgroup, where conjugation computes inverses and every squaring
    # below may be the cyclotomic one.
    t = f.conjugate() * f.inverse()
    t = t.frobenius().frobenius() * t

    # Hard part: t^((p^4 - p^2 + 1)/r), addition chain of Scott et al.
    fp = t.frobenius()
    fp2 = fp.frobenius()
    fp3 = fp2.frobenius()
    fu = _pow_by_x(t)
    fu2 = _pow_by_x(fu)
    fu3 = _pow_by_x(fu2)
    y3 = fu.frobenius()
    fu2p = fu2.frobenius()
    fu3p = fu3.frobenius()
    y2 = fu2p.frobenius()
    y0 = fp * fp2 * fp3
    y1 = t.conjugate()
    y5 = fu2.conjugate()
    y3 = y3.conjugate()
    y4 = (fu * fu2p).conjugate()
    y6 = (fu3 * fu3p).conjugate()
    t0 = y6.cyclotomic_square() * y4 * y5
    t1 = y3 * y5 * t0
    t0 = t0 * y2
    t1 = (t1.cyclotomic_square() * t0).cyclotomic_square()
    t0 = t1 * y1
    t1 = t1 * y0
    t0 = t0.cyclotomic_square()
    return t1 * t0


def pairing_fast(p: G1Point, q: G2Point | G2Prepared) -> Fp12:
    """The optimized optimal-ate pairing; agrees with the reference exactly."""
    return multi_pairing_fast([(p, q)])


def multi_pairing_fast(pairs: list[tuple[G1Point, object]]) -> Fp12:
    """``prod_i e(P_i, Q_i)`` — raw or prepared ``Q_i`` — as one
    simultaneous Miller loop plus one shared final exponentiation.
    Byte-identical to the reference on the same inputs."""
    live = [
        (p, q) for p, q in pairs
        if not (p.is_infinity() or q.is_infinity())
    ]
    if not live:
        return Fp12.one()
    return final_exponentiation_fast(multi_miller_prepared(live))


#: A prepared point takes the same route as a raw one — the same values,
#: minus the point arithmetic — so each ``*_prepared`` name is its twin.
miller_loop_prepared = miller_loop_fast
pairing_prepared = pairing_fast
multi_pairing_prepared = multi_pairing_fast
