"""Optimized optimal-ate pairing: the production code path.

What it does beyond :mod:`repro.crypto.pairing` (the reference
implementation it is tested against, byte for byte):

1. **Miller loop on the twist, on raw integers.** Point arithmetic
   stays in affine Fp2 coordinates on the twist curve, spelled out on
   plain ints; only the *line values* enter Fp12, as sparse elements
   ``a + b*w + c*(v*w)`` multiplied in by
   :func:`~repro.crypto.field.fp12_mul_by_line`.
2. **One simultaneous loop per chunk of rows.** Every pair of every
   multi-pairing of a chunk — raw G2 point or :class:`G2Prepared` —
   runs through :func:`multi_miller_rows`: one accumulator per row,
   squared once per iteration for all the row's pairs; the raw points
   of *all* rows stepped in lock-step, so the slope denominators of a
   step cost the chunk a *single* modular inversion (Montgomery's
   trick); prepared points replaying stored coefficients.  One row
   (:func:`multi_miller_prepared`) and one point
   (:meth:`G2Prepared.from_point`) are the same code on a list of one.
3. **A signed-digit ate loop.** The trajectory follows the NAF of the
   loop count ``6x + 2`` — weight 22 where plain binary has 37 — so a
   pair costs 88 line steps instead of 102.  The reference walks plain
   binary; the two Miller values differ by vertical-line factors the
   final exponentiation kills, so the pairings are byte-identical.
4. **Addition-chain hard part with cyclotomic squarings.** The final
   exponentiation's hard part ``(p^4 - p^2 + 1)/r`` uses the Scott et
   al. addition chain (three 63-bit exponentiations by the BN parameter
   x, each a width-3 signed-window ladder, plus Frobenius maps);
   everything after the easy part lives in the cyclotomic subgroup, so
   its squarings are Granger-Scott ones.

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
from repro.crypto.numtheory import (
    mod_inverse,
    naf_digits,
    signed_window_digits,
)
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


#: Signed digits (NAF) of the ate loop count below its leading one, MSB
#: first: 65 doublings and 21 additions of ``+-Q``, where plain binary
#: takes 64 and 36.  The point reached — and so the two Frobenius steps
#: and the pairing value — is the same; the Miller value differs only by
#: vertical lines, which lie in a proper subfield and die in the final
#: exponentiation.
_ATE_NAF = tuple(reversed(naf_digits(ATE_LOOP_COUNT)))[1:]


def _ate_lines(points: list[_Flat4]):
    """Yield, step by step, the ``(slope, c)`` line coefficients of each
    point's optimal-ate trajectory, in exactly the order the Miller loop
    consumes them.

    This is the single source of truth for the trajectory: the loop's
    raw pairs and the preparation builder both derive from it, so
    prepared replay is *structurally* guaranteed to consume the same
    coefficients in the same order as the raw loop computes them.
    """
    negated = [(x0, x1, -y0 % P, -y1 % P) for x0, x1, y0, y1 in points]
    ts = points
    for digit in _ATE_NAF:
        lines, ts = _line_step(ts, ts)
        yield lines
        if digit:
            lines, ts = _line_step(ts, points if digit > 0 else negated)
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
    for digit in _ATE_NAF:
        flags.append(True)
        if digit:
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
    def from_points(cls, qs) -> "list[G2Prepared]":
        """Precompute every ``Q``'s trajectory in one lock-step pass —
        one modular inversion per ate step for all of them (the point
        at infinity prepares to an empty trajectory, matching the raw
        loop's early return)."""
        trajectories = zip(*_ate_lines([
            _flat_point(q.x, q.y) for q in qs if not q.is_infinity()
        ]))
        return [
            cls(()) if q.is_infinity() else cls(next(trajectories))
            for q in qs
        ]

    @classmethod
    def from_point(cls, q: G2Point) -> "G2Prepared":
        """One point's trajectory: the one-point case of
        :meth:`from_points`."""
        return cls.from_points([q])[0]

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


def multi_miller_rows(rows: list[list[tuple[G1Point, object]]]) -> list[Fp12]:
    """``[prod_i miller(Q_i, P_i) for each row]`` as one *simultaneous*
    loop over the whole chunk, each ``Q_i`` a raw :class:`G2Point` or a
    :class:`G2Prepared`.

    The raw points of every row step through a single trajectory, so an
    ate step costs the chunk one modular inversion.  Each row keeps its
    own accumulator, squared once per ate iteration for all its pairs —
    ``(prod f_i)^2 = prod f_i^2`` keeps it equal to the product of the
    independent Miller values at every step, so the result is the
    identical field element at a fraction of the Fp12 squaring work.
    Infinity pairs must be filtered by the caller.
    """
    raw_g2: list[_Flat4] = []
    plans = []
    for pairs in rows:
        raw_g1, prepared = [], []
        start = len(raw_g2)
        for p, q in pairs:
            if isinstance(q, G2Prepared):
                prepared.append((p.x, p.y, q.coeffs))
            else:
                raw_g1.append((p.x, p.y))
                raw_g2.append(_flat_point(q.x, q.y))
        plans.append((raw_g1, slice(start, len(raw_g2)), prepared))
    raw_lines = _ate_lines(raw_g2) if raw_g2 else repeat(())
    fs = [Fp12.one().c] * len(rows)
    for index, (squares, lines) in enumerate(zip(_REPLAY_SQUARES, raw_lines)):
        for row, (raw_g1, span, prepared) in enumerate(plans):
            f = fs[row]
            if squares:
                f = fp12_square(f)
            for (xp, yp), (s0, s1, c0, c1) in zip(raw_g1, lines[span]):
                f = fp12_mul_by_line(f, yp, -s0 * xp % P, -s1 * xp % P, c0, c1)
            for xp, yp, coeffs in prepared:
                s0, s1, c0, c1 = coeffs[index]
                f = fp12_mul_by_line(f, yp, -s0 * xp % P, -s1 * xp % P, c0, c1)
            fs[row] = f
    return [Fp12.from_flat(f) for f in fs]


def multi_miller_prepared(pairs: list[tuple[G1Point, object]]) -> Fp12:
    """One row's Miller value: the one-row case of :func:`multi_miller_rows`."""
    return multi_miller_rows([pairs])[0]


def miller_loop_fast(q: G2Point | G2Prepared, p: G1Point) -> Fp12:
    """The optimal-ate Miller loop of one pair (raw or prepared ``q``)."""
    if q.is_infinity() or p.is_infinity():
        return Fp12.one()
    return multi_miller_prepared([(p, q)])


#: Width-3 signed-window recoding of the BN parameter x (digits in
#: ``{0, +-1, +-3}``), MSB first.  Fixed for the curve, so recode once
#: at import instead of per exponentiation.
_BN_X_WINDOW = tuple(reversed(signed_window_digits(BN_X, 3)))


def _pow_by_x(f: Fp12) -> Fp12:
    """``f^x`` for the 63-bit BN parameter x, via a signed-window ladder.

    Only called on cyclotomic-subgroup elements (the easy part of the
    final exponentiation runs first), where ``conjugate`` computes the
    inverse — so negative digits cost a conjugation (sign flips) instead
    of a full Fp12 inversion — and squaring is the cheap cyclotomic one.
    The width-3 window has 18 nonzero digits where the NAF has 24, for
    one extra squaring and product (``f^3``).
    """
    cube = f.cyclotomic_square() * f
    powers = {1: f, 3: cube, -1: f.conjugate(), -3: cube.conjugate()}
    result = powers[_BN_X_WINDOW[0]]
    for digit in _BN_X_WINDOW[1:]:
        result = result.cyclotomic_square()
        if digit:
            result = result * powers[digit]
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
