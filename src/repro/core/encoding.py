"""Vector encodings for the Secure Join scheme (Sections 4.1-4.3).

The scheme operates on vectors of dimension ``d = m(t+1) + 3``::

    row    w = ( H(a0), gamma_2*a1^0..gamma_2*a1^t, ...,
                        gamma_2*am^0..gamma_2*am^t, gamma_1, 0     )
    token  v = ( k,     p_{1,0}..p_{1,t},  ...,  p_{m,0}..p_{m,t},
                                                 0,       delta )

so that ``<v, w> = k*H(a0) + gamma_2 * sum_i P_i(a_i)``, which
collapses to the query-keyed join handle ``k*H(a0)`` exactly when every
selection polynomial vanishes on the row's attribute values.
``gamma_1`` and ``gamma_2`` are the row's blinding scalars and ``delta``
the token's, all drawn fresh from Z_q.

SJ.Enc raises g2 to ``w B*``.  Every power block of ``w`` opens with
``gamma_2 * a^0 = gamma_2`` and the last slot is 0, so ``w B* = w' B'``
with the ``d - m`` slots

    w' = ( H(a0), gamma_2, gamma_2*a1^1..gamma_2*a1^t, ...,
                           gamma_2*am^1..gamma_2*am^t, gamma_1 )

against the rows of ``B'``: B*'s join row, the sum of its m ``a^0``
rows, its ``a^j`` rows for j >= 1, and its ``gamma_1`` row
(:meth:`VectorLayout.reduced_basis`).  The upload path encodes every
cell and draws every row's blinding first
(:meth:`VectorLayout.encoded_cells`, :meth:`VectorLayout.row_draws`),
then builds ``w'`` (:meth:`VectorLayout.reduced_vectors`); ``w`` itself
(:meth:`VectorLayout.row_vector`) is the reference it is tested against.

Attribute values are embedded into Z_q with a cryptographic hash
(the paper's injective-embedding assumption); the join value uses a
separate hash domain.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from repro.core.polynomials import ZqPolynomial, power_vector
from repro.crypto.hashing import (
    Value,
    encode_value,
    hash_bytes_to_zq,
    hash_to_zq,
)
from repro.errors import SchemeError

_JOIN_DOMAIN = b"repro.H.join"
_ATTR_DOMAIN = b"repro.H.attr"


def embed_join_value(value: Value, q: int) -> int:
    """The paper's ``H(.)`` on the join column."""
    return hash_to_zq(value, q, domain=_JOIN_DOMAIN)


def embed_attribute(value: Value, q: int) -> int:
    """Embed a non-join attribute value into Z_q."""
    return hash_to_zq(value, q, domain=_ATTR_DOMAIN)


@dataclass(frozen=True)
class VectorLayout:
    """The shared shape of row and token vectors.

    ``num_attributes`` is the paper's m (non-join attributes per table;
    shorter tables are padded) and ``degree`` is t, the largest
    supported IN clause.
    """

    num_attributes: int
    degree: int

    def __post_init__(self):
        if self.num_attributes < 1:
            raise SchemeError("need at least one non-join attribute")
        if self.degree < 1:
            raise SchemeError("the IN-clause bound t must be at least 1")

    @property
    def dimension(self) -> int:
        """``m(t+1) + 3``."""
        return self.num_attributes * (self.degree + 1) + 3

    # -- row side ----------------------------------------------------------
    def _padded(self, attribute_values: Sequence[Value]) -> list[Value]:
        """The row's m attribute values, ``None`` past its own."""
        if len(attribute_values) > self.num_attributes:
            raise SchemeError(
                f"{len(attribute_values)} attributes exceed layout m="
                f"{self.num_attributes}"
            )
        return list(attribute_values) + [None] * (
            self.num_attributes - len(attribute_values)
        )

    def row_vector(
        self,
        join_value: Value,
        attribute_values: Sequence[Value],
        q: int,
        rng: random.Random,
    ) -> list[int]:
        """``w = (omega, gamma_1, 0)`` for one table row: the paper's
        SJ.Enc input, kept as the reference for
        :meth:`reduced_row_vectors`.

        ``attribute_values`` shorter than m are padded with ``None``
        (their power blocks still carry the per-row blinding, so they
        reveal nothing and pair to zero with zero polynomials).
        """
        padded = self._padded(attribute_values)
        gamma_1 = rng.randrange(q)
        gamma_2 = rng.randrange(1, q)
        vector = [embed_join_value(join_value, q)]
        for value in padded:
            embedded = embed_attribute(value, q)
            for p in power_vector(embedded, self.degree, q):
                vector.append(gamma_2 * p % q)
        vector.append(gamma_1)
        vector.append(0)
        return vector

    def reduced_basis(
        self, rows: Sequence[Sequence[int]], q: int
    ) -> tuple[tuple[int, ...], ...]:
        """The columns of ``B'``, the ``d - m`` rows of ``B*`` (given as
        its d ``rows``) that ``w'`` pairs with.

        B*'s join row and ``gamma_1`` row stay; the m ``a^0`` rows, whose
        slots always hold ``gamma_2``, are summed into one; the ``a^j``
        rows for j >= 1 stay; the last row, whose slot is 0, drops.
        """
        block = self.degree + 1
        heads = range(1, 1 + self.num_attributes * block, block)
        folded = [sum(column) % q for column in zip(*(rows[i] for i in heads))]
        kept = [rows[0], folded]
        for head in heads:
            kept.extend(rows[head + 1:head + block])
        kept.append(rows[-2])
        return tuple(zip(*kept))

    def encoded_cells(
        self, rows: Iterable[tuple[Value, Sequence[Value]]]
    ) -> list[bytes]:
        """Every row's m + 1 cell encodings (:func:`encode_value`: the
        join value, then the attributes padded to m), end to end.

        This is the share of SJ.Enc that can fail: a row with more than
        m attributes, a NaN or a value of no supported type raises here,
        in row order, before any row is drawn for.  Equal encodings are
        one object, so a table's repeated values are held once.
        """
        interned: dict[bytes, bytes] = {}
        intern = interned.setdefault
        cells = []
        append = cells.append
        for join_value, attribute_values in rows:
            key = encode_value(join_value)
            append(intern(key, key))
            for value in self._padded(attribute_values):
                key = encode_value(value)
                append(intern(key, key))
        return cells

    @staticmethod
    def row_draws(rows: int, q: int, rng: random.Random) -> list[int]:
        """``gamma_1`` then ``gamma_2`` for each of ``rows`` rows, in row
        order: the draws ``rows`` calls of :meth:`row_vector` make."""
        draws = []
        for _ in range(rows):
            draws.append(rng.randrange(q))
            draws.append(rng.randrange(1, q))
        return draws

    def reduced_vectors(
        self, cells: Sequence[bytes], draws: Sequence[int], q: int
    ) -> Iterator[list[int]]:
        """``w'`` for each row of :meth:`encoded_cells` under its
        :meth:`row_draws`, in order: ``w' B'`` equals :meth:`row_vector`
        ``B*`` row for row under the same rng.

        Each distinct join or attribute encoding is hashed once per call
        (per chunk, where a table is cut): the memos are keyed by
        :func:`encode_value`, never by the value, since ``1 == True ==
        1.0`` embed differently.  The memos and the embeddings are
        complete before the caller builds the first ciphertext and are
        freed after the last, in one piece.  Memory freed between a
        table's ciphertexts left holes that later queries allocated
        into: on a 2-vCPU box, ``chain3_inproc``'s first match came
        10-15 % later and ``series_mix``'s peak RSS was 4 % higher.
        """
        joins: dict[bytes, int] = {}
        attributes: dict[bytes, int] = {}
        width = self.num_attributes + 1
        embedded = []  # every row's m + 1 embeddings, end to end
        for row in range(0, len(cells), width):
            key = cells[row]
            value = joins.get(key)
            if value is None:
                value = joins[key] = hash_bytes_to_zq(key, q, _JOIN_DOMAIN)
            embedded.append(value)
            for key in cells[row + 1:row + width]:
                value = attributes.get(key)
                if value is None:
                    value = attributes[key] = hash_bytes_to_zq(
                        key, q, _ATTR_DOMAIN
                    )
                embedded.append(value)
        degree = self.degree
        for row, gamma_1, gamma_2 in zip(
            range(0, len(embedded), width), draws[::2], draws[1::2]
        ):
            vector = [embedded[row], gamma_2]
            for value in embedded[row + 1:row + width]:
                # gamma_2 * a^j for j = 1..t, one product each.
                power = gamma_2
                for _ in range(degree):
                    power = power * value % q
                    vector.append(power)
            vector.append(gamma_1)
            yield vector

    # -- token side ----------------------------------------------------------
    def selection_polynomials(
        self,
        selections: Mapping[int, Sequence[Value]],
        q: int,
        rng: random.Random,
    ) -> list[ZqPolynomial]:
        """One polynomial per attribute slot from IN clauses.

        ``selections`` maps attribute positions (0-based, non-join order)
        to the allowed values.  Unrestricted attributes get the zero
        polynomial, exactly as in Section 4.1.
        """
        polynomials = []
        for position in range(self.num_attributes):
            values = selections.get(position)
            if values is None:
                polynomials.append(ZqPolynomial.zero(self.degree + 1, q))
                continue
            if not values:
                raise SchemeError(
                    f"empty IN clause for attribute position {position}"
                )
            if len(values) > self.degree:
                raise SchemeError(
                    f"IN clause of size {len(values)} exceeds t={self.degree}"
                )
            roots = [embed_attribute(v, q) for v in values]
            polynomials.append(
                ZqPolynomial.from_roots(roots, self.degree, q, rng)
            )
        unknown = set(selections) - set(range(self.num_attributes))
        if unknown:
            raise SchemeError(
                f"selection on unknown attribute positions {sorted(unknown)}"
            )
        return polynomials

    def token_vector(
        self,
        query_key: int,
        polynomials: Sequence[ZqPolynomial],
        q: int,
        rng: random.Random,
    ) -> list[int]:
        """``v = (nu, 0, delta)`` for one table's join token (SJ.TokenGen)."""
        if len(polynomials) != self.num_attributes:
            raise SchemeError(
                f"need {self.num_attributes} polynomials, got {len(polynomials)}"
            )
        if query_key % q == 0:
            raise SchemeError("query key k must be non-zero modulo q")
        delta = rng.randrange(q)
        vector = [query_key % q]
        for polynomial in polynomials:
            vector.extend(polynomial.padded(self.degree + 1))
        vector.append(0)
        vector.append(delta)
        return vector
