"""The Secure Join scheme: SJ.Setup, SJ.Enc, SJ.TokenGen, SJ.Dec, SJ.Match.

This is the paper's contribution (Section 4.3), implemented on top of
the modified function-hiding IPE and the polynomial selection encoding.
The scheme is generic over the bilinear backend, so the exact same code
runs on the real BN254 pairing and on the fast exponent backend.

Responsibility split (matching Figure 1):

- *client, upload phase*: :meth:`SecureJoinScheme.setup`,
  :meth:`SecureJoinScheme.encrypt_rows` (one row:
  :meth:`SecureJoinScheme.encrypt_row`; in chunks:
  :meth:`SecureJoinScheme.encrypt_inputs`, then :func:`encrypt_chunk`),
- *client, query phase*: :meth:`SecureJoinScheme.new_query_key`,
  :meth:`SecureJoinScheme.token`,
- *server, query phase*: :meth:`SecureJoinScheme.decrypt`,
  :meth:`SecureJoinScheme.match` (both need only public parameters).
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from repro.core.encoding import VectorLayout
from repro.crypto.backend import BilinearBackend, GTElement, get_backend
from repro.crypto.ipe import IPEMasterKey, ModifiedIPEScheme
from repro.crypto.hashing import Value
from repro.errors import SchemeError


@dataclass(frozen=True)
class SecureJoinParams:
    """Public parameters: the vector layout (m, t) and the backend name."""

    num_attributes: int
    in_clause_limit: int
    backend_name: str = "fast"

    @property
    def layout(self) -> VectorLayout:
        return VectorLayout(self.num_attributes, self.in_clause_limit)

    @property
    def dimension(self) -> int:
        return self.layout.dimension


@dataclass(frozen=True)
class SJMasterKey:
    """The client's master secret: params plus the IPE matrices."""

    params: SecureJoinParams
    ipe: IPEMasterKey

    @cached_property
    def reduced_basis(self) -> tuple[tuple[int, ...], ...]:
        """The columns of ``B'`` (:meth:`VectorLayout.reduced_basis`),
        built once per key."""
        b_star = self.ipe.b_star
        return self.params.layout.reduced_basis(b_star.rows(), b_star.q)


@dataclass(frozen=True)
class SJRowCiphertext:
    """``C_r = g2^{w_r B*}`` — one encrypted row (upload phase)."""

    elements: tuple

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class SJToken:
    """``Tk = g1^{v B}`` — one table's token for one query."""

    elements: tuple

    def __len__(self) -> int:
        return len(self.elements)


def encrypt_chunk(
    backend: BilinearBackend,
    layout: VectorLayout,
    basis: Sequence[Sequence[int]],
    cells: Sequence[bytes],
    draws: Sequence[int],
) -> Iterator[tuple]:
    """The SJ.Enc kernel: each row's ciphertext elements, in order, for a
    run of rows given their :meth:`SecureJoinScheme.encrypt_inputs`
    (encoded cells, draws) and the key's reduced basis ``B'``
    (:attr:`SJMasterKey.reduced_basis`).

    Computed as ``g2^{w' B'}`` on the ``d - m`` slots that are not
    constant (see :mod:`repro.core.encoding`): the same exponents mod q,
    so the same group elements.  It draws nothing and checks nothing,
    so a table cut into chunks gets the bytes it gets in one piece.
    """
    q = backend.order
    g2_powers = backend.g2_powers
    for w in layout.reduced_vectors(cells, draws, q):
        yield tuple(g2_powers(
            [sum(map(mul, w, column)) % q for column in basis]
        ))


class SecureJoinScheme:
    """The five algorithms of Secure Join, generic over the backend."""

    def __init__(
        self,
        params: SecureJoinParams,
        backend: BilinearBackend | None = None,
        rng: random.Random | None = None,
    ):
        self.params = params
        self.backend = (
            backend if backend is not None else get_backend(params.backend_name)
        )
        self.rng = rng if rng is not None else random.Random()
        self._layout = params.layout
        self._ipe = ModifiedIPEScheme(
            self._layout.dimension, self.backend, self.rng
        )

    # -- client, upload phase ----------------------------------------------
    def setup(self) -> SJMasterKey:
        """SJ.Setup: sample the bilinear group matrices ``(B, B*)``."""
        return SJMasterKey(self.params, self._ipe.setup())

    def encrypt_inputs(
        self, rows: Iterable[tuple[Value, Sequence[Value]]]
    ) -> tuple[list[bytes], list[int]]:
        """The share of SJ.Enc that checks and draws, for each
        ``(join value, attribute values)`` row: every cell's encoding,
        then ``gamma_1, gamma_2`` per row from the scheme's rng, in row
        order.  A rejected row raises before any row is drawn for.
        :func:`encrypt_chunk` does the rest, on any cut of the rows."""
        layout = self._layout
        cells = layout.encoded_cells(rows)
        rows_count = len(cells) // (layout.num_attributes + 1)
        return cells, layout.row_draws(
            rows_count, self.backend.order, self.rng
        )

    def encrypt_rows(
        self,
        msk: SJMasterKey,
        rows: Iterable[tuple[Value, Sequence[Value]]],
    ) -> list[SJRowCiphertext]:
        """SJ.Enc over a table: ``C_r = g2^{w_r B*}`` for each
        ``(join value, attribute values)`` row, in order.

        :meth:`encrypt_inputs`, then :func:`encrypt_chunk` over all the
        rows as one chunk.  Each distinct value is hashed once per chunk,
        and the rng is drawn in row order as ``len(rows)`` calls of
        :meth:`encrypt_row` would draw it, however the rows are cut; a
        row with more than m attributes raises before any row is drawn
        for.
        """
        self._check_msk(msk)
        return [
            SJRowCiphertext(elements)
            for elements in encrypt_chunk(
                self.backend, self._layout, msk.reduced_basis,
                *self.encrypt_inputs(rows),
            )
        ]

    def encrypt_row(
        self,
        msk: SJMasterKey,
        join_value: Value,
        attribute_values: Sequence[Value],
    ) -> SJRowCiphertext:
        """SJ.Enc on one row: :meth:`encrypt_rows` of one."""
        [ciphertext] = self.encrypt_rows(msk, [(join_value, attribute_values)])
        return ciphertext

    # -- client, query phase ---------------------------------------------
    def new_query_key(self) -> int:
        """A fresh symmetric query key ``k <- Z_q \\ {0}``.

        Using a *fresh* key per query is what prevents super-additive
        leakage: handles from different queries live under different keys.
        """
        return self.rng.randrange(1, self.backend.order)

    def token(
        self,
        msk: SJMasterKey,
        selections: Mapping[int, Sequence[Value]],
        query_key: int,
    ) -> SJToken:
        """SJ.TokenGen: encode the IN clauses as polynomials, emit ``Tk``."""
        self._check_msk(msk)
        q = self.backend.order
        polynomials = self._layout.selection_polynomials(selections, q, self.rng)
        v = self._layout.token_vector(query_key, polynomials, q, self.rng)
        return SJToken(self._ipe.keygen(msk.ipe, v))

    # -- server, query phase ---------------------------------------------
    def decrypt(self, token: SJToken, ciphertext: SJRowCiphertext) -> GTElement:
        """SJ.Dec: ``D = e(Tk, C)`` — the row's match handle for this query."""
        if len(token) != self.params.dimension:
            raise SchemeError(
                f"token dimension {len(token)} != scheme dimension "
                f"{self.params.dimension}"
            )
        if len(ciphertext) != self.params.dimension:
            raise SchemeError(
                f"ciphertext dimension {len(ciphertext)} != scheme dimension "
                f"{self.params.dimension}"
            )
        return self._ipe.decrypt(token.elements, ciphertext.elements)

    @staticmethod
    def match(d_a: GTElement, d_b: GTElement) -> bool:
        """SJ.Match: the rows join iff their handles coincide."""
        return d_a == d_b

    # -- internal ------------------------------------------------------------
    def _check_msk(self, msk: SJMasterKey) -> None:
        if msk.params != self.params:
            raise SchemeError(
                "master key was generated under different parameters"
            )
