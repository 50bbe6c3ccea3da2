"""Matrices over the prime field Z_q.

The Secure Join scheme needs uniformly random invertible matrices
``B <- GL_n(Z_q)`` and their *duals* ``B* = det(B) * (B^{-1})^T``, which
satisfy ``B @ (B*)^T = det(B) * I`` — the identity that makes the
inner-product encryption decrypt to ``det(B) * <v, w>``.

Matrices are immutable; all arithmetic uses plain Python ints so any
modulus size works (the BN254 group order is 254 bits).
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.crypto.numtheory import mod_inverse
from repro.errors import MatrixError


class ZqMatrix:
    """An immutable matrix over Z_q."""

    __slots__ = ("q", "_rows", "_det")

    def __init__(self, rows: Sequence[Sequence[int]], q: int):
        if q < 2:
            raise MatrixError("modulus must be at least 2")
        if not rows:
            raise MatrixError("matrix must have at least one row")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise MatrixError("all rows must have the same length")
        self.q = q
        self._rows = tuple(tuple(x % q for x in row) for row in rows)
        self._det: int | None = None

    # -- constructors -------------------------------------------------
    @staticmethod
    def identity(n: int, q: int) -> "ZqMatrix":
        return ZqMatrix(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], q
        )

    @staticmethod
    def random(n: int, q: int, rng: random.Random) -> "ZqMatrix":
        """A uniformly random ``n x n`` matrix over Z_q."""
        return ZqMatrix(
            [[rng.randrange(q) for _ in range(n)] for _ in range(n)], q
        )

    @staticmethod
    def random_invertible(n: int, q: int, rng: random.Random) -> "ZqMatrix":
        """A uniformly random element of ``GL_n(Z_q)`` (rejection sampling).

        For cryptographic-size q a random matrix is invertible with
        probability ``1 - O(1/q)``, so this almost never loops.
        """
        while True:
            candidate = ZqMatrix.random(n, q, rng)
            if candidate.det() != 0:
                return candidate

    # -- shape ----------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return len(self._rows)

    @property
    def n_cols(self) -> int:
        return len(self._rows[0])

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def row(self, i: int) -> tuple[int, ...]:
        return self._rows[i]

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def __getitem__(self, index: tuple[int, int]) -> int:
        i, j = index
        return self._rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZqMatrix):
            return NotImplemented
        return self.q == other.q and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.q, self._rows))

    def __repr__(self) -> str:
        return f"ZqMatrix({self.n_rows}x{self.n_cols} mod {self.q})"

    # -- elimination core ------------------------------------------------
    def _eliminate(self) -> tuple[int, list[list[int]] | None]:
        """Gauss-Jordan on ``[self | I]``; return ``(det, inverse_rows)``.

        ``inverse_rows`` is ``None`` when the matrix is singular.
        """
        if not self.is_square:
            raise MatrixError("determinant/inverse require a square matrix")
        n = self.n_rows
        q = self.q
        work = [list(row) for row in self._rows]
        aug = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        det = 1
        for col in range(n):
            pivot_row = next(
                (r for r in range(col, n) if work[r][col] != 0), None
            )
            if pivot_row is None:
                return 0, None
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
                det = -det % q
            pivot = work[col][col]
            det = det * pivot % q
            inv_pivot = mod_inverse(pivot, q)
            work[col] = [x * inv_pivot % q for x in work[col]]
            aug[col] = [x * inv_pivot % q for x in aug[col]]
            for r in range(n):
                if r == col or work[r][col] == 0:
                    continue
                factor = work[r][col]
                work[r] = [
                    (a - factor * b) % q for a, b in zip(work[r], work[col])
                ]
                aug[r] = [
                    (a - factor * b) % q for a, b in zip(aug[r], aug[col])
                ]
        return det, aug

    def det(self) -> int:
        """The determinant modulo q (cached)."""
        if self._det is None:
            self._det, _ = self._eliminate()
        return self._det

    def inverse(self) -> "ZqMatrix":
        """The inverse matrix; raises :class:`MatrixError` if singular."""
        det, inverse_rows = self._eliminate()
        self._det = det
        if inverse_rows is None:
            raise MatrixError("matrix is singular modulo q")
        return ZqMatrix(inverse_rows, self.q)

    def transpose(self) -> "ZqMatrix":
        return ZqMatrix(
            [
                [self._rows[r][c] for r in range(self.n_rows)]
                for c in range(self.n_cols)
            ],
            self.q,
        )

    def dual(self) -> "ZqMatrix":
        """``B* = det(B) * (B^{-1})^T`` — the paper's dual basis matrix."""
        det = self.det()
        if det == 0:
            raise MatrixError("singular matrix has no dual")
        inv_t = self.inverse().transpose()
        return inv_t.scale(det)

    def scale(self, k: int) -> "ZqMatrix":
        k %= self.q
        return ZqMatrix(
            [[x * k % self.q for x in row] for row in self._rows], self.q
        )

    # -- products ----------------------------------------------------------
    def __mul__(self, other: "ZqMatrix") -> "ZqMatrix":
        if not isinstance(other, ZqMatrix):
            return NotImplemented
        if self.q != other.q:
            raise MatrixError("cannot multiply matrices over different moduli")
        if self.n_cols != other.n_rows:
            raise MatrixError("matrix shape mismatch")
        other_t = other.transpose()
        q = self.q
        return ZqMatrix(
            [
                [
                    sum(a * b for a, b in zip(row, col)) % q
                    for col in other_t._rows
                ]
                for row in self._rows
            ],
            self.q,
        )

    def vec_mat(self, vector: Sequence[int]) -> list[int]:
        """Row-vector times matrix: ``v @ B`` over Z_q."""
        if len(vector) != self.n_rows:
            raise MatrixError(
                f"vector length {len(vector)} != matrix rows {self.n_rows}"
            )
        q = self.q
        result = [0] * self.n_cols
        for vi, row in zip(vector, self._rows):
            if vi == 0:
                continue
            vi %= q
            for j, bij in enumerate(row):
                result[j] += vi * bij
        return [x % q for x in result]


def inner_product(u: Sequence[int], v: Sequence[int], q: int) -> int:
    """``<u, v>`` over Z_q."""
    if len(u) != len(v):
        raise MatrixError("inner product of different-length vectors")
    return sum(a * b for a, b in zip(u, v)) % q
