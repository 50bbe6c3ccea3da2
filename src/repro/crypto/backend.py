"""Bilinear-group backends.

The Secure Join scheme only needs four group operations:

1. raise the G1 generator to vectors of exponents (tokens),
2. raise the G2 generator to vectors of exponents (ciphertexts),
3. pair a token vector with each row vector of a chunk (SJ.Dec: one
   product of pairings / multi-pairing per row), and
4. compare / hash the resulting GT elements.

Each backend implements SJ.Dec in one kernel,
:meth:`BilinearBackend.pair_vectors_batch`, which returns each row's
handle as its canonical GT bytes (the hash-join key); ``pair_vectors``
— its one-row case, read back into a :class:`GTElement` through
:meth:`BilinearBackend.gt_from_bytes` — and ``pair`` sit on top of it in
the base class.

:class:`BN254Backend` implements these on the real BN254 pairing built in
this package.  :class:`FastBackend` implements them in the exponent group
(elements are represented by their discrete logarithms), which is
*insecure by construction* — an adversary holding such values can read
the exponents — but is functionally identical: two GT handles are equal
exactly when the corresponding BN254 elements would be.  The fast backend
exists so the paper's table-scale experiments (hundreds of thousands of
rows) run in reasonable time in pure Python.  Its SJ.Dec row is one
inner product mod q, and it counts the pairing work BN254 would do for
the same call (README.md, "Two backends").
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter, mul

from repro.crypto.curve import (
    G1Point,
    G2Point,
    add_affine_pairs,
    sum_affine_lists,
)
from repro.crypto.field import Fp12
from repro.crypto.numtheory import is_probable_prime
from repro.crypto.pairing_fast import (
    PREPARED_ELEMENT_SIZE,
    G2Prepared,
    final_exponentiation_fast,
    multi_miller_rows,
    pairing_fast,
)
from repro.crypto.params import CURVE_ORDER, FIELD_MODULUS as P
from repro.errors import CryptoError


class GTElement(ABC):
    """An element of the target group, usable as a hash-join key."""

    @abstractmethod
    def to_bytes(self) -> bytes:
        """Canonical serialization (the hash-join bucket key)."""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GTElement):
            return NotImplemented
        return self.to_bytes() == other.to_bytes()

    def __hash__(self) -> int:
        return hash(self.to_bytes())


class BN254GT(GTElement):
    """A GT element backed by an Fp12 value."""

    __slots__ = ("value", "_bytes")

    def __init__(self, value: Fp12):
        self.value = value
        self._bytes: bytes | None = None

    def to_bytes(self) -> bytes:
        if self._bytes is None:
            self._bytes = self.value.to_bytes()
        return self._bytes

    def __repr__(self) -> str:
        return f"BN254GT({self.to_bytes()[:8].hex()}...)"


class FastGT(GTElement):
    """A GT element of a :class:`FastBackend`'s group, represented by its
    discrete logarithm mod the group's order."""

    __slots__ = ("value", "_size")

    def __init__(self, value: int, group: FastBackend):
        self.value = value % group._modulus
        self._size = group._element_size

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(self._size, "big")

    def __repr__(self) -> str:
        return f"FastGT({self.value})"


@dataclass
class PairingOpCounter:
    """Pairing work performed through a backend's decryption entry points.

    ``miller_loops`` and ``final_exponentiations`` count what the BN254
    pairing actually executes for the observed call pattern; the fast
    backend reports the *same* counts for the same calls (README.md,
    "Two backends": the same-counts contract), so engine ablations
    measured on either backend agree.

    ``prepared_miller_loops`` counts Miller loops served by replaying a
    stored row's precomputation (:class:`~repro.crypto.pairing_fast.G2Prepared`)
    instead of running full twist arithmetic — the work the
    prepared-rows optimization saves.  ``preparations`` counts
    trajectory builds (paid once per stored element), and
    ``gt_exponentiations`` counts GT exponentiations (``gt_pow`` /
    ``gt_generator_power``), which previously did pairing-scale work
    without touching the counter at all.
    """

    miller_loops: int = 0
    final_exponentiations: int = 0
    prepared_miller_loops: int = 0
    preparations: int = 0
    gt_exponentiations: int = 0

    def snapshot(self) -> tuple[int, int, int, int, int]:
        return (
            self.miller_loops,
            self.final_exponentiations,
            self.prepared_miller_loops,
            self.preparations,
            self.gt_exponentiations,
        )

    def since(
        self, snapshot: tuple[int, int, int, int, int]
    ) -> "PairingOpCounter":
        """The operations performed after ``snapshot`` was taken."""
        return PairingOpCounter(
            miller_loops=self.miller_loops - snapshot[0],
            final_exponentiations=self.final_exponentiations - snapshot[1],
            prepared_miller_loops=self.prepared_miller_loops - snapshot[2],
            preparations=self.preparations - snapshot[3],
            gt_exponentiations=self.gt_exponentiations - snapshot[4],
        )

    def add(self, other: "PairingOpCounter") -> None:
        self.miller_loops += other.miller_loops
        self.final_exponentiations += other.final_exponentiations
        self.prepared_miller_loops += other.prepared_miller_loops
        self.preparations += other.preparations
        self.gt_exponentiations += other.gt_exponentiations

    def reset(self) -> None:
        self.miller_loops = 0
        self.final_exponentiations = 0
        self.prepared_miller_loops = 0
        self.preparations = 0
        self.gt_exponentiations = 0


class FastPrepared:
    """The fast backend's stand-in for a prepared G2 element.

    There is nothing to precompute in the exponent group, but the marker
    lets the fast backend *count* prepared work exactly as BN254 would
    for the same calls — keeping the same-counts contract intact on the
    prepared path.
    """

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def is_infinity(self) -> bool:
        return not self.value


class PreparedRow(Sequence):
    """One stored row ciphertext together with its pairing precomputation.

    ``elements`` is the raw G2 vector (what transport and persistence
    serialize); iteration and indexing yield the *prepared* elements, so
    every engine path — including the serial one-pairing-at-a-time
    ablation — replays precomputation when handed a prepared row.
    """

    __slots__ = ("elements", "prepared")

    def __init__(self, elements: tuple, prepared: tuple):
        if len(elements) != len(prepared):
            raise CryptoError(
                "prepared row needs one precomputation per element"
            )
        self.elements = tuple(elements)
        self.prepared = tuple(prepared)

    def __len__(self) -> int:
        return len(self.prepared)

    def __getitem__(self, index):
        return self.prepared[index]


#: The kernels a worker pool runs, as ``pool_floors`` names them: SJ.Dec
#: (:meth:`BilinearBackend.pair_vectors_batch`) over a query's side, and
#: SJ.Enc (:func:`repro.core.scheme.encrypt_chunk`) over an upload.
SJ_DEC = "sj_dec"
SJ_ENC = "sj_enc"


def goes_to_pool(floors, kernel: str, rows: int, width: int) -> bool:
    """The one pool-or-inline rule, for SJ.Dec and SJ.Enc alike: whether
    a side of ``rows`` rows of ``kernel`` runs on a pool ``width``
    workers wide.  ``floors`` is a backend's ``pool_floors``."""
    floor = floors[kernel]
    return width >= 2 and floor is not None and rows >= floor


class BilinearBackend(ABC):
    """The group-operation interface the Secure Join scheme is generic over."""

    name: str
    #: Per pooled kernel, the rows from which a side of it goes to a pool
    #: (:func:`goes_to_pool`), or ``None`` for never.
    pool_floors: dict[str, int | None]

    def __init__(self):
        self.ops = PairingOpCounter()

    @property
    @abstractmethod
    def order(self) -> int:
        """The prime order q of G1, G2 and GT."""

    @abstractmethod
    def g1_powers(self, exponents: Sequence[int]) -> list:
        """``[g1^e for e in exponents]``."""

    @abstractmethod
    def g2_powers(self, exponents: Sequence[int]) -> list:
        """``[g2^e for e in exponents]``."""

    @abstractmethod
    def pair_vectors_batch(
        self, g1_vector: Sequence, g2_vectors: Sequence[Sequence]
    ) -> list[bytes]:
        """One multi-pairing of ``g1_vector`` against *each* G2 vector,
        each returned as its handle: the GT element's canonical bytes.

        This is SJ.Dec, and each backend's one kernel: the fixed vector
        is the query token, each G2 vector is one row ciphertext (raw
        elements, a :class:`PreparedRow`, or a mix), and every row costs
        d Miller loops plus a *single* shared final exponentiation
        (versus d full pairings on the naive per-pair path).  A 0 / the
        point at infinity on either side is the identity: its pair is
        skipped and not counted, and a row with no live pair is the GT
        identity with no final exponentiation.  A row of another length
        than the token raises :class:`~repro.errors.CryptoError`.
        """

    def pair_vectors(self, g1_vector: Sequence, g2_vector: Sequence) -> GTElement:
        """``prod_i e(g1_vector[i], g2_vector[i])`` (a multi-pairing):
        the one-row case of :meth:`pair_vectors_batch`."""
        return self.gt_from_bytes(
            self.pair_vectors_batch(g1_vector, [g2_vector])[0]
        )

    @abstractmethod
    def gt_from_bytes(self, data: bytes) -> GTElement:
        """The GT element whose :meth:`GTElement.to_bytes` is ``data``."""

    @abstractmethod
    def gt_identity(self) -> GTElement:
        """The identity of GT (the empty product of pairings)."""

    @abstractmethod
    def gt_mul(self, a: GTElement, b: GTElement) -> GTElement:
        """The GT group operation (product of two pairing outputs)."""

    @abstractmethod
    def gt_generator_power(self, exponent: int) -> GTElement:
        """``e(g1, g2)^exponent`` — used by tests and the simulator."""

    @abstractmethod
    def gt_pow(self, element: GTElement, exponent: int) -> GTElement:
        """Raise a GT element to a power (used by IPE discrete-log search)."""

    @abstractmethod
    def encode_g1(self, element) -> bytes:
        """Serialize one G1 element (for the persistence layer)."""

    @abstractmethod
    def decode_g1(self, data: bytes):
        """Inverse of :meth:`encode_g1` (validating)."""

    @abstractmethod
    def encode_g2(self, element) -> bytes:
        """Serialize one G2 element."""

    @abstractmethod
    def decode_g2(self, data: bytes):
        """Inverse of :meth:`encode_g2` (validating)."""

    @property
    @abstractmethod
    def g1_element_size(self) -> int:
        """Byte length of one encoded G1 element."""

    @property
    @abstractmethod
    def g2_element_size(self) -> int:
        """Byte length of one encoded G2 element."""

    def g1_power(self, exponent: int):
        return self.g1_powers([exponent])[0]

    def g2_power(self, exponent: int):
        return self.g2_powers([exponent])[0]

    def pair(self, g1_element, g2_element) -> GTElement:
        return self.pair_vectors([g1_element], [g2_element])

    # -- prepared rows (ciphertext-side Miller-loop precomputation) ------
    @abstractmethod
    def prepare_row(self, g2_vector: Sequence) -> PreparedRow:
        """Precompute the pairing trajectory of one stored row.

        The precomputation depends only on the G2 vector (the row
        ciphertext), never on a token, so it is built once per stored
        row and replayed against every future query.
        """

    @property
    @abstractmethod
    def prepared_element_size(self) -> int:
        """Byte length of one encoded prepared element."""

    @abstractmethod
    def encode_prepared(self, element) -> bytes:
        """Serialize one prepared element (for the persistence layer)."""

    @abstractmethod
    def decode_prepared(self, data: bytes):
        """Inverse of :meth:`encode_prepared` (validating)."""


class _FixedBaseTable:
    """Signed 8-bit windowed precomputation of a fixed base point.

    Window ``i`` holds ``j * 2^{8i} * base`` for ``1 <= j <= 128`` (32
    windows for BN254's 254-bit order, 4096 affine points).  An exponent
    is recoded into digits in ``[-127, 128]``, a negative digit taking
    its entry with ``y`` negated, so a power is the sum of one entry per
    non-zero digit (~32 for a random exponent) and no doubling at all.
    :meth:`powers` adds up all of a call's powers in one
    :func:`~repro.crypto.curve.sum_affine_lists` call, and the build
    runs on the same kernel: the window bases by doubling, then all
    windows at once, entries ``h + 1 .. 2h`` as ``h * base`` plus
    entries ``1 .. h``, in seven rounds.  One table per group per
    process (:func:`_fixed_base_table`): a pooled worker that runs SJ.Enc
    chunks of a large upload builds its own G2 table at its first chunk
    (≈ 83 ms) unless it was forked from a process that had built one
    already; SJ.Dec chunks need none.
    """

    WINDOW = 8

    def __init__(self, base, order: int):
        self._from_affine = type(base).from_affine
        self._order = order
        windows = (order.bit_length() + self.WINDOW) // self.WINDOW
        bases = [base.affine()]
        for _ in range(self.WINDOW * (windows - 1)):
            [doubled] = add_affine_pairs([(bases[-1], bases[-1])])
            bases.append(doubled)
        self._rows = [[bases[self.WINDOW * i]] for i in range(windows)]
        for _ in range(self.WINDOW - 1):
            sums = iter(add_affine_pairs([
                (row[-1], entry) for row in self._rows for entry in row
            ]))
            for row in self._rows:
                row.extend(islice(sums, len(row)))

    def powers(self, exponents: Sequence[int]) -> list:
        """``[e * base for e in exponents]``, summed together."""
        half = 1 << (self.WINDOW - 1)
        mask = (1 << self.WINDOW) - 1
        lists = []
        for exponent in exponents:
            exponent %= self._order
            terms = []
            for row in self._rows:
                if not exponent:
                    break
                digit = exponent & mask
                exponent >>= self.WINDOW
                if digit > half:
                    digit -= 1 << self.WINDOW
                    exponent += 1
                if digit > 0:
                    terms.append(row[digit - 1])
                elif digit < 0:
                    x0, x1, y0, y1 = row[-digit - 1]
                    terms.append((x0, x1, -y0 % P, -y1 % P))
            lists.append(terms)
        return [self._from_affine(total) for total in sum_affine_lists(lists)]


_TABLES: dict[type, _FixedBaseTable] = {}
_TABLES_LOCK = threading.Lock()


def _fixed_base_table(group) -> _FixedBaseTable:
    """The process's table for ``group``'s generator, built on first use.

    Double-checked under a lock: concurrent consumer threads (the
    admission scheduler runs several) and every backend instance share
    one build, and none sees a half-built table.
    """
    table = _TABLES.get(group)
    if table is None:
        with _TABLES_LOCK:
            table = _TABLES.get(group)
            if table is None:
                table = _FixedBaseTable(group.generator(), CURVE_ORDER)
                _TABLES[group] = table
    return table


#: Bytes per Fp coefficient of a serialized Fp12, and the GT identity's
#: handle (a row with no live pair).
_FP_SIZE = 32
_BN254_GT_ONE = Fp12.one().to_bytes()


class BN254Backend(BilinearBackend):
    """The real pairing backend (BN254 optimal ate).

    Every pairing runs the optimized Miller loop and final
    exponentiation of :mod:`repro.crypto.pairing_fast`.  The textbook
    :mod:`repro.crypto.pairing` is not an option here: it is the oracle
    the tests and the multi-pairing ablation compare against.
    """

    name = "bn254"
    # SJ.Dec: milliseconds of pure-Python pairing a row against
    # microseconds of IPC, from a side's second row (one row is one
    # chunk, which no worker can share).  SJ.Enc: 7-10 ms a row at d = 19
    # against a worker's G2 fixed-base table build (about 83 ms).
    pool_floors = {SJ_DEC: 2, SJ_ENC: 512}

    def __init__(self):
        super().__init__()
        self._gt_base: Fp12 | None = None
        self._build_lock = threading.Lock()

    def __getstate__(self):
        # The GT base is a pure cache.  The execution service ships the
        # backend to each pooled worker once at spawn; dropping it keeps
        # that message small and workers rebuild lazily.  The build lock
        # is unpicklable anyway; __setstate__ gives the clone a fresh
        # one.  The fixed-base tables are module state, never pickled.
        state = self.__dict__.copy()
        state["_gt_base"] = None
        del state["_build_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._build_lock = threading.Lock()

    @property
    def order(self) -> int:
        return CURVE_ORDER

    def _gt_generator(self) -> Fp12:
        """The cached base ``e(g1, g2)`` — one pairing per backend
        lifetime, not one per :meth:`gt_generator_power` call."""
        base = self._gt_base
        if base is None:
            with self._build_lock:
                base = self._gt_base
                if base is None:
                    self.ops.miller_loops += 1
                    self.ops.final_exponentiations += 1
                    base = pairing_fast(
                        G1Point.generator(), G2Point.generator()
                    )
                    self._gt_base = base
        return base

    def g1_powers(self, exponents: Sequence[int]) -> list[G1Point]:
        return _fixed_base_table(G1Point).powers(exponents)

    def g2_powers(self, exponents: Sequence[int]) -> list[G2Point]:
        return _fixed_base_table(G2Point).powers(exponents)

    def pair_vectors_batch(
        self, g1_vector: Sequence[G1Point], g2_vectors: Sequence[Sequence]
    ) -> list[bytes]:
        """SJ.Dec for a chunk of rows in one simultaneous Miller loop.

        Every live pair of every row goes through one kernel call:
        prepared elements replay their stored lines, raw ones step
        their twist points beside them — all rows' raw points in one
        lock-step trajectory, so an ate step costs the chunk a single
        inversion.  Each row's accumulated product is the same field
        element on every path, so handles stay byte-identical.
        """
        handles: list[bytes | None] = [None] * len(g2_vectors)
        rows, slots = [], []
        for slot, g2_vector in enumerate(g2_vectors):
            if len(g1_vector) != len(g2_vector):
                raise CryptoError("pairing vectors must have the same length")
            live = [
                (p, q) for p, q in zip(g1_vector, g2_vector)
                if not (p.is_infinity() or q.is_infinity())
            ]
            prepared = sum(1 for _, q in live if isinstance(q, G2Prepared))
            self.ops.miller_loops += len(live) - prepared
            self.ops.prepared_miller_loops += prepared
            if not live:
                handles[slot] = _BN254_GT_ONE
                continue
            self.ops.final_exponentiations += 1
            rows.append(live)
            slots.append(slot)
        for slot, value in zip(slots, multi_miller_rows(rows)):
            handles[slot] = final_exponentiation_fast(value).to_bytes()
        return handles

    def gt_from_bytes(self, data: bytes) -> BN254GT:
        if len(data) != 12 * _FP_SIZE:
            raise CryptoError(f"a BN254 GT element is {12 * _FP_SIZE} bytes")
        return BN254GT(Fp12.from_flat(tuple(
            int.from_bytes(data[i:i + _FP_SIZE], "big")
            for i in range(0, len(data), _FP_SIZE)
        )))

    def prepare_row(self, g2_vector: Sequence) -> PreparedRow:
        elements = tuple(g2_vector)
        self.ops.preparations += sum(
            1 for q in elements if not q.is_infinity()
        )
        return PreparedRow(elements, tuple(G2Prepared.from_points(elements)))

    @property
    def prepared_element_size(self) -> int:
        return PREPARED_ELEMENT_SIZE

    def encode_prepared(self, element: G2Prepared) -> bytes:
        return element.to_bytes()

    def decode_prepared(self, data: bytes) -> G2Prepared:
        return G2Prepared.from_bytes(data)

    def gt_identity(self) -> BN254GT:
        return BN254GT(Fp12.one())

    def gt_mul(self, a: BN254GT, b: BN254GT) -> BN254GT:
        return BN254GT(a.value * b.value)

    def gt_generator_power(self, exponent: int) -> BN254GT:
        base = self._gt_generator()
        self.ops.gt_exponentiations += 1
        return BN254GT(base.pow(exponent % CURVE_ORDER))

    def gt_pow(self, element: BN254GT, exponent: int) -> BN254GT:
        self.ops.gt_exponentiations += 1
        return BN254GT(element.value.pow(exponent % CURVE_ORDER))

    def encode_g1(self, element: G1Point) -> bytes:
        return element.to_bytes()

    def decode_g1(self, data: bytes) -> G1Point:
        return G1Point.from_bytes(data)

    def encode_g2(self, element: G2Point) -> bytes:
        return element.to_bytes()

    def decode_g2(self, data: bytes) -> G2Point:
        return G2Point.from_bytes(data)

    @property
    def g1_element_size(self) -> int:
        return 64

    @property
    def g2_element_size(self) -> int:
        return 128


_value = attrgetter("value")


class FastBackend(BilinearBackend):
    """Insecure-fast backend: group elements are their discrete logs.

    ``g^e`` is stored as ``e mod q`` and the pairing is multiplication
    mod q, so equality of handles matches the real backend exactly while
    every operation is a handful of modular multiplications.
    """

    name = "fast"
    # SJ.Dec: a row's inner product mod q costs less than shipping it to
    # a worker.  SJ.Enc: the break-even on a 2-vCPU box, where TPC-H
    # Orders took 1.14x their inline time pooled at 256 rows, 0.89x at
    # 384 and 0.80x at 512, a two-worker pool's 15 ms start-stop included.
    pool_floors = {SJ_DEC: None, SJ_ENC: 512}

    def __init__(self, modulus: int = CURVE_ORDER):
        super().__init__()
        if not is_probable_prime(modulus):
            raise CryptoError("FastBackend modulus must be prime")
        self._modulus = modulus
        self._element_size = (modulus.bit_length() + 7) // 8
        # Mirrors BN254's lazily cached e(g1, g2): the first
        # gt_generator_power pays (and counts) one pairing, the rest
        # only a GT exponentiation — same counts for the same calls.
        self._gt_base_counted = False

    @property
    def order(self) -> int:
        return self._modulus

    def g1_powers(self, exponents: Sequence[int]) -> list[int]:
        q = self._modulus
        return [e % q for e in exponents]

    def g2_powers(self, exponents: Sequence[int]) -> list[int]:
        q = self._modulus
        return [e % q for e in exponents]

    def pair_vectors_batch(
        self, g1_vector: Sequence[int], g2_vectors: Sequence[Sequence]
    ) -> list[bytes]:
        """SJ.Dec for a chunk of rows, one inner product mod q per row,
        each handle the product's fixed-width big-endian bytes.

        The op counts model the equivalent BN254 call (the same-counts
        contract): a row with no 0 on either side — every stored row
        against a query token, in practice — costs ``sum(map(mul, …))``,
        d Miller loops (replayed ones for a :class:`PreparedRow`, whose
        values are its :class:`FastPrepared` values) and one final
        exponentiation, counted once per chunk.  A row holding a 0 (the
        identity, which the real pairing skips), a row mixing raw and
        prepared elements, and every row against a token holding a 0
        take :meth:`_pair_row`, pair by pair.  A stored row's raw
        elements are a tuple, tested for first; lists work alike.
        """
        d = len(g1_vector)
        q = self._modulus
        size = self._element_size
        live_token = d > 0 and all(g1_vector)
        handles = []
        raw = prepared = finals = 0
        for row in g2_vectors:
            if type(row) is not tuple and isinstance(row, PreparedRow):
                if len(row.prepared) != d:
                    raise CryptoError(
                        "pairing vectors must have the same length"
                    )
                if live_token:
                    values = list(map(_value, row.prepared))
                    if all(values):
                        total = sum(map(mul, g1_vector, values))
                        handles.append((total % q).to_bytes(size, "big"))
                        prepared += d
                        finals += 1
                        continue
            elif len(row) != d:
                raise CryptoError("pairing vectors must have the same length")
            elif live_token and all(row):
                try:
                    total = sum(map(mul, g1_vector, row))
                except TypeError:  # a prepared element in a raw row
                    pass
                else:
                    handles.append((total % q).to_bytes(size, "big"))
                    raw += d
                    finals += 1
                    continue
            total, row_raw, row_prepared = self._pair_row(g1_vector, row)
            handles.append((total % q).to_bytes(size, "big"))
            raw += row_raw
            prepared += row_prepared
            if row_raw or row_prepared:
                finals += 1
        self.ops.miller_loops += raw
        self.ops.prepared_miller_loops += prepared
        self.ops.final_exponentiations += finals
        return handles

    @staticmethod
    def _pair_row(g1_vector: Sequence[int], g2_vector: Sequence):
        """One row pair by pair: ``(inner product, live raw pairs, live
        prepared pairs)``, a pair with a 0 on either side not live.  The
        reference :meth:`pair_vectors_batch` must agree with."""
        total = raw = prepared = 0
        for a, b in zip(g1_vector, g2_vector):
            if isinstance(b, FastPrepared):
                value = b.value
                if a and value:
                    prepared += 1
            else:
                value = b
                if a and value:
                    raw += 1
            total += a * value
        return total, raw, prepared

    def prepare_row(self, g2_vector: Sequence) -> PreparedRow:
        elements = tuple(g2_vector)
        self.ops.preparations += sum(1 for value in elements if value)
        return PreparedRow(
            elements, tuple(FastPrepared(value) for value in elements)
        )

    @property
    def prepared_element_size(self) -> int:
        return self._element_size

    def encode_prepared(self, element: FastPrepared) -> bytes:
        return self.encode_g1(element.value)

    def decode_prepared(self, data: bytes) -> FastPrepared:
        return FastPrepared(self.decode_g1(data))

    def gt_from_bytes(self, data: bytes) -> FastGT:
        if len(data) != self._element_size:
            raise CryptoError(
                f"a fast-backend GT element is {self._element_size} bytes"
            )
        return FastGT(int.from_bytes(data, "big"), self)

    def gt_identity(self) -> FastGT:
        return FastGT(0, self)

    def gt_mul(self, a: FastGT, b: FastGT) -> FastGT:
        return FastGT(a.value + b.value, self)

    def gt_generator_power(self, exponent: int) -> FastGT:
        if not self._gt_base_counted:
            self._gt_base_counted = True
            self.ops.miller_loops += 1
            self.ops.final_exponentiations += 1
        self.ops.gt_exponentiations += 1
        return FastGT(exponent, self)

    def gt_pow(self, element: FastGT, exponent: int) -> FastGT:
        self.ops.gt_exponentiations += 1
        return FastGT(element.value * (exponent % self._modulus), self)

    def encode_g1(self, element: int) -> bytes:
        return (element % self._modulus).to_bytes(self._element_size, "big")

    def decode_g1(self, data: bytes) -> int:
        if len(data) != self._element_size:
            raise CryptoError(
                f"fast-backend element needs {self._element_size} bytes"
            )
        return int.from_bytes(data, "big") % self._modulus

    def encode_g2(self, element: int) -> bytes:
        return self.encode_g1(element)

    def decode_g2(self, data: bytes) -> int:
        return self.decode_g1(data)

    @property
    def g1_element_size(self) -> int:
        return self._element_size

    @property
    def g2_element_size(self) -> int:
        return self._element_size


_BACKENDS: dict[str, BilinearBackend] = {}


def get_backend(name: str = "fast") -> BilinearBackend:
    """Return a (cached) backend by name: ``"fast"`` or ``"bn254"``."""
    if name not in ("fast", "bn254"):
        raise CryptoError(f"unknown backend {name!r}; use 'fast' or 'bn254'")
    if name not in _BACKENDS:
        _BACKENDS[name] = FastBackend() if name == "fast" else BN254Backend()
    return _BACKENDS[name]

