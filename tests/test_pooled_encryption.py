"""SJ.Enc of a large table on the process's worker pool.

From the backend's SJ.Enc row floor (``pool_floors``), on a process
that may run on two CPUs or more, ``SecureJoinClient.encrypt_table``
encodes every cell and draws every row's blinding in the parent, in
row order, then runs the upload kernel over ``chunk_spans`` chunks on
``process_pool``'s pool.
These tests pin what that must not change: the ciphertexts and the rng
stream of a row-by-row ``encrypt_row`` run, the pre-filter tags and the
payloads; a bad row fails before anything is drawn or dispatched; a
worker crash costs a retry, not a byte; and a client that held the pool
alone leaves no worker and no descriptor behind, also beside an open
store whose sides never use the pool.  The width is pinned
by patching ``os.sched_getaffinity``, so the pooled path runs on a
one-CPU box too.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import signal

import pytest

from repro.core import service
from repro.core.client import SecureJoinClient
from repro.core.server import SecureJoinServer
from repro.crypto.backend import SJ_ENC, BN254Backend, FastBackend
from repro.crypto.hashing import derive_key, keyed_tag
from repro.crypto.symmetric import SymmetricCipher
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.errors import SchemeError
from repro.tpch import TPCHGenerator
from tests.conftest import PoolEngine

_SECRET = b"pooled-encryption".ljust(32, b".")
_FLOOR = FastBackend.pool_floors[SJ_ENC]


def _cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _orders(rows: int) -> Table:
    """Seeded TPC-H Orders rows (m = 9 non-join attributes)."""
    orders = TPCHGenerator(0.002, seed=7).orders()
    return Table(orders.name, orders.schema, list(orders)[:rows])


def _client(backend=None, m: int = 9, t: int = 1) -> SecureJoinClient:
    return SecureJoinClient(
        num_attributes=m, in_clause_limit=t, backend=backend,
        master_secret=_SECRET, rng=random.Random(40),
        enable_prefilter=True,
        prefilter_columns=("orderstatus", "selectivity", "v"),
    )


def _reference(table: Table, join_column: str, backend=None, m=9, t=1):
    """Row-by-row SJ.Enc on a client seeded alike: ``(elements, the
    rng's next draw)``."""
    client = _client(backend, m, t)
    join = table.schema.index_of(join_column)
    elements = [
        client.scheme.encrypt_row(
            client.msk, row[join],
            [value for i, value in enumerate(row) if i != join],
        ).elements
        for row in table
    ]
    return elements, client.scheme.rng.random()


def _children() -> set[int]:
    """This process's live children (an earlier test may have left
    some: compare before and after, never against none)."""
    return {child.pid for child in multiprocessing.active_children()}


def _pool(backend, width: int = 2) -> service.ExecutionService:
    """Hold the pool the client will use, so the test can read it."""
    pool = service.process_pool(backend, width)
    pool.attach()
    return pool


class TestSameBytesAsRowByRow:
    @pytest.mark.parametrize(
        "cpus", [None, 1, 2], ids=["own-affinity", "one-cpu", "two-cpus"]
    )
    def test_ciphertexts_rng_tags_and_payloads(self, monkeypatch, cpus):
        """(a) Above the floor the table equals row-by-row
        ``encrypt_row``, the rng is where that run leaves it, the tags
        are the keyed tags and the payloads decrypt to the rows; on one
        CPU the same table is encrypted inline.  ``own-affinity`` takes
        whichever path the process's CPUs give it (inline under
        ``taskset -c 0``)."""
        if cpus is None:
            cpus = service.default_width()
        else:
            _cpus(monkeypatch, cpus)
        table = _orders(2 * _FLOOR)
        client = _client()
        pool = _pool(client.scheme.backend, cpus)
        try:
            encrypted = client.encrypt_table(table, "custkey")
            assert pool.generation == (1 if cpus > 1 else 0)
        finally:
            pool.detach()
        elements, draw = _reference(table, "custkey")
        assert [c.elements for c in encrypted.ciphertexts] == elements
        assert client.scheme.rng.random() == draw
        for column in ("orderstatus", "selectivity"):
            key = derive_key(_SECRET, f"prefilter.Orders.{column}")
            index = table.schema.index_of(column)
            assert encrypted.prefilter_tags[column] == [
                keyed_tag(key, row[index]) for row in table
            ]
        cipher = SymmetricCipher(derive_key(_SECRET, "payload.Orders"))
        assert [
            tuple(json.loads(cipher.decrypt(payload)))
            for payload in encrypted.payloads
        ] == list(table)

    def test_narrow_layout_then_inserts(self, monkeypatch):
        """``chain3_inproc``'s layout (m = 1, t = 10) with repeated keys,
        then an insert, which stays one inline row: the rng runs on
        from where the pooled table left it."""
        _cpus(monkeypatch, 2)
        rows = [(k % 97, f"T.{k}") for k in range(2 * _FLOOR + 3)]
        schema = Schema.of(("k", "int"), ("v", "str"))
        table = Table("T", schema, rows)
        client = _client(m=1, t=10)
        encrypted = client.encrypt_table(table, "k")
        ciphertext, _, tags = client.encrypt_row_for("T", (5, "new"))
        reference = _client(m=1, t=10)
        expected = [
            reference.scheme.encrypt_row(reference.msk, k, [v]).elements
            for k, v in rows + [(5, "new")]
        ]
        assert [
            c.elements for c in encrypted.ciphertexts + [ciphertext]
        ] == expected
        assert tags == {
            "v": keyed_tag(derive_key(_SECRET, "prefilter.T.v"), "new")
        }

    def test_below_the_floor_no_pool_is_made(self, monkeypatch):
        _cpus(monkeypatch, 2)
        pools, children = dict(service._POOLS), _children()
        _client().encrypt_table(_orders(_FLOOR - 1), "custkey")
        assert service._POOLS == pools
        assert _children() == children


class _UncheckedTable(Table):
    """A table that takes any row: what a caller's own table type may
    hand the client, checked by nothing before SJ.Enc."""

    def insert(self, row) -> None:
        self._rows.append(tuple(row))


class TestBadRowsFailFirst:
    """(b) A row the parent's pass rejects, placed after the first
    chunk, raises before any draw or dispatch."""

    @pytest.mark.parametrize(
        "bad, error",
        [(float("nan"), ValueError), ([1, 2], TypeError)],
        ids=["nan", "unsupported-type"],
    )
    def test_rng_pool_and_children_unchanged(self, monkeypatch, bad, error):
        _cpus(monkeypatch, 2)
        table = _orders(2 * _FLOOR)
        rows = list(table)
        price = table.schema.index_of("totalprice")
        rows[_FLOOR + 7] = (
            rows[_FLOOR + 7][:price] + (bad,) + rows[_FLOOR + 7][price + 1:]
        )
        unchecked = _UncheckedTable(table.name, table.schema, rows)
        client = _client()
        state, children = client.scheme.rng.getstate(), _children()
        pool = _pool(client.scheme.backend)
        try:
            with pytest.raises(error):
                client.encrypt_table(unchecked, "custkey")
            assert client.scheme.rng.getstate() == state
            assert (pool.generation, pool.started) == (0, False)
            assert _children() == children
        finally:
            pool.detach()

    def test_over_m(self, monkeypatch):
        """A table wider than m raises before its rows are read; a row
        of more than m attributes after the first chunk raises in the
        parent's pass, before any draw."""
        _cpus(monkeypatch, 2)
        client = _client(m=8)
        state, children = client.scheme.rng.getstate(), _children()
        pool = _pool(client.scheme.backend)
        try:
            with pytest.raises(SchemeError, match="m=8"):
                client.encrypt_table(_orders(2 * _FLOOR), "custkey")
            rows = [(row[1], list(row[2:])) for row in _orders(2 * _FLOOR)]
            rows[_FLOOR + 7] = (rows[_FLOOR + 7][0], rows[_FLOOR + 7][1] * 2)
            with pytest.raises(SchemeError, match="exceed"):
                client.scheme.encrypt_inputs(rows)
            assert client.scheme.rng.getstate() == state
            assert (pool.generation, pool.started) == (0, False)
            assert _children() == children
        finally:
            pool.detach()


#: g2_powers calls a pooled worker makes before it SIGKILLs itself: in
#: its second or later chunk, mid-table.
_CALLS_BEFORE_CRASH = 300
_calls_in_this_process = 0


class CrashOnceEncBackend(FastBackend):
    """The first pooled worker to reach its ``_CALLS_BEFORE_CRASH``-th
    SJ.Enc row SIGKILLs itself — exactly one worker, every run ("first"
    is whoever wins the exclusive create of the flag file); the process
    that built the backend never dies."""

    def __init__(self, flag_path):
        super().__init__()
        self.flag_path = str(flag_path)
        self.builder_pid = os.getpid()

    def g2_powers(self, exponents):
        global _calls_in_this_process
        if os.getpid() != self.builder_pid:
            _calls_in_this_process += 1
            if _calls_in_this_process == _CALLS_BEFORE_CRASH:
                try:
                    os.close(os.open(self.flag_path, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    os.kill(os.getpid(), signal.SIGKILL)
        return super().g2_powers(exponents)


class TestWorkerCrash:
    def test_a_crash_costs_a_retry_not_a_byte(self, monkeypatch, tmp_path):
        """(c) A worker dies mid-table: its chunks run again on the same
        inputs, and the table is the row-by-row one."""
        _cpus(monkeypatch, 2)
        backend = CrashOnceEncBackend(tmp_path / "worker-crashed")
        table = _orders(2 * _FLOOR)
        client = _client(backend)
        pool = _pool(backend)
        try:
            encrypted = client.encrypt_table(table, "custkey")
            assert (tmp_path / "worker-crashed").exists()
            assert pool.worker_restarts == 1
            assert pool.generation == 1
        finally:
            pool.detach()
        elements, draw = _reference(table, "custkey", FastBackend())
        assert [c.elements for c in encrypted.ciphertexts] == elements
        assert client.scheme.rng.random() == draw


class TestNothingOutlivesTheCall:
    def test_sole_holder_leaves_no_worker_or_descriptor(self, monkeypatch):
        """(d) With no other holder the pool starts for the call and
        stops before it returns."""
        _cpus(monkeypatch, 2)
        table = _orders(2 * _FLOOR)
        client = _client()
        descriptors = len(os.listdir("/proc/self/fd"))
        children = _children()
        client.encrypt_table(table, "custkey")
        client.encrypt_table(table.rename("Again"), "custkey")
        assert _children() == children
        assert len(os.listdir("/proc/self/fd")) == descriptors
        (pool,) = service._POOLS.values()
        # Started once per call, stopped after each.
        assert (pool.generation, pool.started) == (2, False)

    def test_a_store_that_never_pools_holds_nothing(self, monkeypatch):
        """A fast-backend store built first, with the default engine,
        holds no pool: its SJ.Dec never goes there.  So an upload of the
        floor's rows beside it is the pool's only holder, and stops its
        workers before it returns."""
        _cpus(monkeypatch, 2)
        client = _client()
        children = _children()
        with SecureJoinServer(client.params) as server:
            encrypted = client.encrypt_table(_orders(_FLOOR), "custkey")
            assert _children() == children
            (pool,) = service._POOLS.values()
            assert pool is server.execution_service
            assert (pool.generation, pool.started) == (1, False)
            server.store(encrypted)

    def test_a_store_that_pools_keeps_its_workers(self, monkeypatch):
        """A store whose sides go to the pool holds it from the start:
        the workers an upload forks stay for its queries, and two
        queries run on one pool generation."""
        _cpus(monkeypatch, 2)
        schema = Schema.of(("k", "int"), ("v", "str"))
        big = Table("T", schema, [(k % 7, f"t{k}") for k in range(_FLOOR)])
        small = Table("U", schema, [(k, f"u{k}") for k in range(7)])
        client = _client(m=1, t=1)
        children = _children()
        with SecureJoinServer(
            client.params, engine=PoolEngine(), series_cache_bytes=None
        ) as server:
            for table in (big, small):
                server.store(client.encrypt_table(table, "k"))
            assert server.execution_service.started
            assert _children() > children
            query = client.create_query(
                JoinQuery.build("T", "U", on=("k", "k"))
            )
            stats = [server.execute_join(query).stats for _ in range(2)]
        assert [s.engine_selected for s in stats] == ["parallel"] * 2
        assert [s.pool_generation for s in stats] == [1, 1]
        assert _children() == children


@pytest.mark.bn254
def test_bn254_pooled_equals_row_by_row(monkeypatch, bn254_backend):
    """(e) On real G2 powers at d = 5, with the floor lowered: the
    points the workers raise are the row-by-row ones."""
    _cpus(monkeypatch, 2)
    monkeypatch.setitem(BN254Backend.pool_floors, SJ_ENC, 4)
    schema = Schema.of(("k", "int"), ("v", "str"))
    table = Table("T", schema, [(k % 3, f"v{k}") for k in range(9)])
    client = _client(bn254_backend, m=1, t=1)
    pool = _pool(bn254_backend)
    try:
        encrypted = client.encrypt_table(table, "k")
        assert pool.generation == 1
    finally:
        pool.detach()
    elements, draw = _reference(table, "k", bn254_backend, m=1, t=1)
    encode = bn254_backend.encode_g2
    assert [
        [encode(e) for e in c.elements] for c in encrypted.ciphertexts
    ] == [[encode(e) for e in row] for row in elements]
    assert client.scheme.rng.random() == draw
