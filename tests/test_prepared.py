"""Prepared-row pairing: precomputation equivalence, accounting, storage.

The tentpole invariant: a prepared row replays line coefficients that
depend only on the stored G2 ciphertext, so every prepared entry point
must produce *byte-identical* results to the raw fast path (which in
turn matches the reference pairing).  The satellites pin the op-counter
contract (``gt_generator_power`` pays exactly one pairing per backend
lifetime; fast and BN254 report the same counts for the same calls),
thread-safe fixed-base initialization, and the v2 store format.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.crypto import backend as backend_module
from repro.crypto.backend import (
    BN254Backend,
    FastBackend,
    FastPrepared,
    PreparedRow,
    _FixedBaseTable,
)
from repro.crypto.curve import G1Point, G2Point
from repro.crypto.pairing import multi_pairing
from repro.crypto.pairing_fast import (
    PREPARED_COEFF_COUNT,
    PREPARED_ELEMENT_SIZE,
    G2Prepared,
    miller_loop_fast,
    miller_loop_prepared,
    multi_pairing_fast,
    multi_pairing_prepared,
    pairing_fast,
    pairing_prepared,
)
from repro.errors import PairingError, SchemeError

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional dev dep
    HAVE_HYPOTHESIS = False

_rng = random.Random(31337)


@pytest.mark.bn254
class TestPreparedPairing:
    """G2Prepared replay must equal the raw fast Miller loop exactly."""

    def test_miller_loop_replay_identical(self):
        p = G1Point.generator() * 7
        q = G2Point.generator() * 11
        prepared = G2Prepared.from_point(q)
        assert len(prepared.coeffs) == PREPARED_COEFF_COUNT
        assert miller_loop_prepared(prepared, p) == miller_loop_fast(q, p)

    def test_pairing_replay_identical(self):
        p = G1Point.generator() * 5
        q = G2Point.generator() * 9
        prepared = G2Prepared.from_point(q)
        assert pairing_prepared(p, prepared) == pairing_fast(p, q)

    def test_multi_pairing_prepared_matches_reference(self):
        pairs = []
        for _ in range(3):
            a = _rng.randrange(2, 10**9)
            b = _rng.randrange(2, 10**9)
            pairs.append((G1Point.generator() * a, G2Point.generator() * b))
        prepared_pairs = [
            (p, G2Prepared.from_point(q)) for p, q in pairs
        ]
        fused = multi_pairing_prepared(prepared_pairs)
        assert fused == multi_pairing_fast(pairs)
        assert fused == multi_pairing(pairs)
        assert fused.to_bytes() == multi_pairing(pairs).to_bytes()

    def test_infinity_pairs_are_skipped(self):
        live = (G1Point.generator() * 3, G2Point.generator() * 4)
        prepared_live = (live[0], G2Prepared.from_point(live[1]))
        with_infinity = [
            (G1Point.infinity(), G2Prepared.from_point(G2Point.generator())),
            prepared_live,
            (live[0], G2Prepared.from_point(G2Point.infinity())),
        ]
        assert multi_pairing_prepared(with_infinity) == multi_pairing([live])

    def test_serialization_round_trip(self):
        prepared = G2Prepared.from_point(G2Point.generator() * 13)
        blob = prepared.to_bytes()
        assert len(blob) == PREPARED_ELEMENT_SIZE
        clone = G2Prepared.from_bytes(blob)
        assert clone.to_bytes() == blob
        p = G1Point.generator() * 2
        assert miller_loop_prepared(clone, p) == miller_loop_prepared(
            prepared, p
        )

    def test_infinity_serialization_round_trip(self):
        prepared = G2Prepared.from_point(G2Point.infinity())
        assert prepared.is_infinity()
        clone = G2Prepared.from_bytes(prepared.to_bytes())
        assert clone.is_infinity()

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=5, deadline=None)
    @given(
        scalars=st.lists(
            st.tuples(st.integers(1, 2**60), st.integers(1, 2**60)),
            min_size=1,
            max_size=3,
        )
    )
    def test_property_prepared_equals_fast_equals_reference(self, scalars):
        pairs = [
            (G1Point.generator() * a, G2Point.generator() * b)
            for a, b in scalars
        ]
        prepared_pairs = [
            (p, G2Prepared.from_point(q)) for p, q in pairs
        ]
        reference = multi_pairing(pairs)
        assert multi_pairing_fast(pairs) == reference
        assert multi_pairing_prepared(prepared_pairs) == reference


class TestPreparedRowContainer:
    def test_iterates_prepared_elements(self):
        backend = FastBackend()
        row = backend.prepare_row(backend.g2_powers([3, 5, 7]))
        assert isinstance(row, PreparedRow)
        assert len(row) == 3
        assert all(isinstance(e, FastPrepared) for e in row)
        assert row.elements == tuple(backend.g2_powers([3, 5, 7]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(Exception):
            PreparedRow((1, 2), (FastPrepared(1),))


class TestOpAccounting:
    """All pairing entry points must touch ``ops`` consistently."""

    def test_gt_generator_power_pays_one_pairing_total_fast(self):
        backend = FastBackend()
        backend.gt_generator_power(3)
        assert backend.ops.miller_loops == 1
        assert backend.ops.final_exponentiations == 1
        assert backend.ops.gt_exponentiations == 1
        for exponent in (5, 7, 11):
            backend.gt_generator_power(exponent)
        # The base pairing is cached: only GT exponentiations accrue.
        assert backend.ops.miller_loops == 1
        assert backend.ops.final_exponentiations == 1
        assert backend.ops.gt_exponentiations == 4

    @pytest.mark.bn254
    def test_gt_generator_power_pays_one_pairing_total_bn254(self):
        backend = BN254Backend()
        backend.gt_generator_power(3)
        assert backend.ops.miller_loops == 1
        assert backend.ops.final_exponentiations == 1
        assert backend.ops.gt_exponentiations == 1
        backend.gt_generator_power(5)
        backend.gt_pow(backend.gt_generator_power(2), 6)
        assert backend.ops.miller_loops == 1
        assert backend.ops.final_exponentiations == 1
        assert backend.ops.gt_exponentiations == 4

    @pytest.mark.bn254
    def test_same_counts_for_same_calls(self):
        """The fast backend models BN254's op counts exactly —
        including the prepared/raw split (DESIGN contract §4)."""

        def drive(backend):
            token = backend.g1_powers([1, 2, 3])
            raw_rows = [
                backend.g2_powers([4, 5, 6]),
                backend.g2_powers([7, 0, 9]),
            ]
            backend.pair_vectors_batch(token, raw_rows)
            prepared = [backend.prepare_row(row) for row in raw_rows]
            backend.pair_vectors_batch(token, prepared)
            backend.pair_vectors(
                token, [prepared[0][0], raw_rows[0][1], prepared[0][2]]
            )
            backend.gt_generator_power(5)
            backend.gt_generator_power(6)
            backend.gt_pow(backend.gt_identity(), 3)
            return backend.ops.snapshot()

        assert drive(FastBackend()) == drive(BN254Backend())

    def test_prepared_results_identical_fast(self):
        backend = FastBackend()
        token = backend.g1_powers([2, 3, 4])
        rows = [backend.g2_powers([r, r + 1, r + 2]) for r in range(1, 6)]
        raw = backend.pair_vectors_batch(token, rows)
        prepared = backend.pair_vectors_batch(
            token, [backend.prepare_row(row) for row in rows]
        )
        assert [gt.to_bytes() for gt in raw] == [
            gt.to_bytes() for gt in prepared
        ]
        assert backend.ops.miller_loops == backend.ops.prepared_miller_loops

    @pytest.mark.bn254
    def test_prepared_results_identical_bn254(self):
        backend = BN254Backend()
        token = backend.g1_powers([2, 3])
        rows = [backend.g2_powers([4, 5]), backend.g2_powers([6, 7])]
        raw = backend.pair_vectors_batch(token, rows)
        prepared = backend.pair_vectors_batch(
            token, [backend.prepare_row(row) for row in rows]
        )
        assert [gt.to_bytes() for gt in raw] == [
            gt.to_bytes() for gt in prepared
        ]
        assert backend.ops.prepared_miller_loops == 4
        assert backend.ops.preparations == 4

    @pytest.mark.bn254
    def test_mixed_raw_and_prepared_vector(self):
        backend = BN254Backend()
        token = backend.g1_powers([2, 3, 4])
        row = backend.g2_powers([5, 6, 7])
        prepared = backend.prepare_row(row)
        mixed = [prepared[0], row[1], prepared[2]]
        raw_gt = backend.pair_vectors(token, row)
        mixed_gt = backend.pair_vectors(token, mixed)
        assert raw_gt.to_bytes() == mixed_gt.to_bytes()


class TestPreparedCodec:
    def test_fast_round_trip(self):
        backend = FastBackend()
        row = backend.prepare_row(backend.g2_powers([9, 10]))
        for element in row:
            blob = backend.encode_prepared(element)
            assert len(blob) == backend.prepared_element_size
            clone = backend.decode_prepared(blob)
            assert clone.value == element.value

    @pytest.mark.bn254
    def test_bn254_round_trip_byte_identity(self):
        backend = BN254Backend()
        row = backend.prepare_row(backend.g2_powers([9, 10]))
        token = backend.g1_powers([2, 3])
        direct = backend.pair_vectors(token, row)
        decoded = PreparedRow(
            row.elements,
            tuple(
                backend.decode_prepared(backend.encode_prepared(e))
                for e in row
            ),
        )
        replayed = backend.pair_vectors(token, decoded)
        assert direct.to_bytes() == replayed.to_bytes()

    def test_binary_loop_element_refused_by_name(self):
        # What the plain-binary ate loop stored: 102 coefficients.
        backend = BN254Backend()
        assert backend.prepared_element_size == 1 + 88 * 128 == 11265
        stale = bytes(1 + 102 * 128)
        assert len(stale) == 13057
        with pytest.raises(
            PairingError, match="needs 11265 bytes, got 13057"
        ):
            backend.decode_prepared(stale)
        with pytest.raises(
            PairingError, match="102 line coefficients.*needs 88"
        ):
            G2Prepared(((0, 0, 0, 0),) * 102)


class TestThreadSafeFixedBase:
    @pytest.mark.bn254
    def test_concurrent_g1_init_builds_once(self, monkeypatch):
        builds = []
        original_init = _FixedBaseTable.__init__

        def counting_init(self, base, order):
            builds.append(threading.get_ident())
            original_init(self, base, order)

        monkeypatch.setattr(_FixedBaseTable, "__init__", counting_init)
        # The tables are per process: start from an empty cache.
        monkeypatch.setattr(backend_module, "_TABLES", {})
        backends = [BN254Backend(), BN254Backend()]
        barrier = threading.Barrier(4)
        results = []

        def race(backend):
            barrier.wait()
            results.append(backend.g1_power(7))

        threads = [
            threading.Thread(target=race, args=(backends[i % 2],))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # One G1 table build despite four racing threads on two
        # backends, and every thread saw the same point.
        assert len(builds) == 1
        assert len(results) == 4
        assert all(point == results[0] for point in results)

    @pytest.mark.bn254
    def test_pickle_drops_gt_cache_and_rebuilds_lock(self):
        import pickle

        backend = BN254Backend()
        backend.gt_generator_power(3)
        assert backend._gt_base is not None
        blob = pickle.dumps(backend)
        assert len(blob) < 4096
        clone = pickle.loads(blob)
        assert clone._gt_base is None
        # The recreated lock must actually work.
        assert clone.g1_power(5) == backend.g1_power(5)
        assert clone.gt_generator_power(3) == backend.gt_generator_power(3)


class TestWindowedFixedBase:
    @pytest.mark.bn254
    def test_windowed_table_matches_scalar_mult(self, bn254_backend):
        generator = G1Point.generator()
        for exponent in (1, 2, 15, 16, 255, 257, 2**64 + 12345):
            assert bn254_backend.g1_power(exponent) == generator * exponent


class TestEnginePreparedEquivalence:
    """Serial, inline, decided and pooled runs yield identical handles on
    raw and prepared rows."""

    def _fixture(self):
        backend = FastBackend()
        token = backend.g1_powers(range(2, 8))
        rows = [
            backend.g2_powers(range(r, r + 6)) for r in range(1, 41)
        ]
        prepared = [backend.prepare_row(row) for row in rows]
        return backend, token, rows, prepared

    @pytest.mark.parametrize("name", ["serial", "batched", "auto"])
    def test_inline_engines(self, name):
        """``auto`` is the engine deciding on a two-worker pool, which
        keeps every fast-backend side inline."""
        from repro.baselines import SerialEngine
        from repro.core.engine import BatchedEngine
        from repro.core.service import ExecutionService

        service = ExecutionService(workers=2)

        def engine():
            if name == "serial":
                return SerialEngine()
            built = BatchedEngine()
            if name == "auto":
                built.bind_service(service)
            return built

        backend, token, rows, prepared = self._fixture()
        raw_handles, raw_report = engine().decrypt_handles(
            backend, token, rows
        )
        warm_handles, warm_report = engine().decrypt_handles(
            backend, token, prepared
        )
        assert not service.started
        if name == "auto":
            assert raw_report.selected == warm_report.selected == "batched"
        assert raw_handles == warm_handles
        assert raw_report.prepared_miller_loops == 0
        assert warm_report.miller_loops == 0
        assert warm_report.prepared_miller_loops == raw_report.miller_loops

    def test_parallel_engine_pooled(self):
        from repro.core.engine import BatchedEngine
        from repro.core.service import ExecutionService
        from tests.conftest import PoolEngine

        backend, token, rows, prepared = self._fixture()
        with ExecutionService(workers=2) as service:
            engine = PoolEngine(batch_size=8)
            engine.bind_service(service)
            raw_handles, raw_report = engine.decrypt_handles(
                backend, token, rows
            )
            warm_handles, warm_report = engine.decrypt_handles(
                backend, token, prepared
            )
            again_handles, again_report = engine.decrypt_handles(
                backend, token, prepared
            )
        assert raw_handles == warm_handles == again_handles
        assert raw_report.selected == warm_report.selected == "parallel"
        assert warm_report.miller_loops == 0
        assert warm_report.prepared_miller_loops == raw_report.miller_loops
        # First prepared pass rebuilds coefficients worker-side; the
        # repeat run reuses the digest-keyed caches (a chunk may still
        # land on the other worker once, so "no more than" is the
        # contract, converging to zero as the pool warms).
        assert warm_report.preparations > 0
        assert again_report.preparations <= warm_report.preparations

    def test_auto_planner_records_prepared(self):
        """The rule reads no row kind: a prepared side is decided as a
        raw one is, and its report counts the replayed loops."""
        from repro.core.engine import BatchedEngine
        from repro.core.service import ExecutionService

        backend, token, rows, prepared = self._fixture()
        engine = BatchedEngine()
        with ExecutionService(workers=2) as service:
            engine.bind_service(service)
            _, report = engine.decrypt_handles(backend, token, prepared)
            _, raw_report = engine.decrypt_handles(backend, token, rows)
            assert not service.started
        assert report.selected == raw_report.selected == "batched"
        assert report.prepared_miller_loops > 0
        assert raw_report.prepared_miller_loops == 0


class TestServerPreparedTables:
    def _setup(self):
        from repro.core.client import SecureJoinClient
        from repro.core.server import SecureJoinServer
        from repro.db.schema import Schema
        from repro.db.table import Table

        teams = Table(
            "Teams", Schema.of(("key", "int"), ("name", "str")),
            [(1, "Web"), (2, "DB")],
        )
        emps = Table(
            "Emps", Schema.of(("record", "int"), ("team", "int")),
            [(1, 1), (2, 1), (3, 2), (4, 2)],
        )
        client = SecureJoinClient.for_tables(
            [(teams, "key"), (emps, "team")],
            in_clause_limit=3,
            rng=random.Random(7),
        )
        server = SecureJoinServer(client.params)
        server.store(client.encrypt_table(teams, "key"))
        server.store(client.encrypt_table(emps, "team"))
        return client, server

    def test_prepare_table_switches_queries_to_replay(self):
        from repro.db.query import JoinQuery

        client, server = self._setup()
        query = JoinQuery.build("Teams", "Emps", on=("key", "team"))
        with server:
            cold = server.execute_join(client.create_query(query))
            assert cold.stats.prepared_miller_loops == 0
            assert server.prepare_table("Teams") == 2
            assert server.prepare_table("Emps") == 4
            # Idempotent: nothing new to prepare.
            assert server.prepare_table("Teams") == 0
            warm = server.execute_join(client.create_query(query))
        assert sorted(warm.index_pairs) == sorted(cold.index_pairs)
        assert warm.stats.miller_loops == 0
        assert warm.stats.prepared_miller_loops == cold.stats.miller_loops

    def test_insert_into_prepared_table_stays_warm(self):
        from repro.db.query import JoinQuery
        from repro.db.table import Table
        from repro.db.schema import Schema

        client, server = self._setup()
        query = JoinQuery.build("Teams", "Emps", on=("key", "team"))
        with server:
            server.prepare_table("Teams")
            server.prepare_table("Emps")
            extra = Table(
                "Emps", Schema.of(("record", "int"), ("team", "int")),
                [(5, 1)],
            )
            encrypted = client.encrypt_table(extra, "team")
            server.insert_row(
                "Emps", encrypted.ciphertexts[0], encrypted.payloads[0]
            )
            table = server.table("Emps")
            assert len(table.prepared_rows) == len(table.ciphertexts)
            result = server.execute_join(client.create_query(query))
        # The inserted row participates and the whole side stays on
        # the replay path.
        assert (0, 4) in result.index_pairs
        assert result.stats.miller_loops == 0
        assert result.stats.prepared_miller_loops > 0


class TestStoredPreparedTables:
    def _encrypted_table(self, backend_name="fast"):
        from repro.core.client import SecureJoinClient
        from repro.db.schema import Schema
        from repro.db.table import Table

        table = Table(
            "T", Schema.of(("key", "int"), ("name", "str")),
            [(1, "a"), (2, "b"), (3, "c")],
        )
        client = SecureJoinClient.for_tables(
            [(table, "key")], in_clause_limit=3, rng=random.Random(3),
        )
        return client.encrypt_table(table, "key"), client.scheme.backend

    def test_round_trip_preserves_prepared_rows(self):
        from repro.store.tables import (
            decode_encrypted_table,
            encode_encrypted_table,
            prepare_encrypted_table,
        )

        table, backend = self._encrypted_table()
        assert prepare_encrypted_table(table, backend) == 3
        assert prepare_encrypted_table(table, backend) == 0
        blob = encode_encrypted_table(table, backend)
        loaded = decode_encrypted_table(blob, backend)
        assert loaded.prepared_rows is not None
        assert len(loaded.prepared_rows) == 3
        # Byte-identical replay through the decoded precomputation.
        dimension = len(table.ciphertexts[0])
        token = backend.g1_powers(range(2, dimension + 2))
        for original, decoded in zip(table.prepared_rows, loaded.prepared_rows):
            assert backend.pair_vectors(token, original).to_bytes() == \
                backend.pair_vectors(token, decoded).to_bytes()
        # Encoding the decoded table reproduces the bytes exactly.
        assert encode_encrypted_table(loaded, backend) == blob

    def test_unprepared_round_trip_unchanged(self):
        from repro.store.tables import (
            decode_encrypted_table,
            encode_encrypted_table,
        )

        table, backend = self._encrypted_table()
        loaded = decode_encrypted_table(
            encode_encrypted_table(table, backend), backend
        )
        assert loaded.prepared_rows is None

    def test_save_with_prepare_flag(self, tmp_path):
        from repro.store.tables import (
            load_encrypted_table,
            save_encrypted_table,
        )

        table, backend = self._encrypted_table()
        path = tmp_path / "table.rpro"
        save_encrypted_table(table, path, backend, prepare=True)
        loaded = load_encrypted_table(path, backend)
        assert loaded.prepared_rows is not None
        assert len(loaded.prepared_rows) == 3

    @pytest.mark.bn254
    def test_bn254_prepared_store_replay_byte_identity(self):
        from repro.store.tables import (
            decode_encrypted_table,
            encode_encrypted_table,
            prepare_encrypted_table,
        )

        backend = BN254Backend()
        from repro.core.scheme import SJRowCiphertext
        from repro.core.client import EncryptedTable
        from repro.db.schema import Schema

        ciphertexts = [
            SJRowCiphertext(tuple(backend.g2_powers([r + 1, r + 2])))
            for r in range(2)
        ]
        table = EncryptedTable(
            name="T",
            schema=Schema.of(("key", "int")),
            join_column="key",
            attribute_columns=(),
            ciphertexts=ciphertexts,
            payloads=[b"p0", b"p1"],
        )
        prepare_encrypted_table(table, backend)
        blob = encode_encrypted_table(table, backend)
        loaded = decode_encrypted_table(blob, backend)
        # A file from before the signed-digit trajectory is refused by
        # its version, not by a size that happens to differ.
        with pytest.raises(
            SchemeError, match="unsupported format version 5"
        ):
            decode_encrypted_table(blob[:8] + b"\x05" + blob[9:], backend)
        token = backend.g1_powers([3, 4])
        for row_index in range(2):
            raw = backend.pair_vectors(
                token, ciphertexts[row_index].elements
            )
            replayed = backend.pair_vectors(
                token, loaded.prepared_rows[row_index]
            )
            assert raw.to_bytes() == replayed.to_bytes()
