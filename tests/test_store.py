"""Tests for the persistence and wire formats."""

from __future__ import annotations

import random

import pytest

from repro.core.client import EncryptedChainQuery, SecureJoinClient
from repro.core.server import SecureJoinServer
from repro.crypto.backend import BN254Backend, FastBackend
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.errors import SchemeError
from repro.store.codec import Reader, Writer, read_header, write_header
from repro.store.tables import (
    decode_encrypted_table,
    encode_encrypted_table,
    load_encrypted_table,
    save_encrypted_table,
)
from repro.store.wire import (
    StreamReassembler,
    decode_frame,
    decode_join_query,
    encode_final_frame,
    encode_join_query,
    encode_match_batch,
    encode_stream_header,
)


def _fixture(backend=None, enable_prefilter=False, seed=6):
    left = Table("L", Schema.of(("k", "int"), ("c", "str")),
                 [(1, "x"), (2, "y"), (1, "z")])
    right = Table("R", Schema.of(("k", "int"), ("d", "str")),
                  [(1, "p"), (3, "q")])
    client = SecureJoinClient.for_tables(
        [(left, "k"), (right, "k")],
        in_clause_limit=2,
        backend=backend,
        rng=random.Random(seed),
        enable_prefilter=enable_prefilter,
    )
    enc_left = client.encrypt_table(left, "k")
    enc_right = client.encrypt_table(right, "k")
    return client, enc_left, enc_right


class TestCodecPrimitives:
    def test_reader_writer_round_trip(self):
        writer = Writer()
        writer.u8(7).u32(123456).blob(b"hello")
        reader = Reader(writer.getvalue())
        assert reader.u8() == 7
        assert reader.u32() == 123456
        assert reader.blob() == b"hello"
        reader.expect_end()

    def test_truncated_read(self):
        reader = Reader(b"\x00\x01")
        with pytest.raises(SchemeError):
            reader.u32()

    def test_trailing_bytes_detected(self):
        reader = Reader(b"\x00extra")
        reader.u8()
        with pytest.raises(SchemeError):
            reader.expect_end()

    def test_header_round_trip(self):
        writer = Writer()
        write_header(writer, b"MAGICXYZ", 1, {"a": [1, 2]})
        reader = Reader(writer.getvalue())
        assert read_header(reader, b"MAGICXYZ", 1) == {"a": [1, 2]}

    def test_bad_magic(self):
        writer = Writer()
        write_header(writer, b"MAGICXYZ", 1, {})
        with pytest.raises(SchemeError):
            read_header(Reader(writer.getvalue()), b"OTHERMAG", 1)

    def test_bad_version(self):
        writer = Writer()
        write_header(writer, b"MAGICXYZ", 2, {})
        with pytest.raises(SchemeError):
            read_header(Reader(writer.getvalue()), b"MAGICXYZ", 1)


class TestEncryptedTableFormat:
    def test_round_trip_fast_backend(self):
        client, enc_left, _ = _fixture()
        backend = client.scheme.backend
        decoded = decode_encrypted_table(
            encode_encrypted_table(enc_left, backend), backend
        )
        assert decoded.name == enc_left.name
        assert decoded.schema == enc_left.schema
        assert decoded.join_column == enc_left.join_column
        assert decoded.attribute_columns == enc_left.attribute_columns
        assert [c.elements for c in decoded.ciphertexts] == [
            c.elements for c in enc_left.ciphertexts
        ]
        assert decoded.payloads == enc_left.payloads

    def test_round_trip_with_prefilter(self):
        client, enc_left, _ = _fixture(enable_prefilter=True)
        backend = client.scheme.backend
        decoded = decode_encrypted_table(
            encode_encrypted_table(enc_left, backend), backend
        )
        assert decoded.prefilter_tags == enc_left.prefilter_tags

    @pytest.mark.bn254
    def test_round_trip_bn254(self, bn254_backend):
        client, enc_left, _ = _fixture(backend=bn254_backend)
        decoded = decode_encrypted_table(
            encode_encrypted_table(enc_left, bn254_backend), bn254_backend
        )
        assert [c.elements for c in decoded.ciphertexts] == [
            c.elements for c in enc_left.ciphertexts
        ]

    def test_backend_mismatch_rejected(self):
        client, enc_left, _ = _fixture()
        blob = encode_encrypted_table(enc_left, client.scheme.backend)
        with pytest.raises(SchemeError):
            decode_encrypted_table(blob, BN254Backend())

    def test_corrupt_blob_rejected(self):
        client, enc_left, _ = _fixture()
        blob = encode_encrypted_table(enc_left, client.scheme.backend)
        with pytest.raises(SchemeError):
            decode_encrypted_table(blob[:-3], client.scheme.backend)

    def test_save_load_file(self, tmp_path):
        client, enc_left, _ = _fixture()
        backend = client.scheme.backend
        path = tmp_path / "left.etbl"
        save_encrypted_table(enc_left, path, backend)
        loaded = load_encrypted_table(path, backend)
        assert loaded.payloads == enc_left.payloads

    def test_loaded_table_joins_correctly(self, tmp_path):
        """A server restarted from disk must produce identical results."""
        client, enc_left, enc_right = _fixture(seed=9)
        backend = client.scheme.backend
        save_encrypted_table(enc_left, tmp_path / "l.etbl", backend)
        save_encrypted_table(enc_right, tmp_path / "r.etbl", backend)

        server = SecureJoinServer(client.params)
        server.store(load_encrypted_table(tmp_path / "l.etbl", backend))
        server.store(load_encrypted_table(tmp_path / "r.etbl", backend))
        query = JoinQuery.build("L", "R", on=("k", "k"))
        result = server.execute_join(client.create_query(query))
        assert sorted(result.tuples) == [(0, 0), (2, 0)]
        decrypted = client.decrypt_chain_result(result)
        assert len(decrypted.table) == 2


class TestShardedTableFormat:
    """The optional shard descriptor section of the store format."""

    def test_sharded_round_trip(self):
        from repro.shard import partition_table

        client, enc_left, _ = _fixture(enable_prefilter=True)
        backend = client.scheme.backend
        for shard in partition_table(enc_left, backend, 2):
            decoded = decode_encrypted_table(
                encode_encrypted_table(shard, backend), backend
            )
            assert decoded.shard == shard.shard
            assert decoded.payloads == shard.payloads
            assert decoded.prefilter_tags == shard.prefilter_tags
            assert [c.elements for c in decoded.ciphertexts] == [
                c.elements for c in shard.ciphertexts
            ]

    def test_loaded_shards_join_identically(self, tmp_path):
        """Shard tables restored from disk feed a coordinator that
        reproduces the single-store result byte-for-byte."""
        from repro.shard import (
            LocalShard, ShardCoordinator, partition_table,
        )

        client, enc_left, enc_right = _fixture(seed=21)
        backend = client.scheme.backend
        single = SecureJoinServer(client.params)
        single.store(enc_left)
        single.store(enc_right)
        query = JoinQuery.build("L", "R", on=("k", "k"))
        reference = single.execute_join(client.create_query(query))

        shards = [LocalShard(client.params, backend=backend)
                  for _ in range(2)]
        for table in (enc_left, enc_right):
            for i, part in enumerate(partition_table(table, backend, 2)):
                path = tmp_path / f"{table.name}-{i}.etbl"
                save_encrypted_table(part, path, backend)
                shards[i].store(load_encrypted_table(path, backend))
        coordinator = ShardCoordinator(shards)
        try:
            result = coordinator.execute_join(client.create_query(query))
        finally:
            coordinator.close()
        assert result.tuples == reference.tuples
        assert result.payloads == reference.payloads

    def test_descriptor_row_count_mismatch_rejected_on_encode(self):
        from repro.shard import ShardDescriptor

        client, enc_left, _ = _fixture()
        backend = client.scheme.backend
        enc_left.shard = ShardDescriptor(0, 2, b"seed", (0,))
        with pytest.raises(SchemeError, match="maps 1 rows"):
            encode_encrypted_table(enc_left, backend)

    @pytest.mark.parametrize("shard_header", [
        "not-a-dict",
        ["index", 0],
        {"index": 0, "count": 2},                       # missing seed
        {"index": 0, "count": 2, "seed": ""},           # empty seed
        {"index": 0, "count": 2, "seed": "zz"},         # not hex
        {"index": 0, "count": 2, "seed": "ab" * 100},   # oversized
        {"index": 0, "count": 2, "seed": 7},            # wrong type
        {"index": 2, "count": 2, "seed": "ab"},         # index OOB
        {"index": 0, "count": 0, "seed": "ab"},         # zero shards
        {"index": 0, "count": 2000, "seed": "ab"},      # absurd fan-out
        {"index": True, "count": 2, "seed": "ab"},      # bool index
    ])
    def test_hostile_shard_headers_rejected(self, shard_header):
        import json
        import struct

        client, enc_left, _ = _fixture()
        backend = client.scheme.backend
        blob = encode_encrypted_table(enc_left, backend)
        header_length = struct.unpack(">I", blob[9:13])[0]
        header = json.loads(blob[13:13 + header_length])
        header["shard"] = shard_header
        new_header = json.dumps(header, sort_keys=True).encode("utf-8")
        patched = (
            blob[:9] + struct.pack(">I", len(new_header)) + new_header
            + blob[13 + header_length:]
        )
        with pytest.raises(SchemeError):
            decode_encrypted_table(patched, backend)

    def test_truncated_indices_section_rejected(self):
        from repro.shard import partition_table

        client, enc_left, _ = _fixture()
        backend = client.scheme.backend
        shard = next(
            s for s in partition_table(enc_left, backend, 2) if len(s) > 0
        )
        blob = encode_encrypted_table(shard, backend)
        with pytest.raises(SchemeError):
            decode_encrypted_table(blob[:-2], backend)


class TestWireFormats:
    def test_query_round_trip(self):
        client, _, _ = _fixture(enable_prefilter=True)
        query = JoinQuery.build("L", "R", on=("k", "k"),
                                where_left={"c": ["x"]})
        encrypted_query = client.create_query(query)
        backend = client.scheme.backend
        decoded = decode_join_query(
            encode_join_query(encrypted_query, backend), backend
        )
        # The server sees the two-table chain query; the pair names
        # are the client's view of its positions.
        assert type(decoded) is EncryptedChainQuery
        assert vars(decoded) == vars(encrypted_query)
        assert decoded.tokens == (
            encrypted_query.left_token, encrypted_query.right_token
        )
        assert decoded.prefilters[0] == encrypted_query.left_prefilter
        assert decoded.prefilters[1] is None

    def test_query_over_wire_executes(self):
        """Full split-process flow: bytes in, bytes out, decrypt."""
        client, enc_left, enc_right = _fixture(seed=10)
        backend = client.scheme.backend
        server = SecureJoinServer(client.params)
        server.store(enc_left)
        server.store(enc_right)

        query = JoinQuery.build("L", "R", on=("k", "k"))
        wire_query = encode_join_query(client.create_query(query), backend)
        received = decode_join_query(wire_query, backend)
        stream = server.stream_join(received)
        sent = [set(), set()]
        wire_frames = [
            encode_stream_header(received.query_id, *received.tables)
        ]
        while True:
            try:
                wire_frames.append(encode_match_batch(next(stream), sent))
            except StopIteration as stop:
                wire_frames.append(encode_final_frame(stop.value))
                break
        header, *batches, final = map(decode_frame, wire_frames)
        reassembler = StreamReassembler(received, header)
        for batch in batches:
            reassembler.add_batch(batch)
        decrypted = client.decrypt_chain_result(reassembler.finish(final))
        assert len(decrypted.table) == 2

    def test_result_round_trip_preserves_stats(self):
        client, enc_left, enc_right = _fixture(seed=11)
        server = SecureJoinServer(client.params)
        server.store(enc_left)
        server.store(enc_right)
        query = JoinQuery.build("L", "R", on=("k", "k"))
        result = server.execute_join(client.create_query(query))
        decoded = decode_frame(encode_final_frame(result))
        assert decoded.stats == result.stats
        assert decoded.n_tuples == len(result.tuples)

    def test_query_backend_mismatch(self):
        client, _, _ = _fixture()
        query = JoinQuery.build("L", "R", on=("k", "k"))
        blob = encode_join_query(
            client.create_query(query), client.scheme.backend
        )
        with pytest.raises(SchemeError):
            decode_join_query(blob, BN254Backend())


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional dev dep
    HAVE_HYPOTHESIS = False

from repro.core.server import EncryptedChainResult, ServerStats


def _planner_record(chosen: str, rows: int, estimate: float) -> dict:
    return {
        "rows": rows,
        "dimension": 5,
        "workers": 2,
        "pool_warm": bool(rows % 2),
        "chosen": chosen,
        "estimates": {
            "serial": estimate * 3,
            "batched": estimate,
            "parallel": estimate * 1.5,
        },
    }


class TestWireV2Stats:
    """Round-trip properties for the stats block (planner included)."""

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    @settings(max_examples=25, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 2**31 - 1), min_size=7, max_size=7),
        engine=st.sampled_from(["serial", "batched", "parallel", "auto"]),
        selected=st.sampled_from(
            ["serial", "batched", "parallel", "batched+parallel"]
        ),
        pool_generation=st.integers(0, 100),
        worker_restarts=st.integers(0, 100),
        planner_sides=st.lists(
            st.tuples(
                st.sampled_from(["serial", "batched", "parallel"]),
                st.integers(0, 10**6),
                st.floats(
                    min_value=0.0, max_value=1e6,
                    allow_nan=False, allow_infinity=False,
                ),
            ),
            min_size=0, max_size=2,
        ),
        n_pairs=st.integers(0, 5),
    )
    def test_stats_round_trip_property(
        self, counts, engine, selected, pool_generation,
        worker_restarts, planner_sides, n_pairs,
    ):
        stats = ServerStats(
            candidates_left=counts[0],
            candidates_right=counts[1],
            decryptions=counts[2],
            probes=counts[3],
            comparisons=counts[4],
            matches=counts[5],
            engine=engine,
            batches=counts[6] % 1000,
            max_batch_size=counts[6] % 64,
            workers=1 + counts[6] % 8,
            miller_loops=counts[2],
            final_exponentiations=counts[3],
            engine_selected=selected,
            planner=(
                [_planner_record(*side) for side in planner_sides] or None
            ),
            pool_generation=pool_generation,
            worker_restarts=worker_restarts,
        )
        result = EncryptedChainResult(
            tables=("L", "R"),
            tuples=[(i, i + 1) for i in range(n_pairs)],
            payloads=[(b"l%d" % i, b"r%d" % i) for i in range(n_pairs)],
            stats=stats,
        )
        decoded = decode_frame(encode_final_frame(result))
        assert decoded.stats == stats
        assert decoded.n_tuples == n_pairs

    def test_unknown_future_stats_fields_ignored(self):
        """The stats block is an open record: an unknown key is dropped."""
        result = EncryptedChainResult(
            tables=("L", "R"), tuples=[], payloads=[], stats=ServerStats(),
        )
        blob = bytearray(encode_final_frame(result))
        # Re-encode with an extra stats key spliced into the header JSON.
        import json
        import struct

        magic_version = bytes(blob[:9])
        header_length = struct.unpack(">I", bytes(blob[9:13]))[0]
        header = json.loads(bytes(blob[13:13 + header_length]))
        header["stats"]["from_the_future"] = 42
        body = bytes(blob[13 + header_length:])
        new_header = json.dumps(header, sort_keys=True).encode("utf-8")
        patched = (
            magic_version
            + struct.pack(">I", len(new_header)) + new_header + body
        )
        decoded = decode_frame(patched)
        assert decoded.stats == ServerStats()
