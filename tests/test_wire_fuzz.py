"""Malformed-payload property suite for the one wire message family.

The network service (:mod:`repro.net`) feeds these decoders bytes from
arbitrary remote peers, so the contract is absolute: for *any* input —
truncated at any byte offset, bit-flipped anywhere, carrying hostile
counts — the only exception a decoder may raise is
:class:`~repro.errors.SchemeError`.  Never ``MemoryError`` (a count
that commits a huge allocation), never ``struct.error`` / ``KeyError``
/ ``TypeError`` (internals leaking), and never a hang.

One table of sample messages (:func:`_samples` — the query at arity 2
and 5, every frame kind) rides the same
truncation / bit-flip / version machinery, and its bytes are pinned
under ``tests/data/``: there is one wire version and one store version,
so no version ladder would notice the format drifting.  After a
*deliberate* format change bump the version and regenerate the golden
files with ``PYTHONPATH=src python tests/test_wire_fuzz.py``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.store.tables as tables_module
import repro.store.wire as wire_module
from repro.core.client import (
    EncryptedChainQuery,
    EncryptedJoinQuery,
    EncryptedTable,
)
from repro.core.engine import EngineReport
from repro.core.scheme import SJRowCiphertext, SJToken
from repro.core.server import (
    ChainMatchBatch,
    EncryptedChainResult,
    ServerStats,
)
from repro.crypto.backend import get_backend
from repro.db.schema import Schema
from repro.errors import SchemeError
from repro.plan import MAX_CHAIN_TABLES
from repro.shard.partition import ShardDescriptor
from repro.store.codec import Reader, Writer, read_element_vector, write_header
from repro.store.tables import (
    decode_encrypted_table,
    encode_encrypted_table,
    prepare_encrypted_table,
)
from repro.store.wire import (
    MAX_PRIORITY_MAGNITUDE,
    ErrorFrame,
    FinalFrame,
    MatchBatchFrame,
    ScatterChunkFrame,
    ScatterFinalFrame,
    StreamHeaderFrame,
    StreamReassembler,
    decode_frame,
    decode_join_query,
    encode_error_frame,
    encode_final_frame,
    encode_join_query,
    encode_match_batch,
    encode_scatter_chunk,
    encode_scatter_final,
    encode_stream_header,
)

BACKEND = get_backend("fast")
VERSION = wire_module._VERSION
DATA = Path(__file__).parent / "data"


# -- the sample messages ---------------------------------------------------


def _token(seed: int) -> SJToken:
    return SJToken(tuple(seed * 1000 + i for i in range(4)))


def _tags(*seeds: int) -> frozenset[bytes]:
    return frozenset(bytes([seed]) * 32 for seed in seeds)


def _join_query(**overrides) -> EncryptedChainQuery:
    fields = dict(
        query_id=7,
        tables=("L", "R"),
        tokens=(_token(1), _token(2)),
        prefilters=({"c": _tags(1, 2)}, None),
        priority=5,
        deadline=12.5,
    )
    fields.update(overrides)
    return EncryptedChainQuery(**fields)


def _chain_query(arity: int = 5) -> EncryptedChainQuery:
    """Positions 0 and 3 share one token object (the pooled side)."""
    tokens = [_token(10 + position) for position in range(arity)]
    if arity > 3:
        tokens[3] = tokens[0]
    return EncryptedChainQuery(
        query_id=8,
        tables=tuple(f"T{position % 3}" for position in range(arity)),
        tokens=tuple(tokens),
        prefilters=(None, {"a": _tags(3), "b": _tags(4, 5)})
        + (None,) * (arity - 2),
    )


def _join_result() -> EncryptedChainResult:
    return EncryptedChainResult(
        tables=("L", "R"),
        tuples=[(0, 0), (1, 1), (2, 0)],
        payloads=[(b"pl0", b"pr0"), (b"pl1", b"pr1"), (b"pl2", b"pr0")],
        stats=ServerStats(matches=3, shards=3, shard_skew=1.5),
    )


def _chain_result() -> EncryptedChainResult:
    return EncryptedChainResult(
        tables=("T0", "T1", "T0"),
        tuples=[(0, 4, 1), (0, 4, 2), (3, 1, 1)],
        payloads=[(b"a0", b"b4", b"a1"), (b"a0", b"b4", b"a2"),
                  (b"a3", b"b1", b"a1")],
        stats=ServerStats(matches=3, plan_nodes=2, handle_pool_hits=1),
    )


def _samples() -> dict[str, bytes]:
    chain = _chain_result()
    return {
        "query_join": encode_join_query(_join_query(), BACKEND),
        "query_chain5": encode_join_query(_chain_query(5), BACKEND),
        "stream_header": encode_stream_header(7, "L", "R", restart=("R",)),
        "match_batch": encode_match_batch(ChainMatchBatch(
            tuples=[chain.tuples[2], chain.tuples[0]],
            payloads=[chain.payloads[2], chain.payloads[0]],
        )),
        "final": encode_final_frame(chain),
        "error": encode_error_frame("QueryError", "boom"),
        "scatter_chunk": encode_scatter_chunk((1,), [
            (4, b"\x11" * 32, b"payload-4"),
            (9, b"\x22" * 32, b""),
        ]),
        "scatter_chunk_pooled": encode_scatter_chunk((0, 2), [
            (6, b"\x33" * 32, b"payload-6"),
        ]),
        "scatter_final": encode_scatter_final(ScatterFinalFrame(
            candidates=[3, 2],
            reports=[
                EngineReport(engine="parallel", workers=2),
                EngineReport(engine="batched", batches=1),
            ],
        )),
    }


def _decode(name: str, blob: bytes):
    if name.startswith("query"):
        return decode_join_query(blob, BACKEND)
    return decode_frame(blob)


def _table_blob() -> bytes:
    """A stored table with every optional section of the store format."""
    table = EncryptedTable(
        name="T",
        schema=Schema.of(("k", "int"), ("c", "str")),
        join_column="k",
        attribute_columns=("c",),
        ciphertexts=[SJRowCiphertext((11, 12, 13)), SJRowCiphertext((21, 22, 23))],
        payloads=[b"row-0", b"row-1"],
        prefilter_tags={"c": [b"\x01" * 32, b"\x02" * 32]},
        shard=ShardDescriptor(
            shard_index=1, shard_count=2, seed=b"repro-shard-v1",
            global_indices=(3, 8),
        ),
    )
    prepare_encrypted_table(table, BACKEND)
    return encode_encrypted_table(table, BACKEND)


SAMPLES = _samples()
TABLE_BLOB = _table_blob()


def _rewrite_header(blob: bytes, **overrides) -> bytes:
    """Re-emit a valid message with hostile header fields."""
    reader = Reader(blob)
    magic = reader.take(8)
    version = reader.u8()
    header = json.loads(reader.blob())
    body = blob[len(blob) - reader.remaining:]
    header.update(overrides)
    writer = Writer()
    writer.raw(magic).u8(version)
    # json.dumps cannot emit NaN/Infinity by default; some tests need
    # exactly those hostile values on the wire, so allow them here (the
    # *decoder* must reject them).
    writer.blob(json.dumps(header, allow_nan=True).encode("utf-8"))
    writer.raw(body)
    return writer.getvalue()


def _frame(header: dict, body: bytes = b"") -> bytes:
    writer = Writer()
    write_header(writer, b"RPROJFRM", VERSION, header)
    return writer.raw(body).getvalue()


def _assert_only_scheme_error(decode, blob):
    """Decoding ``blob`` either succeeds or raises exactly SchemeError.

    Anything else — ``MemoryError`` from an unvalidated count,
    ``KeyError`` / ``TypeError`` / ``struct.error`` from internals
    leaking — propagates and fails the test with the real traceback.
    """
    try:
        decode(blob)
    except SchemeError:
        pass


# -- truncation and corruption, every message kind -------------------------


class TestTruncation:
    """Every proper prefix of a valid message fails with SchemeError."""

    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_truncated_at_every_offset(self, name):
        blob = SAMPLES[name]
        for cut in range(len(blob)):
            with pytest.raises(SchemeError):
                _decode(name, blob[:cut])


class TestCorruption:
    """Single-bit corruption anywhere in a message: only SchemeError.

    Flips land in the magic, the version byte, the header length, the
    JSON header, and the body — every region of the message.  Decoding
    may still *succeed* (some JSON bytes are don't-cares); it must never
    raise anything but SchemeError.
    """

    @settings(max_examples=600, deadline=None)
    @given(name=st.sampled_from(sorted(SAMPLES)), data=st.data())
    def test_bit_flips(self, name, data):
        blob = SAMPLES[name]
        offset = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        corrupted = bytearray(blob)
        corrupted[offset] ^= 1 << bit
        _assert_only_scheme_error(
            lambda b: _decode(name, b), bytes(corrupted)
        )

    @settings(max_examples=150, deadline=None)
    @given(
        header_json=st.dictionaries(
            st.text(max_size=12),
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(min_value=-(2**70), max_value=2**70),
                st.floats(allow_nan=False),
                st.text(max_size=16),
                st.lists(st.integers(), max_size=4),
            ),
            max_size=6,
        ),
        body=st.binary(max_size=64),
    )
    def test_arbitrary_headers_never_leak_internals(self, header_json, body):
        # Well-formed JSON of arbitrary shape: type confusion territory.
        for magic, name in ((b"RPROJQRY", "query"), (b"RPROJFRM", "frame")):
            writer = Writer()
            write_header(writer, magic, VERSION, header_json)
            writer.raw(body)
            _assert_only_scheme_error(
                lambda b: _decode(name, b), writer.getvalue()
            )

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from([
            "stream_header", "match_batch", "final", "error",
            "scatter_chunk", "scatter_final",
        ]),
        fields=st.dictionaries(
            st.sampled_from([
                "query_id", "tables", "restart", "arity", "n_tuples",
                "stats", "positions", "n_rows", "candidates", "reports",
            ]),
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(min_value=-(2**40), max_value=2**40),
                st.text(max_size=4),
                st.lists(
                    st.one_of(st.integers(-2, 9), st.text(max_size=2),
                              st.none(), st.lists(st.integers(), max_size=2)),
                    max_size=10,
                ),
                st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
            ),
        ),
        body=st.binary(max_size=48),
    )
    def test_typed_frame_headers_never_leak_internals(
        self, kind, fields, body
    ):
        # The right field names with the wrong shapes, per frame kind.
        _assert_only_scheme_error(
            decode_frame, _frame({"kind": kind, **fields}, body)
        )

    @settings(max_examples=150, deadline=None)
    @given(blob=st.binary(max_size=128))
    def test_random_bytes_never_leak_internals(self, blob):
        for name in ("query", "frame"):
            _assert_only_scheme_error(lambda b: _decode(name, b), blob)


# -- hostile counts and sizes ----------------------------------------------


class TestHostileCounts:
    """Wire-supplied counts must be bounded before any allocation."""

    def test_element_vector_count_bounded_by_remaining(self):
        # A count claiming ~4 billion elements with a 12-byte body must
        # fail up front, not build a list until truncation (or worse).
        writer = Writer()
        writer.u32(0xFFFFFFFF).raw(b"\x00" * 12)
        with pytest.raises(SchemeError, match="bad element-vector count"):
            read_element_vector(Reader(writer.getvalue()), size=4)

    def test_element_vector_zero_size_rejected(self):
        writer = Writer()
        writer.u32(10)
        with pytest.raises(SchemeError, match="element size"):
            read_element_vector(Reader(writer.getvalue()), size=0)

    def test_element_vector_exact_fit_still_reads(self):
        writer = Writer()
        write_element = [b"abcd", b"efgh"]
        writer.u32(2).raw(b"".join(write_element))
        assert read_element_vector(
            Reader(writer.getvalue()), size=4
        ) == write_element

    @pytest.mark.parametrize("count", [-1, -(2**40)])
    @pytest.mark.parametrize("name", ["match_batch", "final"])
    def test_negative_tuple_count_rejected(self, name, count):
        hostile = _rewrite_header(SAMPLES[name], n_tuples=count)
        with pytest.raises(SchemeError, match="n_tuples"):
            decode_frame(hostile)

    @pytest.mark.parametrize("count", [10**6, 2**31, 2**61])
    @pytest.mark.parametrize("name, key", [("match_batch", "n_tuples")])
    def test_oversized_tuple_count_rejected_before_read(
        self, name, key, count
    ):
        hostile = _rewrite_header(SAMPLES[name], **{key: count})
        with pytest.raises(SchemeError, match="bad tuple count"):
            _decode(name, hostile)

    @pytest.mark.parametrize(
        "arity", [0, 1, -3, MAX_CHAIN_TABLES + 1, "x", None, 2.0, True]
    )
    def test_batch_bad_arity_rejected(self, arity):
        with pytest.raises(SchemeError):
            decode_frame(_rewrite_header(SAMPLES["match_batch"], arity=arity))

    @pytest.mark.parametrize(
        "n_rows",
        [[2, 2], [2, 2, 2, 0], [], [-1, 2, 3], [2, 2, -(2**40)],
         [10**6, 2, 2], [2, 2, 2**61], [2, True, 2], [2, "2", 2],
         [2, None, 2], [2.0, 2, 2], 6, "222", None, {"0": 2}],
    )
    def test_batch_bad_row_counts_rejected_before_read(self, n_rows):
        # One count per chain position, each bounded by what the body
        # could hold — before any run is unpacked or sliced.
        hostile = _rewrite_header(SAMPLES["match_batch"], n_rows=n_rows)
        with pytest.raises(SchemeError, match="n_rows|row counts"):
            decode_frame(hostile)

    def test_batch_row_counts_are_required(self):
        reader = Reader(SAMPLES["match_batch"])
        reader.take(8), reader.u8()
        header = json.loads(reader.blob())
        del header["n_rows"]
        body = SAMPLES["match_batch"][-reader.remaining:]
        with pytest.raises(SchemeError, match="n_rows"):
            decode_frame(_frame(header, body))

    def test_batch_row_counts_that_fit_the_bound_still_misparse_safely(self):
        # Counts small enough to pass the up-front bound but not the
        # ones the body was written with: a short read or trailing
        # bytes, never a mis-parse.
        for n_rows in ([1, 2, 2], [2, 2, 3], [0, 0, 0], [3, 3, 3]):
            with pytest.raises(SchemeError):
                decode_frame(
                    _rewrite_header(SAMPLES["match_batch"], n_rows=n_rows)
                )

    @staticmethod
    def _batch_body(tuples, runs) -> bytes:
        """A match-batch body written run by run: ``runs`` holds, per
        position, ``(row indices, payload lengths, payload bytes)``."""
        writer = Writer()
        writer.u32s([index for combo in tuples for index in combo])
        for indices, lengths, blob in runs:
            writer.u32s(indices).u32s(lengths).raw(blob)
        return writer.getvalue()

    def _batch(self, tuples, runs) -> bytes:
        return _frame({
            "kind": "match_batch", "arity": len(runs),
            "n_tuples": len(tuples),
            "n_rows": [len(indices) for indices, _, _ in runs],
        }, self._batch_body(tuples, runs))

    def test_batch_written_by_hand_decodes(self):
        frame = decode_frame(self._batch(
            [(0, 5), (1, 5)],
            [([0, 1], [2, 0], b"l0"), ([5], [3], b"r05")],
        ))
        assert frame == MatchBatchFrame(
            [(0, 5), (1, 5)], [{0: b"l0", 1: b""}, {5: b"r05"}]
        )

    @pytest.mark.parametrize("lengths", [[2, 1], [3, 0], [2**32 - 1, 0]])
    def test_batch_lengths_summing_past_the_body_rejected(self, lengths):
        # The last run's lengths claim more payload bytes than remain.
        hostile = self._batch(
            [(0, 5), (1, 5)], [([5], [3], b"r05"), ([0, 1], lengths, b"l0")]
        )
        with pytest.raises(SchemeError, match="truncated"):
            decode_frame(hostile)

    def test_batch_lengths_summing_short_of_the_body_rejected(self):
        hostile = self._batch(
            [(0, 5), (1, 5)], [([0, 1], [1, 0], b"l0"), ([5], [3], b"r05")]
        )
        with pytest.raises(SchemeError):
            decode_frame(hostile)

    def test_batch_row_index_twice_in_one_run_rejected(self):
        hostile = self._batch(
            [(0, 5), (1, 5)], [([0, 0], [1, 1], b"l0"), ([5], [3], b"r05")]
        )
        with pytest.raises(SchemeError, match="row more than once"):
            decode_frame(hostile)

    @pytest.mark.parametrize(
        "tables",
        [[], ["T"], ["T"] * (MAX_CHAIN_TABLES + 1), "T0T1", [1, 2], None],
    )
    @pytest.mark.parametrize("name", ["final", "stream_header"])
    def test_frame_tables_validated(self, name, tables):
        with pytest.raises(SchemeError, match="tables"):
            decode_frame(_rewrite_header(SAMPLES[name], tables=tables))

    @pytest.mark.parametrize(
        "restart",
        [["X"], ["R", "R"], ["L", "R", "X"], "R", [1], None, [["R"]]],
    )
    def test_header_restarts_only_tables_it_names(self, restart):
        # Each named table at most once, and nothing else.
        with pytest.raises(SchemeError, match="restart"):
            decode_frame(
                _rewrite_header(SAMPLES["stream_header"], restart=restart)
            )

    def test_final_frame_carries_no_tuple_run(self):
        # The count is the whole answer the frame gives: a body after
        # the header is trailing bytes.
        with pytest.raises(SchemeError, match="trailing"):
            decode_frame(SAMPLES["final"] + b"\x00" * 12)

    def test_query_g1_size_mismatch_is_a_clear_error(self):
        # A query built by a differently parameterized backend must fail
        # on the declared element size, not with a misleading
        # truncated-blob error deep in the body.
        hostile = _rewrite_header(
            SAMPLES["query_join"], g1_element_size=BACKEND.g1_element_size + 1
        )
        with pytest.raises(SchemeError, match="mismatched backend"):
            decode_join_query(hostile, BACKEND)

    def test_query_backend_mismatch_rejected(self):
        hostile = _rewrite_header(SAMPLES["query_chain5"], backend="bn254")
        with pytest.raises(SchemeError, match="backend"):
            decode_join_query(hostile, BACKEND)

    def test_query_priority_magnitude_capped(self):
        for hostile in (MAX_PRIORITY_MAGNITUDE + 1, -(2**300), None, "1"):
            rewritten = _rewrite_header(
                SAMPLES["query_join"], priority=hostile
            )
            with pytest.raises(SchemeError, match="priority"):
                decode_join_query(rewritten, BACKEND)

    @pytest.mark.parametrize(
        "deadline", [0, -1.5, float("nan"), float("inf"), "soon", True]
    )
    def test_query_bad_deadline_rejected(self, deadline):
        rewritten = _rewrite_header(SAMPLES["query_chain5"], deadline=deadline)
        with pytest.raises(SchemeError, match="deadline"):
            decode_join_query(rewritten, BACKEND)

    @pytest.mark.parametrize(
        "key", ["query_id", "tables", "backend", "g1_element_size",
                "prefilter_columns", "priority", "deadline"],
    )
    def test_query_header_fields_are_all_required(self, key):
        # One version: no field is optional-with-a-default any more.
        reader = Reader(SAMPLES["query_join"])
        reader.take(8), reader.u8()
        header = json.loads(reader.blob())
        body = SAMPLES["query_join"][-reader.remaining:]
        del header[key]
        writer = Writer()
        write_header(writer, b"RPROJQRY", VERSION, header)
        with pytest.raises(SchemeError, match=key):
            decode_join_query(writer.raw(body).getvalue(), BACKEND)

    @pytest.mark.parametrize(
        "columns",
        [[None], [None] * 6, [None, None, None, None, "a"],
         [None, None, None, None, [1]], "abcde", None],
    )
    def test_query_prefilter_columns_validated(self, columns):
        hostile = _rewrite_header(
            SAMPLES["query_chain5"], prefilter_columns=columns
        )
        with pytest.raises(SchemeError):
            decode_join_query(hostile, BACKEND)


class TestHostileScatterFrames:
    """Scatter frames under hostile headers: bounded counts, validated
    positions, only SchemeError escaping."""

    @pytest.mark.parametrize("n_rows", [-1, 1, 10**6, 2**61])
    def test_scatter_chunk_bad_row_count_rejected_before_read(self, n_rows):
        hostile = _frame(
            {"kind": "scatter_chunk", "positions": [0], "n_rows": n_rows}
        )
        with pytest.raises(SchemeError, match="row count|n_rows"):
            decode_frame(hostile)

    @pytest.mark.parametrize(
        "positions",
        [[], [0, 0], [MAX_CHAIN_TABLES], [-1], ["left"], "left", None, 3,
         [[0]], [True], list(range(MAX_CHAIN_TABLES + 1)), [1.0]],
    )
    def test_scatter_chunk_bad_positions_rejected(self, positions):
        hostile = _rewrite_header(
            SAMPLES["scatter_chunk"], positions=positions
        )
        with pytest.raises(SchemeError, match="position"):
            decode_frame(hostile)

    def test_a_shard_map_frame_is_refused(self):
        """A partitioned deployment is described by no message: a
        well-formed frame of the retired ``shard_map`` kind is an
        unknown kind like any other."""
        hostile = _frame({
            "kind": "shard_map",
            "shard_count": 2,
            "seed": b"repro-shard-v1".hex(),
            "tables": ["L", "R"],
            "endpoints": [["h0", 9000], ["h1", 9001]],
        })
        with pytest.raises(SchemeError, match="unknown frame kind"):
            decode_frame(hostile)

    @pytest.mark.parametrize(
        "reports",
        [
            "not-a-list",
            {"left": None},
            ["not-a-dict", None],
            [{"planner": "not-a-dict"}, None],
            [None],
            [None, None, None],
        ],
    )
    def test_scatter_final_malformed_reports_rejected(self, reports):
        hostile = _rewrite_header(SAMPLES["scatter_final"], reports=reports)
        with pytest.raises(SchemeError, match="report"):
            decode_frame(hostile)

    @pytest.mark.parametrize(
        "candidates",
        [[-1, 0], ["3", 0], [None, 0], [1.5, 0], [True, 0], 5, None, [],
         [0] * (MAX_CHAIN_TABLES + 1), [3]],
    )
    def test_scatter_final_bad_candidate_counts_rejected(self, candidates):
        hostile = _rewrite_header(
            SAMPLES["scatter_final"], candidates=candidates
        )
        with pytest.raises(SchemeError, match="candidate"):
            decode_frame(hostile)


# -- the two open records ---------------------------------------------------


#: JSON values of every shape a hostile peer can put in a record field.
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


class TestOpenRecords:
    """The stats block of a final frame and the engine reports of a
    scatter final are open records — absent fields default, unknown
    ones drop — but a present field of the wrong type is a
    ``SchemeError`` at the decoder, not a ``TypeError`` /
    ``AttributeError`` in the host that later adds to it."""

    @pytest.mark.parametrize(
        "stats",
        [
            {"matches": "lots"},
            {"planner": "oops"},
            {"engine": 7},
            {"matches": True},
            {"matches": 1.0},
            {"shard_skew": "1.5"},
            {"decrypt_seconds": None},
            {"planner": {"stage": "plan"}},
            {"matches": "lots", "planner": "oops", "engine": 7},
            "not-a-dict",
            ["matches", 3],
            None,
        ],
    )
    def test_final_frame_with_mistyped_stats_rejected(self, stats):
        hostile = _rewrite_header(SAMPLES["final"], stats=stats)
        with pytest.raises(SchemeError, match="stats"):
            decode_frame(hostile)

    @pytest.mark.parametrize(
        "report",
        [
            {"engine": "batched", "batches": "x"},
            {"engine": 7},
            {"engine": "batched", "workers": True},
            {"engine": "batched", "miller_loops": 2.5},
            {"engine": "batched", "planner": ["side"]},
            {"engine": "batched", "selected": None},
            {"batches": 1},
            {},
            0,
            "",
            False,
        ],
    )
    def test_scatter_final_with_mistyped_report_rejected(self, report):
        hostile = _rewrite_header(
            SAMPLES["scatter_final"], reports=[report, None]
        )
        with pytest.raises(SchemeError, match="report"):
            decode_frame(hostile)

    def test_well_typed_records_still_decode_openly(self):
        # A float field may arrive as a whole number; unknown fields
        # drop; absent ones take the dataclass defaults.
        final = decode_frame(_rewrite_header(
            SAMPLES["final"],
            stats={"matches": 3, "shard_skew": 2, "planner": [{"stage": "x"}],
                   "from_the_future": "y"},
        ))
        assert final.stats == ServerStats(
            matches=3, shard_skew=2, planner=[{"stage": "x"}]
        )
        scatter = decode_frame(_rewrite_header(
            SAMPLES["scatter_final"],
            reports=[{"engine": "auto", "planner": {"rows": 3}}, None],
        ))
        assert scatter.reports == [
            EngineReport(engine="auto", planner={"rows": 3}), None
        ]

    def test_the_stats_block_names_every_field_once(self):
        # The encoder writes the dataclass as it is: no hand-kept list.
        reader = Reader(SAMPLES["final"])
        reader.take(8), reader.u8()
        header = json.loads(reader.blob())
        assert sorted(header["stats"]) == sorted(
            field.name for field in dataclasses.fields(ServerStats)
        )
        assert len(header["stats"]) == 29

    @settings(max_examples=200, deadline=None)
    @given(
        stats=st.dictionaries(
            st.sampled_from(
                [field.name for field in dataclasses.fields(ServerStats)]
            ),
            _JSON_VALUES,
            max_size=6,
        ),
        report=st.dictionaries(
            st.sampled_from(
                [field.name for field in dataclasses.fields(EngineReport)]
            ),
            _JSON_VALUES,
            max_size=6,
        ),
    )
    def test_whatever_decodes_is_safe_to_account(self, stats, report):
        """Any record the decoder lets through can be used the way the
        hosts use it: folded into a query's totals, appended to."""
        try:
            decoded = decode_frame(
                _rewrite_header(SAMPLES["final"], stats=stats)
            ).stats
            side = decode_frame(_rewrite_header(
                SAMPLES["scatter_final"], reports=[report, None]
            )).reports[0]
        except SchemeError:
            return
        decoded.merge_report(side)
        decoded.record({"stage": "scatter"})
        decoded.decryptions += 1
        decoded.shard_skew += 0.5


# -- round trips ------------------------------------------------------------


#: Row indices from a small pool recur across tuples (and batches);
#: the wide range keeps the u32 edges in play.
_ROW_INDEX = st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1))


@st.composite
def _arity_and_rows(draw, max_size=6):
    """``(arity, tuples, payloads)``: unique index tuples, and one
    payload per distinct row of each chain position — a row's payload is
    its stored blob, the same bytes in every tuple naming it."""
    arity = draw(st.integers(min_value=2, max_value=MAX_CHAIN_TABLES))
    tuples = draw(st.lists(
        st.tuples(*[_ROW_INDEX] * arity), max_size=max_size, unique=True
    ))
    stored = [
        {
            row: draw(st.binary(max_size=12))
            for row in sorted({combo[position] for combo in tuples})
        }
        for position in range(arity)
    ]
    payloads = [
        tuple(held[row] for held, row in zip(stored, combo))
        for combo in tuples
    ]
    return arity, tuples, payloads


def _distinct_tables(arity: int) -> tuple[str, ...]:
    return tuple(f"T{position}" for position in range(arity))


def _reassembler(query, rows=None) -> StreamReassembler:
    """A reassembler opened by the stream header answering ``query``."""
    header = StreamHeaderFrame(query.query_id, tuple(query.tables))
    return StreamReassembler(query, header, rows)


def _canonical(tables, tuples, payloads) -> EncryptedChainResult:
    """The answer as a host gives it: tuples in lexicographic order."""
    order = sorted(range(len(tuples)), key=tuples.__getitem__)
    return EncryptedChainResult(
        tables,
        [tuples[i] for i in order],
        [payloads[i] for i in order],
        ServerStats(matches=len(tuples)),
    )


def _first_reference_rows(tuples, payloads, arity) -> list[dict[int, bytes]]:
    """Per position, ``{row: payload}`` in first-reference order: what a
    self-contained frame of these tuples carries."""
    rows: list[dict[int, bytes]] = [{} for _ in range(arity)]
    for combo, blobs in zip(tuples, payloads):
        for carried, row, blob in zip(rows, combo, blobs):
            carried.setdefault(row, blob)
    return rows


class TestRoundTrip:
    """``decode(encode(x)) == x`` at every arity the family carries."""

    @settings(max_examples=60, deadline=None)
    @given(
        shape=_arity_and_rows(),
        priority=st.integers(-MAX_PRIORITY_MAGNITUDE, MAX_PRIORITY_MAGNITUDE),
        deadline=st.one_of(st.none(), st.floats(0.001, 1e6)),
        pair=st.booleans(),
    )
    def test_query_batch_and_final_round_trip(
        self, shape, priority, deadline, pair
    ):
        arity, tuples, payloads = shape
        template = _chain_query(arity)
        query = EncryptedChainQuery(
            query_id=len(tuples),
            tables=template.tables,
            tokens=template.tokens,
            prefilters=template.prefilters,
            priority=priority,
            deadline=deadline,
        )
        request = encode_join_query(query, BACKEND)
        decoded = decode_join_query(request, BACKEND)
        assert decoded == query and type(decoded) is EncryptedChainQuery
        if pair and arity == 2:
            # The client's pair view of a two-way join is the same
            # message: nothing on the wire tells the two apart.
            view = EncryptedJoinQuery(**vars(query))
            assert encode_join_query(view, BACKEND) == request
            assert (view.left_table, view.right_table) == query.tables
            assert (view.left_token, view.right_token) == query.tokens
            assert (
                view.left_prefilter, view.right_prefilter
            ) == query.prefilters

        batch = ChainMatchBatch(tuples, payloads)
        frame = decode_frame(encode_match_batch(batch))
        assert isinstance(frame, MatchBatchFrame)
        assert frame.tuples == tuples
        if tuples:
            carried = _first_reference_rows(tuples, payloads, arity)
            assert frame.rows == carried
            assert [list(rows) for rows in frame.rows] == [
                list(rows) for rows in carried
            ]

        # Distinct tables: a self-contained frame carries a row per
        # position, and positions naming one table share its rows.
        query = dataclasses.replace(query, tables=_distinct_tables(arity))
        result = _canonical(query.tables, tuples, payloads)
        final = decode_frame(encode_final_frame(result))
        assert final == FinalFrame(query.tables, len(tuples), result.stats)

        if not tuples:
            # Nothing to read the arity from: the stream's state says.
            frame = decode_frame(
                encode_match_batch(batch, [set() for _ in range(arity)])
            )
            assert frame == MatchBatchFrame([], [{}] * arity)
        reassembler = _reassembler(query)
        rebuilt = reassembler.add_batch(frame)
        assert rebuilt == batch and type(rebuilt) is type(batch)
        assert reassembler.finish(final) == result

    def test_shared_tokens_stay_byte_identical(self):
        # What the server's handle pool groups by survives the wire.
        decoded = decode_join_query(SAMPLES["query_chain5"], BACKEND)
        assert decoded.tokens[0] == decoded.tokens[3]
        assert decoded.tokens[0] != decoded.tokens[1]

    def test_empty_batch_round_trips(self):
        frame = decode_frame(encode_match_batch(ChainMatchBatch([], [])))
        assert frame == MatchBatchFrame([], [{}, {}])
        # On a stream the state gives the arity, and stays empty.
        sent = [set(), set(), set()]
        frame = decode_frame(encode_match_batch(ChainMatchBatch([], []), sent))
        assert frame == MatchBatchFrame([], [{}, {}, {}])
        assert sent == [set(), set(), set()]

    def test_encoder_refuses_a_batch_that_does_not_fit_its_stream(self):
        with pytest.raises(SchemeError, match="mismatched payload counts"):
            encode_match_batch(ChainMatchBatch([(0, 1)], []))
        with pytest.raises(SchemeError, match="arity"):
            encode_match_batch(
                ChainMatchBatch([(0, 1)], [(b"a", b"b")]),
                [set(), set(), set()],
            )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_stream_of_batches_round_trips(self, data):
        """A stream with recurring rows, over a chain that names a table
        at more than one position: every row's payload travels once per
        table, the reassembled batches and result equal the input, and
        every tuple naming a row shares one ``bytes`` object for it."""
        arity, tuples, _ = data.draw(_arity_and_rows(max_size=14))
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(tuples)), max_size=4
        )))
        query = dataclasses.replace(_chain_query(arity), query_id=1)
        tables = query.tables
        # One stored blob per (table, row), whichever positions name it.
        stored: dict[str, dict[int, bytes]] = {name: {} for name in tables}
        for combo in tuples:
            for name, row in zip(tables, combo):
                if row not in stored[name]:
                    stored[name][row] = data.draw(st.binary(max_size=12))
        payloads = [
            tuple(stored[name][row] for name, row in zip(tables, combo))
            for combo in tuples
        ]
        bounds = [0, *cuts, len(tuples)]
        batches = [
            ChainMatchBatch(tuples[start:stop], payloads[start:stop])
            for start, stop in zip(bounds, bounds[1:])
        ]
        # The sender's state as a server keeps it: one set per table.
        by_table = {name: set() for name in tables}
        sent = [by_table[name] for name in tables]
        frames = [
            decode_frame(encode_match_batch(batch, sent)) for batch in batches
        ]
        assert by_table == {name: set(rows) for name, rows in stored.items()}
        # Each row of each table exactly once over the whole stream.
        for name, rows in stored.items():
            carried = [
                row
                for frame in frames
                for position in range(arity)
                if tables[position] == name
                for row in frame.rows[position]
            ]
            assert sorted(carried) == sorted(rows)
        assert all(len(frame.rows) == arity for frame in frames)
        held: dict[str, dict[int, bytes]] = {}
        reassembler = _reassembler(query, held)
        rebuilt = [reassembler.add_batch(frame) for frame in frames]
        assert rebuilt == batches
        assert held == stored
        objects: dict[tuple[str, int], bytes] = {}
        for batch in rebuilt:
            for combo, blobs in zip(batch.tuples, batch.payloads):
                for name, row, blob in zip(tables, combo, blobs):
                    assert objects.setdefault((name, row), blob) is blob
        # The canonical order is the sorted one, whatever the discovery
        # order the batches delivered.
        result = _canonical(tables, tuples, payloads)
        final = decode_frame(encode_final_frame(result))
        assert reassembler.finish(final) == result
        # The stateless path: each frame encoded without stream state
        # is self-contained — a row per position — and resolves, alone
        # and over distinct tables, to the same batch.
        distinct = dataclasses.replace(query, tables=_distinct_tables(arity))
        for batch in batches:
            alone = decode_frame(encode_match_batch(batch))
            if batch.tuples:
                assert _reassembler(distinct).add_batch(alone) == batch
            else:
                assert alone == MatchBatchFrame([], [{}, {}])

    def test_control_frames_round_trip(self):
        assert decode_frame(
            encode_stream_header(42, "A", "B", "A")
        ) == StreamHeaderFrame(42, ("A", "B", "A"))
        assert decode_frame(
            encode_stream_header(42, "A", "B", "A", restart=("B", "A"))
        ) == StreamHeaderFrame(42, ("A", "B", "A"), ("B", "A"))
        assert decode_frame(
            encode_error_frame("DeadlineError", "late")
        ) == ErrorFrame("DeadlineError", "late")

    @pytest.mark.parametrize("positions", [(1,), (0, 2), (7, 3, 0)])
    def test_scatter_chunk_round_trips(self, positions):
        items = [(0, b"\x00" * 48, b"p0"), (7, b"\xff" * 48, b"")]
        decoded = decode_frame(encode_scatter_chunk(positions, items))
        assert decoded == ScatterChunkFrame(positions, items)

    def test_scatter_final_round_trips_reports(self):
        final = ScatterFinalFrame(
            candidates=[11, 0, 4],
            reports=[
                EngineReport(
                    engine="parallel", batches=3, workers=2, miller_loops=44,
                ),
                None,
                EngineReport(engine="serial", planner={"stage": "side"}),
            ],
        )
        assert decode_frame(encode_scatter_final(final)) == final

    def test_scatter_final_tolerates_unknown_report_fields(self):
        # The report is an open record like the stats block: unknown
        # fields drop, they do not crash.
        decoded = decode_frame(_frame({
            "kind": "scatter_final", "candidates": [1, 2],
            "reports": [{"engine": "batched", "from_the_future": 9}, None],
        }))
        assert decoded.reports[0].engine == "batched"
        assert decoded.reports[1] is None


# -- the reassembler ---------------------------------------------------------


def _stream_frames(*batches) -> list[MatchBatchFrame]:
    """The batches as one stream's decoded frames (shared row state)."""
    sent = [set() for _ in batches[0].tuples[0]]
    return [decode_frame(encode_match_batch(b, sent)) for b in batches]


class TestReassembler:
    def _final(self, result) -> FinalFrame:
        return decode_frame(encode_final_frame(result))

    def test_rebuilds_canonical_result(self):
        result = _join_result()
        # Deliver the pairs across two batches in scrambled order; the
        # second names a right row the first already carried.
        reassembler = _reassembler(_join_query())
        first, second = _stream_frames(
            ChainMatchBatch(
                [result.tuples[1], result.tuples[0]],
                [result.payloads[1], result.payloads[0]],
            ),
            ChainMatchBatch([result.tuples[2]], [result.payloads[2]]),
        )
        assert second.rows == [{2: b"pl2"}, {}]
        reassembler.add_batch(first)
        last = reassembler.add_batch(second)
        assert last == ChainMatchBatch(
            [result.tuples[2]], [result.payloads[2]]
        )
        rebuilt = reassembler.finish(self._final(result))
        assert rebuilt == result
        # One object per row, however many tuples name it.
        assert rebuilt.payloads[0][1] is rebuilt.payloads[2][1]

    def test_shape_follows_the_query_type(self):
        result = _chain_result()
        query = dataclasses.replace(_chain_query(3), tables=result.tables)
        reassembler = _reassembler(query)
        batch = ChainMatchBatch(result.tuples, result.payloads)
        (frame,) = _stream_frames(batch)
        assert reassembler.add_batch(frame) == batch
        assert reassembler.finish(self._final(result)) == result

    def test_rejects_duplicate_and_miscounted_tuples(self):
        result = _join_result()
        batch = ChainMatchBatch([result.tuples[0]], [result.payloads[0]])
        reassembler = _reassembler(_join_query())
        (frame,) = _stream_frames(batch)
        reassembler.add_batch(frame)
        # Again, naming the rows already carried and carrying none.
        with pytest.raises(SchemeError, match="tuple more than once"):
            reassembler.add_batch(MatchBatchFrame(frame.tuples, [{}, {}]))
        with pytest.raises(SchemeError, match="claims"):
            reassembler.finish(self._final(result))

    def test_rejects_a_row_carried_by_two_frames(self):
        result = _join_result()
        reassembler = _reassembler(_join_query())
        # Two self-contained frames are not one stream: the second
        # carries right row 0 again.
        reassembler.add_batch(decode_frame(encode_match_batch(
            ChainMatchBatch([result.tuples[0]], [result.payloads[0]])
        )))
        with pytest.raises(SchemeError, match="row more than once"):
            reassembler.add_batch(decode_frame(encode_match_batch(
                ChainMatchBatch([result.tuples[2]], [result.payloads[2]])
            )))

    def test_rejects_a_tuple_naming_a_row_no_frame_carried(self):
        reassembler = _reassembler(_join_query())
        reassembler.add_batch(
            MatchBatchFrame([(0, 0)], [{0: b"pl0"}, {0: b"pr0"}])
        )
        for combo in ((0, 1), (2, 0)):
            with pytest.raises(SchemeError, match="no frame carried"):
                reassembler.add_batch(MatchBatchFrame([combo], [{}, {}]))

    def test_rejects_drifting_arity(self):
        reassembler = _reassembler(_join_query())
        with pytest.raises(SchemeError, match="arity"):
            reassembler.add_batch(MatchBatchFrame(
                [(0, 1, 2)], [{0: b"a"}, {1: b"b"}, {2: b"c"}]
            ))
        with pytest.raises(SchemeError, match="arity"):
            reassembler.add_batch(MatchBatchFrame([(0, 1)], [{0: b"a"}]))
        with pytest.raises(SchemeError, match="arity"):
            reassembler.add_batch(
                MatchBatchFrame([(0, 1), (0, 1, 2)], [{0: b"a"}, {1: b"b"}])
            )

    def test_rejects_final_for_other_tables(self):
        reassembler = _reassembler(_join_query())
        for tables in (("L", "X"), ("L", "R", "L")):
            with pytest.raises(SchemeError, match="expected"):
                reassembler.finish(FinalFrame(tables, 0, ServerStats()))


# -- a connection's row state -------------------------------------------------


def _connection_frames() -> list[tuple[str, bytes]]:
    """Two answers on one connection, as the server frames them: the
    first restarts both tables and carries every row it names; the
    second names rows the first carried, one new row of ``R``, and
    carries only that one."""
    held = {"L": set(), "R": set()}
    sent = [held["L"], held["R"]]
    first = _join_result()
    second = EncryptedChainResult(
        tables=("L", "R"),
        tuples=[(0, 0), (1, 3), (2, 0)],
        payloads=[(b"pl0", b"pr0"), (b"pl1", b"pr3"), (b"pl2", b"pr0")],
        stats=ServerStats(matches=3),
    )
    return [
        ("header", encode_stream_header(7, "L", "R", restart=("L", "R"))),
        ("batch", encode_match_batch(ChainMatchBatch(
            first.tuples[2:], first.payloads[2:]
        ), sent)),
        ("batch", encode_match_batch(ChainMatchBatch(
            first.tuples[:2], first.payloads[:2]
        ), sent)),
        ("final", encode_final_frame(first)),
        ("header", encode_stream_header(7, "L", "R")),
        ("batch", encode_match_batch(ChainMatchBatch(
            second.tuples, second.payloads
        ), sent)),
        ("final", encode_final_frame(second)),
    ]


CONNECTION = _connection_frames()


def _replay_connection(frames) -> list[EncryptedChainResult]:
    """Read a connection's frames as the client does: one row state,
    one reassembler per answer."""
    held: dict[str, dict[int, bytes]] = {}
    answers = []
    reassembler = None
    for blob in frames:
        frame = decode_frame(blob)
        if isinstance(frame, StreamHeaderFrame):
            reassembler = StreamReassembler(_join_query(), frame, held)
        elif isinstance(frame, MatchBatchFrame) and reassembler is not None:
            reassembler.add_batch(frame)
        elif isinstance(frame, FinalFrame) and reassembler is not None:
            answers.append(reassembler.finish(frame))
            reassembler = None
        else:
            raise SchemeError(f"out of place: {type(frame).__name__}")
    return answers


class TestConnectionRows:
    """A connection carries each row once per table epoch: the receiver
    resolves later answers through the rows earlier ones carried, and
    anything a hostile sender does to that state is a SchemeError."""

    def test_later_answers_resolve_through_earlier_rows(self):
        blobs = [blob for _, blob in CONNECTION]
        first, second = _replay_connection(blobs)
        assert first == _join_result()
        assert second.tuples == [(0, 0), (1, 3), (2, 0)]
        assert second.payloads == [
            (b"pl0", b"pr0"), (b"pl1", b"pr3"), (b"pl2", b"pr0")
        ]
        # The second answer's batch carried only the new row.
        assert decode_frame(CONNECTION[5][1]).rows == [{}, {3: b"pr3"}]
        # One object per row across the connection's answers.
        assert second.payloads[0][0] is first.payloads[0][0]
        assert second.payloads[2][1] is first.payloads[2][1]

    def test_positions_naming_one_table_share_its_rows(self):
        shared = set()
        batch = ChainMatchBatch(
            [(0, 1), (1, 0), (1, 1)],
            [(b"t0", b"t1"), (b"t1", b"t0"), (b"t1", b"t1")],
        )
        frame = decode_frame(encode_match_batch(batch, [shared, shared]))
        assert frame.rows == [{0: b"t0", 1: b"t1"}, {}]
        assert shared == {0, 1}
        query = _join_query(tables=("T", "T"))
        reassembler = _reassembler(query)
        assert reassembler.add_batch(frame) == batch
        final = FinalFrame(("T", "T"), 3, ServerStats())
        assert reassembler.finish(final).tuples == batch.tuples

    @pytest.mark.parametrize(
        "header",
        [
            StreamHeaderFrame(7, ("L", "X"), ("X",)),
            StreamHeaderFrame(7, ("L", "R", "L"), ()),
            StreamHeaderFrame(7, ("L", "R"), ("X",)),
        ],
    )
    def test_a_header_restarting_another_querys_table_is_refused(
        self, header
    ):
        with pytest.raises(SchemeError, match="opens no answer"):
            StreamReassembler(_join_query(), header)

    def test_a_batch_naming_a_row_never_carried_is_refused(self):
        # The second answer alone, on a connection that never carried
        # the first: its batch names rows no frame carried.
        blobs = [blob for _, blob in CONNECTION]
        with pytest.raises(SchemeError, match="no frame carried"):
            _replay_connection(blobs[4:])

    def test_a_restart_forgets_the_tables_rows(self):
        blobs = [blob for _, blob in CONNECTION]
        restarted = encode_stream_header(7, "L", "R", restart=("R",))
        with pytest.raises(SchemeError, match="no frame carried"):
            _replay_connection(blobs[:4] + [restarted] + blobs[5:])

    def test_a_row_carried_again_within_its_epoch_is_refused(self):
        blobs = [blob for _, blob in CONNECTION]
        again = encode_match_batch(ChainMatchBatch(
            [(0, 0)], [(b"pl0", b"pr0")]
        ))
        with pytest.raises(SchemeError, match="row more than once"):
            _replay_connection(blobs[:5] + [again])

    @pytest.mark.parametrize("claim", [0, 2, 4, 10**9])
    def test_a_final_count_other_than_delivered_is_refused(self, claim):
        blobs = [blob for _, blob in CONNECTION]
        hostile = _rewrite_header(blobs[6], n_tuples=claim)
        with pytest.raises(SchemeError, match="claims"):
            _replay_connection(blobs[:6] + [hostile])

    @pytest.mark.parametrize("position", range(len(CONNECTION)))
    def test_a_truncated_frame_is_refused(self, position):
        blobs = [blob for _, blob in CONNECTION]
        for cut in range(len(blobs[position])):
            hostile = list(blobs)
            hostile[position] = blobs[position][:cut]
            with pytest.raises(SchemeError):
                _replay_connection(hostile)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bit_flips_anywhere_on_the_connection(self, data):
        blobs = [blob for _, blob in CONNECTION]
        position = data.draw(st.integers(0, len(blobs) - 1))
        offset = data.draw(st.integers(0, len(blobs[position]) - 1))
        corrupted = bytearray(blobs[position])
        corrupted[offset] ^= 1 << data.draw(st.integers(0, 7))
        blobs[position] = bytes(corrupted)
        _assert_only_scheme_error(_replay_connection, blobs)


# -- one version ---------------------------------------------------------------


class TestOneVersion:
    """Every message kind, and the store file, is stamped with the one
    current version; any other version byte is rejected by name."""

    # Fixed offsets, wrapping in the byte, so that a version bump
    # renames no test: the one before, the one after, an old one, and
    # whatever lands on 0 and on 255.
    @pytest.mark.parametrize("offset", [-8, -1, +1, 247, 246])
    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_other_wire_versions_rejected(self, name, offset):
        blob = bytearray(SAMPLES[name])
        assert blob[8] == VERSION
        blob[8] = (VERSION + offset) % 256
        assert blob[8] != VERSION
        with pytest.raises(SchemeError, match=f"only version {VERSION}"):
            _decode(name, bytes(blob))

    def test_a_version_10_query_is_refused_by_name(self):
        # Version 10 was the last whose query header carried the
        # ``pair`` flag, which asked for a second answer order.
        blob = bytearray(_rewrite_header(SAMPLES["query_join"], pair=True))
        blob[8] = 10
        with pytest.raises(
            SchemeError, match="unsupported format version 10; .* only "
            f"version {VERSION}"
        ):
            decode_join_query(bytes(blob), BACKEND)

    def test_a_version_11_query_is_refused_by_name(self):
        # Version 11 answered with a stateless stream: a client speaking
        # it would hold no rows across queries.
        blob = bytearray(SAMPLES["query_join"])
        blob[8] = 11
        with pytest.raises(
            SchemeError, match="unsupported format version 11; .* only "
            f"version {VERSION}"
        ):
            decode_join_query(bytes(blob), BACKEND)

    def test_a_version_11_frame_is_refused_by_name(self):
        # A version-11 final frame repeated the answer's tuple run.
        writer = Writer()
        write_header(writer, b"RPROJFRM", 11, {
            "kind": "final", "tables": ["L", "R"], "n_tuples": 1,
            "stats": {},
        })
        writer.u32s([0, 0])
        with pytest.raises(
            SchemeError, match="unsupported format version 11; .* only "
            f"version {VERSION}"
        ):
            decode_frame(writer.getvalue())

    @pytest.mark.parametrize("offset", [-1, +1])
    def test_other_store_versions_rejected(self, offset):
        current = tables_module._VERSION
        for version in (0, current + offset, 255):
            blob = bytearray(TABLE_BLOB)
            assert blob[8] == current
            blob[8] = version
            with pytest.raises(SchemeError, match=f"only version {current}"):
                decode_encrypted_table(bytes(blob), BACKEND)


# -- golden bytes --------------------------------------------------------------


def _golden() -> dict[str, bytes]:
    files = {f"wire_{name}.bin": blob for name, blob in SAMPLES.items()}
    files["store_table.bin"] = TABLE_BLOB
    return files


class TestGoldenBytes:
    """The committed bytes of one message of each kind: an encoder that
    drifts fails here even though every round trip still passes."""

    @pytest.mark.parametrize("filename", sorted(_golden()))
    def test_encoders_reproduce_the_committed_bytes(self, filename):
        assert (DATA / filename).read_bytes() == _golden()[filename]

    def test_the_committed_wire_files_are_the_samples(self):
        # A golden left behind by a deleted sample would otherwise pass
        # unnoticed: nothing reads it.
        assert sorted(path.name for path in DATA.glob("wire_*.bin")) == (
            sorted(f"wire_{name}.bin" for name in SAMPLES)
        )

    def test_committed_bytes_decode(self):
        for name in SAMPLES:
            _decode(name, (DATA / f"wire_{name}.bin").read_bytes())
        table = decode_encrypted_table(
            (DATA / "store_table.bin").read_bytes(), BACKEND
        )
        assert table.shard.global_indices == (3, 8)
        assert len(table.prepared_rows) == 2


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for filename, blob in _golden().items():
        (DATA / filename).write_bytes(blob)
        print(f"wrote {DATA / filename} ({len(blob)} bytes)")
