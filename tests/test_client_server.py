"""Integration tests: client + server against plaintext ground truth."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.core.client import SecureJoinClient
from repro.core.engine import BatchedEngine
from repro.core.server import SecureJoinServer
from repro.crypto.hashing import derive_key, keyed_tag
from repro.crypto.symmetric import SymmetricCipher
from repro.db.database import Database
from repro.db.join import hash_join
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.errors import CryptoError, QueryError
from tests.conftest import held_handles


def _example_tables():
    teams = Table("Teams", Schema.of(("key", "int"), ("name", "str")),
                  [(1, "Web Application"), (2, "Database")])
    employees = Table(
        "Employees",
        Schema.of(("record", "int"), ("employee", "str"),
                  ("role", "str"), ("team", "int")),
        [(1, "Hans", "Programmer", 1),
         (2, "Kaily", "Tester", 1),
         (3, "John", "Programmer", 2),
         (4, "Sally", "Tester", 2)],
    )
    return teams, employees


def _setup(enable_prefilter=False, seed=1):
    teams, employees = _example_tables()
    client = SecureJoinClient.for_tables(
        [(teams, "key"), (employees, "team")],
        in_clause_limit=3,
        rng=random.Random(seed),
        enable_prefilter=enable_prefilter,
    )
    server = SecureJoinServer(client.params)
    server.store(client.encrypt_table(teams, "key"))
    server.store(client.encrypt_table(employees, "team"))
    db = Database()
    db.add_table(teams)
    db.add_table(employees)
    return client, server, db


def _roundtrip(client, server, db, query):
    encrypted = client.create_query(query)
    result = server.execute_join(encrypted)
    decrypted = client.decrypt_chain_result(result)
    truth = db.execute(query)
    assert sorted(decrypted.table.rows()) == sorted(truth.table.rows())
    return result, decrypted


class TestEndToEnd:
    def test_paper_query_t1(self):
        client, server, db = _setup()
        query = JoinQuery.build(
            "Teams", "Employees", on=("key", "team"),
            where_left={"name": ["Web Application"]},
            where_right={"role": ["Tester"]},
        )
        result, decrypted = _roundtrip(client, server, db, query)
        assert decrypted.table.rows() == [
            (1, "Web Application", 2, "Kaily", "Tester", 1)
        ]

    def test_no_selection_full_join(self):
        client, server, db = _setup()
        query = JoinQuery.build("Teams", "Employees", on=("key", "team"))
        result, decrypted = _roundtrip(client, server, db, query)
        assert len(decrypted.table) == 4

    def test_in_clause_multiple_values(self):
        client, server, db = _setup()
        query = JoinQuery.build(
            "Teams", "Employees", on=("key", "team"),
            where_right={"role": ["Tester", "Programmer"]},
        )
        _roundtrip(client, server, db, query)

    def test_empty_result(self):
        client, server, db = _setup()
        query = JoinQuery.build(
            "Teams", "Employees", on=("key", "team"),
            where_left={"name": ["No Such Team"]},
        )
        result, decrypted = _roundtrip(client, server, db, query)
        assert len(decrypted.table) == 0

    def test_nested_algorithm_same_result(self, nested_rematch):
        client, server, db = _setup()
        query = JoinQuery.build("Teams", "Employees", on=("key", "team"))
        encrypted = client.create_query(query)
        hash_result = server.execute_join(encrypted)
        decrypted = client.decrypt_chain_result(hash_result)
        truth = db.execute(query)
        assert sorted(decrypted.table.rows()) == sorted(truth.table.rows())
        nested_result = nested_rematch(server, encrypted)
        assert hash_result.tuples == nested_result.finish()
        # Nested compares every candidate pair; the hash matcher does one
        # probe comparison per right row plus one per emitted pair.  On
        # this tiny workload (every probe matches) the counts tie; the
        # asymptotic separation is covered by the Section 6.5 benchmark.
        stats = nested_result.stats
        assert stats.comparisons == (
            hash_result.stats.candidates_left
            * hash_result.stats.candidates_right
        )
        assert hash_result.stats.comparisons == (
            hash_result.stats.probes + hash_result.stats.matches
        )
        assert hash_result.stats.comparisons <= stats.comparisons

    def test_many_to_many_join(self):
        left = Table("L", Schema.of(("g", "int"), ("x", "str")),
                     [(1, "a"), (1, "b"), (2, "c")])
        right = Table("R", Schema.of(("g", "int"), ("y", "str")),
                      [(1, "p"), (1, "q"), (3, "r")])
        client = SecureJoinClient.for_tables(
            [(left, "g"), (right, "g")], in_clause_limit=2,
            rng=random.Random(2),
        )
        server = SecureJoinServer(client.params)
        server.store(client.encrypt_table(left, "g"))
        server.store(client.encrypt_table(right, "g"))
        db = Database()
        db.add_table(left)
        db.add_table(right)
        query = JoinQuery.build("L", "R", on=("g", "g"))
        result, decrypted = _roundtrip(client, server, db, query)
        assert len(decrypted.table) == 4  # 2x2 cross on g=1

    def test_string_join_values(self):
        left = Table("L", Schema.of(("city", "str"), ("x", "int")),
                     [("oslo", 1), ("bern", 2)])
        right = Table("R", Schema.of(("town", "str"), ("y", "int")),
                      [("bern", 10), ("oslo", 20), ("rome", 30)])
        client = SecureJoinClient.for_tables(
            [(left, "city"), (right, "town")], in_clause_limit=2,
            rng=random.Random(3),
        )
        server = SecureJoinServer(client.params)
        server.store(client.encrypt_table(left, "city"))
        server.store(client.encrypt_table(right, "town"))
        db = Database()
        db.add_table(left)
        db.add_table(right)
        query = JoinQuery.build("L", "R", on=("city", "town"))
        _roundtrip(client, server, db, query)


class TestFloatCells:
    """Float cells embed as they compare: -0.0 is 0.0, and NaN, which
    is unequal to itself, has no embedding at all."""

    @staticmethod
    def _tables():
        schema = Schema.of(("k", "float"), ("v", "float"))
        left = Table("L", schema, [(0.0, 0.0), (1.5, -0.0), (2.0, 1.5)])
        right = Table("R", schema, [(-0.0, 2.5), (1.5, 0.0), (3.0, 1.5)])
        return left, right

    def _store(self, enable_prefilter=False):
        left, right = self._tables()
        client = SecureJoinClient.for_tables(
            [(left, "k"), (right, "k")], in_clause_limit=2,
            rng=random.Random(5), enable_prefilter=enable_prefilter,
        )
        server = SecureJoinServer(client.params, workers=1)
        server.store(client.encrypt_table(left, "k"))
        server.store(client.encrypt_table(right, "k"))
        db = Database()
        db.add_table(left)
        db.add_table(right)
        return client, server, db

    def test_signed_zero_join_values_match_the_plaintext_join(self):
        client, server, db = self._store()
        left, right = self._tables()
        query = JoinQuery.build("L", "R", on=("k", "k"))
        result = server.execute_join(client.create_query(query))
        truth = hash_join(left, right, "k", "k").index_pairs
        assert truth == [(0, 0), (1, 1)]
        assert result.tuples == truth
        _roundtrip(client, server, db, query)

    @pytest.mark.parametrize("enable_prefilter", [False, True])
    def test_signed_zero_in_selection_matches_the_plaintext(
        self, enable_prefilter
    ):
        client, server, db = self._store(enable_prefilter)
        for values in ([0.0], [-0.0]):
            query = JoinQuery.build(
                "L", "R", on=("k", "k"),
                where_left={"v": values}, where_right={"v": values},
            )
            _, decrypted = _roundtrip(client, server, db, query)
            assert decrypted.table.rows() == [(1.5, -0.0, 1.5, 0.0)]

    def test_nan_cell_is_refused(self):
        schema = Schema.of(("k", "float"), ("v", "str"))
        table = Table("N", schema, [(1.0, "a"), (float("nan"), "b")])
        client = SecureJoinClient.for_tables(
            [(table, "k")], rng=random.Random(6)
        )
        with pytest.raises(ValueError, match="NaN"):
            client.encrypt_table(table, "k")

    @pytest.mark.parametrize("enable_prefilter", [False, True])
    def test_nan_in_clause_is_refused(self, enable_prefilter):
        client, _, _ = self._store(enable_prefilter)
        query = JoinQuery.build(
            "L", "R", on=("k", "k"), where_left={"v": [float("nan")]}
        )
        with pytest.raises(ValueError, match="NaN"):
            client.create_query(query)


class TestPrefilter:
    def test_prefilter_reduces_decryptions(self):
        client_on, server_on, db = _setup(enable_prefilter=True)
        client_off, server_off, _ = _setup(enable_prefilter=False)
        query = JoinQuery.build(
            "Teams", "Employees", on=("key", "team"),
            where_left={"name": ["Web Application"]},
            where_right={"role": ["Tester"]},
        )
        result_on = server_on.execute_join(client_on.create_query(query))
        result_off = server_off.execute_join(client_off.create_query(query))
        assert result_on.stats.decryptions == 3   # 1 team + 2 testers
        assert result_off.stats.decryptions == 6  # everything
        assert sorted(result_on.tuples) == sorted(result_off.tuples)

    def test_prefilter_same_answer(self):
        client, server, db = _setup(enable_prefilter=True)
        query = JoinQuery.build(
            "Teams", "Employees", on=("key", "team"),
            where_right={"role": ["Programmer"]},
        )
        _roundtrip(client, server, db, query)


class TestValidation:
    def test_unknown_selection_column(self):
        client, server, db = _setup()
        query = JoinQuery.build(
            "Teams", "Employees", on=("key", "team"),
            where_left={"nope": ["x"]},
        )
        with pytest.raises(QueryError):
            client.create_query(query)

    def test_selection_on_join_column_rejected(self):
        client, server, db = _setup()
        query = JoinQuery.build(
            "Teams", "Employees", on=("key", "team"),
            where_left={"key": [1]},
        )
        with pytest.raises(QueryError):
            client.create_query(query)

    def test_oversized_in_clause(self):
        client, server, db = _setup()  # t = 3
        query = JoinQuery.build(
            "Teams", "Employees", on=("key", "team"),
            where_right={"role": ["a", "b", "c", "d"]},
        )
        with pytest.raises(QueryError):
            client.create_query(query)

    def test_wrong_join_column(self):
        client, server, db = _setup()
        query = JoinQuery.build("Teams", "Employees", on=("name", "team"))
        with pytest.raises(QueryError):
            client.create_query(query)

    def test_unencrypted_table(self):
        client, server, db = _setup()
        query = JoinQuery.build("Nope", "Employees", on=("key", "team"))
        with pytest.raises(QueryError):
            client.create_query(query)

    def test_server_missing_table(self):
        teams, employees = _example_tables()
        client = SecureJoinClient.for_tables(
            [(teams, "key"), (employees, "team")], rng=random.Random(4)
        )
        server = SecureJoinServer(client.params)
        server.store(client.encrypt_table(teams, "key"))
        client.encrypt_table(employees, "team")  # encrypted but never stored
        query = JoinQuery.build("Teams", "Employees", on=("key", "team"))
        with pytest.raises(QueryError):
            server.execute_join(client.create_query(query))


class TestObservations:
    def test_server_records_one_observation_per_query(self):
        """Two fresh queries are two series: each has its own entry,
        holding a handle for every row it decrypted."""
        client, server, db = _setup()
        query = JoinQuery.build("Teams", "Employees", on=("key", "team"))
        first = client.create_query(query)
        second = client.create_query(query)
        assert first.query_id != second.query_id
        for encrypted in (first, second):
            result = server.execute_join(encrypted)
            held = held_handles(server, encrypted)
            assert len(held) == result.stats.decryptions == 2 + 4
        assert len(server.series_cache) == 2

    def test_handles_unlinkable_across_queries(self):
        """The same row produces different handles under different
        queries: two entries' held handles share no value."""
        client, server, db = _setup()
        query = JoinQuery.build("Teams", "Employees", on=("key", "team"))
        first = client.create_query(query)
        second = client.create_query(query)
        server.execute_join(first)
        server.execute_join(second)
        first_held = held_handles(server, first)
        second_held = held_handles(server, second)
        assert first_held.keys() == second_held.keys()
        assert not set(first_held.values()) & set(second_held.values())


class TestPayloads:
    def test_payloads_are_probabilistic(self):
        teams, _ = _example_tables()
        duplicated = Table("T", teams.schema, [(1, "same"), (2, "same")])
        client = SecureJoinClient.for_tables(
            [(duplicated, "key")], rng=random.Random(5)
        )
        encrypted = client.encrypt_table(duplicated, "key")
        assert encrypted.payloads[0] != encrypted.payloads[1]

    def test_tampered_payload_detected(self):
        client, server, db = _setup()
        query = JoinQuery.build("Teams", "Employees", on=("key", "team"))
        result = server.execute_join(client.create_query(query))
        left, right = result.payloads[0]
        result.payloads[0] = (b"\x00" * len(left), right)
        with pytest.raises(CryptoError):
            client.decrypt_chain_result(result)


@pytest.fixture
def decrypt_spy(monkeypatch):
    """Every blob handed to ``SymmetricCipher.decrypt``, in call order."""
    calls: list[bytes] = []
    real = SymmetricCipher.decrypt

    def spy(self, blob):
        calls.append(blob)
        return real(self, blob)

    monkeypatch.setattr(SymmetricCipher, "decrypt", spy)
    return calls


class TestResultMemo:
    """The client decrypts each distinct payload once (op-counted)."""

    QUERY = JoinQuery.build("Teams", "Employees", on=("key", "team"))

    def _result(self):
        client, server, db = _setup()
        result = server.execute_join(client.create_query(self.QUERY))
        # Two teams, four employees, four matches: eight payloads
        # returned, six of them distinct.
        assert len(result.payloads) == 4
        return client, server, db, result

    def test_one_to_many_decrypts_each_distinct_payload_once(self, decrypt_spy):
        client, _, db, result = self._result()
        decrypted = client.decrypt_chain_result(result)
        distinct = {p for pair in result.payloads for p in pair}
        assert len(distinct) == 6
        assert sorted(decrypt_spy) == sorted(distinct)
        assert sorted(decrypted.table.rows()) == sorted(
            db.execute(self.QUERY).table.rows()
        )

    def test_second_decrypt_of_an_answer_runs_zero_decrypts(self, decrypt_spy):
        client, server, _, result = self._result()
        first = client.decrypt_chain_result(result)
        del decrypt_spy[:]
        again = client.decrypt_chain_result(result)
        # A re-submitted query returns the same stored payloads.
        resubmitted = client.decrypt_chain_result(
            server.execute_join(client.create_query(self.QUERY))
        )
        assert decrypt_spy == []
        assert again.table.rows() == first.table.rows()
        assert sorted(resubmitted.table.rows()) == sorted(first.table.rows())

    def test_tampered_payload_fails_beside_its_memoized_original(self):
        client, _, _, result = self._result()
        client.decrypt_chain_result(result)
        entries = {name: dict(memo) for name, memo in client._memos.items()}
        left, right = result.payloads[0]
        tampered = bytes([left[0] ^ 0x01]) + left[1:]
        result.payloads[0] = (tampered, right)
        with pytest.raises(CryptoError):
            client.decrypt_chain_result(result)
        # The failed decrypt admitted nothing; the original still sits.
        assert client._memos == entries
        assert left in client._memos["Teams"]
        assert tampered not in client._memos["Teams"]

    def test_rows_identical_across_memo_clears(self, monkeypatch):
        monkeypatch.setattr("repro.core.client._MEMO_PAYLOAD_BYTES", 300)
        teams = Table("Teams", Schema.of(("key", "int"), ("name", "str")),
                      [(k, f"team-{k}") for k in range(6)])
        staff = Table("Staff", Schema.of(("id", "int"), ("team", "int")),
                      [(i, i % 6) for i in range(30)])
        client = SecureJoinClient.for_tables(
            [(teams, "key"), (staff, "team")], rng=random.Random(3)
        )
        server = SecureJoinServer(
            client.params, engine=BatchedEngine(batch_size=4)
        )
        server.store(client.encrypt_table(teams, "key"))
        server.store(client.encrypt_table(staff, "team"))
        db = Database()
        db.add_table(teams)
        db.add_table(staff)
        query = JoinQuery.build("Teams", "Staff", on=("key", "team"))
        encrypted = client.create_query(query)

        streamed: list[tuple] = []
        stream = server.stream_join(encrypted)
        while True:
            try:
                batch = next(stream)
            except StopIteration as stop:
                result = stop.value
                break
            streamed.extend(client.decrypt_match_batch("Teams", "Staff", batch))
            assert client._memo_bytes <= 300
        assert len(streamed) == 30
        distinct = {p for pair in result.payloads for p in pair}
        assert len(distinct) == 36 and sum(map(len, distinct)) > 300
        assert sum(map(len, client._memos.values())) < 36  # it did clear
        materialized = client.decrypt_chain_result(result).table.rows()
        truth = db.execute(query).table.rows()
        assert sorted(streamed) == sorted(materialized) == sorted(truth)

    def test_tables_holding_an_identical_blob_share_no_entry(self):
        client, _, _, result = self._result()
        client.decrypt_chain_result(result)
        blob = result.payloads[0][0]
        assert blob in client._memos["Teams"]
        # The same bytes in the other table's position are decrypted
        # under that table's key (and fail) instead of hitting the memo.
        batch = SimpleNamespace(payloads=[(blob, blob)])
        with pytest.raises(CryptoError):
            client.decrypt_chain_batch(("Teams", "Employees"), batch)
        assert blob not in client._memos["Employees"]


class TestKeyedStateIsBuiltOnce:
    def test_payload_cipher_is_cached_per_table(self):
        client, _, _ = _setup()
        assert client._payload_cipher("Teams") is client._payload_cipher("Teams")
        assert client._payload_cipher("Teams") is not client._payload_cipher(
            "Employees"
        )

    def test_prefilter_tags_are_keyed_tag_bytes(self):
        client, _, _ = _setup(enable_prefilter=True)
        _, employees = _example_tables()
        stored = client._table("Employees").prefilter_tags
        assert set(stored) == {"record", "employee", "role"}
        row = (5, "Ada", "Tester", 2)
        _, _, inserted = client.encrypt_row_for("Employees", row)
        for column, tags in stored.items():
            key = derive_key(
                client._master_secret, f"prefilter.Employees.{column}"
            )
            index = employees.schema.index_of(column)
            assert tags == [keyed_tag(key, r[index]) for r in employees]
            assert inserted[column] == keyed_tag(key, row[index])
