"""Randomized integration tests: encrypted execution == plaintext execution.

Hypothesis generates random table contents and random queries; the full
client/server pipeline must agree with the plaintext database on every
one of them.  This is the strongest single correctness statement in the
suite: it exercises encoding, IPE, hash matching, pre-filtering and
payload decryption together.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.experiments import side_handles
from repro.core.client import SecureJoinClient
from repro.core.server import SecureJoinServer
from repro.db.database import Database
from repro.db.matcher import get_matcher
from repro.db.query import JoinQuery
from repro.db.schema import Schema
from repro.db.table import Table

_JOIN_VALUES = st.integers(min_value=0, max_value=4)
_CATEGORIES = st.sampled_from(["red", "green", "blue"])

_rows_left = st.lists(
    st.tuples(_JOIN_VALUES, _CATEGORIES), min_size=1, max_size=12
)
_rows_right = st.lists(
    st.tuples(_JOIN_VALUES, _CATEGORIES, st.integers(0, 9)),
    min_size=1, max_size=12,
)
_selection = st.one_of(
    st.none(),
    st.lists(_CATEGORIES, min_size=1, max_size=2, unique=True),
)


def _run_both(left_rows, right_rows, left_sel, right_sel, prefilter, seed):
    left = Table("L", Schema.of(("k", "int"), ("c", "str")),
                 [(k, c) for k, c in left_rows])
    right = Table("R", Schema.of(("k", "int"), ("c", "str"), ("n", "int")),
                  [(k, c, n) for k, c, n in right_rows])
    client = SecureJoinClient.for_tables(
        [(left, "k"), (right, "k")],
        in_clause_limit=2,
        rng=random.Random(seed),
        enable_prefilter=prefilter,
    )
    server = SecureJoinServer(client.params)
    server.store(client.encrypt_table(left, "k"))
    server.store(client.encrypt_table(right, "k"))
    query = JoinQuery.build(
        "L", "R", on=("k", "k"),
        where_left={"c": left_sel} if left_sel else None,
        where_right={"c": right_sel} if right_sel else None,
    )
    encrypted = client.decrypt_chain_result(
        server.execute_join(client.create_query(query))
    )
    db = Database()
    db.add_table(left)
    db.add_table(right)
    truth = db.execute(query)
    return encrypted, truth


class TestRandomWorkloads:
    @given(
        left_rows=_rows_left,
        right_rows=_rows_right,
        left_sel=_selection,
        right_sel=_selection,
        prefilter=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=40, deadline=None)
    def test_encrypted_equals_plaintext(
        self, left_rows, right_rows, left_sel, right_sel, prefilter, seed
    ):
        encrypted, truth = _run_both(
            left_rows, right_rows, left_sel, right_sel, prefilter, seed
        )
        assert sorted(encrypted.table.rows()) == sorted(truth.table.rows())

    @given(
        left_rows=_rows_left,
        right_rows=_rows_right,
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=15, deadline=None)
    def test_hash_and_nested_agree(self, left_rows, right_rows, seed):
        left = Table("L", Schema.of(("k", "int"), ("c", "str")),
                     [(k, c) for k, c in left_rows])
        right = Table("R", Schema.of(("k", "int"), ("c", "str"), ("n", "int")),
                      [(k, c, n) for k, c, n in right_rows])
        client = SecureJoinClient.for_tables(
            [(left, "k"), (right, "k")], in_clause_limit=2,
            rng=random.Random(seed),
        )
        server = SecureJoinServer(client.params)
        server.store(client.encrypt_table(left, "k"))
        server.store(client.encrypt_table(right, "k"))
        query = JoinQuery.build("L", "R", on=("k", "k"))
        encrypted = client.create_query(query)
        hash_result = server.execute_join(encrypted)
        # The Section 6.5 baseline over the same encrypted handles, each
        # side drained once more through SJ.Dec.
        nested = get_matcher("nested")
        left_side, right_side = side_handles(server, encrypted)
        nested.add_left(left_side)
        nested.add_right(right_side)
        assert hash_result.tuples == nested.finish()
        assert nested.stats.comparisons == len(left_rows) * len(right_rows)


class TestSelfJoin:
    """Arbitrary equi-joins include self-joins — schemes like Pang-Ding
    explicitly exclude them; Secure Join supports them natively."""

    def test_self_join_matches_plaintext(self):
        people = Table(
            "People",
            Schema.of(("city", "str"), ("name", "str"), ("kind", "str")),
            [
                ("oslo", "ann", "buyer"),
                ("oslo", "bob", "seller"),
                ("bern", "cal", "buyer"),
                ("oslo", "dee", "seller"),
                ("bern", "eli", "seller"),
            ],
        )
        client = SecureJoinClient.for_tables(
            [(people, "city")], in_clause_limit=2, rng=random.Random(21)
        )
        server = SecureJoinServer(client.params)
        server.store(client.encrypt_table(people, "city"))
        query = JoinQuery.build(
            "People", "People", on=("city", "city"),
            where_left={"kind": ["buyer"]},
            where_right={"kind": ["seller"]},
        )
        result = server.execute_join(client.create_query(query))
        decrypted = client.decrypt_chain_result(result)

        db = Database()
        db.add_table(people)
        truth = db.execute(query)
        assert sorted(decrypted.table.rows()) == sorted(truth.table.rows())
        # ann-bob, ann-dee in oslo; cal-eli in bern.
        assert len(decrypted.table) == 3

    def test_self_join_uses_one_stored_table(self):
        numbers = Table("N", Schema.of(("v", "int"), ("tag", "str")),
                        [(1, "a"), (1, "b"), (2, "c")])
        client = SecureJoinClient.for_tables(
            [(numbers, "v")], in_clause_limit=1, rng=random.Random(22)
        )
        server = SecureJoinServer(client.params)
        server.store(client.encrypt_table(numbers, "v"))
        query = JoinQuery.build("N", "N", on=("v", "v"))
        result = server.execute_join(client.create_query(query))
        # Full self-join on v: rows (0,0), (0,1), (1,0), (1,1), (2,2).
        assert sorted(result.tuples) == [
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 2),
        ]
