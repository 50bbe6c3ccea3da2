"""A series of queries: fresh keys, unlinkable handles, closure-only leakage.

Demonstrates the paper's headline property on a many-to-many dataset:
repeating and varying queries never lets the server link results across
queries beyond the transitive closure of what each query individually
revealed.

Run:  python examples/query_series.py
"""

from __future__ import annotations

import random

from repro import (
    JoinQuery,
    Schema,
    SecureJoinClient,
    SecureJoinServer,
    Table,
)
from repro.baselines import HahnScheme, SecureJoinAdapter
from repro.bench.experiments import side_handles
from repro.errors import QueryError
from repro.leakage import analyze_schemes
from repro.leakage.analyzer import minimal_floor
from repro.leakage.pairs import class_pairs


def main() -> None:
    # Suppliers and shipments share region codes (a many-to-many join that
    # Hahn et al.'s PK/FK-only scheme cannot even express on this data).
    suppliers = Table(
        "Suppliers",
        Schema.of(("region", "int"), ("name", "str"), ("tier", "str")),
        [
            (10, "Acme", "gold"),
            (10, "Bolt", "silver"),
            (20, "Crux", "gold"),
            (30, "Dyno", "bronze"),
        ],
    )
    shipments = Table(
        "Shipments",
        Schema.of(("shipment", "int"), ("region", "int"), ("priority", "str")),
        [
            (1, 10, "high"),
            (2, 20, "low"),
            (3, 20, "high"),
            (4, 30, "low"),
            (5, 10, "low"),
        ],
    )

    client = SecureJoinClient.for_tables(
        [(suppliers, "region"), (shipments, "region")],
        in_clause_limit=2,
        rng=random.Random(7),
    )
    server = SecureJoinServer(client.params)
    server.store(client.encrypt_table(suppliers, "region"))
    server.store(client.encrypt_table(shipments, "region"))

    queries = [
        JoinQuery.build("Suppliers", "Shipments", on=("region", "region"),
                        where_left={"tier": ["gold"]},
                        where_right={"priority": ["high"]}),
        JoinQuery.build("Suppliers", "Shipments", on=("region", "region"),
                        where_left={"tier": ["bronze"]},
                        where_right={"priority": ["low"]}),
        JoinQuery.build("Suppliers", "Shipments", on=("region", "region"),
                        where_left={"tier": ["silver", "bronze"]},
                        where_right={"priority": ["high"]}),
    ]

    print("Running a series of three queries...\n")
    encrypted = [client.create_query(query) for query in queries]
    for i, (query, sent) in enumerate(zip(queries, encrypted), start=1):
        result = server.execute_join(sent)
        decrypted = client.decrypt_chain_result(result)
        print(f"t{i}: {query}")
        print(f"    {len(decrypted.table)} joined rows, "
              f"{result.stats.decryptions} decryptions\n")

    # Handles for the same row differ across queries: unlinkable.  These
    # are the handles each query's tokens give its rows, byte for byte
    # what the server holds for that query.
    first, second = (
        {
            (table, row): handle
            for table, side in zip(sent.tables, side_handles(server, sent))
            for row, handle in side
        }
        for sent in encrypted[:2]
    )
    shared = first.keys() & second.keys()
    relinked = [r for r in shared if first[r] == second[r]]
    print(f"Rows decrypted by both q1 and q2: {len(shared)}; "
          f"handles that coincide across the queries: {len(relinked)}")
    assert not relinked, "fresh query keys must make handles unlinkable"

    # What the server keeps of the whole series is the closure of what
    # each query revealed — the paper's floor, pair for pair.
    tables = [(suppliers, "region"), (shipments, "region")]
    learned = class_pairs(server.ledger.classes())
    floor = minimal_floor(tables, queries)[-1]
    print(f"Equality pairs the server has linked: {len(learned)}; "
          f"the floor (closure of the per-query minimum): {len(floor)}")
    assert learned == floor, "the server learns the closure and no more"

    # Hahn et al.'s scheme cannot even express this workload: the join is
    # many-to-many (duplicate regions on both sides), but their
    # construction supports only primary-key/foreign-key joins.
    hahn = HahnScheme()
    hahn.upload([(suppliers, "region"), (shipments, "region")])
    try:
        hahn.run_query(queries[0])
        raise AssertionError("expected the PK/FK restriction to trigger")
    except QueryError as error:
        print(f"\nHahn et al. baseline rejects this workload: {error}")

    # On a PK/FK variant (unique supplier regions), compare the leakage
    # timelines of the two schemes directly.
    pk_suppliers = Table(
        "Suppliers", suppliers.schema,
        [(10, "Acme", "gold"), (20, "Crux", "gold"),
         (30, "Dyno", "bronze"), (40, "Echo", "silver")],
    )
    print("\nLeakage timeline vs. Hahn et al. on a PK/FK variant:")
    timeline = analyze_schemes(
        [HahnScheme(), SecureJoinAdapter(rng=random.Random(8))],
        [(pk_suppliers, "region"), (shipments, "region")],
        queries,
    )
    print(timeline.format_table())
    print("\nSecure Join stays on the floor (closure of the union); the "
          "selection-gated baseline overshoots once queries overlap.")


if __name__ == "__main__":
    main()
