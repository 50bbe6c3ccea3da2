"""Composing encrypted joins: a three-table query as a series of queries.

The paper's scheme joins two tables per query; richer queries compose.
Here a Regions-Suppliers-Shipments chain runs as two encrypted joins;
the client stitches the decrypted halves.  Because every query uses a
fresh key, the two joins leak only their own matched pairs — composing
queries never reveals more than the closure of the individual leakages.

Run:  python examples/three_way_join.py
"""

from __future__ import annotations

import random

from repro import (
    Database,
    JoinQuery,
    Schema,
    SecureJoinClient,
    SecureJoinServer,
    Table,
)


def main() -> None:
    regions = Table(
        "Regions",
        Schema.of(("rid", "int"), ("rname", "str")),
        [(1, "north"), (2, "south")],
    )
    suppliers = Table(
        "Suppliers",
        Schema.of(("sid", "int"), ("rid", "int"), ("sname", "str")),
        [(10, 1, "Acme"), (11, 1, "Bolt"), (12, 2, "Crux")],
    )
    shipments = Table(
        "Shipments",
        Schema.of(("sid", "int"), ("item", "str"), ("urgent", "str")),
        [(10, "pipes", "yes"), (11, "nails", "no"),
         (12, "beams", "yes"), (10, "tiles", "no")],
    )

    # Each encrypted table is bound to ONE join column (the H(a0) slot of
    # its row vectors), so a table joining on two different attributes is
    # uploaded twice, once per join key — the standard deployment pattern.
    suppliers_by_sid = suppliers.rename("SuppliersBySid")

    client = SecureJoinClient.for_tables(
        [(regions, "rid"), (suppliers, "rid"),
         (suppliers_by_sid, "sid"), (shipments, "sid")],
        in_clause_limit=2,
        rng=random.Random(13),
    )
    server = SecureJoinServer(client.params)
    server.store(client.encrypt_table(regions, "rid"))
    server.store(client.encrypt_table(suppliers, "rid"))
    server.store(client.encrypt_table(suppliers_by_sid, "sid"))
    server.store(client.encrypt_table(shipments, "sid"))

    # Hop 1: Regions x Suppliers on rid.
    hop1 = JoinQuery.build("Regions", "Suppliers", on=("rid", "rid"),
                           where_left={"rname": ["north"]})
    first = client.decrypt_chain_result(
        server.execute_join(client.create_query(hop1))
    )
    print("Hop 1 (Regions JOIN Suppliers WHERE rname = 'north'):")
    print(first.table.pretty(), "\n")

    # Hop 2: Suppliers x Shipments on sid, restricted to urgent shipments.
    hop2 = JoinQuery.build("SuppliersBySid", "Shipments", on=("sid", "sid"),
                           where_right={"urgent": ["yes"]})
    second = client.decrypt_chain_result(
        server.execute_join(client.create_query(hop2))
    )
    print("Hop 2 (Suppliers JOIN Shipments WHERE urgent = 'yes'):")
    print(second.table.pretty(), "\n")

    # Client-side stitch on the shared supplier id.  (Hop 2's schema
    # prefixes the colliding "sid" columns, so address the left one.)
    sid_first = first.table.schema.index_of("Suppliers.sid")
    sid_second = second.table.schema.index_of("SuppliersBySid.sid")
    stitched = [
        a + b
        for a in first.table.rows()
        for b in second.table.rows()
        if a[sid_first] == b[sid_second]
    ]
    print("Stitched three-way rows (region, supplier, urgent shipment):")
    for row in stitched:
        print("  ", row)

    # Ground truth via the plaintext engine, composed the same way.
    db = Database()
    for table in (regions, suppliers, suppliers_by_sid, shipments):
        db.add_table(table)
    truth_first = db.execute(hop1).table.rows()
    truth_second = db.execute(hop2).table.rows()
    truth = [
        a + b
        for a in truth_first
        for b in truth_second
        if a[sid_first] == b[sid_second]
    ]
    assert sorted(stitched) == sorted(truth)
    print("\nComposed encrypted result matches plaintext composition; the "
          "two hops used independent query keys, so the server cannot link "
          "them beyond the returned matches.")


if __name__ == "__main__":
    main()
