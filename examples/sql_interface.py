"""Issue encrypted joins through the SQL front end.

The restricted SQL grammar covers exactly the paper's query shape:

    SELECT * FROM A JOIN B ON A.x = B.y
    WHERE A.c IN (...) AND B.d = ...

Run:  python examples/sql_interface.py
"""

from __future__ import annotations

import random

from repro import (
    Schema,
    SecureJoinClient,
    SecureJoinServer,
    Table,
    parse_join_query,
)


def main() -> None:
    products = Table(
        "Products",
        Schema.of(("sku", "int"), ("category", "str"), ("price", "float")),
        [
            (100, "widgets", 9.99),
            (200, "gadgets", 24.50),
            (300, "widgets", 3.75),
        ],
    )
    sales = Table(
        "Sales",
        Schema.of(("sale", "int"), ("sku", "int"), ("store", "str")),
        [
            (1, 100, "north"),
            (2, 200, "south"),
            (3, 100, "south"),
            (4, 300, "north"),
        ],
    )

    client = SecureJoinClient.for_tables(
        [(products, "sku"), (sales, "sku")],
        in_clause_limit=2,
        rng=random.Random(99),
    )
    server = SecureJoinServer(client.params)
    server.store(client.encrypt_table(products, "sku"))
    server.store(client.encrypt_table(sales, "sku"))

    sql = (
        "SELECT * FROM Products JOIN Sales ON Products.sku = Sales.sku "
        "WHERE category = 'widgets' AND store = 'north'"
    )
    print("SQL:", sql, "\n")

    query = parse_join_query(
        sql, left_schema=products.schema, right_schema=sales.schema
    )
    print("Parsed:", query, "\n")

    result = server.execute_join(client.create_query(query))
    decrypted = client.decrypt_chain_result(result)
    print("Result:")
    print(decrypted.table.pretty())


if __name__ == "__main__":
    main()
