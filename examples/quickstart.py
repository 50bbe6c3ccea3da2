"""Quickstart: encrypt two tables, run an encrypted equi-join, decrypt.

This walks the paper's running example (Tables 1-4): the Teams and
Employees tables, joined on Team = Key with selections on Name and Role.

Run:  python examples/quickstart.py
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
    # --- the plaintext data (Tables 1 and 2 of the paper) -----------------
    teams = Table(
        "Teams",
        Schema.of(("key", "int"), ("name", "str")),
        [(1, "Web Application"), (2, "Database")],
    )
    employees = Table(
        "Employees",
        Schema.of(("record", "int"), ("employee", "str"),
                  ("role", "str"), ("team", "int")),
        [
            (1, "Hans", "Programmer", 1),
            (2, "Kaily", "Tester", 1),
            (3, "John", "Programmer", 2),
            (4, "Sally", "Tester", 2),
        ],
    )

    # --- upload phase (client encrypts, server stores) ---------------------
    client = SecureJoinClient.for_tables(
        [(teams, "key"), (employees, "team")],
        in_clause_limit=3,
        rng=random.Random(2022),
    )
    server = SecureJoinServer(client.params)
    server.store(client.encrypt_table(teams, "key"))
    server.store(client.encrypt_table(employees, "team"))
    print("Uploaded encrypted tables:",
          f"Teams ({len(teams)} rows), Employees ({len(employees)} rows)\n")

    # --- query phase (the t1 query of Section 2.1) -----------------------
    query = JoinQuery.build(
        "Teams", "Employees", on=("key", "team"),
        where_left={"name": ["Web Application"]},
        where_right={"role": ["Tester"]},
    )
    print("Query:", query)

    encrypted_query = client.create_query(query)
    result = server.execute_join(encrypted_query)
    print(f"Server stats: {result.stats}\n")

    decrypted = client.decrypt_chain_result(result)
    print("Decrypted join result (the paper's Table 3):")
    print(decrypted.table.pretty())

    # --- sanity: the encrypted path agrees with plaintext execution -------
    db = Database()
    db.add_table(teams)
    db.add_table(employees)
    truth = db.execute(query)
    assert sorted(decrypted.table.rows()) == sorted(truth.table.rows())
    print("\nEncrypted result matches plaintext ground truth.")


if __name__ == "__main__":
    main()
