"""Encrypted joins over TPC-H data: the paper's evaluation workload.

Generates the Customers and Orders tables at a small scale factor,
encrypts and uploads them, then runs the paper's benchmark query --
join on custkey, filtered by the selectivity column -- for each of the
four selectivity values, reporting server-side work.

Run:  python examples/tpch_join.py [scale_factor]
"""

from __future__ import annotations

import sys
import time

from repro.bench.workloads import build_encrypted_tpch, tpch_query
from repro.db.database import Database
from repro.tpch.generator import SELECTIVITY_VALUES, TPCHGenerator


def main(scale_factor: float = 0.005) -> None:
    print(f"Building encrypted TPC-H pair at scale factor {scale_factor} ...")
    start = time.perf_counter()
    workload = build_encrypted_tpch(scale_factor, in_clause_limit=1)
    elapsed = time.perf_counter() - start
    print(f"  {workload.num_customers} customers + {workload.num_orders} "
          f"orders encrypted and uploaded in {elapsed:.1f}s\n")

    # Plaintext mirror for ground-truth checking.
    customers, orders = TPCHGenerator(scale_factor).both()
    db = Database()
    db.add_table(customers)
    db.add_table(orders)

    print(f"{'selectivity':>12} {'join time':>10} {'decryptions':>12} "
          f"{'matches':>8}")
    for selectivity in SELECTIVITY_VALUES:
        query = tpch_query(selectivity)
        encrypted_query = workload.client.create_query(query)
        start = time.perf_counter()
        result = workload.server.execute_join(encrypted_query)
        elapsed = time.perf_counter() - start
        truth = db.execute(query)
        assert result.tuples == truth.index_pairs, (
            "encrypted join must agree with the plaintext join"
        )
        print(f"{selectivity:>12.4f} {elapsed:>9.3f}s "
              f"{result.stats.decryptions:>12} {result.stats.matches:>8}")

    print("\nAll encrypted results verified against plaintext execution.")
    print("Runtime grows with selectivity (more rows decrypted), matching "
          "Figure 3's trend.")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.005)
