"""Section 6.5: Secure Join vs. Hahn et al.

Two structural comparisons from the paper's discussion:

1. **Join algorithm** — the paper's handles support hash joins
   (expected O(n)); Hahn et al.'s searchable ciphertexts force
   nested-loop joins (O(n^2)).  Both matchers run here on identical
   encrypted handles, so the measured gap is purely algorithmic.
2. **Scheme-level run** — the Hahn baseline end to end on the same
   workload, showing the quadratic comparison count.
"""

from __future__ import annotations

import pytest

from repro.baselines import HahnScheme
from repro.bench.experiments import comparison_with_hahn, side_handles
from repro.bench.workloads import build_encrypted_tpch, tpch_query
from repro.db.matcher import get_matcher
from repro.db.query import JoinQuery
from repro.tpch.generator import TPCHGenerator

_SCALE_FACTORS = (0.002, 0.004, 0.008)
_SELECTIVITY = 1 / 12.5  # the densest series: most selected rows


@pytest.mark.parametrize("scale_factor", list(_SCALE_FACTORS))
@pytest.mark.parametrize("algorithm", ["hash", "nested"])
def test_matcher_scaling(benchmark, scale_factor, algorithm):
    workload = build_encrypted_tpch(scale_factor, in_clause_limit=1)
    query = tpch_query(_SELECTIVITY, in_clause_size=1)
    # Each side decrypted once; the matchers alone are on the clock.
    left, right = side_handles(
        workload.server, workload.client.create_query(query)
    )

    def match():
        matcher = get_matcher(algorithm)
        matcher.add_left(left)
        matcher.add_right(right)
        return matcher.finish()

    pairs = benchmark.pedantic(match, rounds=3, iterations=1)
    assert pairs
    assert pairs == workload.server.execute_join(
        workload.client.create_query(query)
    ).tuples


def test_comparison_counts_quadratic_vs_linear():
    """The O(n) / O(n^2) separation, independent of wall-clock noise."""
    sizes = {"small": _SCALE_FACTORS[0], "large": _SCALE_FACTORS[-1]}
    scale = sizes["large"] / sizes["small"]
    result = comparison_with_hahn(
        scale_factors=tuple(sizes.values()), selectivity=_SELECTIVITY,
        repeats=1,
    )
    counts = {}
    for name, scale_factor in sizes.items():
        hash_rec, nested_rec = (
            result.filter(scale_factor=scale_factor, algorithm=algorithm)[0]
            for algorithm in ("hash", "nested")
        )
        assert hash_rec.extra["matches"] == nested_rec.extra["matches"] > 0
        assert (
            hash_rec.extra["decryptions"] == nested_rec.extra["decryptions"]
        )
        counts[(name, "hash")] = hash_rec.extra["comparisons"]
        counts[(name, "nested")] = nested_rec.extra["comparisons"]

    nested_growth = counts[("large", "nested")] / counts[("small", "nested")]
    hash_growth = counts[("large", "hash")] / counts[("small", "hash")]
    assert nested_growth == pytest.approx(scale**2, rel=0.15)
    assert hash_growth == pytest.approx(scale, rel=0.25)


def test_hahn_scheme_end_to_end(benchmark):
    """The Hahn baseline itself on a PK/FK TPC-H subset."""
    generator = TPCHGenerator(0.002)
    customers, orders = generator.both()
    scheme = HahnScheme()
    scheme.upload([(customers, "custkey"), (orders, "custkey")])
    query = JoinQuery.build(
        "Customers", "Orders", on=("custkey", "custkey"),
        where_left={"selectivity": ["1/12.5"]},
        where_right={"selectivity": ["1/12.5"]},
    )

    answer = benchmark.pedantic(
        lambda: scheme.run_query(query), rounds=3, iterations=1
    )
    assert scheme.comparisons > 0
    assert len(answer.index_pairs) >= 0
