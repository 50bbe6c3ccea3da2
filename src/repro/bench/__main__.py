"""Print the paper's evaluation tables: ``python -m repro.bench [--full]``.

Default mode keeps the total runtime to a couple of minutes; ``--full``
runs the complete parameter sweeps of the paper (expect tens of minutes
on the BN254 micro-benchmarks).
"""

from __future__ import annotations

import argparse

from repro.bench import experiments
from repro.bench.harness import ExperimentResult, format_series_table


def _print_result(result: ExperimentResult, columns: list[str]) -> None:
    rows = []
    for record in result.records:
        row = dict(record.params)
        row["seconds"] = record.seconds_mean
        row["millis"] = record.millis_mean
        row.update(record.extra)
        rows.append(row)
    print(format_series_table(
        f"{result.name}  ({result.notes})", rows, columns
    ))
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true",
        help="run the complete paper sweeps (slow)",
    )
    parser.add_argument(
        "--skip-bn254", action="store_true",
        help="skip the real-pairing micro-benchmarks",
    )
    args = parser.parse_args()

    print("Leakage (Section 2.1, Example 2.1)")
    print("==================================")
    timeline = experiments.leakage_example()
    print(timeline.format_table())
    print()

    if not args.skip_bn254:
        t_values = tuple(range(1, 11)) if args.full else (1, 2, 3)
        result = experiments.figure2(
            t_values=t_values, backend_name="bn254",
            repeats=3 if args.full else 1,
        )
        _print_result(result, ["t", "operation", "millis"])

    result = experiments.figure2(backend_name="fast", repeats=5)
    _print_result(result, ["t", "operation", "millis"])

    scale_factors = (
        (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1)
        if args.full else (0.01, 0.02, 0.04)
    )
    result = experiments.figure3(scale_factors=scale_factors,
                                 repeats=3 if args.full else 1)
    _print_result(
        result,
        ["scale_factor", "selectivity", "seconds", "decryptions", "matches"],
    )

    in_sizes = tuple(range(1, 11)) if args.full else (1, 4, 7, 10)
    result = experiments.figure4(in_clause_sizes=in_sizes,
                                 repeats=3 if args.full else 1)
    _print_result(result, ["t", "selectivity", "seconds", "decryptions"])

    result = experiments.comparison_with_hahn(
        repeats=3 if args.full else 1
    )
    _print_result(
        result,
        ["scale_factor", "algorithm", "seconds", "comparisons", "matches"],
    )

    result = experiments.prefilter_ablation(repeats=3 if args.full else 1)
    _print_result(result, ["prefilter", "seconds", "decryptions"])

    result = experiments.engine_ablation(
        scale_factors=scale_factors, repeats=3 if args.full else 1
    )
    _print_result(
        result,
        ["scale_factor", "engine", "seconds", "time_to_first_match",
         "final_exponentiations", "batches", "workers", "engine_selected"],
    )


if __name__ == "__main__":
    main()
