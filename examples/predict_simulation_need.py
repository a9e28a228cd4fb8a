#!/usr/bin/env python
"""Train the enhanced-MFACT predictor and use it on new traces.

This is the paper's Section VI workflow end to end:

1. measure a training corpus with all four tools through
   ``execute_study`` (here: a reduced corpus so the example runs in
   about a minute; pass --full for the whole 235-trace study); every
   record lands in the per-record cache ``.cache/records/``, so a rerun
   with unchanged code reads it back;
2. train the stepwise logistic model with Monte Carlo cross-validation;
3. ask the enhanced MFACT whether *new* applications need simulation —
   from one cheap modeling replay, no simulator involved.

Run:  python examples/predict_simulation_need.py [--full]
"""

import argparse

from repro import CIELITO, EnhancedMFACT, naive_heuristic_success, synthesize_ground_truth
from repro.core.executor import execute_study
from repro.workloads import corpus_specs, generate_doe, generate_npb


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true", help="use the full 235-trace corpus")
    parser.add_argument("--limit", type=int, default=48)
    args = parser.parse_args()

    limit = None if args.full else args.limit
    print(f"measuring training corpus ({'full 235' if args.full else limit} traces)...")
    records = execute_study(corpus_specs()[:limit]).records
    labelled = [r for r in records if r.requires_simulation() is not None]
    print(f"  {len(labelled)} records with packet-flow DIFFtotal labels")

    naive_rate, _ = naive_heuristic_success(labelled)
    enhanced = EnhancedMFACT.train(labelled, runs=50, seed=0)
    print(f"  naive heuristic success:  {100 * naive_rate:.1f}%  (paper 73.4%)")
    print(f"  enhanced MFACT success:   {100 * enhanced.success_rate:.1f}%  (paper 93.2%)")
    print(f"  selected variables:       {', '.join(enhanced.selected)}\n")

    print("predicting for unseen applications (modeling replay only):")
    candidates = [
        (generate_npb, "EP", 0.05, "embarrassingly parallel"),
        (generate_npb, "FT", 0.002, "transpose-heavy FFT"),
        (generate_doe, "FB", 0.002, "irregular AMR ghost exchange"),
        (generate_doe, "MiniFE", 0.02, "implicit FEM mini-app"),
    ]
    for gen, app, compute, blurb in candidates:
        trace = gen(app, 64, CIELITO, seed=777, compute_per_iter=compute,
                    ranks_per_node=1)
        synthesize_ground_truth(trace, CIELITO, seed=777)
        needs = enhanced.predict_trace(trace, CIELITO)
        verdict = "RUN THE SIMULATOR" if needs else "modeling suffices"
        print(f"  {app:8s} ({blurb:28s}) -> {verdict}")


if __name__ == "__main__":
    main()
