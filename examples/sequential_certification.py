#!/usr/bin/env python
"""Sequentially certify a gadget's failure rate — stop when decided.

Runs the SPRT-driven Monte Carlo of
:func:`repro.analysis.run_sequential_monte_carlo` on the paper's
error-corrected N gadget: the claim "failure_rate <= p0" is tested
against the alternative "failure_rate >= p1" at error rates
alpha/beta, and the run stops at the first decision instead of burning
the whole trial budget.  An adaptive ``sweep_p`` comparison shows the
same budget-awareness across a p grid.

Run:  PYTHONPATH=src python examples/sequential_certification.py
      [--p P] [--p0 P0] [--p1 P1] [--alpha A] [--beta B]
      [--max-trials N] [--batch SIZE] [--seed S]
      [--method sprt|confidence-sequence] [--trivial] [--out DIR]
      [--checkpoint-dir DIR] [--no-resume]

``--out`` writes ``sequential_verdict.json`` (the CI stats-certify
job uploads it as an artifact).  Exit status: 0 when the claim is
accepted, 1 when rejected, 2 when the budget ran out undecided.

``--checkpoint-dir`` journals every completed batch; a killed run
re-invoked with the same arguments replays the journal and reaches
the identical verdict, trial count and fault stream as an
uninterrupted run.  ``--no-resume`` wipes the journal first.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis import (
    ACCEPT,
    REJECT,
    n_gadget_evaluator,
    run_sequential_monte_carlo,
)
from repro.codes import SteaneCode, TrivialCode
from repro.ft import build_n_gadget, sparse_coset_state
from repro.noise import NoiseModel

EXIT_CODES = {ACCEPT: 0, REJECT: 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Sequential (early-stopping) failure-rate "
                    "certification")
    parser.add_argument("--p", type=float, default=0.002,
                        help="physical error rate to run at")
    parser.add_argument("--p0", type=float, default=0.01,
                        help="claimed failure-rate ceiling (H0)")
    parser.add_argument("--p1", type=float, default=0.05,
                        help="rejection alternative (H1)")
    parser.add_argument("--alpha", type=float, default=0.05,
                        help="false-reject rate")
    parser.add_argument("--beta", type=float, default=0.05,
                        help="false-accept rate")
    parser.add_argument("--max-trials", type=int, default=20000,
                        help="trial budget ceiling")
    parser.add_argument("--batch", type=int, default=256,
                        help="trials per sequential batch")
    parser.add_argument("--seed", type=int, default=20260806)
    parser.add_argument("--method", default="sprt",
                        choices=["sprt", "confidence-sequence"])
    parser.add_argument("--trivial", action="store_true",
                        help="use the trivial code (fast smoke runs)")
    parser.add_argument("--out", default=None,
                        help="directory for the verdict JSON artifact")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="journal completed batches here so a "
                             "killed run resumes bit-identically")
    parser.add_argument("--no-resume", dest="resume",
                        action="store_false",
                        help="wipe the checkpoint journal and start "
                             "fresh instead of resuming")
    args = parser.parse_args(argv)

    checkpoint = None
    if args.checkpoint_dir:
        from repro.runtime import CheckpointStore

        checkpoint = CheckpointStore(args.checkpoint_dir)
        if not args.resume:
            checkpoint.clear()

    code = TrivialCode() if args.trivial else SteaneCode()
    gadget = build_n_gadget(code)
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(code, 0)}
    )
    evaluator = n_gadget_evaluator(gadget, code, 0)

    print(f"gadget: {gadget.name}  (p={args.p:g})")
    print(f"claim:  failure_rate <= {args.p0:g}  vs  >= {args.p1:g}  "
          f"[{args.method}, alpha={args.alpha:g}, beta={args.beta:g}]")
    start = time.time()
    outcome = run_sequential_monte_carlo(
        gadget, initial, evaluator, NoiseModel.uniform(args.p),
        p0=args.p0, p1=args.p1, alpha=args.alpha, beta=args.beta,
        max_trials=args.max_trials, seed=args.seed,
        batch_size=args.batch, method=args.method,
        checkpoint=checkpoint,
    )
    elapsed = time.time() - start
    verdict = outcome.verdict

    print()
    print(verdict.summary_line())
    interval = verdict.interval
    print(f"rate interval (always-valid, "
          f"{interval.confidence:.0%}): "
          f"[{interval.lower:.2e}, {interval.upper:.2e}]")
    if verdict.stopped_early:
        print(f"stopped after {verdict.trials}/{args.max_trials} "
              f"trials — {verdict.trials_saved} trials saved vs the "
              f"fixed budget")
    else:
        print(f"budget exhausted at {verdict.trials} trials")
    print(f"elapsed: {elapsed:.1f}s "
          f"({outcome.batches} batches of {args.batch})")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = verdict.to_json_dict()
        payload["p"] = args.p
        payload["gadget"] = gadget.name
        payload["elapsed_seconds"] = elapsed
        (out / "sequential_verdict.json").write_text(
            json.dumps(payload, indent=2) + "\n")
        print(f"verdict written to {out}/sequential_verdict.json")

    return EXIT_CODES.get(verdict.decision, 2)


if __name__ == "__main__":
    sys.exit(main())
