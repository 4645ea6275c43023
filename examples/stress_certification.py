#!/usr/bin/env python
"""Stress-certify the paper's gadgets under structured noise.

Sweeps the gadget suite (N gate, T gadget, Toffoli, recovery) across
the structured model family — biased, correlated-burst, drifting,
crosstalk and twirled-over-rotation noise — and prints the
pass/degrade/fail verdict table, including the two sharp structural
claims:

* classical-ancilla **phase immunity**: zero failures under fully
  phase-biased noise at every tested strength;
* the 2k+1 majority vote's **burst radius**: survives every weight<=k
  X burst and breaks exactly at weight k+1 (found exhaustively).

Run:  PYTHONPATH=src python examples/stress_certification.py
      [--trials N] [--p P] [--gadgets n,t,toffoli,recovery]
      [--out DIR] [--optimize] [--checkpoint-dir DIR] [--no-resume]

``--optimize`` runs the certified gadget optimizer
(``repro.optimize``) on every gadget before the sweep: the verdict
table must not change, only the fault-location bill shrinks.

``--checkpoint-dir`` makes the sweep crash-safe: every baseline and
every (gadget, model) row journals into its own substore there, so a
killed run re-invoked with the same arguments replays finished rows
and recomputes only the interrupted one — verdicts bit-identical to
an uninterrupted sweep.  ``--no-resume`` wipes the journal first.

``--out`` writes ``stress_verdicts.txt`` and ``stress_verdicts.json``
(the CI stress job uploads these as artifacts).  Exit status is 0 when
certified (no ``fail`` rows), 1 otherwise.
"""

import argparse
import sys
import time
from pathlib import Path

from repro.analysis import stress_certify


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Structured-noise stress certification")
    parser.add_argument("--trials", type=int, default=300,
                        help="Monte-Carlo trials per (gadget, model)")
    parser.add_argument("--p", type=float, default=0.005,
                        help="per-location strike probability")
    parser.add_argument("--seed", type=int, default=20260806)
    parser.add_argument("--gadgets", default="n,t,toffoli,recovery",
                        help="comma-separated gadget subset")
    parser.add_argument("--out", default=None,
                        help="directory for the verdict-table artifacts")
    parser.add_argument("--optimize", action="store_true",
                        help="run the certified gadget optimizer on "
                             "every gadget first (same verdicts, "
                             "fewer fault locations)")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="journal every sweep row here so a "
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

    start = time.time()
    report = stress_certify(
        trials=args.trials,
        p=args.p,
        seed=args.seed,
        gadgets=tuple(name.strip()
                      for name in args.gadgets.split(",") if name.strip()),
        optimize=args.optimize,
        checkpoint=checkpoint,
        progress=lambda message: print(
            f"  [{time.time() - start:6.1f}s] {message}", flush=True),
    )
    table = report.format_table()
    print()
    print(table)
    print(f"\nelapsed: {time.time() - start:.1f}s")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "stress_verdicts.txt").write_text(table + "\n")
        (out / "stress_verdicts.json").write_text(report.to_json() + "\n")
        print(f"verdict table written to {out}/")

    return 0 if report.certified else 1


if __name__ == "__main__":
    sys.exit(main())
