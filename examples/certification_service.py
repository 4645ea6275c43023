#!/usr/bin/env python
"""Run the crash-safe certification job service end to end.

Submits a mixed batch of certification jobs — fixed-budget Monte
Carlo, sequential SPRT and a stress sweep — to the durable on-disk
:class:`~repro.service.JobQueue`, drains it with a supervised
multi-process worker pool (or a single in-process worker with
``--workers 0``), and prints the verdict table.  Every job's verdict
is then stored in the content-addressed
:class:`~repro.service.ResultCache`; the demo resubmits the whole
batch and shows the second pass answered entirely from the cache with
**zero** simulator evaluations.

``--chaos`` turns the demo into a live fault drill: the first worker
attempt of several jobs is killed (SIGKILL, no cleanup), has its
lease forcibly expired, or fails with a typed error — and the run
still drains with every verdict bit-identical to what an undisturbed
run produces, because interrupted attempts resume from each job's
checksummed checkpoint journal.

Run:  PYTHONPATH=src python examples/certification_service.py
      [--jobs N] [--workers W] [--trials T] [--p P] [--seed S]
      [--chaos] [--root DIR] [--out DIR]

``--out`` writes ``service_report.json`` (job states, attempts,
cache hits, pool incidents).  Exit status is 0 when every job
succeeded, every injected fault fired, and the resubmission pass was
fully cache-served.
"""

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.service import (
    SUCCEEDED,
    CertificationService,
    FaultPlan,
    JobSpec,
    ServiceConfig,
)


def build_specs(args):
    """A mixed batch: mostly MC, some sequential, one stress row."""
    specs = []
    for index in range(args.jobs):
        seed = args.seed + index
        if index % 4 == 3:
            specs.append(JobSpec.create(
                "sequential_monte_carlo", code="trivial", gadget="n",
                p=args.p, p0=args.p / 2, p1=max(10 * args.p, 0.2),
                max_trials=4 * args.trials, batch_size=args.trials,
                seed=seed))
        else:
            specs.append(JobSpec.create(
                "monte_carlo", code="trivial", gadget="n", p=args.p,
                trials=args.trials, seed=seed,
                chunk_size=max(args.trials // 4, 1)))
    specs.append(JobSpec.create(
        "stress_certify", code="trivial", p=args.p,
        trials=args.trials, seed=args.seed + 1000, gadgets=["n"],
        include_structural=False))
    return specs


def build_chaos(specs) -> FaultPlan:
    """Kill, expire-lease and fail a few first attempts."""
    plan = FaultPlan()
    if len(specs) >= 1:
        plan.add("job", "batch:0", 0, "kill")
    if len(specs) >= 3:
        plan.add("job", "batch:0", 2, "expire")
    if len(specs) >= 5:
        plan.add("job", "start", 4, "fail")
    return plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Durable certification job service demo")
    parser.add_argument("--jobs", type=int, default=8,
                        help="number of Monte-Carlo/sequential jobs "
                             "(a stress job is always appended)")
    parser.add_argument("--workers", type=int, default=2,
                        help="pool size; 0 = single in-process worker")
    parser.add_argument("--trials", type=int, default=60,
                        help="trials per Monte-Carlo job")
    parser.add_argument("--p", type=float, default=0.02,
                        help="physical error rate")
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--chaos", action="store_true",
                        help="kill/hang/expire worker attempts and "
                             "prove the verdicts survive")
    parser.add_argument("--root", default=None,
                        help="service root directory (default: a "
                             "fresh temp dir, removed on exit)")
    parser.add_argument("--out", default=None,
                        help="directory for service_report.json")
    args = parser.parse_args(argv)

    root = args.root or tempfile.mkdtemp(prefix="repro-service-")
    cleanup = args.root is None
    specs = build_specs(args)
    chaos = build_chaos(specs) if args.chaos else None
    config = ServiceConfig(
        workers=args.workers,
        lease_ttl=2.0 if args.chaos else 30.0,
        heartbeat_interval=0.25 if args.chaos else None,
        job_deadline=120.0, max_attempts=4, backoff_base=0.1)
    service = CertificationService(root, config=config, chaos=chaos)

    print(f"service root: {root}")
    print(f"submitting {len(specs)} jobs "
          f"({'chaos on' if args.chaos else 'no chaos'}, "
          f"workers={args.workers})")
    fingerprints = [service.submit(spec) for spec in specs]

    start = time.time()
    outcome = service.run_until_drained(timeout=600.0)
    first_pass = time.time() - start

    print(f"\n{'job':34s} {'state':10s} {'att':3s} "
          f"{'cached':6s} verdict")
    failures = 0
    for spec, fp in zip(specs, fingerprints):
        status = service.status(fp)
        if status.state != SUCCEEDED:
            failures += 1
        verdict = status.verdict or {}
        brief = {
            "monte_carlo":
                lambda v: f"failures={v.get('failures')}"
                          f"/{v.get('trials')}",
            "sequential_monte_carlo":
                lambda v: f"{v.get('decision')} "
                          f"after {v.get('trials')}",
            "stress_certify":
                lambda v: "certified" if v.get("certified")
                          else "NOT certified",
        }.get(spec.kind, lambda v: "?")(verdict)
        print(f"{spec.kind + ':' + fp[:8]:34s} "
              f"{status.state:10s} {status.attempt:3d} "
              f"{str(bool(status.meta.get('cache_hit'))):6s} "
              f"{brief}")
    print(f"\nfirst pass: {service.counts()} in {first_pass:.1f}s  "
          f"({outcome.get('mode')}, "
          f"respawns={outcome.get('respawns', 0)}, "
          f"deadline_kills={outcome.get('deadline_kills', 0)})")
    # Job faults fire inside pool children, so the evidence is in the
    # queue: a fault fired iff its job went on past the struck attempt.
    faults = chaos.faults if chaos else []
    fired = sum(1 for fault in faults
                if service.status(fingerprints[fault.index]).attempt
                > fault.attempt)
    if chaos:
        print(f"chaos: {fired}/{len(faults)} injected faults fired")

    # Resubmit everything: the cache must answer without simulating.
    for spec in specs:
        service.submit(spec)
    start = time.time()
    service.worker("resubmit").run_until_drained(timeout=600.0)
    second_pass = time.time() - start
    cache_hits = sum(
        1 for fp in fingerprints
        if service.status(fp).meta.get("cache_hit")
        and service.status(fp).meta.get("evaluations") == 0)
    print(f"resubmission: {cache_hits}/{len(fingerprints)} jobs "
          f"served from the verdict cache with 0 simulator "
          f"evaluations in {second_pass:.1f}s")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report = {
            "jobs": [service.status(fp).to_json_dict()
                     for fp in fingerprints],
            "chaos": bool(args.chaos),
            "chaos_fired": fired,
            "chaos_planned": len(faults),
            "workers": args.workers,
            "outcome": {key: value for key, value in outcome.items()
                        if key != "counts"},
            "counts": service.counts(),
            "cache_hits_on_resubmit": cache_hits,
            "first_pass_seconds": first_pass,
            "second_pass_seconds": second_pass,
        }
        (out / "service_report.json").write_text(
            json.dumps(report, indent=2, default=str) + "\n")
        print(f"report written to {out}/service_report.json")

    if cleanup:
        shutil.rmtree(root, ignore_errors=True)
    ok = (failures == 0 and fired == len(faults)
          and cache_hits == len(fingerprints))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
