#!/usr/bin/env python
"""Drive the networked certification service end to end.

Starts the stdlib HTTP :class:`~repro.service.CertificationServer`
over a durable on-disk service, then acts as a remote client: a
threshold sweep (gadget × p grid) is submitted as **one**
content-addressed claim, decomposed into per-cell queue jobs, drained
by a worker while the client polls the crash-safe journaled merge —
all over the wire.

``--net-chaos`` turns the demo into a live network fault drill: the
request stream is hit with a dropped request, a garbled response, an
at-least-once duplicate, a mid-response disconnect and a congestion
delay at exact request coordinates.  The client's timeout/backoff/
resubmit machinery rides through all of it, and the demo proves the
merged verdict table is **bit-identical** to an undisturbed
in-process run of the same sweep — the networked path adds failure
modes, never new answers.

``--remote-workers N`` drains the sweep with a fleet of HMAC-
authenticated :class:`~repro.service.RemoteWorker` processes that
claim, heartbeat, stream progress and complete entirely over the
authenticated ``/v1/work/*`` endpoints — no shared filesystem with
the server process is assumed.  Combined with ``--net-chaos`` the
fleet is additionally hit with a worker partition (consecutive
requests dropped) and a duplicated terminal complete, which the
queue's idempotent-complete machinery must absorb.

Run:  PYTHONPATH=src python examples/certification_server.py
      [--p-points N] [--trials T] [--seed S] [--workers W]
      [--remote-workers N] [--net-chaos] [--root DIR] [--out DIR]

``--out`` writes ``server_report.json`` (merged table, client retry
stats, server request tallies).  Exit status is 0 only when the sweep
completes, matches the reference bit-for-bit, and every injected
network fault actually fired.
"""

import argparse
import json
import multiprocessing
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.service import (
    CertificationServer,
    CertificationService,
    FaultPlan,
    ServiceClient,
    ServiceConfig,
    SweepSpec,
    remote_worker_main,
    run_sweep_inprocess,
)

FLEET_SECRET = "repro-demo-fleet-secret"


def build_sweep(args) -> SweepSpec:
    grid = tuple(round(0.005 * (i + 1), 6)
                 for i in range(args.p_points))
    return SweepSpec.create(
        "monte_carlo", code="trivial", gadgets=("n", "recovery"),
        p_grid=grid, seed=args.seed, trials=args.trials,
        chunk_size=max(args.trials // 3, 1))


def build_net_chaos(remote_workers: int = 0) -> FaultPlan:
    """One of each network fault kind, at fixed coordinates."""
    plan = (FaultPlan()
            .add("net", "submit", 0, "drop")
            .add("net", "submit", 1, "garble")
            .add("net", "sweep_submit", 0, "duplicate")
            .add("net", "sweep_status", 0, "delay", seconds=0.1)
            .add("net", "sweep_status", 1, "disconnect")
            .add("net", "sweep_status", 2, "garble"))
    if remote_workers:
        # Fleet coordinates: partition remote-1 for two consecutive
        # authenticated requests, and process one terminal complete
        # twice (absorbed by the queue's idempotent complete).
        plan.add("fleet", "remote-1", 2, "partition", count=2)
        plan.add("net", "work_complete", 0, "duplicate")
    return plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Networked certification service demo")
    parser.add_argument("--p-points", type=int, default=4,
                        help="noise grid size (cells = 2 x this)")
    parser.add_argument("--trials", type=int, default=60,
                        help="Monte-Carlo trials per cell")
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--workers", type=int, default=0,
                        help="pool size; 0 = one in-process worker")
    parser.add_argument("--remote-workers", type=int, default=0,
                        help="drain with this many HMAC-"
                             "authenticated RemoteWorker processes "
                             "over /v1/work/* instead of a local "
                             "worker")
    parser.add_argument("--net-chaos", action="store_true",
                        help="inject drop/garble/duplicate/delay/"
                             "disconnect faults on the request "
                             "stream")
    parser.add_argument("--root", default=None,
                        help="service root (default: fresh temp dir)")
    parser.add_argument("--out", default=None,
                        help="directory for server_report.json")
    args = parser.parse_args(argv)

    root = args.root or tempfile.mkdtemp(prefix="repro-server-")
    cleanup = args.root is None
    sweep = build_sweep(args)
    cells = sweep.cells()
    plan = build_net_chaos(args.remote_workers) \
        if args.net_chaos else None
    secret = FLEET_SECRET if args.remote_workers else None
    config = ServiceConfig(workers=args.workers, lease_ttl=10.0,
                           job_deadline=120.0, max_attempts=3,
                           backoff_base=0.1,
                           clock_skew_grace=0.5)
    service = CertificationService(root, config=config, chaos=plan)

    print(f"service root: {root}")
    print(f"sweep {sweep.fingerprint[:12]}…: "
          f"{len(cells)} cells over gadgets {list(sweep.gadgets)} "
          f"x p {list(sweep.p_grid)} "
          f"({'network chaos on' if plan else 'no chaos'})")

    # The undisturbed serial reference the networked run must match.
    reference = run_sweep_inprocess(
        sweep, tempfile.mkdtemp(prefix="repro-server-ref-"))

    with CertificationServer(service,
                             worker_secret=secret) as server:
        host, port = server.address
        print(f"server listening on http://{host}:{port}")
        client = ServiceClient(host, port, timeout=3.0,
                               max_attempts=6, backoff_base=0.05)

        # A couple of individually-submitted cells first (these meet
        # the submit-op faults), then the whole sweep — which dedups
        # them via content addressing.
        for cell in cells[:2]:
            client.submit(cell.spec)
        receipt = client.submit_sweep(sweep)
        print(f"sweep submitted: {receipt['submitted']} new cells, "
              f"{receipt['deduplicated']} deduplicated")

        start = time.time()
        fleet = []
        if args.remote_workers > 0:
            context = multiprocessing.get_context("fork")
            for i in range(args.remote_workers):
                name = f"remote-{i + 1}"
                proc = context.Process(
                    target=remote_worker_main,
                    args=(host, port, FLEET_SECRET, name,
                          str(Path(root) / "scratch" / name)),
                    kwargs={"timeout": 600.0}, name=name,
                    daemon=True)
                proc.start()
                fleet.append(proc)
            print(f"remote fleet: {len(fleet)} authenticated "
                  f"workers claiming over /v1/work/*")
            drainer = None
        elif args.workers == 0:
            drainer = threading.Thread(
                target=service.worker("server-demo")
                .run_until_drained,
                kwargs={"timeout": 600.0}, daemon=True)
        else:
            drainer = threading.Thread(
                target=service.run_until_drained,
                kwargs={"timeout": 600.0}, daemon=True)
        if drainer is not None:
            drainer.start()
        table = client.wait_sweep(sweep.fingerprint, timeout=600.0)
        if drainer is not None:
            drainer.join(timeout=600.0)
        fleet_ok = True
        for proc in fleet:
            proc.join(timeout=600.0)
            fleet_ok = fleet_ok and proc.exitcode == 0
        elapsed = time.time() - start

        identical = table["cells"] == reference["cells"]
        print(f"\n{'cell':18s} {'state':10s} failure_rate")
        for key, row in table["cells"].items():
            rate = row.get("verdict", {}).get("failure_rate")
            rate_text = f"{rate:.4f}" if rate is not None \
                else row.get("error", "-")
            print(f"{key:18s} {row['state']:10s} {rate_text}")
        print(f"\ndrained {table['counts']} in {elapsed:.1f}s over "
              f"HTTP; bit-identical to in-process reference: "
              f"{identical}")

        stats = client.stats
        print(f"client: {stats.requests} requests, "
              f"{stats.attempts} attempts, {stats.retries} retries "
              f"({stats.network_faults} network faults, "
              f"{stats.garbled_responses} garbled responses), "
              f"{stats.backoff_seconds:.3f}s backoff")
        fired = plan.fired if plan else 0
        planned = len(plan.faults) if plan else 0
        if plan:
            print(f"network chaos: {fired}/{planned} injected "
                  f"faults fired")
        server_stats = client.service_stats()
        if fleet:
            health = client.health()
            tallies = ", ".join(
                f"{worker}={count}" for worker, count in
                sorted(health["workers"].items()))
            print(f"fleet: drained={health['drained']}, "
                  f"authenticated requests [{tallies}], "
                  f"all workers exited clean: {fleet_ok}")
        print("server:", *service.stats().summary_lines(),
              sep="\n  ")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report = {
            "sweep": sweep.fingerprint,
            "cells": len(cells),
            "net_chaos": bool(plan),
            "chaos_fired": fired,
            "chaos_planned": planned,
            "remote_workers": args.remote_workers,
            "fleet_clean_exit": fleet_ok,
            "bit_identical": identical,
            "elapsed_seconds": elapsed,
            "table": table,
            "client_stats": stats.to_json_dict(),
            "server_stats": server_stats,
        }
        (out / "server_report.json").write_text(
            json.dumps(report, indent=2, default=str) + "\n")
        print(f"report written to {out}/server_report.json")

    if cleanup:
        shutil.rmtree(root, ignore_errors=True)
    ok = (table["complete"] and identical and fleet_ok
          and (plan is None or fired == planned))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
