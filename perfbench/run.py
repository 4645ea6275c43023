"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc_smallp_steane_n --seed 72 \\
        --seconds 28 --trace 0

Workloads (see ``perfbench/model.json`` for why each was chosen and
which layer each one is predicted to stress):

* ``pairs_steane_t`` — ``run_malignant_pairs`` on the Steane T gadget;
* ``mc_smallp_steane_n`` — ``run_monte_carlo`` at p = 1e-4 on the
  Steane N gadget;
* ``campaign_local`` — submit/run/status against an in-process
  ``CertificationService``;
* ``sweep_remote`` — a sweep over HTTP drained by a ``RemoteWorker``.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs
each round twice, plainly and then with the timing shims of
``perfbench/spans.py`` installed, and prints the per-layer metrics
(spans are written to ``perfbench/out/``).  The last
line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness check, or an exception that aborts the run, prints
``"correct": false`` and exits with status 1.

``setup_s`` is the import time plus the median of five fixture
builds.  One untimed warm-up item, the correctness gate at the
workload's pinned seed, runs after set-up and before the first timed
item.

Every end-to-end time is reported on the reference host of
``workloads.Host``: time inside ``os.fsync`` is counted at a fixed
cost per call, and the rest is scaled by a host probe timed after
every window and fixture build.  The measured values are printed to
standard error.

The run pins itself to one CPU before it starts any thread.  The
service workloads hand every request between threads (client, server,
fsync completion); on a small virtual machine, waking a thread on the
other CPU costs a delay that changes with the host's load.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SOURCE = os.path.join(CHECKOUT, "src")
OUT = os.path.join(HERE, "out")
FIXTURE_BUILDS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one small round (smoke checks only)")
    return parser.parse_args(argv)


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def time_boxed(seconds: float, rounds, step) -> None:
    """Call ``step(index)`` until the next call would overrun
    ``seconds`` (at least once), or exactly ``rounds`` times."""
    start = time.perf_counter()
    durations: list = []
    while True:
        if rounds is not None:
            if len(durations) >= rounds:
                return
        elif durations and (time.perf_counter() - start
                            + statistics.median(durations) > seconds):
            return
        began = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - began)


def throughput(workload, rec, speed) -> float:
    """Work units per timed second.  The engine workloads count fresh
    calls only; the service workloads count every item and every timed
    step."""
    if workload.cached_counts_as_work:
        kinds, unit_kinds = ("fresh", "cached", "step"), ("fresh", "cached")
    else:
        kinds = unit_kinds = ("fresh",)
    return (sum(rec.units[kind] for kind in unit_kinds)
            / sum(sum(rec.reference(kind, speed)) for kind in kinds))


def end_to_end(workload, rec, setup: tuple, host) -> dict:
    """Every end-to-end metric on the reference host (see
    ``workloads.Host``).  The measured values, and what the host
    charged for them, go to standard error."""
    import_s, builds = setup

    def timings(speed) -> dict:
        fresh = rec.reference("fresh", speed)
        cached = rec.reference("cached", speed)
        return {
            "setup_s": (import_s * (speed or 1.0) + statistics.median(
                builds.reference("step", speed)), "s"),
            "work_items_per_s": (throughput(workload, rec, speed), "1/s"),
            "item_ms_p50": (statistics.median(fresh) * 1e3, "ms"),
            "item_ms_p90": (percentile(fresh + cached, 0.9) * 1e3, "ms"),
            "cached_item_ms_p50": (statistics.median(cached) * 1e3, "ms"),
        }

    calls, fsync_s = host.fsyncs()
    print(f"perfbench: host probe median "
          f"{statistics.median(host.probes) * 1e3:.4f} ms, {calls} fsyncs "
          f"averaging {fsync_s / max(1, calls) * 1e3:.4f} ms; measured "
          + json.dumps({name: value
                        for name, (value, _) in timings(None).items()}),
          file=sys.stderr)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {**timings(host.speed()),
            "peak_rss_mb": (rss_kb / 1024.0, "MB")}


def pin_to_one_cpu() -> None:
    """Run this process, and every thread it starts later, on the
    highest-numbered CPU it may use."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"perfbench: no repro package under {SOURCE}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, SOURCE)
    sys.path.insert(0, HERE)
    import workloads

    import_s = time.perf_counter() - _STARTED
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick "
              f"from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_root = os.path.join(OUT, f"work-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](
        args.seed, work_root, args.tiny)
    host = workloads.Host()
    try:
        builds = workloads.Recorder(host=host)
        for _ in range(FIXTURE_BUILDS):
            with builds.timed("step"):
                workload.setup()
        # The warm-up item doubles as the correctness gate; it is
        # work, not set-up, so it is timed by neither.
        workload.gate(workloads.PINNED[args.workload])

        rounds = 1 if args.tiny else None
        if args.trace == 0:
            rec = workloads.Recorder(host=host)
            time_boxed(args.seconds, rounds,
                       lambda index: workload.round(index, rec))
            metrics = end_to_end(workload, rec, (import_s, builds), host)
        else:
            metrics = traced(workload, rounds, args, host)
        workload.verify()
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
        workload.attempted += 1
        workload.failed += 1
        workload.errors.append(f"run aborted: {type(exc).__name__}: "
                               f"{exc}")
        metrics = {}
    finally:
        workload.close()
        shutil.rmtree(work_root, ignore_errors=True)

    correct = not workload.errors
    for error in workload.errors[:20]:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def traced(workload, rounds, args, host) -> dict:
    """Alternate untraced and traced runs of each round.

    Round ``i`` runs once plain and once with the shims installed.
    Each run gets its own fixture build, so the traced one's evaluator
    closures carry spans and the plain one's do not.  Alternating
    keeps a change in the host's speed out of ``trace.overhead_ratio``.
    """
    import spans
    from workloads import Recorder

    tracer = spans.Tracer()
    plain, rec = Recorder(host=host), Recorder(tracer)

    def step(index: int) -> None:
        workload.setup()
        workload.round(index, plain)
        with tracer:
            workload.setup()
            workload.round(index, rec)

    time_boxed(args.seconds, rounds, step)
    metrics = spans.layer_metrics(
        tracer, workload.batch_size, rec.requests, rec.retries,
        rec.remote_items, rec.remote_requests)
    metrics["trace.overhead_ratio"] = (rec.total() / plain.total(),
                                       "ratio")
    calls, fsync_s = host.fsyncs()
    metrics["host.probe_ms"] = (statistics.median(host.probes) * 1e3, "ms")
    metrics["host.fsync_ms"] = (fsync_s / max(1, calls) * 1e3, "ms")
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}")
    tracer.write(stem + ".jsonl")
    summary = {name: value for name, (value, _) in metrics.items()}
    summary["dominant_layer"] = spans.dominant_layer(metrics)
    with open(stem + ".summary.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    print(f"perfbench: dominant layer on {args.workload}: "
          f"{summary['dominant_layer']}", file=sys.stderr)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
