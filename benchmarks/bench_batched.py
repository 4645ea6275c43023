"""E8 — batched evaluation speedup on the threshold workloads.

The malignant-pair sweep behind the paper's Sec. 4.2 threshold
estimate is evaluation-dominated: every sampled pair is a distinct
two-fault pattern, so deduplication barely helps and a one-lane stack
(``batch_size=1``) pays full per-gate Python dispatch per sample.
This bench measures 64-lane stacks of the engine's one evaluation
path, :mod:`repro.simulators.batched`, against one-lane stacks on
exactly that workload (plus a Monte-Carlo sweep), asserts the >= 2x
acceptance bar at full scale, re-checks result equality while timing,
and emits ``results/BENCH_batched.json`` for CI.  One-lane stacks are
only this bench's baseline: the engine derives 64 lanes for the
Steane N gadget, and ``batch_size=1`` caps it to one here.

Scale down with ``BENCH_BATCHED_SAMPLES`` for smoke runs (the speedup
assertion only applies at full scale).
"""

import os
import time


from repro.analysis import n_gadget_evaluator
from repro.analysis.engine import run_malignant_pairs, run_monte_carlo
from repro.codes import SteaneCode
from repro.ft import build_n_gadget, sparse_coset_state
from repro.noise import NoiseModel

from _harness import engine_stats_lines, json_artifact, report

#: Full-scale workload; the >= 2x assertion applies at full scale only.
SAMPLES = int(os.environ.get("BENCH_BATCHED_SAMPLES", "3000"))
BATCH_SIZE = 64
_FULL_SCALE = SAMPLES >= 2000


def _steane_n():
    code = SteaneCode()
    gadget = build_n_gadget(code, variant="direct")
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(code, 0)}
    )
    evaluator = n_gadget_evaluator(gadget, code, 0)
    return gadget, initial, evaluator


def test_batched_speedup(benchmark):
    """One-lane vs 64-lane stacks on the threshold sweep."""
    gadget, initial, evaluator = _steane_n()
    locations = gadget.fault_locations()
    noise = NoiseModel.uniform(0.002)
    mc_trials = SAMPLES * 2

    def run_experiment():
        timings = {}

        start = time.perf_counter()
        pairs_one_lane = run_malignant_pairs(
            gadget, initial, evaluator, samples=SAMPLES, seed=71,
            locations=locations, batch_size=1)
        timings["pairs_one_lane"] = time.perf_counter() - start

        start = time.perf_counter()
        pairs_batched = run_malignant_pairs(
            gadget, initial, evaluator, samples=SAMPLES, seed=71,
            locations=locations, batch_size=BATCH_SIZE)
        timings["pairs_batched"] = time.perf_counter() - start

        start = time.perf_counter()
        mc_one_lane = run_monte_carlo(
            gadget, initial, evaluator, noise, trials=mc_trials,
            seed=72, locations=locations, batch_size=1)
        timings["mc_one_lane"] = time.perf_counter() - start

        start = time.perf_counter()
        mc_batched = run_monte_carlo(
            gadget, initial, evaluator, noise, trials=mc_trials,
            seed=72, locations=locations, batch_size=BATCH_SIZE)
        timings["mc_batched"] = time.perf_counter() - start

        return timings, pairs_one_lane, pairs_batched, mc_one_lane, \
            mc_batched

    timings, pairs_one_lane, pairs_batched, mc_one_lane, mc_batched = \
        benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    # Speedups are meaningless if the results differ — check first.
    assert pairs_batched == pairs_one_lane
    assert mc_batched == mc_one_lane

    pairs_speedup = timings["pairs_one_lane"] / timings["pairs_batched"]
    mc_speedup = timings["mc_one_lane"] / timings["mc_batched"]
    stats = pairs_batched.engine_stats

    report("E8 — batched evaluation speedup (threshold workloads)", [
        f"workload: {gadget.name}, {len(locations)} locations, "
        f"batch_size={BATCH_SIZE}",
        f"malignant pairs ({SAMPLES} samples): "
        f"one lane {timings['pairs_one_lane']:.2f}s, "
        f"{BATCH_SIZE} lanes {timings['pairs_batched']:.2f}s "
        f"-> {pairs_speedup:.2f}x",
        f"monte carlo ({mc_trials} trials, "
        f"{mc_batched.engine_stats.evaluations} distinct patterns): "
        f"one lane {timings['mc_one_lane']:.2f}s, "
        f"{BATCH_SIZE} lanes {timings['mc_batched']:.2f}s "
        f"-> {mc_speedup:.2f}x",
        f"equivalence: pairs malignant={pairs_one_lane.malignant}, "
        f"mc failures={mc_one_lane.failures} (both widths identical)",
        "",
        *engine_stats_lines(stats),
    ])

    path = json_artifact("BENCH_batched.json", {
        "workload": gadget.name,
        "batch_size": BATCH_SIZE,
        "samples": SAMPLES,
        "mc_trials": mc_trials,
        "timings_seconds": {k: round(v, 4)
                            for k, v in timings.items()},
        "pairs_speedup": round(pairs_speedup, 2),
        "mc_speedup": round(mc_speedup, 2),
        "results_identical": True,
        "batched_stats": {
            "batches": stats.batched_batches,
            "evaluations": stats.evaluations,
        },
        "full_scale": _FULL_SCALE,
    })
    assert os.path.exists(path)
    if _FULL_SCALE:
        assert pairs_speedup >= 2.0, (
            f"batched threshold sweep only {pairs_speedup:.2f}x"
        )
