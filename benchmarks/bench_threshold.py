"""E7 — Section 4.2: thresholds by counting, and design ablations.

"The threshold can easily be calculated by counting the potential
places for two errors."  This bench regenerates that evaluation across
every gadget, and runs the design ablations DESIGN.md calls out:

* D2 — the N_1 syndrome check bits: without them a single
  quantum-ancilla bit error corrupts every classical output bit;
* D3 — repetition / variant ablation: the direct (one N_1 per output
  bit) and voted (2k+1 + private-copy majority) variants both pass
  the exhaustive single-fault sweep, with different location counts;
* the symbolic (conservative) counts next to the exact state-based
  statistics, quantifying how much the worst-case Pauli picture
  over-counts.
"""

import os
import time

import numpy as np

from repro.analysis import (
    GadgetFaultAnalyzer,
    GadgetMonteCarloResult,
    n_gadget_evaluator,
    run_exhaustive,
    run_monte_carlo,
    sampled_threshold_report,
)
from repro.circuits import Circuit, PauliString, gates
from repro.codes import SteaneCode
from repro.ft import build_n_gadget, build_recovery_gadget, \
    build_t_gadget, sparse_coset_state
from repro.ft.gadget import apply_circuit_with_faults
from repro.noise import NoiseModel

from _harness import engine_stats_lines, report, series_lines

#: Default workload for the engine speedup bench; override with
#: BENCH_ENGINE_TRIALS for CI smoke runs (the >= 2x assertion only
#: applies at full scale).
SPEEDUP_TRIALS = int(os.environ.get("BENCH_ENGINE_TRIALS", "6000"))
SPEEDUP_P = 5e-4
SPEEDUP_WORKERS = 4


def legacy_serial_monte_carlo(gadget, initial, evaluator, noise, trials,
                              locations, seed):
    """The retired per-trial loop, kept as the speedup baseline.

    One RNG for the whole run, faults drawn trial by trial, and a full
    simulation of every non-empty trial — no chunked streams, no
    vectorised strikes, no verdict reuse.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    failures_by_count = {}
    histogram = {}
    for _ in range(trials):
        sampled = noise.sample_faults(gadget.circuit, rng, locations)
        count = len(sampled)
        histogram[count] = histogram.get(count, 0) + 1
        if count == 0:
            continue
        state = initial.copy()
        apply_circuit_with_faults(
            state, gadget.circuit,
            [(fault.pauli, fault.after_op) for fault in sampled],
        )
        if not evaluator(state):
            failures += 1
            failures_by_count[count] = failures_by_count.get(count, 0) + 1
    return GadgetMonteCarloResult(
        p=noise.p_gate, trials=trials, failures=failures,
        failures_by_fault_count=failures_by_count,
        fault_count_histogram=histogram,
    )


def test_threshold_table(benchmark):
    """Location counts, exact single-fault counts and sampled
    two-fault malignancy for each core gadget."""
    code = SteaneCode()

    def analyze_n(variant):
        gadget = build_n_gadget(code, variant=variant)
        initial = gadget.initial_state(
            {"quantum": sparse_coset_state(code, 0)}
        )
        evaluator = n_gadget_evaluator(gadget, code, 0)
        return gadget, initial, evaluator

    def run_experiment():
        rows = []
        stats_lines = []
        for index, variant in enumerate(("direct", "voted")):
            gadget, initial, evaluator = analyze_n(variant)
            locations = gadget.fault_locations()
            threshold_report = sampled_threshold_report(
                gadget, initial, evaluator, samples=400,
                seed=61 + index, locations=locations,
                workers=2,
            )
            threshold = threshold_report.threshold_estimate
            rows.append((
                gadget.name,
                threshold_report.location_counts["total"],
                threshold_report.single_fault_failures,
                threshold_report.malignant_pairs,
                f"{threshold:.1e}" if threshold else "-",
            ))
            stats_lines.append(f"[{gadget.name}]")
            stats_lines.extend(
                engine_stats_lines(threshold_report.engine_stats)
            )
        return rows, stats_lines

    rows, stats_lines = benchmark.pedantic(run_experiment, rounds=1,
                                           iterations=1)
    report("E7 — thresholds by counting (exact, state-based)", [
        *series_lines(("gadget", "locations", "1-fault fails",
                       "M_eff (sampled)", "p_th ~ 1/M"), rows),
        "",
        "failure model: P_fail <= M_eff p^2; threshold where the",
        "gadget stops helping: p_th ~ 1/M_eff (paper Sec. 4.2)",
        "",
        *stats_lines,
    ])
    assert all(row[2] == 0 for row in rows)


def test_engine_speedup(benchmark):
    """Acceptance bench: the parallel engine with memoization beats
    the retired per-trial serial loop (:func:`legacy_serial_monte_carlo`)
    by >= 2x wall-clock on the same workload.

    At low p most non-empty samples are repeated single-fault
    patterns, so the fault-pattern cache collapses the dominant
    simulation cost; the worker pool and vectorised strike sampling
    carry the rest.
    """
    code = SteaneCode()
    gadget = build_n_gadget(code, variant="direct")
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(code, 0)}
    )
    evaluator = n_gadget_evaluator(gadget, code, 0)
    locations = gadget.fault_locations()
    noise = NoiseModel.uniform(SPEEDUP_P)

    def run_experiment():
        start = time.perf_counter()
        serial = legacy_serial_monte_carlo(
            gadget, initial, evaluator, noise, SPEEDUP_TRIALS,
            locations, seed=71,
        )
        serial_seconds = time.perf_counter() - start
        start = time.perf_counter()
        fast = run_monte_carlo(
            gadget, initial, evaluator, noise, SPEEDUP_TRIALS,
            seed=71, locations=locations,
            workers=SPEEDUP_WORKERS,
        )
        engine_seconds = time.perf_counter() - start
        return serial, serial_seconds, fast, engine_seconds

    serial, serial_seconds, fast, engine_seconds = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    speedup = serial_seconds / engine_seconds
    stats = fast.engine_stats
    report("E7 — engine speedup (serial loop vs parallel engine)", [
        f"workload: {gadget.name}, p={SPEEDUP_P}, "
        f"trials={SPEEDUP_TRIALS}, {len(locations)} locations",
        f"serial loop:     {serial_seconds:.2f}s "
        f"({SPEEDUP_TRIALS / serial_seconds:.0f} trials/s)",
        f"engine (workers={SPEEDUP_WORKERS}, deduplicated): "
        f"{engine_seconds:.2f}s "
        f"({SPEEDUP_TRIALS / engine_seconds:.0f} trials/s)",
        f"speedup: {speedup:.2f}x",
        "",
        *engine_stats_lines(stats),
        "",
        f"failure rates: serial {serial.failure_rate:.2e}, "
        f"engine {fast.failure_rate:.2e} (distinct RNG streams)",
    ])
    assert fast.single_fault_failures == 0
    if SPEEDUP_TRIALS >= 4000:
        assert speedup >= 2.0


def test_ablation_syndrome_check_bits(benchmark):
    """D2: strip the Fig. 1 syndrome check bits and watch a single
    pre-existing bit error corrupt every repetition's output."""
    code = SteaneCode()

    def run_experiment():
        # Hand-build an N without syndrome protection: raw parity
        # CNOTs only, one stage per output bit.
        n = code.n
        circuit = Circuit(n + n, name="N_without_checks")
        for stage in range(n):
            for position in range(n):
                circuit.add_gate(gates.CNOT, position, n + stage)
        from repro.simulators import SparseState

        initial = SparseState.from_dense(code.logical_zero()).tensor(
            SparseState(n)
        )
        fault = PauliString.single(2 * n, 0, "X")
        state = initial.copy()
        apply_circuit_with_faults(state, circuit, [(fault, -1)])
        top = state.num_qubits - 1
        wrong_bits = max(
            sum((index >> (top - (n + stage))) & 1
                for stage in range(n))
            for index in state.iter_ints()
        )
        return wrong_bits

    wrong_bits = benchmark.pedantic(run_experiment, rounds=1,
                                    iterations=1)
    report("E7 ablation D2 — N gate without syndrome check bits", [
        f"one input bit error -> {wrong_bits}/7 classical output bits "
        "wrong (majority defeated)",
        "with the Fig. 1 syndrome correction: 0 wrong bits "
        "(certified in E1)",
    ])
    assert wrong_bits == 7


def test_ablation_symbolic_vs_exact(benchmark):
    """Quantify the conservatism of worst-case Pauli propagation."""
    code = SteaneCode()
    gadget = build_n_gadget(code, variant="direct")

    def run_experiment():
        analyzer = GadgetFaultAnalyzer(gadget, code)
        survey = analyzer.single_fault_survey()
        initial = gadget.initial_state(
            {"quantum": sparse_coset_state(code, 0)}
        )
        evaluator = n_gadget_evaluator(gadget, code, 0)
        exact = run_exhaustive(gadget, initial, evaluator,
                               workers=2).failures
        return len(survey.failures), len(exact)

    symbolic, exact = benchmark.pedantic(run_experiment, rounds=1,
                                         iterations=1)
    report("E7 — symbolic (conservative) vs exact fault analysis", [
        f"symbolic worst-case Pauli survey flags: {symbolic} "
        "single faults",
        f"exact state-vector survey: {exact} single faults",
        "",
        "the gap is the value-dependent cancellation inside the N_1",
        "classical correction box, invisible to Pauli propagation —",
        "the symbolic numbers are safe upper bounds only",
    ])
    assert exact == 0
    assert symbolic > 0


def test_gadget_inventory(benchmark):
    """Location-count inventory across every gadget (the raw numbers
    the paper's counting argument starts from)."""
    code = SteaneCode()

    def run_experiment():
        from repro.ft import (
            and_state_spec,
            build_special_state_gadget,
            build_toffoli_gadget,
            t_state_spec,
        )

        gadgets = [
            build_n_gadget(code, variant="direct"),
            build_n_gadget(code, variant="voted"),
            build_t_gadget(code),
            build_recovery_gadget(code, "X"),
            build_recovery_gadget(code, "Z"),
            build_special_state_gadget(code, t_state_spec(code)),
            build_special_state_gadget(code, and_state_spec(code)),
            build_toffoli_gadget(code),
        ]
        rows = []
        for gadget in gadgets:
            locations = gadget.fault_locations()
            kinds = {"gate": 0, "input": 0, "delay": 0}
            for loc in locations:
                kinds[loc.kind] += 1
            rows.append((gadget.name, gadget.num_qubits,
                         len(gadget.circuit), kinds["input"],
                         kinds["gate"], kinds["delay"],
                         len(locations)))
        return rows

    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report("E7 — gadget inventory (fault locations)", [
        *series_lines(("gadget", "qubits", "ops", "inputs", "gates",
                       "delays", "total"), rows),
    ])
    assert len(rows) == 8
