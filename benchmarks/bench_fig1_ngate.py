"""E1 — Figure 1: the N gate (quantum-to-classical controlled-NOT).

Regenerates the paper's Fig. 1 evaluation:

* the logical truth table of Eq. 1 (checked exactly);
* "Only two errors ... shall yield an error in the classical bit":
  exhaustive single-fault certification (zero malignant single faults)
  plus a sampled two-fault malignancy estimate;
* the O(p^2) failure-rate curve predicted by the counting method,
  validated by Monte-Carlo fault injection, against the O(p) curve of
  an unprotected readout.

Run with ``pytest benchmarks/bench_fig1_ngate.py --benchmark-only -s``.
"""

import pytest

from repro.analysis import (
    fit_power_law,
    n_gadget_evaluator,
    run_exhaustive,
    run_malignant_pairs,
    run_monte_carlo,
)
from repro.codes import SteaneCode
from repro.ft import build_n_gadget, sparse_coset_state
from repro.noise import NoiseModel

from _harness import engine_stats_lines, report, series_lines

P_GRID = (2e-4, 5e-4, 1e-3, 2e-3)
MC_P = 2e-3
MC_TRIALS = 1200


@pytest.fixture(scope="module")
def context():
    code = SteaneCode()
    gadget = build_n_gadget(code, variant="direct")
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(code, 0)}
    )
    evaluator = n_gadget_evaluator(gadget, code, 0)
    return code, gadget, initial, evaluator


def test_fig1_report(benchmark, context):
    code, gadget, initial, evaluator = context
    locations = gadget.fault_locations()

    def run_experiment():
        failures = run_exhaustive(
            gadget, initial, evaluator, locations=locations,
            workers=2,
        ).failures
        pair_sample = run_malignant_pairs(
            gadget, initial, evaluator, samples=500, seed=7,
            locations=locations, workers=2,
        )
        mc = run_monte_carlo(gadget, initial, evaluator,
                             NoiseModel.uniform(MC_P),
                             trials=MC_TRIALS, seed=11,
                             locations=locations,
                             workers=2)
        return failures, pair_sample, mc

    failures, pair_sample, mc = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    m_eff = pair_sample.estimated_malignant_pairs
    threshold = pair_sample.threshold_estimate
    rows = [(p, m_eff * p * p) for p in P_GRID]
    fit = fit_power_law(P_GRID, [r for _, r in rows])
    report("E1 / Fig. 1 — N gate (quantum-to-classical CNOT)", [
        f"gadget: {gadget.name} ({gadget.num_qubits} qubits, "
        f"{len(gadget.circuit)} ops)",
        f"fault locations: {len(locations)} "
        f"(paper's per-gate/input/delay counting)",
        "",
        f"exhaustive single-fault survey: {len(failures)} malignant "
        f"single faults (paper claim: 0)",
        f"sampled two-fault malignancy: {pair_sample.malignant}/"
        f"{pair_sample.samples} -> M_eff ~ {m_eff:.0f} pairs, "
        f"p_th ~ " + (f"{threshold:.1e}" if threshold else "-"),
        "",
        "predicted failure rate M_eff * p^2 (the counting method):",
        *series_lines(("p", "predicted"), rows),
        f"log-log slope of prediction: {fit.exponent:.2f} (paper: 2)",
        "",
        f"Monte-Carlo validation at p={MC_P}: "
        f"rate {mc.failure_rate:.2e} "
        f"(95% CI [{mc.interval().lower:.1e}, {mc.interval().upper:.1e}]) "
        f"(prediction {m_eff * MC_P**2:.2e}); "
        f"single-fault failures in MC: {mc.single_fault_failures}",
        "",
        *engine_stats_lines(mc.engine_stats),
    ])
    assert failures == []
    assert mc.single_fault_failures == 0
    assert abs(fit.exponent - 2.0) < 1e-6


def test_fig1_unprotected_baseline(benchmark):
    """Contrast: a bare (unencoded) bit copy degrades linearly."""
    from repro.circuits import Circuit, gates
    from repro.ft.gadget import Gadget, Register
    from repro.simulators.sparse import SparseState

    circuit = Circuit(2)
    circuit.add_gate(gates.CNOT, 0, 1)
    # Both qubits are one unencoded data block: inputs and the gate
    # are the fault locations.
    bare = Gadget(name="bare_copy", circuit=circuit, registers={
        "data": Register("data", (0, 1), role="data")})
    clean = SparseState(2)
    ps = (3e-3, 1e-2, 3e-2)

    def evaluator(state):
        return state.fidelity(clean) > 0.99

    def run_experiment():
        rates = []
        for index, p in enumerate(ps):
            result = run_monte_carlo(bare, SparseState(2), evaluator,
                                     NoiseModel.uniform(p),
                                     trials=4000, seed=20 + index)
            rates.append(result.failure_rate)
        return rates

    rates = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    fit = fit_power_law(ps, rates)
    report("E1 baseline — unprotected bit copy", [
        *series_lines(("p", "failure rate"), list(zip(ps, rates))),
        f"log-log slope: {fit.exponent:.2f} (unprotected: ~1)",
    ])
    assert fit.exponent < 1.4


def test_benchmark_n_gadget_run(benchmark, context):
    code, gadget, initial, _ = context
    benchmark(lambda: gadget.run(
        {"quantum": sparse_coset_state(code, 0)}
    ))
