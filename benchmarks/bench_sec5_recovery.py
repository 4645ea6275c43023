"""E5 — Section 5: measurement-free error recovery.

Regenerates the Sec. 5 evaluation:

* all 21 single-qubit Pauli errors on a Steane block are corrected
  without any measurement (the classical decoder runs as reversible
  logic on classical bits);
* zero malignant single faults inside the recovery gadget itself;
* the O(p^2) residual-failure curve by counting + Monte Carlo;
* agreement with the measured (standard) recovery baseline.
"""

import pytest

from repro.analysis import (
    fit_power_law,
    recovered_overlap_evaluator,
    run_exhaustive,
    run_malignant_pairs,
    run_monte_carlo,
)
from repro.circuits import iter_single_qubit_paulis
from repro.codes import SteaneCode
from repro.ft import (
    build_recovery_gadget,
    recovery_ancilla_state,
    sparse_logical_state,
)
from repro.ft.gadget import apply_circuit_with_faults
from repro.noise import NoiseModel

from _harness import engine_stats_lines, report, series_lines

P_GRID = (2e-4, 5e-4, 1e-3, 2e-3)
MC_P = 2e-3


@pytest.fixture(scope="module")
def context():
    code = SteaneCode()
    data = sparse_logical_state(code, {(0,): 0.6, (1,): 0.8})
    gadget = build_recovery_gadget(code, "X")
    initial = gadget.initial_state({
        "data": data,
        "ancilla": recovery_ancilla_state(code, "X"),
    })
    evaluator = recovered_overlap_evaluator(gadget, code, ["data"],
                                            data)
    return code, data, gadget, initial, evaluator


def test_sec5_corrects_all_single_paulis(benchmark):
    code = SteaneCode()
    data = sparse_logical_state(code, {(0,): 0.6, (1,): 0.8})

    def run_experiment():
        corrected = 0
        total = 0
        for error in iter_single_qubit_paulis(7):
            state = data.copy()
            state.apply_pauli(error)
            for error_type in ("X", "Z"):
                gadget = build_recovery_gadget(code, error_type)
                full = gadget.initial_state({
                    "data": state if state.num_qubits == 7 else None,
                    "ancilla": recovery_ancilla_state(code, error_type),
                })
                apply_circuit_with_faults(full, gadget.circuit, [])
                state = _extract(full, gadget.qubits("data"))
            total += 1
            if state.fidelity(data) > 1 - 1e-9:
                corrected += 1
        return corrected, total

    corrected, total = benchmark.pedantic(run_experiment, rounds=1,
                                          iterations=1)
    report("E5 / Sec. 5 — measurement-free recovery", [
        f"single-qubit Pauli errors corrected: {corrected}/{total}",
        "(X pass + Z pass, decoder = reversible NOT/CNOT/Toffoli on",
        "classical bits; no measurement anywhere)",
    ])
    assert corrected == total == 21


def _extract(state, block):
    from repro.circuits import gates

    scratch = state.copy()
    junk = [q for q in range(state.num_qubits)
            if q not in set(block)]
    for qubit in sorted(junk, reverse=True):
        outcome = int(scratch.probability_of_outcome(qubit, 1) > 0.5)
        scratch.project(qubit, outcome)
        if outcome:
            scratch.apply_gate(gates.X, [qubit])
        scratch.release([qubit])
    return scratch


def test_sec5_internal_fault_tolerance(benchmark, context):
    code, data, gadget, initial, evaluator = context
    locations = gadget.fault_locations()

    def run_experiment():
        failures = run_exhaustive(
            gadget, initial, evaluator, locations=locations,
            workers=2,
        ).failures
        pair_sample = run_malignant_pairs(
            gadget, initial, evaluator, samples=400, seed=51,
            locations=locations, workers=2,
        )
        mc = run_monte_carlo(gadget, initial, evaluator,
                             NoiseModel.uniform(MC_P), trials=900,
                             seed=52, locations=locations,
                             workers=2)
        return failures, pair_sample, mc

    failures, pair_sample, mc = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    m_eff = pair_sample.estimated_malignant_pairs
    threshold = pair_sample.threshold_estimate
    rows = [(p, m_eff * p * p) for p in P_GRID]
    fit = fit_power_law(P_GRID, [r for _, r in rows])
    report("E5 / Sec. 5 — X-recovery gadget fault tolerance", [
        f"gadget: {gadget.name} ({gadget.num_qubits} qubits, "
        f"{len(gadget.circuit)} ops; {len(locations)} locations)",
        f"exhaustive single-fault survey: {len(failures)} malignant",
        f"sampled two-fault malignancy: {pair_sample.malignant}/"
        f"{pair_sample.samples} -> M_eff ~ {m_eff:.0f}, "
        f"p_th ~ " + (f"{threshold:.1e}" if threshold else "-"),
        "predicted residual-failure rate M_eff * p^2:",
        *series_lines(("p", "predicted"), rows),
        f"log-log slope: {fit.exponent:.2f} (paper: 2)",
        f"Monte-Carlo at p={MC_P}: {mc.failure_rate:.2e} "
        f"(95% CI [{mc.interval().lower:.1e}, {mc.interval().upper:.1e}]); "
        f"single-fault failures: "
        f"{mc.single_fault_failures}",
        "",
        *engine_stats_lines(mc.engine_stats),
    ])
    assert failures == []
    assert mc.single_fault_failures == 0


def test_sec5_measured_baseline_agreement(benchmark):
    from repro.ft.baselines import MeasuredRecovery

    code = SteaneCode()
    data = sparse_logical_state(code, {(0,): 0.6, (1,): 0.8})

    def run_experiment():
        corrected = 0
        for error in iter_single_qubit_paulis(7):
            state = data.copy()
            state.apply_pauli(error)
            recovered = MeasuredRecovery(code, seed=3).run(state)
            if recovered.block_overlap(list(range(7)), data) > 1 - 1e-9:
                corrected += 1
        return corrected

    corrected = benchmark.pedantic(run_experiment, rounds=1,
                                   iterations=1)
    report("E5 — measured recovery baseline", [
        f"single-qubit Paulis corrected by the measured protocol: "
        f"{corrected}/21",
        "same corrective power; requires per-computer measurement",
    ])
    assert corrected == 21
