"""E3 — Figure 3: measurement-free fault-tolerant sigma_z^{1/4}.

Regenerates the Fig. 3 evaluation:

* exact logical action T_L (trivial and Steane codes), identical to
  the measurement-based protocol of [4] it replaces;
* zero malignant single faults (exhaustive, certified in the
  test-suite; sampled here for the report);
* the O(p^2) failure curve by the counting method with Monte-Carlo
  validation;
* resource comparison measurement-based vs measurement-free.
"""


import pytest

from repro.analysis import (
    fit_power_law,
    recovered_overlap_evaluator,
    run_malignant_pairs,
    run_monte_carlo,
)
from repro.codes import SteaneCode
from repro.ft import (
    build_t_gadget,
    expected_t_output,
    sparse_logical_state,
    t_gadget_inputs,
)
from repro.noise import NoiseModel

from _harness import engine_stats_lines, report, series_lines

P_GRID = (2e-4, 5e-4, 1e-3, 2e-3)
MC_P = 2e-3
MC_TRIALS = 900
ALPHA, BETA = 0.6, 0.8


@pytest.fixture(scope="module")
def context():
    code = SteaneCode()
    gadget = build_t_gadget(code)
    data = sparse_logical_state(code, {(0,): ALPHA, (1,): BETA})
    initial = gadget.initial_state(t_gadget_inputs(gadget, code, data))
    evaluator = recovered_overlap_evaluator(
        gadget, code, ["data"], expected_t_output(code, ALPHA, BETA)
    )
    return code, gadget, initial, evaluator


def test_fig3_report(benchmark, context):
    code, gadget, initial, evaluator = context
    locations = gadget.fault_locations()

    def run_experiment():
        clean = initial.copy()
        from repro.ft.gadget import apply_circuit_with_faults

        apply_circuit_with_faults(clean, gadget.circuit, [])
        overlap = gadget.block_overlap(
            clean, "data", expected_t_output(code, ALPHA, BETA)
        )
        pair_sample = run_malignant_pairs(
            gadget, initial, evaluator, samples=350, seed=31,
            locations=locations, workers=2,
        )
        mc = run_monte_carlo(gadget, initial, evaluator,
                             NoiseModel.uniform(MC_P),
                             trials=MC_TRIALS, seed=32,
                             locations=locations,
                             workers=2)
        return overlap, pair_sample, mc

    overlap, pair_sample, mc = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    m_eff = pair_sample.estimated_malignant_pairs
    threshold = pair_sample.threshold_estimate
    rows = [(p, m_eff * p * p) for p in P_GRID]
    fit = fit_power_law(P_GRID, [r for _, r in rows])
    report("E3 / Fig. 3 — measurement-free sigma_z^{1/4}", [
        f"gadget: {gadget.name} ({gadget.num_qubits} qubits, "
        f"{len(gadget.circuit)} ops; {len(locations)} fault locations)",
        f"logical action: overlap(T_L|x>) = {overlap:.12f}",
        "",
        f"sampled two-fault malignancy: {pair_sample.malignant}/"
        f"{pair_sample.samples} -> M_eff ~ {m_eff:.0f}, "
        f"p_th ~ " + (f"{threshold:.1e}" if threshold else "-"),
        "predicted failure rate M_eff * p^2:",
        *series_lines(("p", "predicted"), rows),
        f"log-log slope: {fit.exponent:.2f} (paper: 2)",
        "",
        f"Monte-Carlo at p={MC_P}: rate {mc.failure_rate:.2e} "
        f"(95% CI [{mc.interval().lower:.1e}, {mc.interval().upper:.1e}]) "
        f"(prediction {m_eff * MC_P**2:.2e}); "
        f"single-fault failures: {mc.single_fault_failures}",
        "",
        "exhaustive single-fault certification (0 failures over every",
        "input/gate/delay location) runs in the test-suite:",
        "tests/ft/test_t_gadget.py::TestFaultTolerance",
        "",
        *engine_stats_lines(mc.engine_stats),
    ])
    assert overlap > 1 - 1e-9
    assert mc.single_fault_failures == 0


def test_fig3_resource_comparison(benchmark):
    """Measurement-free vs measurement-based resource table."""
    code = SteaneCode()

    def run_experiment():
        gadget = build_t_gadget(code)
        counts = gadget.circuit.count_gates()
        # The measured protocol: transversal CNOT (7 gates) + 7
        # measurements + classical decode + conditioned logical S
        # (7 gates); no syndrome machinery, but needs a classical
        # co-processor and per-computer readout.
        measured_gates = 7 + 7
        return gadget, counts, measured_gates

    gadget, counts, measured_gates = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    total = sum(counts.values())
    report("E3 — resource comparison (Steane code)", [
        f"measurement-free gadget: {total} gates on "
        f"{gadget.num_qubits} qubits",
        f"  breakdown: {dict(sorted(counts.items()))}",
        f"measurement-based [4]: ~{measured_gates} gates + 7 "
        f"single-computer measurements + classical decoder",
        "",
        "the overhead buys ensemble-compatibility: the gadget is a",
        "legal bulk-NMR program, the baseline is impossible there",
    ])
    assert gadget.circuit.is_ensemble_safe()


def test_benchmark_t_gadget_run(benchmark, context):
    code, gadget, initial, _ = context

    def run():
        state = initial.copy()
        from repro.ft.gadget import apply_circuit_with_faults

        apply_circuit_with_faults(state, gadget.circuit, [])
        return state

    benchmark(run)
