"""E2 — Figure 2: measurement-free eigenvector preparation.

Regenerates the Fig. 2 evaluation for both instances (|psi_0> for the
sigma_z^{1/4} gadget, |AND> for the Toffoli gadget):

* exact preparation overlap (= 1) on trivial and Steane codes, in both
  parity-extraction wirings;
* fault tolerance within the paper's stated scope (errors in cat
  states after controlling U, in parity bits, in the flip stage);
* the reproduction finding: faults touching the special-state block
  mid-preparation, or cat-preparation faults (unverified cats), are
  malignant — quantified as the fraction of all single-fault
  locations outside the guarantee.
"""


from repro.analysis import run_exhaustive
from repro.codes import SteaneCode, TrivialCode
from repro.ft import (
    and_state_spec,
    build_special_state_gadget,
    special_state_input,
    t_state_spec,
)
from repro.ft.ideal_recovery import apply_perfect_recovery
from repro.ft.special_states import combined_state_qubits

from _harness import report, series_lines


def prepare_overlap(code, spec_factory, mode):
    spec = spec_factory(code)
    gadget = build_special_state_gadget(code, spec, parity_mode=mode)
    out = gadget.run(special_state_input(gadget, code, spec))
    return out.block_overlap(combined_state_qubits(gadget, spec),
                             spec.expected_state(code))


def test_fig2_exact_preparation(benchmark):
    steane, trivial = SteaneCode(), TrivialCode()

    def run_experiment():
        rows = []
        for code in (trivial, steane):
            for factory, name in ((t_state_spec, "|psi_0>"),
                                  (and_state_spec, "|AND>")):
                for mode in ("ancilla", "hadamard"):
                    if mode == "hadamard" and code.n == 7 \
                            and name == "|AND>":
                        continue  # term blowup; equivalence shown at n=1
                    rows.append((code.name, name, mode,
                                 prepare_overlap(code, factory, mode)))
        return rows

    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report("E2 / Fig. 2 — special-state preparation (exact)", [
        *series_lines(("code", "state", "parity mode", "overlap"),
                      rows),
        "paper: the circuit outputs the eigenvector |phi_0> exactly",
    ])
    assert all(abs(row[3] - 1.0) < 1e-9 for row in rows)


def test_fig2_fault_scope(benchmark):
    """Quantify the guarantee's scope on the Steane |psi_0> prep."""
    steane = SteaneCode()
    spec = t_state_spec(steane)
    gadget = build_special_state_gadget(steane, spec)
    initial = gadget.initial_state(
        special_state_input(gadget, steane, spec)
    )
    expected = spec.expected_state(steane)
    block = combined_state_qubits(gadget, spec)
    state_qubits = set(block)

    def evaluator(state):
        scratch = state.copy()
        apply_perfect_recovery(scratch, block, steane)
        return scratch.block_overlap(block, expected) > 1 - 1e-7

    def run_experiment():
        locations = gadget.fault_locations()
        failures = run_exhaustive(
            gadget, initial, evaluator, locations=locations,
            workers=2,
        ).failures
        failing_locations = {
            (loc.kind, loc.detail) for loc, _ in failures
        }
        state_touching = [
            loc for loc in locations if set(loc.qubits) & state_qubits
        ]
        return locations, failures, failing_locations, state_touching

    locations, failures, failing_locations, state_touching = \
        benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report("E2 / Fig. 2 — single-fault scope (Steane |psi_0> prep)", [
        f"total fault locations: {len(locations)}",
        f"locations with at least one malignant Pauli: "
        f"{len(failing_locations)}",
        f"locations touching the special-state block: "
        f"{len(state_touching)}",
        "",
        "reproduction finding: the Fig. 2 guarantee covers errors in",
        "cat states (after controlling U), parity bits and the flip",
        "stage — certified exhaustively in the test-suite.  Faults",
        "that corrupt the state block mid-preparation, or cat-",
        "preparation faults (unverified cats), break the eigenvector",
        "structure of U and are NOT recoverable; Shor's measured",
        "scheme handles these by verifying cat states and ancillas,",
        "a step with no measurement-free substitute in the paper.",
    ])
    # The malignant set must be non-empty (the finding) but confined.
    assert len(failing_locations) > 0
    assert len(failing_locations) < len(locations)


def test_benchmark_and_state_prep(benchmark):
    steane = SteaneCode()
    spec = and_state_spec(steane)
    gadget = build_special_state_gadget(steane, spec)
    inputs = special_state_input(gadget, steane, spec)
    benchmark(lambda: gadget.run(inputs))
