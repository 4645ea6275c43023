#!/usr/bin/env python
"""Section 2 demos: why algorithms break on ensembles, and the fixes.

Reproduces the paper's four motivating scenarios end-to-end:

* a quantum RNG that works on one computer and degenerates into a
  p-meter on an ensemble;
* teleportation: the Bell-measured protocol is rejected, and even if
  decoherence performs the measurements, the signal is useless — while
  the fully-quantum variant works with completely dephased controls;
* Grover search with three solutions: naive readout spells a
  non-solution, the sort strategy recovers the full solution list;
* Shor-style order finding: the verified-but-unrandomized readout
  fails, randomizing bad results recovers the order.

Run:  python examples/ensemble_algorithms.py
"""


from repro.algorithms import (
    ensemble_rng_attempt,
    fully_quantum_output_fidelity,
    naive_ensemble_signal,
    run_ensemble_grover,
    run_ensemble_order_finding,
    run_standard_on_single_computer,
    single_computer_rng,
    standard_teleportation_circuit,
)
from repro.ensemble import EnsembleMachine
from repro.exceptions import EnsembleViolationError


def demo_rng() -> None:
    print("=" * 64)
    print("RNG (paper Sec. 2): ensembles measure p, not random bits")
    print("=" * 64)
    bits = single_computer_rng(p=0.25, shots=20, seed=3)
    print(f"single computer, p(0)=0.25, 20 shots: {bits}")
    machine = EnsembleMachine(1, ensemble_size=10**6, seed=5)
    for _ in range(3):
        outcome = ensemble_rng_attempt(0.25, machine)
        print(f"ensemble run: signal {outcome.observed_signal:+.5f} "
              f"-> p = {outcome.recovered_p:.5f}  (same every time)")
    print()


def demo_teleportation() -> None:
    print("=" * 64)
    print("Teleportation (paper Sec. 2)")
    print("=" * 64)
    fidelity, outcome = run_standard_on_single_computer(0.6, 0.8,
                                                        seed=1)
    print(f"standard protocol, one computer: fidelity {fidelity:.6f} "
          f"(Bell outcome {outcome})")
    machine = EnsembleMachine(3, ensemble_size=10**6, seed=2)
    try:
        machine.run(standard_teleportation_circuit())
    except EnsembleViolationError:
        print("standard protocol on the ensemble: REJECTED "
              "(needs per-computer Bell outcomes)")
    run = naive_ensemble_signal(0.6, 0.8, machine, sample_computers=512)
    print(f"if decoherence measures anyway: output signal "
          f"{run.observed(2):+.3f} (input <Z> = -0.28 -> lost)")
    fq = fully_quantum_output_fidelity(0.6, 0.8, dephase_controls=True)
    print(f"fully-quantum teleportation, dephased controls: "
          f"fidelity {fq:.6f}  (ensemble-safe)")
    print()


def demo_grover() -> None:
    print("=" * 64)
    print("Multi-solution Grover (paper Sec. 2, strategy of [6])")
    print("=" * 64)
    marked = [7, 19, 28]
    report = run_ensemble_grover(5, marked, num_computers=8192,
                                 seed=13)
    print(f"solutions: {sorted(marked)}")
    print(f"naive per-bit readout decodes to: {report.naive_decoded} "
          f"(a solution? {report.naive_succeeded})")
    print(f"sort strategy: {report.sorted_agreement:.1%} of computers "
          f"agree; readout = {report.sorted_readout} "
          f"(success: {report.sorted_succeeded})")
    print()


def demo_order_finding() -> None:
    print("=" * 64)
    print("Order finding / Shor (paper Sec. 2, randomizing strategy)")
    print("=" * 64)
    for a in (7, 4):
        rep = run_ensemble_order_finding(a, 15, counting_bits=6,
                                         num_computers=8192,
                                         seed=17 + a)
        print(f"a = {a}, N = 15: true order {rep.true_order}; "
              f"{rep.good_fraction:.0%} of computers verified")
        print(f"  naive readout ok: {rep.naive_succeeded}")
        print(f"  randomize-bad-results readout: "
              f"{rep.recovered_order} "
              f"(success: {rep.randomized_succeeded})")
    print()


if __name__ == "__main__":
    demo_rng()
    demo_teleportation()
    demo_grover()
    demo_order_finding()
