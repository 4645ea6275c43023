"""Certification suite: the lane stack is *equivalent*, not similar.

This is the acceptance gate for :mod:`repro.simulators.batched`, the
engine's one evaluation path.  For every gadget in the paper's suite,
every registered noise-model class and every stack width, every
``(pattern, verdict)`` the engine leaves in its
:class:`~repro.analysis.engine.FaultPatternCache` must equal the
serial sparse reference :func:`repro.analysis.engine.
evaluate_fault_pattern` on that pattern, and the results — failure
counts, histograms, per-fault-count breakdowns — must be identical
across stack widths 1, 7 and 64.  Any daylight between the stack and
the reference would silently corrupt threshold estimates.

The sweep width is controlled by ``REPRO_BATCHED_EXAMPLES`` (CI runs a
capped pass; a nightly can sweep wider with no code change), and when
``REPRO_FUZZ_ARTIFACT_DIR`` is set the module writes a JSON
equivalence report listing every (gadget, model, batch size) cell it
certified, for upload as a CI artifact.
"""

import json
import os

import pytest

from repro.analysis.engine import (
    FaultPatternCache,
    evaluate_fault_pattern,
    run_exhaustive,
    run_malignant_pairs,
    run_monte_carlo,
)
from repro.analysis.stress import gadget_cases, structured_model_family
from repro.codes import TrivialCode
from repro.noise import NoiseModel
from repro.verify import (
    GateRewriteBackend,
    SparseBackend,
    default_backends,
    differential_sweep,
    random_noise_model,
    swap_s_direction,
)

#: Number of fuzzed (model, gadget) cells; CI default keeps the suite
#: in the tier-1 budget, nightlies raise it.
EXAMPLES = int(os.environ.get("REPRO_BATCHED_EXAMPLES", "6"))

BATCH_SIZES = (1, 7, 64)

_CERTIFIED = []


def _record_cell(gadget, model, batch_size, trials, failures):
    _CERTIFIED.append({
        "gadget": gadget,
        "model": model,
        "batch_size": batch_size,
        "trials": trials,
        "failures": failures,
    })


def _certify(name, label, factory, run):
    """Certify one cell: ``run(gadget, initial, evaluator, batch_size,
    cache)`` at every stack width must give one result, and every
    verdict it caches must equal the serial reference."""
    gadget, initial, evaluator = factory()
    reference = {}
    results = []
    for batch_size in BATCH_SIZES:
        cache = FaultPatternCache()
        result = run(gadget, initial, evaluator, batch_size, cache)
        assert len(cache) > 0, f"{name} × {label}: nothing judged"
        for pattern, verdict in cache.items():
            if pattern not in reference:
                reference[pattern] = evaluate_fault_pattern(
                    gadget, initial, evaluator, pattern)
            assert verdict == reference[pattern], (
                f"{name} × {label}: batch_size={batch_size} judged a "
                f"weight-{len(pattern)} pattern {verdict}, the serial "
                f"reference says {reference[pattern]}"
            )
        if results:
            assert result == results[0], (
                f"{name} × {label} diverged at batch_size={batch_size}"
            )
        results.append(result)
    return results[0]


def _certify_monte_carlo(case, label, noise, trials=256, seed=99):
    def run(gadget, initial, evaluator, batch_size, cache):
        result = run_monte_carlo(gadget, initial, evaluator, noise,
                                 trials=trials, seed=seed,
                                 chunk_size=64, batch_size=batch_size,
                                 cache=cache)
        _record_cell(case.name, label, batch_size, result.trials,
                     result.failures)
        return result

    return _certify(case.name, label, case.factory, run)


@pytest.fixture(scope="module")
def trivial_cases():
    # Key by the bare gadget name ("N[trivial]" -> "N").
    return {case.name.split("[")[0]: case
            for case in gadget_cases(TrivialCode())}


class TestVerdictEquivalence:
    def test_every_gadget_uniform_noise(self, trivial_cases):
        """All four paper gadgets, iid depolarizing noise."""
        noise = NoiseModel.uniform(0.03)
        for case in trivial_cases.values():
            _certify_monte_carlo(case, "depolarizing", noise)

    def test_steane_n_gadget(self):
        """One full-size Steane cell (the paper's workhorse)."""
        case = gadget_cases(gadgets=("n",))[0]
        _certify_monte_carlo(case, "depolarizing",
                             NoiseModel.uniform(0.002), trials=192)

    def test_structured_model_family(self, trivial_cases):
        """Every registered structured model class, one gadget."""
        case = trivial_cases["N"]
        for label, model in structured_model_family(0.03):
            if not model.samplable:
                continue
            _certify_monte_carlo(case, label, model, trials=192)

    def test_fuzzed_noise_models(self, trivial_cases):
        """Seeded random channels through the open registry."""
        names = sorted(trivial_cases)
        for index in range(EXAMPLES):
            case = trivial_cases[names[index % len(names)]]
            noise = random_noise_model(6000 + index, max_p=0.1)
            _certify_monte_carlo(case, f"fuzz[seed={6000 + index}]",
                                 noise, trials=128)

    def test_malignant_pairs_equivalence(self, trivial_cases):
        def run(gadget, initial, evaluator, batch_size, cache):
            sample = run_malignant_pairs(gadget, initial, evaluator,
                                         samples=400, seed=17,
                                         batch_size=batch_size,
                                         cache=cache)
            _record_cell("n", "pairs", batch_size, sample.samples,
                         sample.malignant)
            return sample

        _certify("N", "pairs", trivial_cases["N"].factory, run)

    def test_exhaustive_equivalence(self, trivial_cases):
        def run(gadget, initial, evaluator, batch_size, cache):
            survey = run_exhaustive(gadget, initial, evaluator,
                                    batch_size=batch_size, cache=cache)
            _record_cell("n", "exhaustive", batch_size, survey.checked,
                         len(survey.failures))
            return survey.checked, survey.failures

        _certify("N", "exhaustive", trivial_cases["N"].factory, run)

    def test_uncached_runs_match_certified_runs(self, trivial_cases):
        """Without a shared cache a run still judges each distinct
        pattern once per call, and agrees with the certified cell."""
        noise = NoiseModel.uniform(0.05)
        case = trivial_cases["T"]
        certified = _certify_monte_carlo(case, "uncached", noise,
                                         trials=200, seed=4)
        gadget, initial, evaluator = case.factory()
        for batch_size in (1, 16):
            uncached = run_monte_carlo(gadget, initial, evaluator,
                                       noise, trials=200, seed=4,
                                       chunk_size=64,
                                       batch_size=batch_size)
            assert uncached == certified

    def test_workers_and_batching_compose(self, trivial_cases):
        """batch_size > 1 under a forked worker pool stays identical."""
        gadget, initial, evaluator = trivial_cases["N"].factory()
        noise = NoiseModel.uniform(0.05)
        kwargs = dict(trials=300, seed=21, chunk_size=75)
        one_lane = run_monte_carlo(gadget, initial, evaluator, noise,
                                   **kwargs)
        batched = run_monte_carlo(gadget, initial, evaluator, noise,
                                  workers=2, batch_size=25, **kwargs)
        assert batched == one_lane


class TestDifferentialBackend:
    def test_batched_is_a_default_backend(self):
        assert "batched" in [b.name for b in default_backends()]

    def test_sweep_with_batched_backend_is_clean(self):
        report = differential_sweep(max(12, EXAMPLES), seed=314,
                                    shrink=False)
        assert "batched" in report.backend_names
        assert report.clean, report.summary()

    def test_injected_bug_still_caught_with_batched_in_pool(self):
        bug = GateRewriteBackend(SparseBackend(), swap_s_direction)
        report = differential_sweep(
            30, seed=11, families=("clifford_t",), shrink=False,
            backends=list(default_backends()) + [bug])
        assert report.divergences
        assert all(d.backend_b == "sparse!" or d.backend_a == "sparse!"
                   for d in report.divergences)


def teardown_module(module):
    artifact_dir = os.environ.get("REPRO_FUZZ_ARTIFACT_DIR")
    if not artifact_dir or not _CERTIFIED:
        return
    os.makedirs(artifact_dir, exist_ok=True)
    path = os.path.join(artifact_dir, "batched_equivalence.json")
    with open(path, "w") as handle:
        json.dump({"cells": _CERTIFIED,
                   "batch_sizes": list(BATCH_SIZES),
                   "examples": EXAMPLES}, handle, indent=2)
