"""Public-API integrity checks: every exported name resolves, every
public definition has a caller, no module imports a name it never
uses, the package metadata is consistent, and the examples at least
compile."""

import ast
import collections
import functools
import importlib
import pathlib
import py_compile
import re

import pytest

import repro

SUBPACKAGES = [
    "repro.algorithms",
    "repro.analysis",
    "repro.circuits",
    "repro.codes",
    "repro.codes.classical",
    "repro.codes.quantum",
    "repro.ensemble",
    "repro.ft",
    "repro.noise",
    "repro.optimize",
    "repro.runtime",
    "repro.service",
    "repro.simulators",
    "repro.verify",
]


class TestExports:
    @pytest.mark.parametrize("module_name", SUBPACKAGES + ["repro"])
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__"), module_name
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES + ["repro"])
    def test_all_sorted(self, module_name):
        module = importlib.import_module(module_name)
        assert list(module.__all__) == sorted(module.__all__), \
            module_name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_exception_hierarchy(self):
        from repro.exceptions import (
            AnalysisError,
            CircuitError,
            CodeError,
            DecodingFailure,
            EnsembleViolationError,
            FaultToleranceError,
            GateError,
            ReproError,
            SimulationError,
        )

        for exc in (AnalysisError, CircuitError, CodeError,
                    DecodingFailure, EnsembleViolationError,
                    FaultToleranceError, GateError, SimulationError):
            assert issubclass(exc, ReproError)


class TestExamplesCompile:
    @pytest.mark.parametrize("script", sorted(
        pathlib.Path(__file__).resolve().parent.parent
        .joinpath("examples").glob("*.py")
    ), ids=lambda p: p.name)
    def test_compiles(self, script, tmp_path):
        py_compile.compile(str(script),
                           cfile=str(tmp_path / "out.pyc"),
                           doraise=True)

    def test_expected_example_set(self):
        examples = pathlib.Path(__file__).resolve().parent.parent \
            / "examples"
        names = {p.name for p in examples.glob("*.py")}
        assert {"quickstart.py", "ensemble_algorithms.py",
                "fault_tolerant_t_gate.py",
                "measurement_free_toffoli.py", "error_recovery.py",
                "algorithmic_cooling.py", "logical_program.py",
                "certification_service.py"} <= names


class TestDocumentationPresence:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_module_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__) > 40

    def test_repo_docs_exist(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            path = root / name
            assert path.exists() and path.stat().st_size > 1000, name


ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Where a caller may live.  Tests are not callers: code whose only
#: user is its own test is dead weight.
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench", "scripts")

#: Public top-level names in ``src/`` that nothing in CALLER_DIRS
#: uses, each kept for one reason: (a) a test uses it to damage state
#: or inject a bug, (b) a test uses it as the check or reference for
#: a paper claim or for another code path, (c) test infrastructure CI
#: depends on.
KEPT_WITHOUT_CALLER = {
    "truncate_queue_journal":
        "(a) tears the queue journal's tail for the replay tests",
    "garble_cache_entry":
        "(a) corrupts a result-cache entry the cache must reject",
    "truncate_checkpoint_record":
        "(a) tears an engine journal record resume must refuse",
    "garble_checkpoint_record":
        "(a) garbles an engine journal record resume must refuse",
    "poison_checkpoint_verdict":
        "(a) flips a journaled verdict the integrity checksum must "
        "catch",
    "GateRewriteBackend":
        "(a) wraps a backend with a gate-rewrite bug the oracles must "
        "catch",
    "swap_s_direction":
        "(a) the S/S-dagger swap bug the oracle and certifier must "
        "shrink",
    "BrokenSCancelPass":
        "(a) a wrong optimizer pass the certifier must catch",
    "reverse_cnot":
        "(a) a CNOT-direction bug the differential oracle must shrink",
    "assert_fault_tolerant_structure":
        "(b) the Sec. 4 transversality check on every gadget",
    "classical_control_only":
        "(b) the Sec. 4 check that the classical ancilla only controls",
    "MeasuredTGate":
        "(b) the measured Fig. 3 T gate an ensemble machine rejects",
    "sigma_z_power":
        "(b) the paper's sigma_z^x gate, checked to name S and T",
    "exact_coverage":
        "(b) proves the Clopper-Pearson interval is never "
        "anti-conservative",
    "fully_quantum_teleportation_circuit":
        "(b) the fully-quantum teleportation an ensemble machine runs",
    "run_recovery":
        "(b) the Sec. 5 measurement-free recovery the oracle checks",
    "delay_measurements":
        "(b) the Sec. 2 deferred-measurement rewrite the ensemble-safety "
        "check accepts",
    "sort_results":
        "(b) the Sec. 2 sort strategy that makes ensemble registers "
        "agree",
    "dephasing":
        "(b) the Sec. 2 dephasing of fully-quantum teleportation's "
        "controls",
    "RepetitionCode":
        "(b) the majority reference the N gadget's classical value is "
        "checked against",
    "differential_sweep":
        "(b) the cross-simulator oracle sweep the batched and resume "
        "paths are checked with",
    "norm_invariant":
        "(b) the engine validation-mode check of the invariant retry "
        "shield",
    "codespace_invariant":
        "(b) the code-space check of the optimized gadgets",
    "inverse_roundtrip_discrepancy":
        "(b) metamorphic check of every backend: U then U-dagger is "
        "identity",
    "pauli_channel_conjugation_discrepancy":
        "(b) metamorphic check of the Pauli tracker's frame rule",
    "codespace_discrepancy":
        "(b) metamorphic check that transversal gates keep codewords",
    "channel_linearity_discrepancy":
        "(b) metamorphic check that channel evolution is linear",
    "write_artifact":
        "(c) writes the conftest fuzz reporter's reproducer files",
    "format_failure":
        "(c) formats the conftest fuzz reporter's failure block",
    "random_noise_model":
        "(c) seeded noise-model generator of the batched-equivalence "
        "fuzz",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@functools.lru_cache(maxsize=None)
def _public_definitions():
    """(name, path, first line, last line) of every public top-level
    ``def``/``class`` in ``src/`` outside package ``__init__.py``."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                first = min([node.lineno] + [decorator.lineno for decorator
                                             in node.decorator_list])
                found.append((node.name, path, first, node.end_lineno))
    return tuple(found)


def _docstrings(tree):
    """The docstring nodes of a module and its classes and functions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield first.value


def _references(node, docstrings):
    """Names ``node`` references in code: ``Name`` and ``Attribute``
    nodes, import aliases, and identifiers inside string constants
    that are not docstrings (perfbench patches names by string)."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield from child.name.split(".")
        elif (isinstance(child, ast.Constant)
              and isinstance(child.value, str)
              and child not in docstrings):
            yield from _WORD.findall(child.value)


@functools.lru_cache(maxsize=None)
def _uncalled():
    """Public names never referenced in CALLER_DIRS code outside their
    own definition.  Comments and docstrings do not count, nor do
    package ``__init__.py`` re-exports."""
    mentions = collections.Counter()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            docstrings = set(_docstrings(tree))
            for node in tree.body:
                own = getattr(node, "name", None)
                mentions.update(name for name in
                                _references(node, docstrings)
                                if name != own)
    return {name: f"{path.relative_to(ROOT)}:{first}"
            for name, path, first, _ in _public_definitions()
            if not mentions[name]}


class TestEveryPublicNameHasACaller:
    def test_every_public_name_has_a_caller(self):
        dead = {name: where for name, where in _uncalled().items()
                if name not in KEPT_WITHOUT_CALLER}
        assert not dead, (
            "public definitions with no caller outside tests (remove "
            "them, or keep one in KEPT_WITHOUT_CALLER with its "
            f"reason): {dead}"
        )

    def test_kept_names_still_exist(self):
        defined = {name for name, *_ in _public_definitions()}
        gone = sorted(set(KEPT_WITHOUT_CALLER) - defined)
        assert not gone, f"drop from KEPT_WITHOUT_CALLER: {gone}"

    def test_kept_names_still_have_no_caller(self):
        defined = {name for name, *_ in _public_definitions()}
        called = sorted((set(KEPT_WITHOUT_CALLER) & defined)
                        - set(_uncalled()))
        assert not called, (
            f"these now have a caller; drop them from "
            f"KEPT_WITHOUT_CALLER: {called}"
        )


def _unused_imports(path):
    """(line, name) of every name ``path`` imports and never uses.

    A use is a ``Name`` node or an identifier inside a string
    constant that is not a docstring (a quoted annotation, an
    ``__all__`` entry)."""
    tree = ast.parse(path.read_text())
    docstrings = set(_docstrings(tree))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname
                         or alias.name.split(".")[0]] = node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Constant)
              and isinstance(node.value, str)
              and node not in docstrings):
            used.update(_WORD.findall(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


class TestNoUnusedImports:
    def test_src_imports_only_what_it_uses(self):
        unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
                  for path in sorted((ROOT / "src").rglob("*.py"))
                  if path.name != "__init__.py"
                  for line, name in _unused_imports(path)]
        assert not unused, f"unused imports: {unused}"

    @pytest.mark.parametrize("directory", ["tests", "benchmarks",
                                           "examples", "scripts"])
    def test_other_code_imports_only_what_it_uses(self, directory):
        unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
                  for path in sorted((ROOT / directory).rglob("*.py"))
                  for line, name in _unused_imports(path)]
        assert not unused, f"unused imports: {unused}"
