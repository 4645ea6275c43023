"""Reproducer formatting: circuit dumps and reseed commands.

When a fuzzed circuit exposes a divergence, the raw
:class:`~repro.circuits.circuit.Circuit` object is useless in a CI
log.  This module renders failures as two copy-pasteable artifacts:

* a QASM-like text dump (:func:`dump_circuit`) that
  :func:`parse_dump` reads back into an identical circuit, so a
  shrunk reproducer can be pinned verbatim into a regression test;
* a reseed command (:func:`reseed_command`) that regenerates the
  *original* failing circuit from its ``(family, seed)`` pair.

The dump grammar is one operation per line::

    circuit <name>
    qubits <n>
    clbits <m>
    gate H 0
    gate CNOT 0 1
    gate RZ(0.392699081698724139) 2
    measure 3 -> 0
    reset 4

Parametric gates carry their parameters in full ``repr`` precision so
round-tripping is exact.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional

from repro.circuits import gates
from repro.circuits.circuit import Circuit, GateOp, MeasureOp, ResetOp
from repro.circuits.gates import Gate
from repro.exceptions import VerificationError
from repro.runtime.checkpoint import _write_atomic_text

#: Parametric gate factories the parser knows how to rebuild.
_PARAMETRIC: Dict[str, Callable[..., Gate]] = {
    "RZ": gates.rz,
    "RX": gates.rx,
    "RY": gates.ry,
    "GPHASE": gates.global_phase,
}


def dump_circuit(circuit: Circuit) -> str:
    """Serialise a circuit to the QASM-like reproducer grammar."""
    lines: List[str] = [
        f"circuit {circuit.name or 'anonymous'}",
        f"qubits {circuit.num_qubits}",
        f"clbits {circuit.num_clbits}",
    ]
    for op in circuit.operations:
        if isinstance(op, MeasureOp):
            lines.append(f"measure {op.qubit} -> {op.clbit}")
        elif isinstance(op, ResetOp):
            lines.append(f"reset {op.qubit}")
        else:
            assert isinstance(op, GateOp)
            if op.condition is not None:
                raise VerificationError(
                    "dump_circuit does not serialise classical "
                    "conditions (fuzzed circuits are unconditional)"
                )
            name = op.gate.name
            if op.gate.params:
                args = ",".join(repr(float(p)) for p in op.gate.params)
                name = f"{name}({args})"
            qubits = " ".join(str(q) for q in op.qubits)
            lines.append(f"gate {name} {qubits}")
    return "\n".join(lines)


def _parse_gate_token(token: str, arity: int) -> Gate:
    if "(" in token:
        name, _, rest = token.partition("(")
        params = [float(piece) for piece in
                  rest.rstrip(")").split(",") if piece]
        factory = _PARAMETRIC.get(name)
        if factory is None:
            raise VerificationError(
                f"unknown parametric gate {name!r} in dump"
            )
        if name == "GPHASE":
            return factory(params[0], arity)
        return factory(*params)
    registered = gates.GATE_REGISTRY.get(token)
    if registered is None:
        raise VerificationError(f"unknown gate {token!r} in dump")
    return registered


def parse_dump(text: str) -> Circuit:
    """Rebuild a circuit from :func:`dump_circuit` output."""
    name = ""
    num_qubits: Optional[int] = None
    num_clbits = 0
    body: List[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        if head == "circuit":
            name = rest.strip()
        elif head == "qubits":
            num_qubits = int(rest)
        elif head == "clbits":
            num_clbits = int(rest)
        else:
            body.append(line)
    if num_qubits is None:
        raise VerificationError("dump is missing a 'qubits' line")
    circuit = Circuit(num_qubits, num_clbits,
                      name="" if name == "anonymous" else name)
    for line in body:
        head, _, rest = line.partition(" ")
        if head == "gate":
            token, *qubit_tokens = rest.split()
            qubits = [int(q) for q in qubit_tokens]
            circuit.add_gate(_parse_gate_token(token, len(qubits)),
                             *qubits)
        elif head == "measure":
            qubit_text, _, clbit_text = rest.partition("->")
            circuit.measure(int(qubit_text), int(clbit_text))
        elif head == "reset":
            circuit.reset(int(rest))
        else:
            raise VerificationError(f"unparseable dump line {line!r}")
    return circuit


def reseed_command(family: str, seed: int, max_qubits: int,
                   max_gates: int) -> str:
    """A shell one-liner that regenerates and re-checks the circuit."""
    return (
        "PYTHONPATH=src python -c \""
        "from repro.verify import generate, check_circuit; "
        f"c = generate({family!r}, {seed}, max_qubits={max_qubits}, "
        f"max_gates={max_gates}); "
        "print(check_circuit(c) or 'no divergence')\""
    )


def write_artifact(path: str, text: str,
                   best_effort: bool = False) -> Optional[str]:
    """Write a failure artifact atomically, creating parent directories.

    The text lands via write-to-``.tmp``-then-``os.replace``, so a
    crash (or a second writer) never leaves a half-written reproducer
    — CI either uploads the previous complete artifact or the new
    one.  With ``best_effort=True`` filesystem errors are swallowed
    and ``None`` returned: artifact writing happens while a test
    assertion is already propagating, and a read-only or full disk
    must not mask the real failure.  Returns the path on success.
    """
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        _write_atomic_text(path, text)
        return path
    except OSError:
        if best_effort:
            return None
        raise


def format_failure(circuit: Circuit, *, family: Optional[str] = None,
                   seed: Optional[int] = None,
                   max_qubits: Optional[int] = None,
                   max_gates: Optional[int] = None,
                   note: str = "") -> str:
    """The block a failing fuzz test prints: dump + reseed command."""
    sections = []
    if note:
        sections.append(note)
    sections.append("--- failing circuit (parse_dump-compatible) ---")
    sections.append(dump_circuit(circuit))
    if family is not None and seed is not None:
        sections.append("--- reseed ---")
        sections.append(reseed_command(
            family, seed,
            max_qubits if max_qubits is not None else circuit.num_qubits,
            max_gates if max_gates is not None else len(circuit),
        ))
    return "\n".join(sections)
