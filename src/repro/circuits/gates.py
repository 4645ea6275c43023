"""Gate library: unitary definitions and metadata.

Every gate used by the paper's constructions is defined here as a
:class:`Gate` instance carrying its unitary matrix, arity, Clifford
metadata and its inverse.  The module-level singletons (``X``, ``H``,
``CNOT``, ``TOFFOLI``, ...) are the vocabulary that circuits are written
in; parametric rotations are produced by the factory functions
(:func:`rz`, :func:`rx`, :func:`ry`).

Naming follows the paper: ``S`` is the paper's sigma_z^{1/2} and ``T``
is sigma_z^{1/4} (up to global phase, the standard S and T gates).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import GateError

_ATOL = 1e-10


def _is_unitary(matrix: np.ndarray) -> bool:
    dim = matrix.shape[0]
    return bool(
        matrix.shape == (dim, dim)
        and np.allclose(matrix @ matrix.conj().T, np.eye(dim), atol=1e-8)
    )


@dataclass(frozen=True)
class Gate:
    """An immutable quantum gate.

    Attributes:
        name: canonical name used for registry lookup and drawing.
        matrix: unitary matrix of shape (2**num_qubits, 2**num_qubits),
            stored read-only.
        num_qubits: arity of the gate.
        is_clifford: True when the gate maps Pauli strings to Pauli
            strings under conjugation; used by the fault-propagation
            simulator.
        inverse_name: name of the gate implementing the inverse, when
            the inverse is itself a named gate.
        params: parameters for parametric gates (e.g. rotation angles),
            kept so two rz(theta) instances compare equal iff their
            angles match.
    """

    name: str
    matrix: np.ndarray
    num_qubits: int
    is_clifford: bool = False
    inverse_name: Optional[str] = None
    params: Tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=np.complex128)
        if matrix.shape != (2**self.num_qubits, 2**self.num_qubits):
            raise GateError(
                f"gate {self.name!r}: matrix shape {matrix.shape} does not "
                f"match {self.num_qubits} qubits"
            )
        if not _is_unitary(matrix):
            raise GateError(f"gate {self.name!r}: matrix is not unitary")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        """Hilbert-space dimension the gate acts on."""
        return 2**self.num_qubits

    def inverse(self) -> "Gate":
        """Return the inverse gate.

        Named inverses (S -> S_DG) are returned from the registry so
        circuit inversion round-trips through recognisable names;
        anything else gets a synthesised ``name_dg`` gate.
        """
        if self.inverse_name is not None:
            registered = GATE_REGISTRY.get(self.inverse_name)
            if registered is not None:
                return registered
        return Gate(
            name=f"{self.name}_dg",
            matrix=self.matrix.conj().T,
            num_qubits=self.num_qubits,
            is_clifford=self.is_clifford,
            inverse_name=self.name,
            params=tuple(-p for p in self.params),
        )

    def controlled(self) -> "Gate":
        """Return the controlled version of this gate (control first).

        This implements the paper's Lambda(U) notation: an extra qubit
        controls the application of the gate.  Well-known results are
        mapped back to named gates (Lambda(X) = CNOT, Lambda(CNOT) =
        TOFFOLI, ...) so circuits stay readable.
        """
        special = _CONTROLLED_NAMES.get(self.name)
        if special is not None:
            registered = GATE_REGISTRY.get(special)
            if registered is not None:
                return registered
        dim = self.dim
        matrix = np.eye(2 * dim, dtype=np.complex128)
        matrix[dim:, dim:] = self.matrix
        return Gate(
            name=f"c{self.name}",
            matrix=matrix,
            num_qubits=self.num_qubits + 1,
            is_clifford=False,
            params=self.params,
        )

    def equals(self, other: "Gate", *, up_to_global_phase: bool = False) -> bool:
        """Whether two gates implement the same unitary."""
        if self.num_qubits != other.num_qubits:
            return False
        if up_to_global_phase:
            return matrices_equal_up_to_phase(self.matrix, other.matrix)
        return bool(np.allclose(self.matrix, other.matrix, atol=_ATOL))

    def __repr__(self) -> str:
        if self.params:
            args = ", ".join(f"{p:.6g}" for p in self.params)
            return f"Gate({self.name}({args}))"
        return f"Gate({self.name})"


def matrices_equal_up_to_phase(a: np.ndarray, b: np.ndarray) -> bool:
    """True when a = e^{i phi} b for some global phase phi."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    # Find the largest entry of b to fix the phase against.
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < _ATOL:
        return bool(np.allclose(a, b, atol=_ATOL))
    phase = a[idx] / b[idx]
    if abs(abs(phase) - 1.0) > 1e-8:
        return False
    return bool(np.allclose(a, phase * b, atol=1e-8))


# ---------------------------------------------------------------------------
# Concrete matrices
# ---------------------------------------------------------------------------

_SQ2 = 1.0 / math.sqrt(2.0)

_I = np.eye(2)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128)
_S = np.array([[1, 0], [0, 1j]], dtype=np.complex128)
_S_DG = _S.conj().T
_T = np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=np.complex128)
_T_DG = _T.conj().T


def _two_qubit(control_first: np.ndarray) -> np.ndarray:
    matrix = np.eye(4, dtype=np.complex128)
    matrix[2:, 2:] = control_first
    return matrix


_CNOT = _two_qubit(_X)
_CZ = _two_qubit(_Z)
_CS = _two_qubit(_S)
_CS_DG = _two_qubit(_S_DG)
_CY = _two_qubit(_Y)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    dtype=np.complex128,
)

_TOFFOLI = np.eye(8, dtype=np.complex128)
_TOFFOLI[6:, 6:] = _X

_CCZ = np.eye(8, dtype=np.complex128)
_CCZ[7, 7] = -1

_FREDKIN = np.eye(8, dtype=np.complex128)
_FREDKIN[4:, 4:] = 0
_FREDKIN[4, 4] = 1
_FREDKIN[7, 7] = 1
_FREDKIN[5, 6] = 1
_FREDKIN[6, 5] = 1


# ---------------------------------------------------------------------------
# Singletons
# ---------------------------------------------------------------------------

I = Gate("I", _I, 1, is_clifford=True, inverse_name="I")
X = Gate("X", _X, 1, is_clifford=True, inverse_name="X")
Y = Gate("Y", _Y, 1, is_clifford=True, inverse_name="Y")
Z = Gate("Z", _Z, 1, is_clifford=True, inverse_name="Z")
H = Gate("H", _H, 1, is_clifford=True, inverse_name="H")
S = Gate("S", _S, 1, is_clifford=True, inverse_name="S_DG")
S_DG = Gate("S_DG", _S_DG, 1, is_clifford=True, inverse_name="S")
T = Gate("T", _T, 1, is_clifford=False, inverse_name="T_DG")
T_DG = Gate("T_DG", _T_DG, 1, is_clifford=False, inverse_name="T")

CNOT = Gate("CNOT", _CNOT, 2, is_clifford=True, inverse_name="CNOT")
CZ = Gate("CZ", _CZ, 2, is_clifford=True, inverse_name="CZ")
CY = Gate("CY", _CY, 2, is_clifford=True, inverse_name="CY")
CS = Gate("CS", _CS, 2, is_clifford=False, inverse_name="CS_DG")
CS_DG = Gate("CS_DG", _CS_DG, 2, is_clifford=False, inverse_name="CS")
SWAP = Gate("SWAP", _SWAP, 2, is_clifford=True, inverse_name="SWAP")

TOFFOLI = Gate("TOFFOLI", _TOFFOLI, 3, is_clifford=False, inverse_name="TOFFOLI")
CCZ = Gate("CCZ", _CCZ, 3, is_clifford=False, inverse_name="CCZ")
FREDKIN = Gate("FREDKIN", _FREDKIN, 3, is_clifford=False, inverse_name="FREDKIN")

#: All built-in gates, keyed by canonical name.
GATE_REGISTRY: Dict[str, Gate] = {
    gate.name: gate
    for gate in (
        I, X, Y, Z, H, S, S_DG, T, T_DG,
        CNOT, CZ, CY, CS, CS_DG, SWAP,
        TOFFOLI, CCZ, FREDKIN,
    )
}

_CONTROLLED_NAMES = {
    "X": "CNOT",
    "Z": "CZ",
    "Y": "CY",
    "S": "CS",
    "S_DG": "CS_DG",
    "CNOT": "TOFFOLI",
    "CZ": "CCZ",
    "SWAP": "FREDKIN",
}

#: Paper aliases: sigma_z^{1/2} is S, sigma_z^{1/4} is T.
SIGMA_Z_HALF = S
SIGMA_Z_QUARTER = T

PAULI_GATES: Dict[str, Gate] = {"I": I, "X": X, "Y": Y, "Z": Z}


def rz(theta: float) -> Gate:
    """Rotation about Z: diag(1, e^{i theta}) (phase convention used by
    the paper for sigma_z^{1/2^k} powers)."""
    matrix = np.array(
        [[1, 0], [0, cmath.exp(1j * theta)]], dtype=np.complex128
    )
    clifford = _angle_is_multiple(theta, math.pi / 2)
    return Gate(f"RZ", matrix, 1, is_clifford=clifford, params=(theta,))


def rx(theta: float) -> Gate:
    """Rotation about X by angle theta: exp(-i theta X / 2)."""
    cos = math.cos(theta / 2.0)
    sin = math.sin(theta / 2.0)
    matrix = np.array(
        [[cos, -1j * sin], [-1j * sin, cos]], dtype=np.complex128
    )
    return Gate("RX", matrix, 1, params=(theta,))


def ry(theta: float) -> Gate:
    """Rotation about Y by angle theta: exp(-i theta Y / 2)."""
    cos = math.cos(theta / 2.0)
    sin = math.sin(theta / 2.0)
    matrix = np.array([[cos, -sin], [sin, cos]], dtype=np.complex128)
    return Gate("RY", matrix, 1, params=(theta,))


def global_phase(phi: float, num_qubits: int = 1) -> Gate:
    """e^{i phi} times the identity on ``num_qubits`` qubits.

    The paper's special-state constructions use unitaries such as
    U = e^{i pi / 4} sigma_z^{-1/2} whose global phase is essential
    (it turns eigenvalue pairs into exactly +1/-1), so a dedicated
    global-phase gate is provided.
    """
    matrix = cmath.exp(1j * phi) * np.eye(2**num_qubits, dtype=np.complex128)
    return Gate("GPHASE", matrix, num_qubits, is_clifford=True, params=(phi,))


def sigma_z_power(exponent: float) -> Gate:
    """sigma_z^exponent = diag(1, e^{i pi exponent}).

    ``sigma_z_power(0.5)`` is the paper's sigma_z^{1/2} (the S gate) and
    ``sigma_z_power(0.25)`` its sigma_z^{1/4} (the T gate).
    """
    if abs(exponent - 0.5) < _ATOL:
        return S
    if abs(exponent - 0.25) < _ATOL:
        return T
    if abs(exponent + 0.5) < _ATOL:
        return S_DG
    if abs(exponent + 0.25) < _ATOL:
        return T_DG
    if abs(exponent - 1.0) < _ATOL:
        return Z
    return rz(math.pi * exponent)


def _angle_is_multiple(theta: float, unit: float) -> bool:
    ratio = theta / unit
    return abs(ratio - round(ratio)) < 1e-9
