"""Every optimized gadget circuit pinned to a literal digest.

The engine stamps optimized checkpoint fingerprints with the constant
:data:`repro.optimize.MARKER`, so the marker only protects old
optimized journals and cached job results if the optimizer maps each
gadget to the same circuit it always did.  This file pins that map:
for each of the 14 shipped gadget builds (seven per code), the sha256
of the optimized circuit's structural key and its fault-location
total.  A failure here means optimized journals on disk no longer
describe the circuits the engine now runs: bump ``MARKER`` (and the
pins in ``tests/runtime/test_fingerprint_pins.py``) along with these
literals.
"""

import hashlib

import pytest

from repro.ft.ngate import build_n_gadget
from repro.ft.recovery import build_recovery_gadget
from repro.ft.t_gadget import build_t_gadget
from repro.ft.toffoli_gadget import build_toffoli_gadget
from repro.noise.locations import count_locations
from repro.optimize.pipeline import _circuit_key

BUILDS = {
    "n_direct": lambda code: build_n_gadget(code, optimize=True),
    "n_voted": lambda code: build_n_gadget(code, variant="voted",
                                           optimize=True),
    "t": lambda code: build_t_gadget(code, optimize=True),
    "t_voted": lambda code: build_t_gadget(code, n_variant="voted",
                                           optimize=True),
    "recovery_x": lambda code: build_recovery_gadget(code, "X",
                                                     optimize=True),
    "recovery_z": lambda code: build_recovery_gadget(code, "Z",
                                                     optimize=True),
    "toffoli": lambda code: build_toffoli_gadget(code, optimize=True),
}

#: (code fixture, build) -> (sha256 of the circuit key, location total).
PINS = {
    ("trivial", "n_direct"):
        ("192842adbf307b411b91d0d5c5adef37"
         "7b633c423ab654fbad9b5a4547643549", 3),
    ("trivial", "n_voted"):
        ("65e9378380b0abc3ad1ddc57550792370"
         "703b88935dfabbf8f5304e0d3d6eeba", 7),
    ("trivial", "t"):
        ("29ca546f02e7cf553601698ab94e988e"
         "7947baf485ecc7db2bccfdf32d1f177f", 7),
    ("trivial", "t_voted"):
        ("3fa81c0290f0465a1f1cc1499bd238b4"
         "826faaeff3b1e0091fb26fbaf7deaf83", 13),
    ("trivial", "recovery_x"):
        ("192842adbf307b411b91d0d5c5adef37"
         "7b633c423ab654fbad9b5a4547643549", 3),
    ("trivial", "recovery_z"):
        ("6c42de0214ae335edffd36342fda3c7f"
         "43d6fd830ec5208a69c7770a648fa0e9", 4),
    ("trivial", "toffoli"):
        ("949779b83e41fd5506a5fecf658ad7a8"
         "02910207cfbc464084888e03a81ff90e", 47),
    ("steane", "n_direct"):
        ("9f0bce727741362c6f3044a6ae4614e4"
         "e469437e5d7115c2d1216f94814de369", 467),
    ("steane", "n_voted"):
        ("268d195cda192a624f483a40cd45ba51"
         "ef5fcff95af118beff5a49b334c41395", 323),
    ("steane", "t"):
        ("b83c2ba5ccb492268a71f6d6b6c221ad"
         "f28668a9ef4c0321e64fb5a582d06d23", 695),
    ("steane", "t_voted"):
        ("cd083c00941596ba4c2f47d4f4b9b00e"
         "b8ba43433958035001dbd13d5ba9186d", 547),
    ("steane", "recovery_x"):
        ("6bc3c1e6c8c06403c8ee19cea9708455"
         "a0ac5801e5f60e77a0337f1df2bc3d4b", 259),
    ("steane", "recovery_z"):
        ("a50c9491762c1767bfc30b01cad85bec"
         "58ab3d766d727f7e57d853e49965d704", 274),
    ("steane", "toffoli"):
        ("1a541220f2eb27a22c69a2c20c69f749"
         "2d79ece21cb75308e6e6961873ebe25e", 2196),
}


@pytest.mark.parametrize("code_name, build", sorted(PINS),
                         ids=["-".join(key) for key in sorted(PINS)])
def test_optimized_circuit_is_pinned(request, code_name, build):
    code = request.getfixturevalue(code_name)
    circuit = BUILDS[build](code).circuit
    digest = hashlib.sha256(
        repr(_circuit_key(circuit)).encode()).hexdigest()
    observed = (digest, count_locations(circuit)["total"])
    assert observed == PINS[code_name, build], (
        f"the optimized {build} gadget on the {code_name} code "
        "changed: old optimized journals and cached results would "
        "resume against a different circuit; bump "
        "repro.optimize.MARKER (and its fingerprint pins) together "
        "with these literals")
