"""Unit and property tests for the Pauli-string algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import PauliString, iter_single_qubit_paulis, pauli_basis
from repro.exceptions import CircuitError

labels = st.text(alphabet="IXYZ", min_size=1, max_size=5)


class TestConstruction:
    def test_identity(self):
        identity = PauliString.identity(3)
        assert identity.is_identity
        assert identity.weight == 0

    def test_from_label_round_trip(self):
        pauli = PauliString.from_label("XIZY")
        assert pauli.label() == "XIZY"

    def test_bad_label(self):
        with pytest.raises(CircuitError):
            PauliString.from_label("XQ")

    def test_single(self):
        pauli = PauliString.single(4, 2, "Y")
        assert pauli.label() == "IIYI"
        assert pauli.kind_at(2) == "Y"

    def test_single_out_of_range(self):
        with pytest.raises(CircuitError):
            PauliString.single(2, 5, "X")


class TestWeights:
    def test_weights(self):
        pauli = PauliString.from_label("XYZI")
        assert pauli.weight == 3

    def test_support(self):
        assert PauliString.from_label("IXIZ").support() == (1, 3)


class TestCommutation:
    def test_xz_anticommute(self):
        x = PauliString.from_label("X")
        z = PauliString.from_label("Z")
        assert not x.commutes_with(z)

    def test_disjoint_support_commutes(self):
        a = PauliString.from_label("XI")
        b = PauliString.from_label("IZ")
        assert a.commutes_with(b)

    def test_xx_zz_commute(self):
        assert PauliString.from_label("XX").commutes_with(
            PauliString.from_label("ZZ")
        )

    @given(labels, labels)
    @settings(max_examples=60, deadline=None)
    def test_commutation_matches_matrices(self, label_a, label_b):
        size = min(len(label_a), len(label_b), 4)
        a = PauliString.from_label(label_a[:size])
        b = PauliString.from_label(label_b[:size])
        commutator = a.matrix() @ b.matrix() - b.matrix() @ a.matrix()
        assert a.commutes_with(b) == bool(
            np.allclose(commutator, 0, atol=1e-10)
        )


class TestProduct:
    def test_xy_is_iz(self):
        x = PauliString.from_label("X")
        y = PauliString.from_label("Y")
        product = x * y
        assert np.allclose(product.matrix(),
                           x.matrix() @ y.matrix())

    @given(labels, labels)
    @settings(max_examples=80, deadline=None)
    def test_product_matches_matrices(self, label_a, label_b):
        size = min(len(label_a), len(label_b), 4)
        a = PauliString.from_label(label_a[:size])
        b = PauliString.from_label(label_b[:size])
        assert np.allclose((a * b).matrix(), a.matrix() @ b.matrix(),
                           atol=1e-10)

    def test_self_product_is_identity(self):
        pauli = PauliString.from_label("XYZ")
        assert (pauli * pauli).is_identity
        assert np.allclose((pauli * pauli).matrix(), np.eye(8))

    def test_size_mismatch(self):
        with pytest.raises(CircuitError):
            PauliString.from_label("X") * PauliString.from_label("XX")


class TestEmbedRestrict:
    def test_restricted(self):
        pauli = PauliString.from_label("XIZY")
        assert pauli.restricted([0, 3]).label() == "XY"

    def test_embedded(self):
        pauli = PauliString.from_label("XZ")
        embedded = pauli.embedded(5, [1, 4])
        assert embedded.label() == "IXIIZ"

    def test_embed_restrict_round_trip(self):
        pauli = PauliString.from_label("YZ")
        embedded = pauli.embedded(6, [2, 5])
        assert embedded.restricted([2, 5]).label() == "YZ"

    def test_embedded_size_mismatch(self):
        with pytest.raises(CircuitError):
            PauliString.from_label("XX").embedded(5, [0])


class TestPhases:
    def test_phase_offset_of_plain_labels(self):
        for label in ("X", "Y", "Z", "XY", "YY"):
            assert PauliString.from_label(label).phase_offset() == 0

    def test_matrix_respects_explicit_phase(self):
        pauli = PauliString.from_label("X", phase=2)  # -X
        assert np.allclose(pauli.matrix(),
                           -PauliString.from_label("X").matrix())

    def test_strip_phase(self):
        pauli = PauliString.from_label("Y", phase=3)
        stripped = pauli.strip_phase()
        assert stripped.phase_offset() == 0
        assert stripped.label() == "Y"

    def test_repr_shows_sign(self):
        assert repr(PauliString.from_label("X")) == "+X"
        assert repr(PauliString.from_label("X", phase=2)) == "-X"


class TestEnumerations:
    def test_single_qubit_paulis(self):
        paulis = list(iter_single_qubit_paulis(3))
        assert len(paulis) == 9
        assert all(p.weight == 1 for p in paulis)

    def test_pauli_basis_size(self):
        assert len(list(pauli_basis(2))) == 16

    def test_pauli_basis_orthogonality(self):
        basis = list(pauli_basis(2))
        for i, a in enumerate(basis[:6]):
            for b in basis[i + 1:6]:
                trace = np.trace(a.matrix().conj().T @ b.matrix())
                assert abs(trace) < 1e-10
