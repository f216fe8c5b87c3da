"""Sparse engine vs the dense full-matrix oracle on random circuits."""

import numpy as np
import pytest

from dense_ref import DenseState, fourier_vector, haar_isometry, random_circuit_comparison
from qnc.engine import RegisterLayout, SparseState


def test_dense_oracle_adder_is_unitary():
    rng = np.random.default_rng(0)
    vec = rng.normal(size=9) + 1j * rng.normal(size=9)
    vec /= np.linalg.norm(vec)
    st = DenseState([("x", 3), ("y", 3)], vec)
    out = st.adder("y", [("x", 2)], constant=1)
    assert out.norm() == pytest.approx(1.0)
    # permutation: same multiset of amplitude magnitudes
    np.testing.assert_allclose(
        sorted(np.abs(out.vector)), sorted(np.abs(vec)), atol=1e-14
    )


def test_dense_oracle_phase_is_diagonal():
    st = DenseState([("x", 3)], np.array([1, 1, 1]) / np.sqrt(3))
    out = st.phase("x", 1)
    w = np.exp(2j * np.pi / 3)
    np.testing.assert_allclose(out.vector, np.array([1, w, w**2]) / np.sqrt(3), atol=1e-14)


def test_dense_oracle_measurement_probabilities_normalize():
    rng = np.random.default_rng(3)
    vec = rng.normal(size=27) + 1j * rng.normal(size=27)
    vec /= np.linalg.norm(vec)
    st = DenseState([("x", 3), ("y", 3), ("z", 3)], vec)
    assert st.x_probabilities("y").sum() == pytest.approx(1.0)


def test_dense_oracle_projects_fourier_labels():
    st = DenseState([("x", 3), ("y", 3)], np.kron(fourier_vector(3, 2), [1, 0, 0]))
    probs = st.x_probabilities("x")
    assert probs[2] == pytest.approx(1.0)


def test_haar_isometry_shapes_and_gram():
    rng = np.random.default_rng(1)
    v = haar_isometry(3, 9, rng)
    assert v.shape == (9, 3)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_random_circuits_agree(seed):
    assert random_circuit_comparison(seed) < 1e-12


def test_engines_agree_on_a_handpicked_sequence():
    """One fixed circuit, checked at every step, mirroring both engines."""
    p = 3
    names = [("r0", p), ("r1", p), ("r2", p)]
    sparse = SparseState(RegisterLayout(names), {(1, 0, 2): 1.0})
    vec = np.zeros(27, dtype=complex)
    vec[np.ravel_multi_index((1, 0, 2), (3, 3, 3))] = 1.0
    dense = DenseState(names, vec)

    sparse = sparse.apply_affine_adder("r1", [("r0", 2), ("r2", 1)], constant=1)
    dense = dense.adder("r1", [("r0", 2), ("r2", 1)], constant=1)
    np.testing.assert_allclose(sparse.to_vector(["r0", "r1", "r2"]), dense.vector, atol=1e-13)

    sparse = sparse.apply_phase_power("r2", 4)
    dense = dense.phase("r2", 4)
    np.testing.assert_allclose(sparse.to_vector(["r0", "r1", "r2"]), dense.vector, atol=1e-13)

    v = haar_isometry(3, 9, np.random.default_rng(7))
    sparse = sparse.apply_isometry("r0", v)
    dense = dense.isometry("r0", v)
    np.testing.assert_allclose(
        sparse.to_vector(["r0", "r1", "r2", "E"]), dense.vector, atol=1e-13
    )

    probs_s = [r.probability for r in sparse.measure_x_basis_all("r1")]
    probs_d = dense.x_probabilities("r1")
    np.testing.assert_allclose(probs_s, probs_d, atol=1e-13)
    k = int(np.argmax(probs_d))
    res = sparse.measure_x_basis("r1", outcome=k)
    prob, dense = dense.measure_x("r1", k)
    assert res.probability == pytest.approx(prob, abs=1e-13)
    np.testing.assert_allclose(
        res.state.to_vector(["r0", "r2", "E"]), dense.vector, atol=1e-12
    )

    rho_s = res.state.partial_trace(["r0", "E"])
    rho_d = dense.density(["r0", "E"])
    np.testing.assert_allclose(rho_s.matrix, rho_d, atol=1e-12)
