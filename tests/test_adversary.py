import re

import numpy as np
import pytest

from dense_ref import channel_block
from qnc.adversary import (
    AttackSpec,
    identity_forward,
    keep_and_send_phi0,
    measure_and_resend,
    random_isometry,
)
from qnc.classical_code import ATTACKABLE_EDGES


ALL_NAMED = [
    identity_forward,
    keep_and_send_phi0,
    lambda e, p: measure_and_resend(e, p, "Z"),
    lambda e, p: measure_and_resend(e, p, "X"),
]


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("make", ALL_NAMED)
def test_named_attacks_are_isometries(make, p):
    spec = make(7, p)
    v = spec.isometry
    np.testing.assert_allclose(v.conj().T @ v, np.eye(p), atol=1e-12)
    assert spec.p == p


def test_edge_validation():
    for edge in ATTACKABLE_EDGES:
        keep_and_send_phi0(edge, 3)
    with pytest.raises(ValueError):
        identity_forward(4, 3)
    with pytest.raises(ValueError):
        identity_forward(12, 3)


def test_shape_and_gram_validation():
    with pytest.raises(ValueError):
        AttackSpec(edge=7, isometry=np.ones((4, 3)))
    with pytest.raises(ValueError):
        AttackSpec(edge=7, isometry=np.eye(3) * 2.0)


@pytest.mark.parametrize("shape", [(3, 0), (0, 0)])
def test_zero_width_isometry_is_refused(shape):
    with pytest.raises(ValueError, match=re.escape(f"isometry shape {shape}")):
        AttackSpec(edge=7, isometry=np.zeros(shape))


def test_identity_forward_properties():
    spec = identity_forward(5, 3)
    assert spec.d_env == 1
    np.testing.assert_allclose(spec.leak_operator(0), [[1.0]])
    np.testing.assert_allclose(spec.total_leak(), [[3.0]])


def test_keep_attack_columns():
    """V|a> = |a>_env (x) |phi_0>: every wire amplitude is 1/sqrt(p)."""
    p = 3
    spec = keep_and_send_phi0(7, p)
    assert spec.d_env == p
    for a in range(p):
        col = spec.isometry[:, a].reshape(p, p)  # (env, wire)
        np.testing.assert_allclose(col[a], np.full(p, 1 / np.sqrt(p)), atol=1e-14)
        assert np.abs(col[np.arange(p) != a]).max() == 0.0


def test_keep_attack_channel_block_closed_form():
    """Block (a, b, x, y) of the keep attack is |a><b| / p."""
    p = 3
    spec = keep_and_send_phi0(9, p)
    for a in range(p):
        for b in range(p):
            expected = np.zeros((p, p))
            expected[a, b] = 1 / p
            np.testing.assert_allclose(
                channel_block(spec, a, b, 0, 2), expected, atol=1e-14
            )


def test_keep_attack_leak_is_maximally_mixed():
    spec = keep_and_send_phi0(11, 3)
    np.testing.assert_allclose(spec.leak_operator(1), np.eye(3) / 3, atol=1e-14)
    np.testing.assert_allclose(spec.total_leak(), np.eye(3), atol=1e-14)


def test_measure_z_records_the_wire_value():
    p = 3
    spec = measure_and_resend(7, p, "Z")
    for a in range(p):
        col = spec.isometry[:, a].reshape(p, p)
        assert col[a, a] == 1.0
        assert np.abs(col).sum() == 1.0
    # leak for resent value b is the projector onto outcome b
    for b in range(p):
        expected = np.zeros((p, p))
        expected[b, b] = 1.0
        np.testing.assert_allclose(spec.leak_operator(b), expected, atol=1e-14)


def test_measure_x_superposes_outcomes():
    """On input |0> every Fourier outcome appears with weight 1/p."""
    p = 3
    spec = measure_and_resend(5, p, "X")
    col = spec.isometry[:, 0].reshape(p, p)
    np.testing.assert_allclose(np.abs(col), np.full((p, p), 1 / p), atol=1e-14)
    with pytest.raises(ValueError):
        measure_and_resend(5, p, "Y")


def test_labels():
    assert identity_forward(5, 3).label == "identity"
    assert keep_and_send_phi0(5, 3).label == "keep-phi0"
    assert measure_and_resend(5, 3, "Z").label == "measure-z"
    assert measure_and_resend(5, 3, "X").label == "measure-x"
    assert random_isometry(5, 3, 9, seed=1).label == "haar-d9"


@pytest.mark.parametrize("d_env", [1, 3, 9])
def test_random_isometry_is_valid_and_seeded(d_env):
    a = random_isometry(7, 3, d_env, seed=123)
    b = random_isometry(7, 3, d_env, seed=123)
    c = random_isometry(7, 3, d_env, seed=124)
    assert a.d_env == d_env
    np.testing.assert_allclose(a.isometry.conj().T @ a.isometry, np.eye(3), atol=1e-12)
    np.testing.assert_array_equal(a.isometry, b.isometry)
    assert np.abs(a.isometry - c.isometry).max() > 1e-3


def test_random_isometry_defaults_and_validation():
    assert random_isometry(7, 3).d_env == 9
    with pytest.raises(ValueError):
        random_isometry(7, 3, d_env=0)
    with pytest.raises(ValueError):
        random_isometry(7, 4)


def test_total_leak_trace_is_p():
    for spec in (
        keep_and_send_phi0(7, 5),
        measure_and_resend(7, 5, "X"),
        random_isometry(7, 5, 4, seed=9),
    ):
        assert np.trace(spec.total_leak()).real == pytest.approx(spec.p)
        # positive semidefinite
        eigs = np.linalg.eigvalsh(spec.total_leak())
        assert eigs.min() > -1e-12


def test_channel_block_consistency_with_leak():
    """leak_operator(b) must equal the a-sum of diagonal channel blocks."""
    spec = random_isometry(9, 3, 3, seed=4)
    for b in range(3):
        acc = sum(channel_block(spec, a, a, b, b) for a in range(3))
        np.testing.assert_allclose(acc, spec.leak_operator(b), atol=1e-13)
