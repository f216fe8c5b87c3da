import numpy as np
import pytest

import kernel_ref
from qnc import kernels
from qnc.adversary import keep_and_send_phi0, random_isometry
from qnc.engine import phase_table
from qnc.kernels import conditional_states, record_digits, record_index
from qnc.protocol import (
    GIVEN,
    MEASURED_EDGES,
    VARIANT_WEAK,
    ProtocolConfig,
    branch_table,
    enumerate_branches,
)
from qnc.security import _pair_list


def test_record_digit_expansion():
    rows = record_digits(3, 4, 0, 5)
    np.testing.assert_array_equal(
        rows,
        [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 2], [0, 0, 1, 0], [0, 0, 1, 1]],
    )


@pytest.mark.parametrize("p", [3, 5])
def test_record_index_roundtrip(p):
    width = 4
    rows = record_digits(p, width, 0, p**width)
    for idx in (0, 1, p, p**2 + 2, p**width - 1):
        assert record_index(rows[idx], p) == idx


@pytest.mark.parametrize(
    "cfg",
    [
        ProtocolConfig(p=3, b1=1),
        ProtocolConfig(p=3, attack=keep_and_send_phi0(9, 3)),
        ProtocolConfig(p=3, b1=2, attack=random_isometry(7, 3, 9, seed=21)),
    ],
    ids=["honest", "keep-e9", "haar-e7"],
)
def test_branch_summary_backends_agree(cfg):
    """numpy rows match the literal enumeration."""
    prob_np, fid_np = branch_table(cfg)
    assert prob_np.sum() == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(7)
    for idx in rng.choice(cfg.p ** len(MEASURED_EDGES), size=20, replace=False):
        record = record_digits(cfg.p, len(MEASURED_EDGES), idx, idx + 1)[0]
        forced = dict(zip(MEASURED_EDGES, record.tolist()))
        leaves = list(enumerate_branches(cfg, forced=forced))
        if not leaves:
            assert prob_np[idx] == pytest.approx(0.0, abs=1e-14)
            continue
        (leaf,) = leaves
        assert prob_np[idx] == pytest.approx(leaf.branch_probability, abs=1e-14)
        assert fid_np[idx] == pytest.approx(leaf.fidelity, abs=1e-12)


def _random_state(rng, p):
    v = rng.normal(size=p) + 1j * rng.normal(size=p)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: ProtocolConfig(p=5, b1=3, input_mode=GIVEN,
                                   psi1=_random_state(rng, 5), psi2=_random_state(rng, 5)),
        lambda rng: ProtocolConfig(p=5, b1=1, attack=random_isometry(7, 5, 5, seed=8)),
    ],
    ids=["given", "haar-e7-denv5"],
)
def test_branch_table_matches_the_literal_path_at_p5(make):
    """The p = 5 table (the honest-p5 benchmark shape, and a Haar tap) matches
    the literal enumeration on spot records."""
    rng = np.random.default_rng(17)
    cfg = make(rng)
    prob, fid = branch_table(cfg)
    assert prob.sum() == pytest.approx(1.0, abs=1e-12)
    for idx in rng.choice(cfg.p ** len(MEASURED_EDGES), size=5, replace=False):
        record = record_digits(cfg.p, len(MEASURED_EDGES), idx, idx + 1)[0]
        (leaf,) = enumerate_branches(cfg, forced=dict(zip(MEASURED_EDGES, record.tolist())))
        assert prob[idx] == pytest.approx(leaf.branch_probability, abs=1e-14)
        assert fid[idx] == pytest.approx(leaf.fidelity, abs=1e-12)


@pytest.mark.parametrize("p", [3, 5])
def test_branch_summary_matches_the_loop_on_nonzero_differences(p):
    """Real supports give one difference vector (delta = 0) per bucket, so a
    synthetic one exercises the rest: every rest index holds four entries
    with at least two measured values (two entries share one, so they merge),
    two rest indices sit outside every group, two groups each collect two
    rest indices, and the weights and sink corrections are non-trivial."""
    rng = np.random.default_rng(60 + p)
    n_rest, n_meas = 6, 3
    rest_index = np.repeat(np.arange(n_rest), 4)
    zmeas = rng.integers(0, p, size=(rest_index.size, n_meas))
    zmeas[0::4, 0], zmeas[1::4, 0] = 0, 1
    zmeas[3::4] = zmeas[2::4]
    amp = rng.normal(size=rest_index.size) + 1j * rng.normal(size=rest_index.size)
    amp /= np.linalg.norm(amp)
    h12, h13 = rng.integers(1, p, size=(2, n_rest))
    weight = _random_state(rng, n_rest)
    group = np.array([0, 1, -1, 1, 0, -1])
    m1, m2 = rng.integers(1, p, size=(2, n_meas))
    args = (amp, zmeas, rest_index, h12, h13, weight, group, m1, m2, p)
    prob, fid = kernels.branch_summary(*args)
    prob_ref, fid_ref = kernel_ref.branch_summary_loop(*args, phase_table(p))
    np.testing.assert_allclose(prob, prob_ref, atol=1e-14)
    np.testing.assert_allclose(fid, fid_ref, atol=1e-12)


def test_conditional_states_backends_agree():
    """numpy matches the plain loop on a full-pad workload, whose states are
    record-independent, and on the weak-pad counterexample, whose states vary
    with the record and so expose phase-sign slips."""
    for cfg in (
        ProtocolConfig(p=3, attack=random_isometry(9, 3, 3, seed=2)),
        ProtocolConfig(p=3, variant=VARIANT_WEAK, attack=keep_and_send_phi0(11, 3)),
    ):
        pairs = _pair_list(cfg, (0, 1, 2))
        recs = record_digits(3, len(pairs.visible), 100, 140)
        args = (recs, pairs.diffs, pairs.w, pairs.rows, pairs.cols, pairs.p, pairs.n_kept)
        rho_np = conditional_states(*args)
        rho_loop = kernel_ref.conditional_states_loop(*args, phase_table(3))
        np.testing.assert_allclose(rho_np, rho_loop, atol=1e-13)


def test_conditional_states_tiny_handmade_case():
    """Two pairs on a 2x2 grid: the kernel and the plain loop against a hand
    expansion."""
    table = np.exp(2j * np.pi * np.arange(3) / 3)
    records = np.array([[0, 1], [2, 2]])
    diffs = np.array([[1, 0], [1, 2]])
    w = np.array([0.5 + 0j, 0.25j])
    rows = np.array([0, 1])
    cols = np.array([1, 1])
    expected = np.zeros((2, 2, 2), dtype=complex)
    for b in range(2):
        for t in range(2):
            e = (records[b] @ diffs[t]) % 3
            expected[b, rows[t], cols[t]] += w[t] * table[e]
    got = conditional_states(records, diffs, w, rows, cols, 3, 2)
    np.testing.assert_allclose(got, expected, atol=1e-15, err_msg="numpy")
    got = kernel_ref.conditional_states_loop(
        records, diffs, w, rows, cols, 3, 2, phase_table(3)
    )
    np.testing.assert_allclose(got, expected, atol=1e-15, err_msg="loop")


def _single_rest_summaries(amp, zmeas):
    """numpy kernel and plain loop on a p = 3 support with one rest index and
    no matched group, so only the record phase and the norm matter."""
    amp = np.asarray(amp, dtype=np.complex128)
    zmeas = np.asarray(zmeas, dtype=np.int64)
    zero = np.zeros(len(amp), dtype=np.int64)
    args = (amp, zmeas, zero, zero, zero, np.zeros(len(amp), dtype=np.complex128),
            np.full(len(amp), -1, dtype=np.int64),
            np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64), 3)
    return {
        "numpy": kernels.branch_summary(*args),
        "loop": kernel_ref.branch_summary_loop(*args, phase_table(3)),
    }


def test_branch_summary_handles_no_matched_groups():
    """A support fully orthogonal to the target yields fidelity zero, on
    every record and also on records whose amplitudes cancel."""
    for name, (prob, fid) in _single_rest_summaries([1.0], [[0, 0]]).items():
        np.testing.assert_allclose(prob, np.full(9, 1 / 9), atol=1e-15, err_msg=name)
        np.testing.assert_allclose(fid, 0.0, atol=1e-15, err_msg=name)

    # (|00> - |01>)/sqrt2: record (d1, d2) has amplitude (1 - w^d2)/sqrt2, which
    # cancels exactly at d2 = 0 and has |.|^2 = 3/2 otherwise
    second = record_digits(3, 2, 0, 9)[:, 1]
    s = 1 / np.sqrt(2)
    for name, (prob, fid) in _single_rest_summaries([s, -s], [[0, 0], [0, 1]]).items():
        assert np.all(prob[second == 0] == 0.0), name
        assert np.all(fid[second == 0] == 0.0), name
        np.testing.assert_allclose(prob[second != 0], 1.5 / 9, atol=1e-15, err_msg=name)
        np.testing.assert_allclose(fid, 0.0, atol=1e-15, err_msg=name)

    # (|00> + i|01>)/sqrt2: 9 prob = |1 + i w^d2|^2 / 2 = 1 - sin(2 pi d2 / 3),
    # i.e. 1, 0.134, 1.866 for d2 = 0, 1, 2; asymmetric, so a phase-sign flip shows
    r3 = np.sqrt(3) / 2
    expected = np.tile([1.0, 1 - r3, 1 + r3], 3) / 9
    for name, (prob, fid) in _single_rest_summaries([s, 1j * s], [[0, 0], [0, 1]]).items():
        np.testing.assert_allclose(prob, expected, atol=1e-15, err_msg=name)
        np.testing.assert_allclose(fid, 0.0, atol=1e-15, err_msg=name)
