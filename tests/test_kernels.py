import numpy as np
import pytest

import kernel_ref
from kernel_ref import record_index
from qnc import kernels
from qnc.adversary import keep_and_send_phi0, random_isometry
from qnc.engine import phase_table
from qnc.kernels import class_representatives, conditional_states, record_digits
from qnc.protocol import (
    GIVEN,
    MEASURED_EDGES,
    VARIANT_WEAK,
    ProtocolConfig,
    branch_table,
    enumerate_branches,
    support,
)
from qnc.security import _wiretap_arrays


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
    synthetic one exercises the rest.  Every rest index holds four entries
    with at least two measured values (two entries share one, so they
    merge).  The overlap terms fall in three buckets, numbered sparsely as
    key * d_env + env numbers them; each bucket spans a non-zero difference,
    and two terms of one bucket share a position, so they merge."""
    rng = np.random.default_rng(60 + p)
    n_rest, n_meas = 6, 3
    rest_index = np.repeat(np.arange(n_rest), 4)
    zmeas = rng.integers(0, p, size=(rest_index.size, n_meas))
    zmeas[0::4, 0], zmeas[1::4, 0] = 0, 1
    zmeas[3::4] = zmeas[2::4]
    amp = _random_state(rng, rest_index.size)
    bucket = np.array([0, 0, 0, 0, 4, 4, 4, 7, 7, 7])
    pos = rng.integers(0, p, size=(bucket.size, n_meas))
    pos[[0, 4, 7], 0], pos[[1, 5, 8], 0] = 0, 1
    pos[3] = pos[2]
    coef = 0.8 * _random_state(rng, bucket.size)
    args = (amp, zmeas, rest_index, coef, bucket, pos, p)
    prob, fid = kernels.branch_summary(*args)
    prob_ref, fid_ref = kernel_ref.branch_summary_loop(*args, phase_table(p))
    np.testing.assert_allclose(prob, prob_ref, atol=1e-14)
    np.testing.assert_allclose(fid, fid_ref, atol=1e-12)


def _states(arrays, records, p, m):
    """The numpy path: the support's spectrum, evaluated on the records."""
    amp, zvis, kept, group = arrays
    omega0, diffs, omega = kernels.spectrum(amp, group, zvis, kept, m, p)
    return conditional_states(records, omega0, diffs, omega, p), len(diffs)


def test_conditional_states_backends_agree():
    """The spectrum path matches the plain per-group loop, which sums
    v v^+ straight from the support.  The full pad gives delta = 0 alone, so
    its states are record-independent; the weak pad's edge-11 taps carry a
    non-zero delta and its negative, so there the states vary with the record
    and expose sign slips, dropped conjugate terms and cross-group pairs."""
    for cfg, n_deltas in (
        (ProtocolConfig(p=3, attack=random_isometry(9, 3, 3, seed=2)), 0),
        (ProtocolConfig(p=3, variant=VARIANT_WEAK, attack=keep_and_send_phi0(11, 3)), 2),
        (ProtocolConfig(p=3, variant=VARIANT_WEAK, attack=random_isometry(11, 3, 3, seed=5)), 2),
    ):
        arrays = _wiretap_arrays(cfg, support(cfg, (0, 1, 2)))
        m = 9 * cfg.attack.d_env
        records = np.random.default_rng(3).integers(0, 3, size=(10, arrays[1].shape[1]))
        rho_np, found = _states(arrays, records, 3, m)
        assert found == n_deltas
        rho_loop = kernel_ref.conditional_states_loop(records, *arrays, 3, m, phase_table(3))
        np.testing.assert_allclose(rho_np, rho_loop, atol=1e-13, err_msg=cfg.attack.label)


def test_conditional_states_tiny_handmade_case():
    """Four entries in two groups, two kept indices: the kernel and the plain
    loop against a hand expansion.  Entries 0 and 2 share (group, record
    digits) and merge into one row; entry 1 sits at a non-zero difference
    from them, and entry 3 is alone in its group."""
    amp = np.array([0.5, 0.25j, -0.5, 0.75])
    zvis = np.array([[0, 1], [1, 1], [0, 1], [2, 0]])
    kept = np.array([0, 1, 1, 0])
    group = np.array([0, 0, 0, 1])
    records = np.array([[0, 1], [2, 2]])
    # r = (0, 1): v_0 = w (0.5, -0.5 + 0.25i), v_1 = (0.75, 0)
    # r = (2, 2): v_0 = (0.5 w^2, 0.25i w - 0.5 w^2), v_1 = (0.75 w, 0)
    off = -0.25 + np.sqrt(3) / 16 + 0.0625j
    expected = np.array(
        [
            [[0.8125, -0.25 - 0.125j], [-0.25 + 0.125j, 0.3125]],
            [[0.8125, off], [np.conj(off), 0.3125 - np.sqrt(3) / 8]],
        ]
    )
    arrays = (amp, zvis, kept, group)
    got, found = _states(arrays, records, 3, 2)
    assert found == 1
    np.testing.assert_allclose(got, expected, atol=1e-15, err_msg="numpy")
    got = kernel_ref.conditional_states_loop(records, *arrays, 3, 2, phase_table(3))
    np.testing.assert_allclose(got, expected, atol=1e-15, err_msg="loop")


@pytest.mark.parametrize("p", [3, 5])
def test_records_in_one_class_share_their_state(p):
    """On a random spectrum (Hermitian Omega_0, random Omega_k and deltas)
    every record's state equals its class representative's, and the classes
    are exactly the distinct vectors (r . delta_k mod p)_k, counted here with
    Python ints.  A key built from a subset of the deltas merges classes
    whose states differ."""
    rng = np.random.default_rng(40 + p)
    m, width, n_deltas = 4, 4, {3: 3, 5: 2}[p]

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    h = gaussian(m, m)
    omega0, omega = h + h.conj().T, gaussian(n_deltas, m, m)
    diffs = rng.integers(0, p, size=(n_deltas, width))
    diffs[:, 0] = rng.integers(1, p, size=n_deltas)
    records = record_digits(p, width, 0, p**width)
    first, inverse = class_representatives(records, diffs, p)
    keys = {
        tuple(sum(int(r) * int(d) for r, d in zip(rec, delta)) % p for delta in diffs)
        for rec in records
    }
    assert len(first) == len(keys)
    assert (first[inverse] <= np.arange(len(records))).all()
    states = conditional_states(records, omega0, diffs, omega, p)
    np.testing.assert_allclose(states, states[first[inverse]], rtol=0, atol=1e-14)


def _single_rest_summaries(amp, zmeas):
    """numpy kernel and plain loop on a p = 3 support with one rest index and
    no overlap term, so only the record phase and the norm matter."""
    amp = np.asarray(amp, dtype=np.complex128)
    zmeas = np.asarray(zmeas, dtype=np.int64)
    args = (amp, zmeas, np.zeros(len(amp), dtype=np.int64), np.zeros(0, dtype=np.complex128),
            np.zeros(0, dtype=np.int64), np.zeros((0, 2), dtype=np.int64), 3)
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
