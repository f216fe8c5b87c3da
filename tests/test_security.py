import itertools

import numpy as np
import pytest

from dense_ref import validate_density
from kernel_ref import record_index
from qnc import security
from qnc.adversary import (
    identity_forward,
    keep_and_send_phi0,
    measure_and_resend,
    random_isometry,
)
from qnc.classical_code import ATTACKABLE_EDGES, ROW_EDGES, transfer_matrix
from qnc.cli import csv_row
from qnc.engine import trace_distance
from qnc.kernels import record_digits
from qnc.protocol import (
    GIVEN,
    MEASURED_EDGES,
    VARIANT_FULL,
    VARIANT_WEAK,
    ProtocolConfig,
    branch_table,
    enumerate_branches,
    step1_initialize,
    step2_transmit,
    support,
)
from qnc.security import (
    SecurityReport,
    analyze,
    attacked_fidelity,
    expected_environment_state,
    verify_independence,
    visible_edges,
)


def keep11_weak():
    return ProtocolConfig(
        p=3, attack=keep_and_send_phi0(11, 3), variant=VARIANT_WEAK
    )


# -- plumbing ----------------------------------------------------------


def test_visible_edges_by_variant():
    assert visible_edges(VARIANT_FULL) == (1, 2, 5, 6, 7, 8, 9)
    assert visible_edges(VARIANT_WEAK) == (1, 2, 5, 6, 7, 8, 9, 10)
    with pytest.raises(ValueError):
        visible_edges("unpadded")


def test_analyze_requires_attack_and_entangled_inputs():
    """Also the support's key set: a repeated key would add its branches
    coherently."""
    with pytest.raises(ValueError):
        analyze(ProtocolConfig(p=3))
    cfg = ProtocolConfig(p=3, attack=identity_forward(7, 3))
    for keys in ((), (0, 3), (1, 1)):
        with pytest.raises(ValueError, match="distinct keys"):
            support(cfg, keys)
    with pytest.raises(ValueError):
        analyze(
            ProtocolConfig(
                p=3,
                input_mode=GIVEN,
                psi1=np.array([1, 0, 0.0]),
                psi2=np.array([1, 0, 0.0]),
                attack=identity_forward(7, 3),
            )
        )


def test_expected_environment_state_is_normalized_total_leak():
    spec = keep_and_send_phi0(7, 3)
    sigma = expected_environment_state(spec)
    np.testing.assert_allclose(sigma, np.eye(3) / 3, atol=1e-14)
    assert np.trace(sigma).real == pytest.approx(1.0)


# -- secure configurations --------------------------------------------


@pytest.mark.parametrize(
    "attack",
    [
        identity_forward(5, 3),
        keep_and_send_phi0(11, 3),
        measure_and_resend(7, 3, "Z"),
        measure_and_resend(9, 3, "X"),
        random_isometry(6, 3, 9, seed=31),
        random_isometry(8, 3, 1, seed=32),
    ],
    ids=lambda a: f"{a.label}-e{a.edge}",
)
def test_full_pad_is_secure_for_every_attack_style(attack):
    report = analyze(ProtocolConfig(p=3, attack=attack), with_fidelity=False)
    ok, failures = verify_independence(report)
    assert ok, failures
    assert report.exhaustive and report.n_records == 3**7
    assert report.probability_total == pytest.approx(1.0, abs=1e-9)
    assert report.product_deviation <= 1e-9
    assert report.reference_deviation_from_maximally_mixed <= 1e-9
    assert report.record_uniformity <= 1e-9
    assert report.sigma_sum_match <= 1e-9
    validate_density(report.anchor_conditional)
    validate_density(report.conditional(report.worst_record))


def test_secure_conditionals_equal_the_product_form_exactly():
    attack = random_isometry(7, 3, 3, seed=8)
    report = analyze(ProtocolConfig(p=3, attack=attack), with_fidelity=False)
    expected = np.kron(np.eye(9) / 9, expected_environment_state(report.attack))
    for record in [(0,) * 7, (1, 2, 0, 1, 2, 0, 1), (2, 2, 2, 2, 2, 2, 2)]:
        rho = report.conditional(record)
        assert trace_distance(rho.matrix, expected) <= 1e-10


def test_record_probabilities_are_uniform_under_full_pad():
    report = analyze(
        ProtocolConfig(p=3, attack=measure_and_resend(9, 3, "Z")), with_fidelity=False
    )
    for record in [(0,) * 7, (2, 0, 1, 0, 2, 1, 0)]:
        assert report.record_probability(record) == pytest.approx(3.0**-7, abs=1e-12)


# -- the weak-pad counterexample --------------------------------------


def test_weak_pad_keep_attack_is_flagged():
    report = analyze(keep11_weak(), with_fidelity=False)
    ok, failures = verify_independence(report)
    assert not ok
    assert report.n_records == 3**8
    assert failures
    assert report.product_deviation == pytest.approx(2 / 3, abs=1e-12)


def test_weak_pad_deviation_is_record_independent():
    """Announcements only twist phases Eve can undo locally."""
    report = analyze(keep11_weak(), with_fidelity=False)
    expected = np.kron(np.eye(9) / 9, expected_environment_state(report.attack))
    rng = np.random.default_rng(3)
    for _ in range(4):
        record = tuple(int(v) for v in rng.integers(0, 3, size=8))
        rho = report.conditional(record)
        assert trace_distance(rho.matrix, expected) == pytest.approx(2 / 3, abs=1e-12)


def test_weak_pad_reference_marginal_is_still_uniform():
    """The leak correlates Eve with the refs jointly, not refs alone."""
    report = analyze(keep11_weak(), with_fidelity=False)
    assert report.reference_deviation_from_maximally_mixed <= 1e-10
    assert report.record_uniformity <= 1e-10


def keep11_weak_anchor(p):
    """The joint (ref1, ref2, env) state of the weak-pad keep-phi0 tap on
    edge 11 at the all-zero record, built by hand: the kept wire holds
    2(a1 + a2 + b1), the edge-11 row of the transfer matrix, and each
    (a1, a1', a2, b1) entry has weight p^-3."""
    anchor = np.zeros((p**3, p**3), dtype=complex)
    for a1, a1p, a2, b1 in itertools.product(range(p), repeat=4):
        e = 2 * (a1 + a2 + b1) % p
        ep = 2 * (a1p + a2 + b1) % p
        anchor[(a1 * p + a2) * p + e, (a1p * p + a2) * p + ep] += p**-3.0
    return anchor


@pytest.mark.parametrize("p", [5, 7])
def test_weak_pad_keep_attack_is_frozen_at_larger_p(p):
    """The frozen negative control beyond p = 3, where 2, 1/2 and -1 are all
    the same residue, so a slip between them cannot show.

    Deviation: with s = 2(a2 + b1), which runs over F_p as b1 does, the
    anchor is (I/p on ref2) x sigma, sigma = p^-1 sum_s |phi_s><phi_s| with
    phi_s = p^-1/2 sum_a1 |a1, 2 a1 + s>.  The phi_s are orthonormal, so
    sigma has p eigenvalues 1/p, and both its marginals are I/p.  Its
    distance to the product I/p^2 is
    1/2 [p (1/p - 1/p^2) + (p^2 - p) / p^2] = (p - 1)/p.

    Fidelity: edge 11 does not reach sink 2, so ref2's pair survives.  The
    environment's copy of 2(a1 + a2 + b1), with ref2 traced, removes every
    coherence of ref1 between distinct a1, and the resent |phi0> leaves
    sink 1 uniform in the computational basis, so ref1 and sink 1 meet the
    maximally entangled state with weight 1/p * 1/p: fidelity 1/p^2.
    """
    report = analyze(
        ProtocolConfig(p=p, attack=keep_and_send_phi0(11, p), variant=VARIANT_WEAK), n_samples=512
    )
    verdict, _ = verify_independence(report, tol=1e-9)
    anchor = keep11_weak_anchor(p)
    blocks = anchor.reshape(p * p, p, p * p, p)
    ref_marginal = np.einsum("iaja->ij", blocks)
    env_marginal = np.einsum("iaib->ab", blocks)
    frozen = trace_distance(anchor, np.kron(ref_marginal, env_marginal))
    assert not verdict
    assert np.abs(report.anchor_conditional.matrix - anchor).max() <= 1e-10
    assert report.product_deviation == pytest.approx((p - 1) / p, abs=1e-9)
    assert report.output_fidelity_under_attack == pytest.approx(p**-2.0, abs=1e-9)
    assert frozen == pytest.approx((p - 1) / p, abs=1e-12)


# -- exact deviations per record class ---------------------------------


WEAK_EDGE11_TAPS = [keep_and_send_phi0(11, 3), random_isometry(11, 3, 3, seed=5)]


@pytest.mark.parametrize("attack", WEAK_EDGE11_TAPS, ids=lambda a: a.label)
def test_weak_pad_deviation_is_the_maximum_over_every_record(attack):
    """Brute force over all 3^8 records, one batched eigvalsh per slice: the
    largest trace distance from the product form is the reported deviation,
    and the reported worst record reaches it."""
    cfg = ProtocolConfig(p=3, attack=attack, variant=VARIANT_WEAK)
    report = analyze(cfg, with_fidelity=False)
    expected = np.kron(np.eye(9) / 9, expected_environment_state(attack))
    devs = []
    for lo in range(0, 3**8, 729):
        rho = report._spectrum.states(record_digits(3, 8, lo, lo + 729))
        rho /= np.einsum("bii->b", rho).real[:, None, None]
        devs.append(0.5 * np.abs(np.linalg.eigvalsh(rho - expected)).sum(axis=1))
    devs = np.concatenate(devs)
    assert report.product_deviation == pytest.approx(devs.max(), abs=1e-12)
    assert devs[record_index(report.worst_record, 3)] == pytest.approx(devs.max(), abs=1e-12)


def test_each_record_is_evaluated_once(monkeypatch):
    """One state per announced record and one per class: no record is
    rebuilt on its own, and no conditional is built before it is asked for."""
    evaluated = []
    kernel = security.conditional_states

    def counting(records, *args):
        evaluated.append(len(records))
        return kernel(records, *args)

    monkeypatch.setattr(security, "conditional_states", counting)
    cfg = ProtocolConfig(p=3, attack=random_isometry(11, 3, 3, seed=5), variant=VARIANT_WEAK)
    report = analyze(cfg, with_fidelity=False)
    assert sum(evaluated) <= 3**8 + report.record_classes


def test_record_classes_are_reported():
    full_pad = ProtocolConfig(p=3, attack=random_isometry(9, 3, 3, seed=2))
    full = analyze(full_pad, with_fidelity=False)
    weak = analyze(keep11_weak(), with_fidelity=False)
    assert (full.record_classes, weak.record_classes) == (1, 3)
    assert (full.to_json()["record_classes"], weak.to_json()["record_classes"]) == (1, 3)


# -- a known key -----------------------------------------------------


def test_known_key_breaks_security(monkeypatch):
    """Pinning b1 lets a copying tap on edge 7 read a1 through z7 = a1 + b1."""
    monkeypatch.setattr(security, "support", lambda config: support(config, (0,)))
    cfg = ProtocolConfig(p=3, attack=measure_and_resend(7, 3, "Z"))
    report = analyze(cfg, with_fidelity=False)
    ok, _ = verify_independence(report)
    assert not ok
    assert report.product_deviation == pytest.approx(2 / 3, abs=1e-9)
    # the reference marginal alone still looks clean; the joint state leaks
    assert report.reference_deviation_from_maximally_mixed <= 1e-9


# -- sampled mode ------------------------------------------------------


def test_sampling_mode_agrees_with_exhaustive():
    cfg = keep11_weak()
    full = analyze(cfg, with_fidelity=False)
    sampled = analyze(cfg, n_samples=150, sample_seed=7, with_fidelity=False)
    assert not sampled.exhaustive and sampled.n_records == 150
    assert sampled.product_deviation == pytest.approx(full.product_deviation, abs=1e-9)
    assert verify_independence(sampled)[0] == verify_independence(full)[0]
    np.testing.assert_allclose(
        sampled.anchor_conditional.matrix, full.anchor_conditional.matrix, atol=1e-12
    )


# -- report object -----------------------------------------------------


def test_report_serialization():
    report = analyze(ProtocolConfig(p=3, attack=identity_forward(5, 3)))
    blob = report.to_json()
    for key in (
        "p",
        "variant",
        "attack",
        "record_edges",
        "product_deviation",
        "output_fidelity_under_attack",
        "worst_record",
    ):
        assert key in blob
    assert blob["output_fidelity_under_attack"] == pytest.approx(1.0)
    # a named attack is written as its matrix, a Haar one as its seed
    assert "isometry" in blob["attack"] and "seed" not in blob["attack"]
    haar = random_isometry(7, 3, 9, seed=55).to_json()
    assert haar["seed"] == 55 and "isometry" not in haar
    row = csv_row(report, tol=1e-9)
    assert row["verdict"] == "secure"
    assert row["edge"] == 5 and row["attack"] == "identity"
    assert len(row["worst_record"]) == 7


def test_anchor_conditional_is_the_all_zero_record_on_access():
    """The anchor is the all-zero record's conditional, computed when read;
    on the weak-pad keep tap the all-one record lies in another class."""
    report = analyze(keep11_weak(), with_fidelity=False)
    zero = report.conditional((0,) * len(report.record_edges))
    np.testing.assert_array_equal(report.anchor_conditional.matrix, zero.matrix)
    assert report.anchor_conditional.layout == zero.layout


def test_conditional_rejects_malformed_records():
    report = analyze(ProtocolConfig(p=3, attack=identity_forward(5, 3)), with_fidelity=False)
    with pytest.raises(ValueError):
        report.conditional((0, 0))


@pytest.mark.parametrize(
    "record",
    [(0,), (0,) * 12, (0, 0, 0, 0, 0, 0, 7), (0, 0, 0, 0, 0, 0, -1)],
    ids=["short", "long", "digit-above-p", "negative-digit"],
)
def test_record_probability_and_conditional_check_the_record(record):
    """A record needs one digit in [0, p) per visible edge: a short or long
    one, or a digit outside the field, is refused rather than reduced mod p
    or broadcast into some other record's probability."""
    report = analyze(ProtocolConfig(p=3, attack=identity_forward(5, 3)), with_fidelity=False)
    assert report.record_probability((0,) * 7) == pytest.approx(3.0**-7)
    for method in (report.record_probability, report.conditional):
        with pytest.raises(ValueError, match=r"7 digits in \[0, 3\)"):
            method(record)


def test_verify_with_huge_tolerance_is_vacuous():
    report = analyze(keep11_weak(), with_fidelity=False)
    ok, _ = verify_independence(report, tol=2.0)
    assert ok


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_verify_refuses_a_tolerance_outside_its_domain(tol):
    """Every comparison with NaN is False, so NaN would pass the frozen
    counterexample as secure; inf would too, and a negative bound fails all."""
    report = analyze(keep11_weak(), with_fidelity=False)
    with pytest.raises(ValueError, match="finite number >= 0"):
        verify_independence(report, tol)


# -- attacked output fidelity -----------------------------------------


def test_attacked_fidelity_identity_is_perfect():
    cfg = ProtocolConfig(p=3, attack=identity_forward(9, 3))
    assert attacked_fidelity(cfg) == pytest.approx(1.0, abs=1e-12)


def test_attacked_fidelity_known_values():
    assert attacked_fidelity(
        ProtocolConfig(p=3, attack=keep_and_send_phi0(11, 3))
    ) == pytest.approx(1 / 9, abs=1e-10)
    mz = attacked_fidelity(ProtocolConfig(p=3, attack=measure_and_resend(7, 3, "Z")))
    assert mz < 0.9


def test_attacked_fidelity_matches_branch_average():
    """Closed form vs the full per-branch table, averaged over the key.  Both
    sides read ``protocol.overlap_terms``, so this checks the key average and
    the W_0 reduction; the terms themselves are checked against the literal
    enumeration in ``test_kernels.py``."""
    cases = (
        (3, keep_and_send_phi0(11, 3), VARIANT_FULL, 1e-10),
        (3, random_isometry(7, 3, 3, seed=5), VARIANT_FULL, 1e-10),
        (5, random_isometry(7, 5, seed=3), VARIANT_FULL, 1e-12),
        (3, random_isometry(11, 3, 3, seed=5), VARIANT_WEAK, 1e-12),
        (5, random_isometry(11, 5, 5, seed=9), VARIANT_WEAK, 1e-12),
    )
    for p, attack, variant, tol in cases:
        cfg = ProtocolConfig(p=p, attack=attack, variant=variant)
        acc = 0.0
        for b1 in range(p):
            probs, fids = branch_table(
                ProtocolConfig(p=p, b1=b1, attack=attack, variant=variant)
            )
            acc += float(probs @ fids) / p
        assert attacked_fidelity(cfg) == pytest.approx(acc, abs=tol), (p, attack.label)


# -- reconstruction against the transfer matrices ----------------------


def expected_attacked_support(p, b1, attack):
    """Support of the post-transmission state, built only from the attacked
    transfer matrix and the isometry columns, never from the engine."""
    honest = transfer_matrix(p)
    attacked = transfer_matrix(p, attack.edge)
    amps = {}
    for a1, a2 in itertools.product(range(p), repeat=2):
        z_tap = int(honest[ROW_EDGES.index(attack.edge)] @ np.array([a1, a2, b1])) % p
        col = attack.isometry[:, z_tap]
        for flat in np.flatnonzero(np.abs(col) > 1e-14):
            e, x = divmod(int(flat), p)
            vec = np.array([a1, a2, b1, x])
            key = (a1, a2) + tuple(int(v) for v in attacked @ vec % p) + (e,)
            amps[key] = amps.get(key, 0.0) + col[flat] / p
    return amps


@pytest.mark.parametrize("edge", ATTACKABLE_EDGES)
@pytest.mark.parametrize("b1", [0, 2])
def test_transmitted_state_matches_the_attacked_matrix(edge, b1):
    """Amplitude-exact: simulated transmission equals the matrix picture."""
    attack = keep_and_send_phi0(edge, 3)
    cfg = ProtocolConfig(p=3, b1=b1, attack=attack)
    sim = step2_transmit(step1_initialize(cfg), cfg)
    expected = expected_attacked_support(3, b1, attack)
    assert set(sim.amps) == set(expected)
    for key, amp in expected.items():
        assert sim.amps[key] == pytest.approx(amp, abs=1e-13)


@pytest.mark.parametrize("edge", [5, 9, 11])
def test_transmitted_state_matches_for_generic_attacks(edge):
    attack = random_isometry(edge, 3, 3, seed=edge)
    cfg = ProtocolConfig(p=3, b1=1, attack=attack)
    sim = step2_transmit(step1_initialize(cfg), cfg)
    expected = expected_attacked_support(3, 1, attack)
    for key in set(sim.amps) | set(expected):
        assert sim.amps.get(key, 0.0) == pytest.approx(
            expected.get(key, 0.0), abs=1e-12
        )


def sparse_reduced_elements(points, traced_slice, kept_slice):
    """Group support points by traced values; accumulate kept-pair weights."""
    groups = {}
    for key, amp in points.items():
        groups.setdefault(traced_slice(key), []).append((kept_slice(key), amp))
    rho = {}
    for members in groups.values():
        for (ki, ai), (kj, aj) in itertools.product(members, repeat=2):
            rho[(ki, kj)] = rho.get((ki, kj), 0.0) + ai * np.conj(aj)
    return rho


@pytest.mark.parametrize("edge", [6, 9, 10])
def test_pre_measurement_reduction_matches_the_matrix_picture(edge):
    """Trace the sink wires out of both the simulated and the matrix-built
    state; the sparse reduced operators must agree element-wise."""
    p, b1 = 3, 1
    attack = random_isometry(edge, p, p, seed=40 + edge)
    cfg = ProtocolConfig(p=p, b1=b1, attack=attack)
    sim = step2_transmit(step1_initialize(cfg), cfg)
    names = sim.layout.names
    sink = {names.index(f"H{e}") for e in (10, 11, 12, 13)}
    keep_idx = [i for i in range(len(names)) if i not in sink]

    def traced(key):
        return tuple(key[i] for i in sorted(sink))

    def kept(key):
        return tuple(key[i] for i in keep_idx)

    rho_sim = sparse_reduced_elements(sim.amps, traced, kept)
    rho_ref = sparse_reduced_elements(
        expected_attacked_support(p, b1, attack), traced, kept
    )
    assert set(rho_sim) == set(rho_ref)
    for pair, val in rho_ref.items():
        assert rho_sim[pair] == pytest.approx(val, abs=1e-12)


# -- recovery corrections cannot affect the verdict --------------------


def conditional_by_protocol(cfg_template, forced, keys=(0, 1, 2)):
    """Aggregate Eve-visible conditionals by running the actual protocol,
    recovery step included, then tracing to (ref1, ref2, E)."""
    acc: dict = {}
    prob: dict = {}
    for b1 in keys:
        cfg = ProtocolConfig(
            p=cfg_template.p,
            b1=b1,
            attack=cfg_template.attack,
            variant=cfg_template.variant,
        )
        for res in enumerate_branches(cfg, forced=forced):
            rec = tuple(res.outcomes[e] for e in visible_edges(cfg.variant))
            rho = res.final_state.partial_trace(["ref1", "ref2", "E"]).matrix
            weight = res.branch_probability / len(keys)
            acc[rec] = acc.get(rec, 0.0) + weight * rho
            prob[rec] = prob.get(rec, 0.0) + weight
    return {rec: acc[rec] / prob[rec] for rec in acc}, prob


def test_analysis_matches_the_full_protocol_with_recovery_applied():
    """The analyzer skips Step 4; the generator applies it.  Conditionals
    and record weights must agree anyway."""
    cfg = ProtocolConfig(p=3, attack=identity_forward(7, 3))
    report = analyze(cfg, with_fidelity=False)
    forced = {1: 0, 2: 0}
    rhos, probs = conditional_by_protocol(cfg, forced)
    assert len(rhos) == 3**5
    for rec in itertools.islice(rhos, 0, None, 37):
        np.testing.assert_allclose(
            rhos[rec], report.conditional(rec).matrix, atol=1e-10
        )
        assert probs[rec] == pytest.approx(report.record_probability(rec), abs=1e-12)


def test_analysis_matches_protocol_spot_records_with_attack():
    """Pin the seven visible outcomes, branch over the two hidden ones.

    Only the hidden outcomes may be summed out: conditioning on them
    instead would keep coherences the wiretapper never sees.
    """
    cfg = ProtocolConfig(p=3, attack=keep_and_send_phi0(5, 3))
    report = analyze(cfg, with_fidelity=False)
    visible = [e for e in MEASURED_EDGES if e not in (10, 11)]
    rng = np.random.default_rng(17)
    for _ in range(4):
        rec = tuple(int(v) for v in rng.integers(0, 3, size=7))
        forced = dict(zip(visible, rec))
        rhos, probs = conditional_by_protocol(cfg, forced)
        assert set(rhos) == {rec}
        np.testing.assert_allclose(
            rhos[rec], report.conditional(rec).matrix, atol=1e-10
        )
        assert probs[rec] == pytest.approx(report.record_probability(rec), abs=1e-12)


def test_analysis_matches_protocol_spot_records_under_weak_pad_haar():
    """The weak pad leaves edge 10 visible, so a Haar tap on edge 11 gives the
    conditional states non-zero record differences; pin the eight visible
    outcomes and branch over edge 11 alone."""
    cfg = ProtocolConfig(
        p=3, attack=random_isometry(11, 3, 3, seed=5), variant=VARIANT_WEAK
    )
    report = analyze(cfg, with_fidelity=False)
    assert len(report._spectrum.diffs) > 0
    visible = visible_edges(VARIANT_WEAK)
    rng = np.random.default_rng(23)
    for _ in range(4):
        rec = tuple(int(v) for v in rng.integers(0, 3, size=len(visible)))
        rhos, probs = conditional_by_protocol(cfg, dict(zip(visible, rec)))
        assert set(rhos) == {rec}
        np.testing.assert_allclose(
            rhos[rec], report.conditional(rec).matrix, atol=1e-10
        )
        assert probs[rec] == pytest.approx(report.record_probability(rec), abs=1e-12)
