import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qnc.adversary import keep_and_send_phi0, measure_and_resend, random_isometry
from qnc.classical_code import ATTACKABLE_EDGES, ROW_EDGES, transfer_matrix
from qnc.protocol import (
    CODED_EDGES,
    ENTANGLED,
    ENUMERATION_CAP,
    GIVEN,
    MEASURED_EDGES,
    PADDED_EDGES,
    VARIANT_FULL,
    VARIANT_WEAK,
    EnumerationCapExceeded,
    ProtocolConfig,
    branch_table,
    enumerate_branches,
    ideal_output_state,
    output_fidelity,
    recovery_exponents,
    run,
    step1_initialize,
    step2_transmit,
    step3_measure,
    step4_recover,
    support,
    visible_edges,
    wire,
)


# -- configuration -----------------------------------------------------


def test_config_normalizes_keys():
    cfg = ProtocolConfig(p=3, b1=5, b2=(4, -1))
    assert cfg.b1 == 2
    assert cfg.b2 == (1, 2)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ProtocolConfig(p=4)
    with pytest.raises(ValueError):
        ProtocolConfig(p=3, variant="no_pad")
    with pytest.raises(ValueError):
        ProtocolConfig(p=3, input_mode="teleport")
    with pytest.raises(ValueError):
        ProtocolConfig(p=3, attack=keep_and_send_phi0(7, 5))
    with pytest.raises(ValueError):
        ProtocolConfig(p=3, input_mode=GIVEN)  # missing vectors
    with pytest.raises(ValueError):
        ProtocolConfig(
            p=3, input_mode=GIVEN, psi1=np.ones(3), psi2=np.array([1, 0, 0.0])
        )  # unnormalized
    with pytest.raises(ValueError):
        ProtocolConfig(p=3, psi1=np.array([1, 0, 0.0]))  # vectors without GIVEN


def test_wire_names():
    assert wire(5) == "H5"
    assert [wire(e) for e in PADDED_EDGES] == ["H10", "H11"]


# -- step 1 ------------------------------------------------------------


def test_step1_entangled_support():
    st = step1_initialize(ProtocolConfig(p=3))
    assert st.layout.names[:4] == ("ref1", "ref2", "H1", "H2")
    assert st.support_size == 9
    for (r1, r2, h1, h2, *rest), amp in st.amps.items():
        assert (r1, r2) == (h1, h2)
        assert all(v == 0 for v in rest)
        assert amp == pytest.approx(1 / 3)
    assert st.norm_squared() == pytest.approx(1.0)


def test_step1_entangled_p5():
    st = step1_initialize(ProtocolConfig(p=5))
    assert st.support_size == 25
    assert st.norm_squared() == pytest.approx(1.0)


def test_step1_given_inputs_sit_on_the_message_wires():
    psi1 = np.array([0, 1, 0.0])
    psi2 = np.array([1, 0, 0.0])
    st = step1_initialize(
        ProtocolConfig(p=3, input_mode=GIVEN, psi1=psi1, psi2=psi2)
    )
    assert st.layout.names[0] == "H1"
    assert st.amps == {(1, 0) + (0,) * 9: pytest.approx(1.0)}


# -- step 2 ------------------------------------------------------------


@pytest.mark.parametrize("b1", [0, 1, 2])
def test_step2_honest_state_matches_the_transfer_matrix(b1):
    """After transmission the support is exactly the matrix image, no phases."""
    p = 3
    st = step2_transmit(step1_initialize(ProtocolConfig(p=p, b1=b1)), ProtocolConfig(p=p, b1=b1))
    m = transfer_matrix(p)
    expected = {}
    for a1, a2 in itertools.product(range(p), repeat=2):
        z = m @ np.array([a1, a2, b1]) % p
        expected[(a1, a2) + tuple(int(v) for v in z)] = 1 / p
    assert set(st.amps) == set(expected)
    for key, amp in st.amps.items():
        assert amp == pytest.approx(expected[key], abs=1e-15)


def test_step2_keep_attack_support_and_env():
    cfg = ProtocolConfig(p=3, attack=keep_and_send_phi0(11, 3))
    st = step2_transmit(step1_initialize(cfg), cfg)
    assert st.layout.names[-1] == "E"
    assert st.layout.dim("E") == 3
    assert st.support_size == 27  # 9 honest points x 3 resent wire values


def test_step2_tap_sees_the_wire_before_downstream_reads():
    """A copying tap on edge 9 must record 2a1+2a2+2b1 on every branch."""
    cfg = ProtocolConfig(p=3, b1=2, attack=measure_and_resend(9, 3, "Z"))
    st = step2_transmit(step1_initialize(cfg), cfg)
    i_ref1 = st.layout.index("ref1")
    i_ref2 = st.layout.index("ref2")
    i_env = st.layout.index("E")
    for key in st.amps:
        expected = (2 * key[i_ref1] + 2 * key[i_ref2] + 2 * 2) % 3
        assert key[i_env] == expected


@given(
    p=st.sampled_from([3, 5]),
    edge=st.sampled_from(ATTACKABLE_EDGES),
    tap=st.sampled_from(["none", "haar", "keep-phi0"]),
    mode=st.sampled_from([ENTANGLED, GIVEN]),
    data=st.data(),
)
def test_support_equals_the_engine(p, edge, tap, mode, data):
    """``support``, built from the transfer matrices, holds the basis tuples
    and amplitudes of the literal engine's Steps 1-2, tuple for tuple."""
    b1 = data.draw(st.integers(0, p - 1), label="b1")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    attack = {
        "none": None,
        "keep-phi0": keep_and_send_phi0(edge, p),
        "haar": random_isometry(edge, p, data.draw(st.integers(1, p * p), label="d_env"), seed),
    }[tap]
    inputs = {}
    if mode == GIVEN:
        rng = np.random.default_rng(seed)
        for name in ("psi1", "psi2"):
            v = rng.normal(size=p) + 1j * rng.normal(size=p)
            inputs[name] = v / np.linalg.norm(v)
    cfg = ProtocolConfig(p=p, b1=b1, attack=attack, input_mode=mode, **inputs)
    sup = support(cfg, (b1,))
    # engine layout: (ref1, ref2) in entangled mode, the ROW_EDGES wires, then E
    columns = [sup.coords[:, :2]] if mode == ENTANGLED else []
    columns += [sup.values] + ([sup.coords[:, 3:4]] if attack is not None else [])
    keys = [tuple(int(v) for v in row) for row in np.hstack(columns)]
    engine = step2_transmit(step1_initialize(cfg), cfg).amps
    assert sorted(keys) == sorted(engine)
    for key, amp in zip(keys, sup.amp):
        assert abs(amp - engine[key]) <= 1e-13, key


# -- step 3 ------------------------------------------------------------


def test_step3_measures_exactly_the_nine_upstream_wires():
    cfg = ProtocolConfig(p=3, seed=0)
    st = step2_transmit(step1_initialize(cfg), cfg)
    final, outcomes, prob = step3_measure(st, cfg)
    assert set(outcomes) == set(MEASURED_EDGES)
    assert final.layout.names == ("ref1", "ref2", "H12", "H13")
    assert prob == pytest.approx(3.0**-9)


def test_step3_forced_outcomes_are_respected():
    cfg = ProtocolConfig(p=3)
    forced = dict(zip(MEASURED_EDGES, (2, 1, 0, 2, 1, 0, 2, 1, 0)))
    (leaf,) = enumerate_branches(cfg, forced=forced)
    assert leaf.outcomes == forced
    assert leaf.branch_probability == pytest.approx(3.0**-9)


def test_transcript_pad_and_eve_view():
    """The wiretapper sees every outcome but the padded ones: edges 10 and 11
    under the full pad, edge 11 alone under the weak pad."""
    outcomes = dict(zip(MEASURED_EDGES, (0, 1, 2, 0, 1, 2, 0, 1, 2)))
    assert outcomes[10] == 1 and outcomes[11] == 2
    full = tuple(outcomes[e] for e in visible_edges(VARIANT_FULL))
    assert full == (0, 1, 2, 0, 1, 2, 0)  # edges 10, 11 hidden
    weak = tuple(outcomes[e] for e in visible_edges(VARIANT_WEAK))
    assert weak == (0, 1, 2, 0, 1, 2, 0, 1)  # only edge 11 hidden


# -- step 4 ------------------------------------------------------------


def test_recovery_exponents_contract_the_message_columns():
    p = 3
    record = (1, 0, 2, 1, 0, 2, 1, 0, 2)
    m = transfer_matrix(p)
    r1 = sum(c * int(m[ROW_EDGES.index(e), 0]) for c, e in zip(record, MEASURED_EDGES)) % p
    r2 = sum(c * int(m[ROW_EDGES.index(e), 1]) for c, e in zip(record, MEASURED_EDGES)) % p
    assert recovery_exponents(p, dict(zip(MEASURED_EDGES, record))) == (r1, r2)


def test_zero_record_needs_no_correction():
    """The all-zero record's leaf is already corrected: applying its Step 4
    again leaves the state as it is."""
    cfg = ProtocolConfig(p=3)
    (leaf,) = enumerate_branches(cfg, forced={e: 0 for e in MEASURED_EDGES})
    assert recovery_exponents(3, leaf.outcomes) == (0, 0)
    final = leaf.final_state
    assert step4_recover(final, 3, leaf.outcomes).inner(final) == pytest.approx(final.norm_squared())
    assert leaf.fidelity == pytest.approx(1.0, abs=1e-12)


# -- full runs ---------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_honest_run_teleports_perfectly(p):
    for seed in range(5):
        cfg = ProtocolConfig(p=p, b1=seed % p, b2=(seed % p, (2 * seed) % p), seed=seed)
        res = run(cfg)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)
        assert res.branch_probability == pytest.approx(float(p) ** -9, abs=1e-12)


def test_run_is_seed_deterministic():
    cfg = ProtocolConfig(p=3, b1=1, seed=77)
    a, b = run(cfg), run(cfg)
    assert a.outcomes == b.outcomes
    assert a.final_state.amps == b.final_state.amps


def test_pad_choice_never_touches_the_quantum_state():
    """Runs differing only in b2 share outcomes, state and fidelity under
    either pad: the pad decides only which outcomes the wiretapper sees."""
    for variant in (VARIANT_FULL, VARIANT_WEAK):
        base = run(ProtocolConfig(p=3, b1=2, variant=variant, seed=5))
        for b2 in itertools.product(range(3), repeat=2):
            res = run(ProtocolConfig(p=3, b1=2, b2=b2, variant=variant, seed=5))
            assert res.outcomes == base.outcomes
            assert res.fidelity == pytest.approx(base.fidelity, abs=1e-14)
            assert res.final_state.inner(base.final_state) == pytest.approx(1.0)


def _golden_state(rng, p):
    v = rng.normal(size=p) + 1j * rng.normal(size=p)
    return v / np.linalg.norm(v)


_GOLDEN_GIVEN = np.random.default_rng(2024)
_GOLDEN_PSI = (_golden_state(_GOLDEN_GIVEN, 5), _golden_state(_GOLDEN_GIVEN, 5))

# Seeded run results recorded before the engine's one-pass measurement and
# unvalidated gate results: (config, announced record in MEASURED_EDGES
# order, branch probability, fidelity).  The records pin the sampled draws.
GOLDEN_RUNS = {
    "entangled-p3-s11": (
        ProtocolConfig(p=3, b1=1, b2=(2, 0), seed=11),
        (0, 2, 2, 0, 0, 1, 0, 0, 1), 5.080526342529093e-05, 0.9999999999999998,
    ),
    "entangled-p3-s12": (
        ProtocolConfig(p=3, b1=1, b2=(2, 0), seed=12),
        (0, 1, 0, 0, 2, 0, 1, 0, 1), 5.080526342529092e-05, 1.0,
    ),
    "given-p5-s21": (
        ProtocolConfig(p=5, b1=3, b2=(1, 4), input_mode=GIVEN, psi1=_GOLDEN_PSI[0],
                       psi2=_GOLDEN_PSI[1], seed=21),
        (2, 2, 2, 0, 2, 1, 3, 0, 1), 5.119999999999999e-07, 1.0,
    ),
    "given-p5-s22": (
        ProtocolConfig(p=5, b1=3, b2=(1, 4), input_mode=GIVEN, psi1=_GOLDEN_PSI[0],
                       psi2=_GOLDEN_PSI[1], seed=22),
        (4, 0, 0, 2, 3, 1, 1, 1, 0), 5.119999999999997e-07, 0.9999999999999998,
    ),
    "keep-phi0-e11-s31": (
        ProtocolConfig(p=3, b1=2, attack=keep_and_send_phi0(11, 3), variant=VARIANT_WEAK, seed=31),
        (1, 0, 1, 2, 1, 0, 0, 0, 1), 5.0805263425290904e-05, 0.11111111111111109,
    ),
    "keep-phi0-e11-s32": (
        ProtocolConfig(p=3, b1=2, attack=keep_and_send_phi0(11, 3), variant=VARIANT_WEAK, seed=32),
        (0, 2, 2, 0, 1, 1, 1, 1, 1), 5.080526342529089e-05, 0.1111111111111111,
    ),
    "haar-e7-s41": (
        ProtocolConfig(p=3, attack=random_isometry(7, 3, 3, seed=5), seed=41),
        (1, 1, 0, 1, 1, 2, 2, 2, 2), 5.0805263425291e-05, 0.09968009517947034,
    ),
    "haar-e7-s42": (
        ProtocolConfig(p=3, attack=random_isometry(7, 3, 3, seed=5), seed=42),
        (1, 2, 1, 1, 0, 1, 1, 1, 0), 5.080526342529101e-05, 0.09968009517947045,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_seeded_run_matches_its_recorded_result(name):
    cfg, record, probability, fidelity = GOLDEN_RUNS[name]
    res = run(cfg)
    assert tuple(res.outcomes[e] for e in MEASURED_EDGES) == record
    assert res.branch_probability == pytest.approx(probability, rel=1e-12)
    assert res.fidelity == pytest.approx(fidelity, abs=1e-12)


def test_attacked_run_keeps_an_environment():
    cfg = ProtocolConfig(p=3, attack=keep_and_send_phi0(11, 3), seed=3)
    res = run(cfg)
    assert "E" in res.final_state.layout.names
    assert res.fidelity == pytest.approx(1 / 9, abs=1e-10)


def test_given_mode_run():
    psi1 = np.array([1, 1j, 0]) / np.sqrt(2)
    psi2 = np.array([0, 1, 0.0])
    cfg = ProtocolConfig(p=3, input_mode=GIVEN, psi1=psi1, psi2=psi2, seed=8, b1=1)
    res = run(cfg)
    assert res.fidelity == pytest.approx(1.0, abs=1e-12)


def test_ideal_output_state_shapes():
    ent = ideal_output_state(ProtocolConfig(p=3))
    assert ent.layout.names == ("ref1", "ref2", "H12", "H13")
    assert ent.amps[(1, 2, 1, 2)] == pytest.approx(1 / 3)
    psi1 = np.array([0, 0, 1.0])
    psi2 = np.array([0, 1, 0.0])
    giv = ideal_output_state(
        ProtocolConfig(p=3, input_mode=GIVEN, psi1=psi1, psi2=psi2)
    )
    assert giv.amps == {(2, 1): pytest.approx(1.0)}


# -- branch enumeration ------------------------------------------------


def forced_except(free, record=(2, 0, 1, 1, 0, 2, 0, 1, 2)):
    """Announced outcomes pinned on every measured edge outside ``free``."""
    return {e: c for e, c in zip(MEASURED_EDGES, record) if e not in free}


def test_enumeration_over_a_subset_is_exhaustive_and_normalized():
    """Six edges forced, three enumerated: 27 leaves whose weights add up to
    the forced outcomes' probability, 3^-6, as every record is equally likely."""
    cfg = ProtocolConfig(p=3, seed=0)
    results = list(enumerate_branches(cfg, forced=forced_except((5, 6, 7))))
    assert len(results) == 27
    assert len({tuple(r.outcomes.values()) for r in results}) == 27
    assert sum(r.branch_probability for r in results) == pytest.approx(3.0**-6)
    assert all(r.fidelity == pytest.approx(1.0, abs=1e-12) for r in results)


def test_enumeration_given_mode_probabilities_sum_to_one():
    """Given inputs: the 27 leaves over edges 1, 2 and 5 carry 3^-6, so the
    3^6 choices of the forced outcomes sum to one."""
    psi1 = np.array([1, -1, 1]) / np.sqrt(3)
    psi2 = np.array([1, 1j, 0]) / np.sqrt(2)
    cfg = ProtocolConfig(p=3, input_mode=GIVEN, psi1=psi1, psi2=psi2, b1=2, seed=1)
    results = list(enumerate_branches(cfg, forced=forced_except((1, 2, 5))))
    assert len(results) == 27
    assert sum(r.branch_probability for r in results) == pytest.approx(3.0**-6)
    assert all(r.fidelity == pytest.approx(1.0, abs=1e-12) for r in results)


def test_every_record_stays_possible():
    """No announced record ever has zero probability, honest or attacked.

    The downstream adders re-spread each wire before it is measured, so
    even a tap that resends a fixed Fourier state cannot pin an outcome.
    """
    for cfg in (
        ProtocolConfig(p=3, b1=1),
        ProtocolConfig(p=3, attack=keep_and_send_phi0(11, 3)),
        ProtocolConfig(
            p=3,
            input_mode=GIVEN,
            psi1=np.array([1, 0, 0.0]),
            psi2=np.array([0, 1, 0.0]),
            attack=measure_and_resend(5, 3, "Z"),
        ),
    ):
        probs, _ = branch_table(cfg)
        assert float(probs.min()) > 1e-15
        assert probs.sum() == pytest.approx(1.0)


def test_enumeration_cap_and_edge_validation():
    with pytest.raises(EnumerationCapExceeded):
        next(enumerate_branches(ProtocolConfig(p=5)))
    assert 5**9 > ENUMERATION_CAP
    with pytest.raises(ValueError):
        next(enumerate_branches(ProtocolConfig(p=3), forced={12: 0}))


@pytest.mark.parametrize("announced", [3, 5, -1])
def test_forced_outcome_outside_the_field_is_refused(announced):
    """An announced outcome is a digit in [0, p), as ``SecurityReport`` reads
    records; 5 would otherwise be measured as 5 mod 3 but recorded as 5."""
    with pytest.raises(ValueError, match=rf"outcome {announced} on edge 1 is outside \[0, 3\)"):
        next(enumerate_branches(ProtocolConfig(p=3), forced={1: announced}))


def test_forced_edges_pin_single_branches():
    cfg = ProtocolConfig(p=3, seed=0)
    record = (2, 0, 1, 1, 0, 2, 0, 1, 2)
    results = list(enumerate_branches(cfg, forced=dict(zip(MEASURED_EDGES, record))))
    assert len(results) == 1
    assert results[0].outcomes == dict(zip(MEASURED_EDGES, record))
    assert results[0].branch_probability == pytest.approx(3.0**-9)


# -- vectorized branch table ------------------------------------------


def test_branch_table_honest_is_flat():
    probs, fids = branch_table(ProtocolConfig(p=3, b1=1))
    assert probs.shape == (3**9,)
    np.testing.assert_allclose(probs, 3.0**-9, atol=1e-15)
    np.testing.assert_allclose(fids, 1.0, atol=1e-10)


@pytest.mark.parametrize(
    "cfg",
    [
        ProtocolConfig(p=3, b1=2),
        ProtocolConfig(p=3, b1=1, attack=keep_and_send_phi0(7, 3)),
        ProtocolConfig(p=3, attack=random_isometry(9, 3, 3, seed=12)),
        ProtocolConfig(
            p=3,
            b1=1,
            input_mode=GIVEN,
            psi1=np.array([1, 1, 1]) / np.sqrt(3),
            psi2=np.array([1, 1j, -1]) / np.sqrt(3),
        ),
    ],
    ids=["honest", "keep-e7", "haar-e9", "given"],
)
def test_branch_table_matches_the_generator_on_spot_records(cfg):
    """Pin full records and compare kernel rows against the slow path."""
    probs, fids = branch_table(cfg)
    rng = np.random.default_rng(99)
    for _ in range(6):
        record = tuple(int(v) for v in rng.integers(0, 3, size=9))
        idx = 0
        for digit in record:
            idx = idx * 3 + digit
        leaves = list(
            enumerate_branches(cfg, forced=dict(zip(MEASURED_EDGES, record)))
        )
        if probs[idx] < 1e-15:
            assert leaves == []
            continue
        (leaf,) = leaves
        assert leaf.branch_probability == pytest.approx(float(probs[idx]), abs=1e-12)
        assert leaf.fidelity == pytest.approx(float(fids[idx]), abs=1e-10)


def test_output_fidelity_requires_matching_mode():
    cfg = ProtocolConfig(p=3)
    st = ideal_output_state(cfg)
    assert output_fidelity(st, cfg, st) == pytest.approx(1.0)
