"""Acceptance gate: one test per headline guarantee of the package.

Each test computes its verdict first, prints a single PASS/FAIL line through
the ``announce`` fixture, then asserts, so a red run still reports every
criterion.  Stated runtime budgets are asserted alongside the tolerances.
"""

import itertools
import time

import numpy as np

from dense_ref import channel_block, random_circuit_comparison
from flow_ref import flow_values
from qnc.adversary import (
    AttackSpec,
    keep_and_send_phi0,
    measure_and_resend,
    random_isometry,
)
from qnc.classical_code import (
    ATTACKABLE_EDGES,
    ROW_EDGES,
    classical_secrecy_check,
    key_coefficient,
    recovery_check,
    transfer_matrix,
)
from qnc.engine import trace_distance
from qnc.protocol import (
    VARIANT_WEAK,
    ProtocolConfig,
    branch_table,
    enumerate_branches,
    run,
)
from qnc.security import analyze, verify_independence

HAAR_PER_EDGE = 20
ENV_DIM_CYCLE = (1, 3, 9)


def attack_suite(p: int = 3) -> list[AttackSpec]:
    """The sweep used by the security criteria: per edge, 20 seeded random
    isometries with cycling environment size plus the three named attacks."""
    suite = []
    for edge in ATTACKABLE_EDGES:
        for i in range(HAAR_PER_EDGE):
            d_env = ENV_DIM_CYCLE[i % len(ENV_DIM_CYCLE)]
            suite.append(random_isometry(edge, p, d_env, seed=1000 * edge + i))
        suite.append(keep_and_send_phi0(edge, p))
        suite.append(measure_and_resend(edge, p, "Z"))
        suite.append(measure_and_resend(edge, p, "X"))
    return suite


def test_criterion_1_honest_runs_reach_perfect_fidelity(announce):
    branch_table(ProtocolConfig(p=3))  # warm the kernels outside the budget
    t0 = time.perf_counter()
    worst = 0.0

    # every announced-outcome branch, for every key value, via the kernels
    for b1 in range(3):
        probs, fids = branch_table(ProtocolConfig(p=3, b1=b1))
        assert probs.shape == (3**9,)
        worst = max(worst, abs(probs.sum() - 1.0), float(np.abs(fids - 1.0).max()))

    # the same sweep once more through the literal step-by-step path
    total_prob = 0.0
    for leaf in enumerate_branches(ProtocolConfig(p=3)):
        total_prob += leaf.branch_probability
        worst = max(worst, abs(leaf.fidelity - 1.0))
    worst = max(worst, abs(total_prob - 1.0))

    # seeded sampled runs covering every (key, pad) combination
    rng = np.random.default_rng(10)
    samples = 0
    for p, reps in ((3, 4), (5, 1)):
        for b1 in range(p):
            for b2 in itertools.product(range(p), repeat=2):
                for _ in range(reps):
                    res = run(ProtocolConfig(p=p, b1=b1, b2=b2, seed=int(rng.integers(2**63 - 1))))
                    worst = max(worst, abs(res.fidelity - 1.0))
                    samples += 1
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-10 and elapsed < 10.0
    announce(
        f"{'PASS' if ok else 'FAIL'} criterion 1: honest fidelity within "
        f"{worst:.1e} of 1 over 3x3^9 enumerated branches and {samples} "
        f"sampled runs at p in (3, 5) ({elapsed:.1f}s)"
    )
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_classical_code_recovers_and_hides(announce):
    t0 = time.perf_counter()
    recovered = all(recovery_check(p) for p in (3, 5, 7))
    leaks = {
        (p, e): classical_secrecy_check(p, e)
        for p in (3, 5, 7)
        for e in ATTACKABLE_EDGES
    }
    keyed = all(
        key_coefficient(p, e) != 0 for p in (3, 5, 7) for e in ATTACKABLE_EDGES
    )
    elapsed = time.perf_counter() - t0

    ok = (
        recovered
        and all(bits == 0.0 for bits in leaks.values())
        and keyed
        and elapsed < 1.0
    )
    announce(
        f"{'PASS' if ok else 'FAIL'} criterion 2: messages recovered and all "
        f"{len(leaks)} tapped edge values carry exactly 0 bits about them "
        f"for p in (3, 5, 7) ({elapsed:.2f}s)"
    )
    assert recovered
    assert all(bits == 0.0 for bits in leaks.values())
    assert keyed
    assert elapsed < 1.0


def test_criterion_3_injection_on_edge_seven_matches_closed_form(announce):
    t0 = time.perf_counter()
    matrix = transfer_matrix(3, 7)
    mismatches = 0
    for a1, a2, b1, e1 in itertools.product(range(3), repeat=4):
        flow = flow_values(3, a1, a2, b1, attacked_edge=7, injected=e1)
        got = tuple(flow[e] for e in (10, 11, 12, 13))
        via_matrix = tuple(
            int(matrix[ROW_EDGES.index(e)] @ np.array([a1, a2, b1, e1]) % 3)
            for e in (10, 11, 12, 13)
        )
        spoiled = (2 * a1 + 2 * a2 + 2 * b1) % 3
        expected = (spoiled, spoiled, a1 % 3, (a1 + a2 + b1 - e1) % 3)
        if got != expected or via_matrix != expected:
            mismatches += 1
    elapsed = time.perf_counter() - t0

    ok = mismatches == 0 and elapsed < 1.0
    announce(
        f"{'PASS' if ok else 'FAIL'} criterion 3: edge-7 injection propagates "
        f"to (2a1+2a2+2b1, same, a1, a1+a2+b1-e1) on all 81 inputs, flow and "
        f"matrix agreeing ({elapsed:.2f}s)"
    )
    assert mismatches == 0
    assert elapsed < 1.0


def test_criterion_4_full_pad_wiretaps_are_certified_independent(announce):
    t0 = time.perf_counter()
    suite = attack_suite()
    failures = []
    worst = 0.0
    for attack in suite:
        report = analyze(ProtocolConfig(p=3, attack=attack), with_fidelity=False)
        ok, reasons = verify_independence(report, tol=1e-9)
        worst = max(
            worst,
            report.product_deviation,
            report.reference_deviation_from_maximally_mixed,
            report.record_uniformity,
        )
        if not ok:
            failures.append((attack.edge, attack.label, reasons))
    elapsed = time.perf_counter() - t0

    ok = not failures and elapsed < 600.0
    announce(
        f"{'PASS' if ok else 'FAIL'} criterion 4: {len(suite) - len(failures)}"
        f"/{len(suite)} single-edge attacks leave the wiretapper independent "
        f"at tol 1e-9 (worst deviation {worst:.1e}, {elapsed:.0f}s)"
    )
    assert not failures, failures
    assert elapsed < 600.0


def test_criterion_5_key_average_collapses_to_the_leak_operator(announce):
    t0 = time.perf_counter()
    honest = transfer_matrix(3)
    worst = 0.0
    for attack in attack_suite():
        m1, m2, m3 = (int(c) for c in honest[ROW_EDGES.index(attack.edge)])
        assert m3 != 0  # the key must actually reach the tapped wire
        for a1, a2, e1 in itertools.product(range(3), repeat=3):
            total = np.zeros((attack.d_env, attack.d_env), dtype=complex)
            for b1 in range(3):
                z = (m1 * a1 + m2 * a2 + m3 * b1) % 3
                total += channel_block(attack, z, z, e1, e1)
            worst = max(worst, float(np.abs(total - attack.leak_operator(e1)).max()))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-12 and elapsed < 60.0
    announce(
        f"{'PASS' if ok else 'FAIL'} criterion 5: summing the tap channel "
        f"over the key reproduces the message-blind leak operator within "
        f"{worst:.1e} for all 161 attacks ({elapsed:.1f}s)"
    )
    assert worst <= 1e-12
    assert elapsed < 60.0


def test_criterion_6_weak_pad_keep_attack_breaks_independence(announce):
    t0 = time.perf_counter()
    config = ProtocolConfig(
        p=3, attack=keep_and_send_phi0(11, 3), variant=VARIANT_WEAK
    )
    report = analyze(config, with_fidelity=False)
    verdict, _ = verify_independence(report, tol=1e-9)

    # independent reconstruction of the joint (ref1, ref2, env) state on the
    # all-zero record: the kept wire holds 2a1 + 2a2 + 2b1 and the key b1
    # averages out, leaving coherences between distinct a1 values
    displayed = np.zeros((27, 27), dtype=complex)
    for a1, a1p, a2, b1 in itertools.product(range(3), repeat=4):
        e = (2 * a1 + 2 * a2 + 2 * b1) % 3
        ep = (2 * a1p + 2 * a2 + 2 * b1) % 3
        displayed[(a1 * 3 + a2) * 3 + e, (a1p * 3 + a2) * 3 + ep] += 1 / 27
    anchor_err = float(np.abs(report.anchor_conditional.matrix - displayed).max())

    # the frozen deviation constant, recomputed from that reconstruction
    blocks = displayed.reshape(9, 3, 9, 3)
    ref_marginal = np.einsum("iaja->ij", blocks)
    env_marginal = np.einsum("iaib->ab", blocks)
    frozen = trace_distance(displayed, np.kron(ref_marginal, env_marginal))
    elapsed = time.perf_counter() - t0

    ok = (
        not verdict
        and anchor_err <= 1e-10
        and report.product_deviation > 0.01
        and abs(report.product_deviation - 2 / 3) <= 1e-9
        and abs(frozen - 2 / 3) <= 1e-12
        and elapsed < 60.0
    )
    announce(
        f"{'PASS' if ok else 'FAIL'} criterion 6: weak-pad keep attack on "
        f"edge 11 flagged insecure, reconstructed joint state within "
        f"{anchor_err:.1e} of the closed form, deviation "
        f"{report.product_deviation:.12g} (frozen 2/3) ({elapsed:.1f}s)"
    )
    assert not verdict
    assert anchor_err <= 1e-10
    assert report.product_deviation > 0.01
    assert abs(report.product_deviation - 2 / 3) <= 1e-9
    assert abs(frozen - 2 / 3) <= 1e-12
    assert elapsed < 60.0


def test_criterion_7_sparse_engine_matches_dense_oracle(announce):
    t0 = time.perf_counter()
    worst = max(random_circuit_comparison(seed) for seed in range(50))
    elapsed = time.perf_counter() - t0

    ok = worst < 1e-12 and elapsed < 60.0
    announce(
        f"{'PASS' if ok else 'FAIL'} criterion 7: sparse and dense engines "
        f"agree within {worst:.1e} on 50 random circuits ({elapsed:.1f}s)"
    )
    assert worst < 1e-12
    assert elapsed < 60.0
