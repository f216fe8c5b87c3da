import itertools
from collections import Counter

import numpy as np
import pytest

from flow_ref import flow_values
from qnc.classical_code import (
    ATTACKABLE_EDGES,
    EDGES,
    FLOW_RULES,
    ROW_EDGES,
    classical_secrecy_check,
    inverse_of_two,
    key_coefficient,
    recovery_check,
    transfer_matrix,
)

# The p = 3 transfer matrices, row by row: honest over (a1, a2, b1), and with
# edge 7 replaced by an injected symbol, over (a1, a2, b1, e1).
HONEST_ROWS_P3 = {
    1: (1, 0, 0),
    2: (0, 1, 0),
    5: (2, 0, 1),
    6: (0, 2, 1),
    7: (1, 0, 1),
    8: (0, 1, 1),
    9: (2, 2, 2),
    10: (2, 2, 2),
    11: (2, 2, 2),
    12: (1, 0, 0),
    13: (0, 1, 0),
}
EDGE7_ROWS_P3 = {
    **{e: row + (0,) for e, row in HONEST_ROWS_P3.items()},
    7: (0, 0, 0, 1),
    # half * row(10) - row(7): (1,1,1,0) - (0,0,0,1) = (1,1,1,-1)
    13: (1, 1, 1, 3 - 1),
}


def row(m, edge):
    return tuple(int(c) for c in m[ROW_EDGES.index(edge)])


def test_flow_worked_example_p3():
    z = flow_values(3, a1=1, a2=2, b1=0)
    assert z[5] == 2  # 2*1 + 0
    assert z[6] == 1  # 2*2 + 0
    assert z[7] == 1
    assert z[8] == 2
    assert z[9] == 0
    assert z[10] == 0 and z[11] == 0
    assert z[12] == 1  # = a1
    assert z[13] == 2  # = a2


def test_flow_key_only_input():
    """With zero messages every interior edge is a multiple of the key."""
    z = flow_values(5, 0, 0, b1=1)
    assert z[5] == 1
    assert z[7] == 1
    assert z[9] == 2
    assert z[12] == 0 and z[13] == 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_recovery_exhaustive(p):
    assert recovery_check(p)
    for a1, a2, b1 in itertools.product(range(p), repeat=3):
        z = flow_values(p, a1, a2, b1)
        assert (z[12], z[13]) == (a1, a2)


def test_recovery_check_catches_a_broken_code(monkeypatch):
    monkeypatch.setitem(FLOW_RULES, 12, ((11, "half"), (8, 1)))
    assert not recovery_check(3)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_matrix_agrees_with_flow(p):
    m = transfer_matrix(p)
    assert m.dtype == np.int64
    for a1, a2, b1 in itertools.product(range(p), repeat=3):
        z = flow_values(p, a1, a2, b1)
        got = m @ np.array([a1, a2, b1]) % p
        assert got.tolist() == [z[e] for e in ROW_EDGES]


def test_matrix_rows_p3_frozen():
    m = transfer_matrix(3)
    assert m.shape == (len(ROW_EDGES), 3)
    for edge, expected in HONEST_ROWS_P3.items():
        assert row(m, edge) == expected, edge


@pytest.mark.parametrize("p", [3, 5, 7])
def test_key_column_never_vanishes_on_attackable_edges(p):
    for edge in ATTACKABLE_EDGES:
        assert key_coefficient(p, edge) != 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_single_edge_leaks_nothing(p):
    for edge in ATTACKABLE_EDGES:
        assert classical_secrecy_check(p, edge) == 0.0


def test_known_key_breaks_secrecy():
    """Pinning b1 makes edge 7 (= a1 + b1) reveal a1: MI = log2(p) bits."""
    mi = classical_secrecy_check(3, 7, b1_values=(0,))
    assert mi == pytest.approx(np.log2(3), abs=1e-12)


@pytest.mark.parametrize("p", [3, 5])
def test_secrecy_matches_the_flow_count(p):
    """The matrix-based mutual information equals one counted input by input
    through the value-level reference, for full, partial and single keys."""
    for edge in ATTACKABLE_EDGES:
        for keys in (tuple(range(p)), (0,), (0, 1), tuple(range(p - 1))):
            joint = Counter(
                (flow_values(p, a1, a2, b1)[edge], a1, a2)
                for a1, a2, b1 in itertools.product(range(p), range(p), keys)
            )
            total = sum(joint.values())
            value = Counter()
            for (v, _, _), n in joint.items():
                value[v] += n
            # (a1, a2) is uniform: each pair has probability 1/p^2
            mi = sum(n / total * np.log2(n / total / (value[v] / total / p**2))
                     for (v, _, _), n in joint.items())
            got = classical_secrecy_check(p, edge, b1_values=keys)
            assert got == pytest.approx(mi, abs=1e-12), (edge, keys)
            if len(keys) == p:
                assert got == 0.0


def test_secrecy_rejects_bad_edge_and_empty_keys():
    with pytest.raises(ValueError):
        classical_secrecy_check(3, 12)
    with pytest.raises(ValueError):
        classical_secrecy_check(3, 7, b1_values=())


def test_attacked_matrix_edge7_rows():
    m = transfer_matrix(3, 7)
    assert m.shape == (len(ROW_EDGES), 4)
    for edge, expected in EDGE7_ROWS_P3.items():
        assert row(m, edge) == expected, edge


def test_attacked_matrix_edge9_rows():
    inv2 = inverse_of_two(3)
    m = transfer_matrix(3, 9)
    assert row(m, 9) == (0, 0, 0, 1)
    assert row(m, 10) == (0, 0, 0, 1)
    assert row(m, 12) == (0, (-1) % 3, (-1) % 3, inv2)
    assert row(m, 13) == ((-1) % 3, 0, (-1) % 3, inv2)


@pytest.mark.parametrize("edge", ATTACKABLE_EDGES)
def test_attacked_matrix_agrees_with_attacked_flow(edge):
    p = 3
    m = transfer_matrix(p, edge)
    for a1, a2, b1, e1 in itertools.product(range(p), repeat=4):
        z = flow_values(p, a1, a2, b1, attacked_edge=edge, injected=e1)
        got = m @ np.array([a1, a2, b1, e1]) % p
        assert got.tolist() == [z[e] for e in ROW_EDGES]


def test_upstream_rows_unchanged_by_attack():
    honest = transfer_matrix(5)
    m = transfer_matrix(5, 9)
    for edge in (1, 2, 5, 6, 7, 8):
        assert row(m, edge) == row(honest, edge) + (0,)


def test_attack_outside_interior_rejected():
    with pytest.raises(ValueError):
        transfer_matrix(3, 12)
    with pytest.raises(ValueError):
        transfer_matrix(3, attacked_edge=4)


def test_invalid_modulus_rejected():
    with pytest.raises(ValueError):
        transfer_matrix(4)
    with pytest.raises(ValueError):
        recovery_check(2)


def test_flow_rules_respect_the_graph():
    """Each rule only reads edges that terminate where its edge starts."""
    for edge, rule in FLOW_RULES.items():
        tail, _ = EDGES[edge]
        for src, _ in rule:
            assert EDGES[src][1] == tail, (edge, src)
            assert src < edge  # forward pass order


def test_row_edges_cover_the_quantum_wires():
    assert ROW_EDGES == (1, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13)
    assert set(ATTACKABLE_EDGES) < set(ROW_EDGES)
