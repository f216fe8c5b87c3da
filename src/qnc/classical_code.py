"""Classical linear network code on the butterfly graph over F_p.

Two independent messages a1, a2 cross the butterfly in opposite corners while
a shared uniform scrambling key b1 is mixed into every interior edge.  The
code is chosen so that each sink decodes its message exactly and every
interior edge value, taken alone, is statistically independent of (a1, a2).

The graph is data, not code: ``EDGES`` lists tail/head node names for the 15
edges, ``FLOW_RULES`` gives each computed edge as a linear combination of
earlier edges, and ``transfer_matrix`` derives the one integer matrix that
the recovery and secrecy checks, the coherent protocol's support and the
sinks' corrections all read.  The value-level forward pass that the matrix
is tested against lives in ``tests/flow_ref.py``.  Field arithmetic is done
on plain integers reduced mod p; this module also validates the modulus, an
odd prime p >= 3, and supplies the inverse of two.
"""

from __future__ import annotations

import math

import numpy as np


def is_odd_prime(n: int) -> bool:
    """Deterministic primality test by trial division, restricted to odd n >= 3."""
    return n >= 3 and n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def validate_modulus(p: int) -> int:
    if not isinstance(p, int) or isinstance(p, bool):
        raise TypeError(f"modulus must be an int, got {type(p).__name__}")
    if not is_odd_prime(p):
        raise ValueError(f"modulus must be an odd prime >= 3, got {p}")
    return p


def inverse_of_two(p: int) -> int:
    """Multiplicative inverse of 2 mod p; equals (p + 1) / 2 for odd p."""
    return (p + 1) // 2


# Edge index -> (tail node, head node).  Edges 3, 4, 14, 15 are classical
# channels; 1, 2 and 5..13 carry qudits in the quantum protocol.
EDGES: dict[int, tuple[str, str]] = {
    1: ("I1", "V1"),
    2: ("I2", "V2"),
    3: ("S1", "V1"),
    4: ("S1", "V2"),
    5: ("V1", "V3"),
    6: ("V2", "V3"),
    7: ("V1", "V5"),
    8: ("V2", "V6"),
    9: ("V3", "V4"),
    10: ("V4", "V5"),
    11: ("V4", "V6"),
    12: ("V6", "O1"),
    13: ("V5", "O2"),
    14: ("S2", "V5"),
    15: ("S2", "V6"),
}

# Computed edge -> list of (source edge, coefficient tag).  Coefficient tags:
# an int is taken literally, "half" means 1/2 in F_p.  Source edges appear
# earlier in index order, so one forward pass evaluates the whole flow.
FLOW_RULES: dict[int, tuple[tuple[int, int | str], ...]] = {
    5: ((1, 2), (3, 1)),
    6: ((2, 2), (4, 1)),
    7: ((1, 1), (3, 1)),
    8: ((2, 1), (4, 1)),
    9: ((5, 1), (6, 1)),
    10: ((9, 1),),
    11: ((9, 1),),
    12: ((11, "half"), (8, -1)),
    13: ((10, "half"), (7, -1)),
}

# Edges whose values enter the transfer matrix, in fixed row order.
ROW_EDGES: tuple[int, ...] = (1, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13)

# Interior edges a wiretapper may touch in the quantum protocol.
ATTACKABLE_EDGES: tuple[int, ...] = (5, 6, 7, 8, 9, 10, 11)


def _coeff(tag: int | str, p: int) -> int:
    if tag == "half":
        return inverse_of_two(p)
    return int(tag) % p


def transfer_matrix(p: int, attacked_edge: int | None = None) -> np.ndarray:
    """The code's transfer matrix: row i holds the coefficients of edge
    ``ROW_EDGES[i]`` over (a1, a2, b1), plus the injected symbol e1 when
    ``attacked_edge`` is replaced by it.  Entries are canonical
    representatives in [0, p).

    A forward pass of FLOW_RULES on coefficient vectors.  Under attack the
    attacked edge's own row is (0, 0, 0, 1), and downstream nodes keep
    applying the honest rules, so downstream rows absorb the substitution.
    """
    validate_modulus(p)
    if attacked_edge is not None and attacked_edge not in ATTACKABLE_EDGES:
        raise ValueError(f"attacked edge must be in {ATTACKABLE_EDGES}, got {attacked_edge}")
    unit = np.eye(3 if attacked_edge is None else 4, dtype=np.int64)
    vecs = {1: unit[0], 2: unit[1], 3: unit[2], 4: unit[2]}
    for edge in sorted(FLOW_RULES):
        acc = np.zeros(len(unit), dtype=np.int64)
        for src, tag in FLOW_RULES[edge]:
            acc = (acc + _coeff(tag, p) * vecs[src]) % p
        vecs[edge] = unit[3] if edge == attacked_edge else acc
    return np.stack([vecs[e] for e in ROW_EDGES])


def key_coefficient(p: int, edge: int) -> int:
    """Coefficient of the scrambling key b1 on an interior edge.

    Nonzero on every attackable edge; this is what makes a single wiretapped
    edge value look uniform.
    """
    return int(transfer_matrix(p)[ROW_EDGES.index(edge), 2])


def recovery_check(p: int) -> bool:
    """Confirm that edge 12 carries a1 and edge 13 carries a2 for every input.

    Edge values are linear in (a1, a2, b1) over F_p, so the sinks decode all
    p^3 inputs exactly when rows 12 and 13 of the transfer matrix are
    (1, 0, 0) and (0, 1, 0): a linear map is fixed by its unit vectors.
    """
    m = transfer_matrix(p)
    return (m[ROW_EDGES.index(12)].tolist() == [1, 0, 0]
            and m[ROW_EDGES.index(13)].tolist() == [0, 1, 0])


def classical_secrecy_check(
    p: int, edge: int, b1_values: tuple[int, ...] | None = None
) -> float:
    """Mutual information, in bits, between one edge value and (a1, a2).

    Messages are uniform; the key b1 is uniform over ``b1_values`` (all of
    F_p by default).  Counting is exact over the full input cube, and exact
    independence is detected by an integer identity so a secure edge returns
    exactly 0.0.
    """
    validate_modulus(p)
    if edge not in ATTACKABLE_EDGES:
        raise ValueError(f"secrecy check applies to edges {ATTACKABLE_EDGES}, got {edge}")
    keys = tuple(range(p)) if b1_values is None else tuple(v % p for v in b1_values)
    if not keys:
        raise ValueError("b1_values must be non-empty")

    grid = np.meshgrid(np.arange(p), np.arange(p), np.array(keys, dtype=np.int64), indexing="ij")
    inputs = np.stack([g.ravel() for g in grid], axis=1)
    value = inputs @ transfer_matrix(p)[ROW_EDGES.index(edge)] % p
    joint = np.zeros((p, p, p), dtype=np.int64)  # counts of (edge value, a1, a2)
    np.add.at(joint, (value, inputs[:, 0], inputs[:, 1]), 1)
    total = p * p * len(keys)
    # marginal counts of the value times those of (a1, a2), which occur once per key
    product = np.broadcast_to(joint.sum(axis=(1, 2), keepdims=True), joint.shape) * len(keys)
    # Independence as an integer identity: total * joint == marginal * marginal.
    if np.array_equal(total * joint, product):
        return 0.0
    seen = joint > 0
    return float((joint[seen] / total * np.log2(total * joint[seen] / product[seen])).sum())
