"""Classical linear network code on the butterfly graph over F_p.

Two independent messages a1, a2 cross the butterfly in opposite corners while
a shared uniform scrambling key b1 is mixed into every interior edge.  The
code is chosen so that each sink decodes its message exactly and every
interior edge value, taken alone, is statistically independent of (a1, a2).

The graph is data, not code: ``EDGES`` lists tail/head node names for the 15
edges, ``FLOW_RULES`` gives each computed edge as an affine combination of
earlier edges, and everything else (flow evaluation, coefficient matrices,
wiretap propagation) is derived from those tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .ffield import inverse_of_two, validate_modulus

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

# Edges whose values enter the coefficient matrix, in fixed row order.
ROW_EDGES: tuple[int, ...] = (1, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13)

# Interior edges a wiretapper may touch in the quantum protocol.
ATTACKABLE_EDGES: tuple[int, ...] = (5, 6, 7, 8, 9, 10, 11)

SINK_ROWS: tuple[int, ...] = (10, 11, 12, 13)


def _coeff(tag: int | str, p: int) -> int:
    if tag == "half":
        return inverse_of_two(p)
    return int(tag) % p


@dataclass(frozen=True)
class FlowAssignment:
    """All edge values for one choice of messages and keys.

    ``z`` maps edge index to its value in [0, p); edges 14 and 15 carry the
    pair key b2 unchanged and are stored as tuples.
    """

    p: int
    a1: int
    a2: int
    b1: int
    b2: tuple[int, int]
    z: dict[int, int | tuple[int, int]] = field(repr=False)

    def value(self, edge: int) -> int:
        v = self.z[edge]
        if isinstance(v, tuple):
            raise ValueError(f"edge {edge} carries a pair, not a single value")
        return v

    def vector(self, edges: tuple[int, ...] = ROW_EDGES) -> np.ndarray:
        """Edge values as an integer array, in the given edge order."""
        return np.array([self.value(e) for e in edges], dtype=np.int64)


def _forward_values(p: int, a1: int, a2: int, b1: int,
                    attacked_edge: int | None = None, injected: int = 0) -> dict[int, int]:
    """Forward pass of FLOW_RULES on edge values mod p.

    Kept apart from ``_transfer_rows`` on purpose: the coefficient matrices are
    tested against this pass, so the two must not share an evaluator.
    """
    validate_modulus(p)
    z = {1: a1 % p, 2: a2 % p, 3: b1 % p, 4: b1 % p}
    for edge in sorted(FLOW_RULES):
        if edge == attacked_edge:
            z[edge] = injected % p
        else:
            z[edge] = sum(_coeff(tag, p) * z[src] for src, tag in FLOW_RULES[edge]) % p
    return z


def evaluate_flow(
    p: int, a1: int, a2: int, b1: int, b2: tuple[int, int] = (0, 0)
) -> FlowAssignment:
    """Run the butterfly code once and return every edge value.

    The sinks recover the crossed messages: edge 12 carries a1 and edge 13
    carries a2, for every key choice.
    """
    z = _forward_values(p, a1, a2, b1)
    pad = (b2[0] % p, b2[1] % p)
    return FlowAssignment(p=p, a1=z[1], a2=z[2], b1=z[3], b2=pad, z={**z, 14: pad, 15: pad})


def evaluate_attacked_flow(
    p: int, a1: int, a2: int, b1: int, attacked_edge: int, injected: int
) -> FlowAssignment:
    """Flow where the attacked edge's value is replaced by an injected symbol.

    Downstream nodes keep applying the honest rules to whatever arrives, so
    the substitution propagates to the sinks.
    """
    if attacked_edge not in ATTACKABLE_EDGES:
        raise ValueError(f"attacked edge must be in {ATTACKABLE_EDGES}, got {attacked_edge}")
    z = _forward_values(p, a1, a2, b1, attacked_edge, injected)
    return FlowAssignment(p=p, a1=z[1], a2=z[2], b1=z[3], b2=(0, 0), z=z)


@dataclass(frozen=True)
class CoefficientMatrix:
    """Integer matrix expressing edge values as combinations of the inputs.

    Row i gives the coefficients of edge ``row_edges[i]`` with respect to
    ``columns`` (messages, scrambling key, and the injected symbol when an
    edge is attacked).  Entries are canonical representatives in [0, p).
    """

    p: int
    row_edges: tuple[int, ...]
    columns: tuple[str, ...]
    rows: np.ndarray
    attacked_edge: int | None = None

    def __post_init__(self) -> None:
        expected = (len(self.row_edges), len(self.columns))
        if self.rows.shape != expected:
            raise ValueError(f"matrix shape {self.rows.shape} does not match {expected}")

    def row(self, edge: int) -> np.ndarray:
        return self.rows[self.row_edges.index(edge)]

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]

    def reduced(self) -> "CoefficientMatrix":
        """Drop the sink-side rows (edges 10..13), keeping the wiretap view."""
        keep = [i for i, e in enumerate(self.row_edges) if e not in SINK_ROWS]
        return CoefficientMatrix(
            p=self.p,
            row_edges=tuple(self.row_edges[i] for i in keep),
            columns=self.columns,
            rows=self.rows[keep].copy(),
            attacked_edge=self.attacked_edge,
        )

    def apply(self, inputs: dict[str, int]) -> np.ndarray:
        vec = np.array([inputs[c] for c in self.columns], dtype=np.int64)
        return (self.rows @ vec) % self.p

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "row_edges": list(self.row_edges),
            "columns": list(self.columns),
            "rows": self.rows.tolist(),
            "attacked_edge": self.attacked_edge,
        }


def _transfer_rows(p: int, attacked_edge: int | None = None) -> np.ndarray:
    """Forward pass of FLOW_RULES on coefficient vectors instead of values:
    the ROW_EDGES rows over (a1, a2, b1), plus e1 when an edge is attacked."""
    unit = np.eye(3 if attacked_edge is None else 4, dtype=np.int64)
    vecs = {1: unit[0], 2: unit[1], 3: unit[2], 4: unit[2]}
    for edge in sorted(FLOW_RULES):
        acc = np.zeros(len(unit), dtype=np.int64)
        for src, tag in FLOW_RULES[edge]:
            acc = (acc + _coeff(tag, p) * vecs[src]) % p
        vecs[edge] = unit[3] if edge == attacked_edge else acc
    return np.stack([vecs[e] for e in ROW_EDGES])


def coefficient_matrix(p: int) -> CoefficientMatrix:
    """Honest transfer matrix with columns (a1, a2, b1) and rows ROW_EDGES."""
    validate_modulus(p)
    rows = _transfer_rows(p)
    return CoefficientMatrix(p=p, row_edges=ROW_EDGES, columns=("a1", "a2", "b1"), rows=rows)


def attacked_coefficient_matrix(p: int, attacked_edge: int) -> CoefficientMatrix:
    """Transfer matrix when one interior edge is replaced by an injected symbol.

    The extra column "e1" tracks the injected value; the attacked edge's own
    row becomes (0, 0, 0, 1) and downstream rows absorb the substitution.
    """
    validate_modulus(p)
    if attacked_edge not in ATTACKABLE_EDGES:
        raise ValueError(f"attacked edge must be in {ATTACKABLE_EDGES}, got {attacked_edge}")
    return CoefficientMatrix(
        p=p,
        row_edges=ROW_EDGES,
        columns=("a1", "a2", "b1", "e1"),
        rows=_transfer_rows(p, attacked_edge),
        attacked_edge=attacked_edge,
    )


def key_coefficient(p: int, edge: int) -> int:
    """Coefficient of the scrambling key b1 on an interior edge.

    Nonzero on every attackable edge; this is what makes a single wiretapped
    edge value look uniform.
    """
    return int(coefficient_matrix(p).row(edge)[2])


def recovery_check(p: int, flow=evaluate_flow) -> bool:
    """Exhaustively confirm edge 12 carries a1 and edge 13 carries a2.

    ``flow`` may be swapped for a mutated evaluator to confirm the check is
    actually discriminating.
    """
    validate_modulus(p)
    for a1, a2, b1 in itertools.product(range(p), repeat=3):
        fa = flow(p, a1, a2, b1)
        if fa.value(12) != a1 or fa.value(13) != a2:
            return False
    return True


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

    joint = np.zeros((p, p, p), dtype=np.int64)  # counts of (edge value, a1, a2)
    for a1, a2, b1 in itertools.product(range(p), range(p), keys):
        joint[evaluate_flow(p, a1, a2, b1).value(edge), a1, a2] += 1
    total = p * p * len(keys)
    # marginal counts of the value times those of (a1, a2), which occur once per key
    product = np.broadcast_to(joint.sum(axis=(1, 2), keepdims=True), joint.shape) * len(keys)
    # Independence as an integer identity: total * joint == marginal * marginal.
    if np.array_equal(total * joint, product):
        return 0.0
    seen = joint > 0
    return float((joint[seen] / total * np.log2(total * joint[seen] / product[seen])).sum())
