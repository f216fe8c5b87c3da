"""Value-level forward pass of the butterfly code, used solely as a test oracle.

``qnc.classical_code.transfer_matrix`` runs ``FLOW_RULES`` on coefficient
vectors.  This runs the same rules on edge values, one input at a time, and
computes 1/2 mod p itself, so the two share the rule table and nothing of
its evaluation: agreement between them checks the matrix, and a slip in the
table itself is left to the recovery and secrecy checks.
"""

from __future__ import annotations

from qnc.classical_code import FLOW_RULES


def flow_values(p, a1, a2, b1, attacked_edge=None, injected=0) -> dict[int, int]:
    """Every edge value for one input, edges 3 and 4 carrying the key b1.

    With ``attacked_edge`` its value is replaced by ``injected``, and
    downstream nodes keep applying the honest rules to whatever arrives.
    """
    half = pow(2, -1, p)
    z = {1: a1 % p, 2: a2 % p, 3: b1 % p, 4: b1 % p}
    for edge in sorted(FLOW_RULES):
        if edge == attacked_edge:
            z[edge] = injected % p
        else:
            z[edge] = sum((half if tag == "half" else tag) * z[src]
                          for src, tag in FLOW_RULES[edge]) % p
    return z
