"""Hot numeric kernels on plain arrays.

The two workloads are (a) the probability and output fidelity of every one
of the p^n announced-outcome branches of a protocol run, and (b) the
wiretapper's conditional joint states for a batch of announced records,
assembled from a precomputed pair list.

(a) is a difference (delta) spectrum.  A branch's norm is a sum over
buckets (rest index) of |sum_i a_i w^(r . z_i)|^2 = sum_delta w^(r . delta)
P_delta, where P_delta sums a_i a_j^* over pairs in one bucket with
z_i - z_j = delta (mod p); the fidelity overlap has the same form over
groups at the correction-adjusted positions.  So the cost is the pairs
within buckets plus p^n per distinct non-zero delta, not records times
support.  Every protocol support measured, honest or under a single-edge
attack, has delta = 0 alone, and so a constant table.  (b) is vectorized
over records x pairs.  ``tests/kernel_ref.py`` holds the plain loops both
are checked against.
"""

from __future__ import annotations

import numpy as np

from .engine import phase_table


def record_digits(p: int, width: int, start: int, stop: int) -> np.ndarray:
    """Announced records start..stop as digit rows, first digit most significant."""
    idx = np.arange(start, stop, dtype=np.int64)
    place = p ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // place[None, :]) % p


def record_index(record: tuple[int, ...] | np.ndarray, p: int) -> int:
    idx = 0
    for d in record:
        idx = idx * p + int(d) % p
    return idx


# ---------------------------------------------------------------------------
# branch summary: probability and target fidelity for every announced record
# ---------------------------------------------------------------------------


def _spectrum(
    coef: np.ndarray, bucket: np.ndarray, pos: np.ndarray, p: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Difference spectrum of S(r) = sum_b |sum_{i in b} coef_i w^(r . pos_i)|^2.

    Returns (W_0, deltas, W) with S(r) = W_0 + 2 Re sum_k W_k w^(r . deltas_k):
    entries sharing (bucket, pos) are merged first, W_0 is the sum of the
    merged |coef|^2, and each pair i < j inside a bucket adds
    coef_i coef_j^* to the W of its difference pos_i - pos_j (mod p).
    """
    place = p ** np.arange(pos.shape[1] - 1, -1, -1, dtype=np.int64)
    span = p ** pos.shape[1]
    keys, inv = np.unique(bucket * span + pos @ place, return_inverse=True)
    merged = np.bincount(inv, coef.real, keys.size) + 1j * np.bincount(inv, coef.imag, keys.size)
    w0 = float(np.vdot(merged, merged).real)
    # pairs i < j inside each bucket; keys are sorted, so buckets are runs
    bucket_of = keys // span
    later = np.searchsorted(bucket_of, bucket_of, side="right") - np.arange(keys.size) - 1
    left = np.repeat(np.arange(keys.size), later)
    right = left + 1 + np.arange(left.size) - np.repeat(np.cumsum(later) - later, later)
    zdig = (keys[:, None] % span // place) % p
    dkey = ((zdig[left] - zdig[right]) % p) @ place
    dkeys, dinv = np.unique(dkey, return_inverse=True)
    terms = merged[left] * merged[right].conj()
    w = np.bincount(dinv, terms.real, dkeys.size) + 1j * np.bincount(dinv, terms.imag, dkeys.size)
    return w0, (dkeys[:, None] // place) % p, w


def _evaluate(w0: float, deltas: np.ndarray, w: np.ndarray, p: int, width: int) -> np.ndarray:
    """W_0 + 2 Re sum_k W_k w^(r . deltas_k) on every record r, lexicographic.

    r . delta mod p is built digit by digit in int8, which holds the sum of
    two residues for every p < 64, far beyond any p^width table in memory.
    """
    out = np.full(p**width, w0)
    for delta, wk in zip(deltas, w):
        expo = np.zeros(1, dtype=np.int8)
        for d in delta:
            expo = ((expo[:, None] + (np.arange(p) * d % p).astype(np.int8)) % p).ravel()
        out += (2.0 * wk * phase_table(p)).real[expo]
    return out


def branch_summary(
    amp: np.ndarray,
    zmeas: np.ndarray,
    rest_index: np.ndarray,
    h12: np.ndarray,
    h13: np.ndarray,
    weight: np.ndarray,
    group: np.ndarray,
    m1: np.ndarray,
    m2: np.ndarray,
    p: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Probability and output fidelity of every announced-outcome branch.

    The state after transmission is given as a support list: amplitudes
    ``amp``, measured-wire values ``zmeas`` (one column per measured wire in
    announcement order), and a compressed index ``rest_index`` over the
    unmeasured basis tuples.  Per rest index, ``h12``/``h13`` are the sink
    wire values entering the announced-record phase correction (coefficient
    columns ``m1``/``m2``), ``weight`` is the conjugated target amplitude,
    and ``group`` collects overlap terms that add coherently (-1 for basis
    states orthogonal to the target).  Records run in lexicographic order,
    first measured wire most significant; probabilities sum to one.

    Both quantities come from ``_spectrum``: p^n prob(r) is the delta sum
    over the support bucketed by rest index, and the overlap the delta sum
    of a_i weight[rest_i] bucketed by group (>= 0) at the positions
    z - h12 m1 - h13 m2.  The cost is O(pairs within buckets + p^n x number
    of deltas), with no records x support array; records whose norm is
    zero get fidelity zero.
    """
    amp = np.asarray(amp, dtype=np.complex128)
    zmeas = np.asarray(zmeas, dtype=np.int64) % p
    rest_index = np.asarray(rest_index, dtype=np.int64)
    width = zmeas.shape[1]
    norm = _evaluate(*_spectrum(amp, rest_index, zmeas, p), p, width)
    np.maximum(norm, 0.0, out=norm)  # a sum of |.|^2: clip round-off below zero

    # overlap terms carry the record phase at z - h12 m1 - h13 m2
    grp = np.asarray(group, dtype=np.int64)[rest_index]
    on = grp >= 0
    rest_on = rest_index[on]
    shift = np.outer(np.asarray(h12)[rest_on], m1) + np.outer(np.asarray(h13)[rest_on], m2)
    coef = amp[on] * np.asarray(weight, dtype=np.complex128)[rest_on]
    overlap = _evaluate(*_spectrum(coef, grp[on], (zmeas[on] - shift) % p, p), p, width)

    # in place: the two p^n arrays returned are the only ones allocated
    overlap[norm <= 0.0] = 0.0
    np.divide(overlap, norm, out=overlap, where=norm > 0.0)
    norm /= p**width
    return norm, overlap


# ---------------------------------------------------------------------------
# conditional states: wiretapper joint state per announced record
# ---------------------------------------------------------------------------


def _segment_order(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort order, reduceat starts, and the sorted-unique labels."""
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    starts = np.flatnonzero(np.r_[True, sorted_labels[1:] != sorted_labels[:-1]])
    return order, starts, sorted_labels[starts]


def conditional_states(
    records: np.ndarray,
    diffs: np.ndarray,
    w: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    p: int,
    ng: int,
) -> np.ndarray:
    """Unnormalized conditional joint states for a batch of records.

    The pair list encodes rho_record[rows[t], cols[t]] +=
    w[t] * omega^(record . diffs[t]); the trace of each output times the
    uniform announcement weight is the record's probability.
    """
    records = np.ascontiguousarray(records, dtype=np.int64) % p
    diffs = np.ascontiguousarray(diffs, dtype=np.int64) % p
    w = np.ascontiguousarray(w, dtype=np.complex128)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    cols = np.ascontiguousarray(cols, dtype=np.int64)
    table = phase_table(p)
    n_records = records.shape[0]
    cells = rows * ng + cols
    order, starts, labels = _segment_order(cells)
    expo = np.rint(records.astype(np.float64) @ diffs.astype(np.float64).T)
    expo = expo.astype(np.int64) % p
    ph = table[expo] * w[None, :]
    summed = np.add.reduceat(ph[:, order], starts, axis=1)
    out = np.zeros((n_records, ng * ng), dtype=np.complex128)
    out[:, labels] = summed
    return out.reshape(n_records, ng, ng)
