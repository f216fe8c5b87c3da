"""Hot numeric kernels on plain arrays.

The two workloads are (a) sweeping all announced-outcome branches of a
protocol run to get per-branch probability and output fidelity, and (b)
assembling the wiretapper's conditional joint states for a batch of
announced records from a precomputed pair list.  Both are vectorized numpy;
``tests/kernel_ref.py`` holds the plain loops they are checked against.
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


def _segment_order(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort order, reduceat starts, and the sorted-unique labels."""
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    starts = np.flatnonzero(np.r_[True, sorted_labels[1:] != sorted_labels[:-1]])
    return order, starts, sorted_labels[starts]


def branch_summary(
    amp: np.ndarray,
    zmeas: np.ndarray,
    rest_index: np.ndarray,
    h12: np.ndarray,
    h13: np.ndarray,
    weight: np.ndarray,
    group: np.ndarray,
    n_rest: int,
    n_groups: int,
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
    """
    amp = np.ascontiguousarray(amp, dtype=np.complex128)
    zmeas = np.ascontiguousarray(zmeas, dtype=np.int64) % p
    rest_index = np.ascontiguousarray(rest_index, dtype=np.int64)
    h12 = np.ascontiguousarray(h12, dtype=np.int64) % p
    h13 = np.ascontiguousarray(h13, dtype=np.int64) % p
    weight = np.ascontiguousarray(weight, dtype=np.complex128)
    group = np.ascontiguousarray(group, dtype=np.int64)
    m1 = np.ascontiguousarray(m1, dtype=np.int64) % p
    m2 = np.ascontiguousarray(m2, dtype=np.int64) % p
    table = phase_table(p)
    chunk = 4096
    n_meas = zmeas.shape[1]
    n_branches = p**n_meas
    prob = np.zeros(n_branches, dtype=np.float64)
    fid = np.zeros(n_branches, dtype=np.float64)

    r_order, r_starts, r_labels = _segment_order(rest_index)
    # every rest index occurs, so reduceat columns align with 0..n_rest-1
    assert r_labels.size == n_rest

    matched = np.flatnonzero(group >= 0)
    if matched.size:
        g_order, g_starts, _ = _segment_order(group[matched])
        matched_sorted = matched[g_order]
        h12m, h13m, wgtm = h12[matched_sorted], h13[matched_sorted], weight[matched_sorted]

    zt = zmeas.astype(np.float64).T
    for lo in range(0, n_branches, chunk):
        hi = min(lo + chunk, n_branches)
        digits = record_digits(p, n_meas, lo, hi)
        expo = np.rint(digits.astype(np.float64) @ zt).astype(np.int64) % p
        psi = table[expo] * amp[None, :]
        vec = np.add.reduceat(psi[:, r_order], r_starts, axis=1)
        norm2 = np.einsum("br,br->b", vec, vec.conj()).real
        if matched.size:
            r1 = (digits @ m1) % p
            r2 = (digits @ m2) % p
            corr_expo = (-(r1[:, None] * h12m[None, :] + r2[:, None] * h13m[None, :])) % p
            contrib = vec[:, matched_sorted] * wgtm[None, :] * table[corr_expo]
            acc = np.add.reduceat(contrib, g_starts, axis=1)
            overlap = np.einsum("bg,bg->b", acc, acc.conj()).real
        else:
            overlap = np.zeros(hi - lo)
        prob[lo:hi] = norm2 / n_branches
        with np.errstate(invalid="ignore", divide="ignore"):
            fid[lo:hi] = np.where(norm2 > 0.0, overlap / norm2, 0.0)
    return prob, fid


# ---------------------------------------------------------------------------
# conditional states: wiretapper joint state per announced record
# ---------------------------------------------------------------------------


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
