"""Hot numeric kernels on plain arrays, built on one difference (delta) spectrum.

Both workloads are record-indexed sums of squares over a support list: (a)
the probability and output fidelity of every one of the p^n announced-outcome
branches of a protocol run, and (b) the wiretapper's conditional joint state
for a batch of announced records.  Each has the form

    rho(r) = sum_b v_b v_b^+,  v_b = sum_{i in b} coef_i w^(r . pos_i) e_{kept_i},

with buckets b, positions pos (announced values) and vectors of length m.
``spectrum`` merges entries sharing (bucket, pos) into rows A, then
rho(r) = Omega_0 + sum_k (w^(r . delta_k) Omega_k + h.c.), where
Omega_0 = sum A A^+ and each pair i < j of rows in one bucket adds A_i A_j^+
to the Omega of its difference delta = pos_i - pos_j (mod p).  So the cost is
one gemm plus the pairs within buckets, never records x support.

(a) is the scalar case m = 1, twice: the norm has buckets = rest indices,
and the overlap terms that ``protocol.overlap_terms`` picks have buckets =
(key, environment); ``_evaluate`` sums each spectrum over all p^n records at
once.  (b) has buckets = traced groups and coefficient a_i e_kept_i,
m = p^2 d_env; ``conditional_states`` evaluates it for a batch of records.
Every protocol support measured gives (a) delta = 0 alone, so a constant
table; in (b) the full pad gives delta = 0 alone, so record-independent
states, while taps on the weak pad's edge 11 carry non-zero deltas.
Supports come from ``protocol.support``; the attacked fidelity is W_0 of the
same overlap terms alone (``scalar_w0``).  ``tests/kernel_ref.py`` holds the
plain loops both are checked against.
"""

from __future__ import annotations

import numpy as np

from .engine import phase_table


def record_digits(p: int, width: int, start: int, stop: int) -> np.ndarray:
    """Announced records start..stop as digit rows, first digit most significant."""
    idx = np.arange(start, stop, dtype=np.int64)
    place = p ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // place[None, :]) % p


# ---------------------------------------------------------------------------
# the difference spectrum shared by both workloads
# ---------------------------------------------------------------------------


def _rows(coef: np.ndarray, bucket: np.ndarray, pos: np.ndarray, kept: np.ndarray,
          m: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Entries merged on (bucket, pos) into length-m rows, keyed bucket * p^n + pos."""
    place = p ** np.arange(pos.shape[1] - 1, -1, -1, dtype=np.int64)
    keys, inv = np.unique(bucket * p ** pos.shape[1] + pos @ place, return_inverse=True)
    slot, size = inv * m + kept, keys.size * m
    rows = np.bincount(slot, coef.real, size) + 1j * np.bincount(slot, coef.imag, size)
    return keys, rows.reshape(keys.size, m)


def spectrum(
    coef: np.ndarray,
    bucket: np.ndarray,
    pos: np.ndarray,
    kept: np.ndarray,
    m: int,
    p: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Difference spectrum of rho(r) = sum_b v_b v_b^+ (see the module docstring).

    Entry i adds coef_i at index kept_i of the length-m row of its
    (bucket, pos).  Returns (Omega_0, deltas, Omega) with
    rho(r) = Omega_0 + sum_k (w^(r . deltas_k) Omega_k + h.c.), Omega_0 and each
    Omega_k being m x m; every delta is non-zero.
    """
    place = p ** np.arange(pos.shape[1] - 1, -1, -1, dtype=np.int64)
    span = p ** pos.shape[1]
    keys, rows = _rows(coef, bucket, pos, kept, m, p)
    omega0 = rows.T @ rows.conj()
    # pairs i < j inside each bucket; keys are sorted, so buckets are runs
    bucket_of = keys // span
    later = np.searchsorted(bucket_of, bucket_of, side="right") - np.arange(keys.size) - 1
    left = np.repeat(np.arange(keys.size), later)
    right = left + 1 + np.arange(left.size) - np.repeat(np.cumsum(later) - later, later)
    zdig = (keys[:, None] % span // place) % p
    dkey = ((zdig[left] - zdig[right]) % p) @ place
    dkeys, dinv = np.unique(dkey, return_inverse=True)
    # one gemm per distinct difference, over that difference's pairs
    order = np.argsort(dinv, kind="stable")
    ends = np.cumsum(np.bincount(dinv, minlength=dkeys.size))
    omega = np.empty((dkeys.size, m, m), dtype=np.complex128)
    for k, (lo, hi) in enumerate(zip(np.r_[0, ends[:-1]], ends)):
        pairs = order[lo:hi]
        omega[k] = rows[left[pairs]].T @ rows[right[pairs]].conj()
    return omega0, (dkeys[:, None] // place) % p, omega


# ---------------------------------------------------------------------------
# branch summary: probability and target fidelity for every announced record
# ---------------------------------------------------------------------------


def _scalar_spectrum(
    coef: np.ndarray, bucket: np.ndarray, pos: np.ndarray, p: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """``spectrum`` with m = 1, as (W_0, deltas, W) scalars."""
    zero = np.zeros(coef.size, dtype=np.int64)
    omega0, deltas, omega = spectrum(coef, bucket, pos, zero, 1, p)
    return float(omega0[0, 0].real), deltas, omega[:, 0, 0]


def scalar_w0(coef: np.ndarray, bucket: np.ndarray, pos: np.ndarray, p: int) -> float:
    """W_0 of the scalar spectrum alone, the sum of |merged row|^2: the record
    mean p^-n sum_r rho(r), as each non-zero delta's phase sums to zero over r."""
    _, rows = _rows(coef, bucket, pos, np.zeros(coef.size, dtype=np.int64), 1, p)
    return float(np.vdot(rows, rows).real)


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
    coef: np.ndarray,
    bucket: np.ndarray,
    pos: np.ndarray,
    p: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Probability and output fidelity of every announced-outcome branch.

    The state after transmission is given as a support list: amplitudes
    ``amp``, measured-wire values ``zmeas`` (one column per measured wire in
    announcement order), and a compressed index ``rest_index`` over the
    unmeasured basis tuples.  Its overlap with the ideal output after the
    sinks' correction is given as terms: ``coef`` (amplitude times the
    conjugated target amplitude), ``bucket`` (terms that add coherently) and
    ``pos`` (the record position each term's phase follows), as
    ``protocol.overlap_terms`` returns them.  Records run in lexicographic
    order, first measured wire most significant; probabilities sum to one.

    Both quantities come from ``spectrum`` with m = 1: p^n prob(r) is the
    delta sum over the support bucketed by rest index, and the overlap the
    delta sum over the terms.  The cost is O(pairs within buckets + p^n x
    number of deltas), with no records x support array; records whose norm
    is zero get fidelity zero.
    """
    amp = np.asarray(amp, dtype=np.complex128)
    zmeas = np.asarray(zmeas, dtype=np.int64) % p
    rest_index = np.asarray(rest_index, dtype=np.int64)
    width = zmeas.shape[1]
    norm = _evaluate(*_scalar_spectrum(amp, rest_index, zmeas, p), p, width)
    np.maximum(norm, 0.0, out=norm)  # a sum of |.|^2: clip round-off below zero
    overlap = _evaluate(*_scalar_spectrum(coef, bucket, pos, p), p, width)

    # in place: the two p^n arrays returned are the only ones allocated
    overlap[norm <= 0.0] = 0.0
    np.divide(overlap, norm, out=overlap, where=norm > 0.0)
    norm /= p**width
    return norm, overlap


# ---------------------------------------------------------------------------
# conditional states: wiretapper joint state per announced record
# ---------------------------------------------------------------------------


def conditional_states(
    records: np.ndarray,
    omega0: np.ndarray,
    diffs: np.ndarray,
    omega: np.ndarray,
    p: int,
) -> np.ndarray:
    """Unnormalized conditional joint states for a batch of records.

    rho_r = Omega_0 + sum_k (w^(r . diffs_k) Omega_k + h.c.), the spectrum
    ``spectrum`` builds; the trace of each output times the uniform
    announcement weight is the record's probability.
    """
    records = np.asarray(records, dtype=np.int64) % p
    out = np.repeat(omega0[None], records.shape[0], axis=0)
    if len(diffs):
        phase = phase_table(p)[(records @ np.asarray(diffs, dtype=np.int64).T) % p]
        part = (phase @ omega.reshape(len(diffs), -1)).reshape(out.shape)
        out += part
        out += part.conj().transpose(0, 2, 1)
    return out


def class_representatives(
    records: np.ndarray, diffs: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Classes of records under r -> (r . diffs_k mod p)_k, the only way
    ``conditional_states`` depends on r: records in one class share a state.

    Returns the index of each class's first record (classes in key order) and
    every record's class.  With no diffs all records form one class.
    """
    key = (np.asarray(records, dtype=np.int64) @ np.asarray(diffs, dtype=np.int64).T) % p
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    return first, inverse.ravel()
