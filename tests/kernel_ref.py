"""Plain-loop references for the numpy kernels, used solely as a test oracle.

Each function walks records and support terms one at a time with scalar
arithmetic, sharing nothing with the vectorized reductions in
``qnc.kernels``, so agreement between the two is meaningful.
``branch_summary_loop`` takes the arguments of ``kernels.branch_summary``
after input normalization: the support, then its overlap terms.
``conditional_states_loop`` takes the support that ``kernels.spectrum``
turns into the arguments of ``kernels.conditional_states``.  Both take the phase table
``qnc.engine.phase_table(p)`` last.  ``record_index`` is the inverse of
``kernels.record_digits``.
"""

from __future__ import annotations

import numpy as np


def record_index(record, p: int) -> int:
    """Position of an announced record in lexicographic order, first digit
    most significant."""
    idx = 0
    for d in record:
        idx = idx * p + int(d) % p
    return idx


def branch_summary_loop(amp, zmeas, rest_index, coef, bucket, pos, p, table):
    """prob(r) from the support summed per rest index, and the overlap from
    the terms summed per bucket, each term at phase w^(r . pos)."""
    k_count, n_meas = zmeas.shape
    n_rest = int(np.max(rest_index, initial=-1)) + 1
    n_branches = p**n_meas
    prob = np.zeros(n_branches, dtype=np.float64)
    fid = np.zeros(n_branches, dtype=np.float64)
    digits = np.zeros(n_meas, dtype=np.int64)
    vec = np.zeros(n_rest, dtype=np.complex128)
    inv_total = 1.0 / float(n_branches)
    for b in range(n_branches):
        for r in range(n_rest):
            vec[r] = 0.0
        for i in range(k_count):
            e = 0
            for k in range(n_meas):
                e += digits[k] * zmeas[i, k]
            vec[rest_index[i]] += amp[i] * table[e % p]
        norm2 = 0.0
        for r in range(n_rest):
            z = vec[r]
            norm2 += z.real * z.real + z.imag * z.imag
        acc = {}
        for i in range(len(coef)):
            e = 0
            for k in range(n_meas):
                e += digits[k] * pos[i, k]
            acc[bucket[i]] = acc.get(bucket[i], 0.0) + coef[i] * table[e % p]
        overlap = 0.0
        for z in acc.values():
            overlap += z.real * z.real + z.imag * z.imag
        prob[b] = norm2 * inv_total
        fid[b] = overlap / norm2 if norm2 > 0.0 else 0.0
        # odometer: advance to the next record, last digit fastest
        for k in range(n_meas - 1, -1, -1):
            digits[k] += 1
            if digits[k] < p:
                break
            digits[k] = 0
    return prob, fid


def conditional_states_loop(records, amp, zvis, kept, group, p, m, table):
    """rho_r = sum over groups g of v_g v_g^+, v_g = sum_{i in g} a_i w^(r . z_i) e_kept_i,
    straight from the support: no pairs and no differences."""
    n_records = records.shape[0]
    n_support, n_vis = zvis.shape
    n_groups = int(np.max(group, initial=-1)) + 1
    out = np.zeros((n_records, m, m), dtype=np.complex128)
    for b in range(n_records):
        vec = np.zeros((n_groups, m), dtype=np.complex128)
        for i in range(n_support):
            e = 0
            for k in range(n_vis):
                e += records[b, k] * zvis[i, k]
            vec[group[i], kept[i]] += amp[i] * table[e % p]
        for g in range(n_groups):
            for x in range(m):
                for y in range(m):
                    out[b, x, y] += vec[g, x] * vec[g, y].conjugate()
    return out
