"""Wiretap security analysis of the attacked protocol.

The wiretapper ends up holding her environment register plus the announced
outcomes that are not one-time-padded.  This module reconstructs, for every
such announced record, the exact joint state of (reference registers,
environment) conditioned on that record, with the scrambling key folded in
as a uniform classical mixture and the sink-side registers traced out (the
recovery step acts only on traced registers, so omitting it changes
nothing; a test exercises the slow path with recovery applied to confirm).

The states come from one difference spectrum (``kernels.spectrum``): the
support is bucketed by traced group (hidden wires, sink wires, key) with the
visible record digits as positions and a_i e_kept_i as coefficients, so
rho_r = Omega_0 + sum_delta (w^(r . delta) Omega_delta + h.c.) over the
non-zero record differences delta inside a group.  On every full-pad input
measured only delta = 0 occurs, so every state is Omega_0.  Memory is the
spectrum, m x m per delta with m = p^2 d_env, plus one batch of records
sized to ``_BATCH_BYTES``.

Security holds when each conditional state is the fixed product
(I / p^2) tensor (total environment leak / p), and the record distribution
is uniform.  ``verify_independence`` certifies this with a cheap Frobenius
bound per record, falling back to exact trace distances at the worst
offenders, so secure sweeps stay fast and insecure states are still
measured exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .adversary import AttackSpec
from .engine import DensityMatrix, RegisterLayout, trace_distance
from .kernels import conditional_states, record_digits, spectrum
from .protocol import (
    ENTANGLED,
    MEASURED_EDGES,
    VARIANT_FULL,
    VARIANTS,
    ProtocolConfig,
    recovery_columns,
    step1_initialize,
    step2_transmit,
    wire,
)

DEFAULT_RECORD_CAP = 3**8
DEFAULT_SAMPLES = 512
# bytes of one batch of conditional states (records x n_kept^2 complex);
# analyze holds a few arrays of this size at once
_BATCH_BYTES = 4 << 20


def visible_edges(variant: str) -> tuple[int, ...]:
    """Measured edges whose announced outcomes reach the wiretapper unpadded."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    hidden = (10, 11) if variant == VARIANT_FULL else (11,)
    return tuple(e for e in MEASURED_EDGES if e not in hidden)


def expected_environment_state(attack: AttackSpec) -> np.ndarray:
    """The proven limit of the wiretapper's knowledge: total leak, normalized."""
    return attack.total_leak() / attack.p


def _wiretap_support(
    config: ProtocolConfig, b1_values: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Post-transmission support over the key mixture, as the wiretapper's
    states see it: (amplitudes, visible record digits, kept index over
    (ref1, ref2, E), traced group).  Amplitudes carry the
    1/sqrt(len(b1_values)) mixture weight; a traced group shares the hidden
    wires, the sink wires and the key."""
    p = config.p
    vis = visible_edges(config.variant)
    traced_names = [wire(e) for e in MEASURED_EDGES if e not in vis] + [wire(12), wire(13)]
    amps, zvis, kept, traced = [], [], [], []
    for b1 in b1_values:
        cfg = replace(config, b1=b1)
        state = step2_transmit(step1_initialize(cfg), cfg)
        col = state.value_column
        amps.append(np.array(list(state.amps.values()), dtype=np.complex128))
        zvis.append(np.stack([col(wire(e)) for e in vis], axis=1))
        kept.append((col("ref1") * p + col("ref2")) * config.attack.d_env + col("E"))
        key = np.full(state.support_size, b1, dtype=np.int64)
        traced.append(np.stack([col(n) for n in traced_names] + [key], axis=1))
    _, group = np.unique(np.concatenate(traced), axis=0, return_inverse=True)
    amp = np.concatenate(amps) * (1.0 / math.sqrt(len(b1_values)))
    return amp, np.concatenate(zvis), np.concatenate(kept), group.ravel()


@dataclass(frozen=True)
class _WiretapSpectrum:
    """The conditional states' delta spectrum (see ``kernels.spectrum``)."""

    p: int
    visible: tuple[int, ...]
    kept_layout: RegisterLayout = field(repr=False)
    omega0: np.ndarray = field(repr=False)
    diffs: np.ndarray = field(repr=False)
    omega: np.ndarray = field(repr=False)

    def states(self, records: np.ndarray) -> np.ndarray:
        return conditional_states(records, self.omega0, self.diffs, self.omega, self.p)


def _wiretap_spectrum(config: ProtocolConfig, b1_values: Sequence[int]) -> _WiretapSpectrum:
    p = config.p
    layout = RegisterLayout([("ref1", p), ("ref2", p), ("E", config.attack.d_env)])
    amp, zvis, kept, group = _wiretap_support(config, b1_values)
    return _WiretapSpectrum(
        p,
        visible_edges(config.variant),
        layout,
        *spectrum(amp, group, zvis, kept, layout.total_dim, p),
    )


@dataclass(frozen=True)
class BranchStat:
    """Per-record statistics; exact deviations filled in only at witnesses."""

    record: tuple[int, ...]
    probability: float
    product_deviation_bound: float
    reference_deviation_bound: float
    product_deviation: float | None = None
    reference_deviation: float | None = None


@dataclass
class SecurityReport:
    """Everything ``analyze`` learned about one attacked configuration."""

    p: int
    variant: str
    attack: AttackSpec
    record_edges: tuple[int, ...]
    exhaustive: bool
    n_records: int
    per_branch: list[BranchStat] = field(repr=False)
    probability_total: float = 0.0
    record_uniformity: float = 0.0
    product_deviation: float = 0.0
    reference_deviation_from_maximally_mixed: float = 0.0
    sigma_sum_match: float = 0.0
    hermiticity_error: float = 0.0
    output_fidelity_under_attack: float | None = None
    eve_reference_state: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    anchor_record: tuple[int, ...] = ()
    anchor_conditional: DensityMatrix = field(default=None, repr=False)  # type: ignore[assignment]
    worst_record: tuple[int, ...] = ()
    worst_conditional: DensityMatrix = field(default=None, repr=False)  # type: ignore[assignment]
    elapsed_seconds: float = 0.0
    _spectrum: _WiretapSpectrum = field(default=None, repr=False)  # type: ignore[assignment]

    def conditional(self, record: Sequence[int]) -> DensityMatrix:
        """Exact conditional joint state for one announced record."""
        rec = np.asarray([record], dtype=np.int64)
        if rec.shape != (1, len(self.record_edges)):
            raise ValueError(f"record must have {len(self.record_edges)} entries")
        rho = self._spectrum.states(rec)[0]
        tr = float(np.trace(rho).real)
        if tr <= 0.0:
            raise ValueError(f"record {tuple(record)} has zero probability")
        return DensityMatrix(self._spectrum.kept_layout, rho / tr)

    def record_probability(self, record: Sequence[int]) -> float:
        rho = self._spectrum.states(np.asarray([record], dtype=np.int64))[0]
        return float(np.trace(rho).real) * float(self.p) ** (-len(self.record_edges))

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "variant": self.variant,
            "attack": self.attack.to_json(),
            "record_edges": list(self.record_edges),
            "exhaustive": self.exhaustive,
            "n_records": self.n_records,
            "probability_total": self.probability_total,
            "record_uniformity": self.record_uniformity,
            "product_deviation": self.product_deviation,
            "reference_deviation_from_maximally_mixed": self.reference_deviation_from_maximally_mixed,
            "sigma_sum_match": self.sigma_sum_match,
            "hermiticity_error": self.hermiticity_error,
            "output_fidelity_under_attack": self.output_fidelity_under_attack,
            "worst_record": list(self.worst_record),
            "elapsed_seconds": self.elapsed_seconds,
        }

    def to_csv_row(self, tol: float) -> dict:
        verdict, _ = verify_independence(self, tol)
        return {
            "edge": self.attack.edge,
            "attack": self.attack.label,
            "variant": self.variant,
            "product_deviation": self.product_deviation,
            "verdict": "secure" if verdict else "insecure",
            "worst_record": "".join(str(d) for d in self.worst_record),
        }


def _marginals(rho_batch: np.ndarray, p: int, d_env: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference (p^2) and environment (d_env) marginals of a batch."""
    b = rho_batch.shape[0]
    t = rho_batch.reshape(b, p, p, d_env, p, p, d_env)
    ref = np.einsum("bxyeuve->bxyuv", t).reshape(b, p * p, p * p)
    eve = np.einsum("bxyexyf->bef", t)
    return ref, eve


def analyze(
    config: ProtocolConfig,
    b1_values: Sequence[int] | None = None,
    record_cap: int = DEFAULT_RECORD_CAP,
    n_samples: int = DEFAULT_SAMPLES,
    sample_seed: int = 0,
    with_fidelity: bool = True,
) -> SecurityReport:
    """Reconstruct the wiretapper's conditional states and measure deviations.

    Records are enumerated exhaustively when their count fits ``record_cap``,
    otherwise ``n_samples`` records are drawn with ``sample_seed``.  The
    scrambling key is averaged uniformly over ``b1_values`` (all of F_p by
    default); ``config.b1`` is ignored here.  Recovery-step corrections act
    only on traced registers and are omitted, as the verdict cannot depend
    on them.
    """
    if config.attack is None:
        raise ValueError("analyze requires a configured attack")
    if config.input_mode != ENTANGLED:
        raise ValueError("analyze requires entangled-halves inputs")
    t0 = time.perf_counter()
    p = config.p
    b1s = tuple(range(p)) if b1_values is None else tuple(v % p for v in b1_values)
    spec = _wiretap_spectrum(config, b1s)
    n_vis = len(spec.visible)
    n_all = p**n_vis
    exhaustive = n_all <= record_cap
    d_env = config.attack.d_env
    ng = spec.kept_layout.total_dim
    batch = max(1, _BATCH_BYTES // (16 * ng * ng))

    if exhaustive:
        n_records = n_all
        def chunks():
            for lo in range(0, n_all, batch):
                yield record_digits(p, n_vis, lo, min(lo + batch, n_all))
    else:
        rng = np.random.default_rng(sample_seed)
        sampled = rng.integers(0, p, size=(n_samples, n_vis), dtype=np.int64)
        n_records = n_samples
        def chunks():
            for lo in range(0, n_samples, batch):
                yield sampled[lo : lo + batch]

    eve_ref = expected_environment_state(config.attack)
    expected = np.kron(np.eye(p * p) / (p * p), eve_ref)
    ref_expected = np.eye(p * p) / (p * p)

    stats: list[BranchStat] = []
    probs: list[np.ndarray] = []
    frobs: list[np.ndarray] = []
    ref_frobs: list[np.ndarray] = []
    records_seen: list[np.ndarray] = []
    herm_err = 0.0
    eve_acc = np.zeros((d_env, d_env), dtype=complex)
    uniform_prob = 1.0 / n_all

    for recs in chunks():
        rho = spec.states(recs)
        tr = np.einsum("bii->b", rho).real
        prob = tr * float(p) ** (-n_vis)
        herm_err = max(herm_err, float(np.abs(rho - rho.conj().transpose(0, 2, 1)).max()))
        safe_tr = np.where(tr > 0.0, tr, 1.0)
        rho_n = rho / safe_tr[:, None, None]
        delta = rho_n - expected[None, :, :]
        frob = np.sqrt(np.einsum("bij,bij->b", delta, delta.conj()).real)
        ref_m, eve_m = _marginals(rho_n, p, d_env)
        ref_delta = ref_m - ref_expected[None, :, :]
        ref_frob = np.sqrt(np.einsum("bij,bij->b", ref_delta, ref_delta.conj()).real)
        eve_acc += np.einsum("b,bef->ef", prob, eve_m)
        probs.append(prob)
        frobs.append(frob)
        ref_frobs.append(ref_frob)
        records_seen.append(recs)
        for i in range(recs.shape[0]):
            stats.append(
                BranchStat(
                    record=tuple(int(d) for d in recs[i]),
                    probability=float(prob[i]),
                    product_deviation_bound=0.5 * math.sqrt(ng) * float(frob[i]),
                    reference_deviation_bound=0.5 * p * float(ref_frob[i]),
                )
            )

    prob_all = np.concatenate(probs)
    frob_all = np.concatenate(frobs)
    ref_frob_all = np.concatenate(ref_frobs)
    recs_all = np.concatenate(records_seen, axis=0)
    total = float(prob_all.sum())

    if exhaustive:
        uniformity = 0.5 * float(np.abs(prob_all - uniform_prob).sum())
    else:
        uniformity = float(np.abs(prob_all / uniform_prob - 1.0).max())

    def exact_max(
        frob_arr: np.ndarray, bound_scale: float, exact_fn, floor: float = 1e-12
    ) -> tuple[float, int]:
        """Largest exact deviation, visiting records in descending bound order.

        Records whose bound cannot beat the best exact value seen (or the
        numerical floor) are skipped; the reported maximum then includes the
        skipped records' common bound, so it never understates.
        """
        order = np.argsort(frob_arr)[::-1]
        best, best_idx = -1.0, int(order[0])
        remaining_bound = 0.0
        computed = 0
        for idx in order:
            bound = bound_scale * float(frob_arr[idx])
            if computed > 0 and (bound <= best or bound <= floor):
                remaining_bound = bound
                break
            d = exact_fn(int(idx))
            computed += 1
            if d > best:
                best, best_idx = d, int(idx)
        return max(best, remaining_bound, 0.0), best_idx

    def rho_at(idx: int) -> np.ndarray:
        m = spec.states(recs_all[idx : idx + 1])[0]
        tr = float(np.trace(m).real)
        return m / tr if tr > 0 else m

    product_dev, worst_idx = exact_max(
        frob_all, 0.5 * math.sqrt(ng), lambda i: trace_distance(rho_at(i), expected)
    )
    ref_dev, _ = exact_max(
        ref_frob_all,
        0.5 * p,
        lambda i: trace_distance(_marginals(rho_at(i)[None], p, d_env)[0][0], ref_expected),
    )
    stats[worst_idx] = replace(
        stats[worst_idx],
        product_deviation=product_dev,
        reference_deviation=trace_distance(
            _marginals(rho_at(worst_idx)[None], p, d_env)[0][0], ref_expected
        ),
    )

    eve_mean = eve_acc / total
    report = SecurityReport(
        p=p,
        variant=config.variant,
        attack=config.attack,
        record_edges=spec.visible,
        exhaustive=exhaustive,
        n_records=n_records,
        per_branch=stats,
        probability_total=total,
        record_uniformity=uniformity,
        product_deviation=product_dev,
        reference_deviation_from_maximally_mixed=ref_dev,
        sigma_sum_match=trace_distance(eve_mean, eve_ref),
        hermiticity_error=herm_err,
        eve_reference_state=eve_ref,
        worst_record=stats[worst_idx].record,
        _spectrum=spec,
    )
    report.worst_conditional = report.conditional(report.worst_record)
    report.anchor_record = (0,) * n_vis
    report.anchor_conditional = report.conditional(report.anchor_record)
    if with_fidelity:
        report.output_fidelity_under_attack = attacked_fidelity(config, b1_values=b1s)
    report.elapsed_seconds = time.perf_counter() - t0
    return report


def verify_independence(report: SecurityReport, tol: float = 1e-9) -> tuple[bool, dict]:
    """Certify that the wiretapper learns nothing, or exhibit a witness.

    True iff every conditional state is within ``tol`` (trace distance) of
    the proven product form, every reference marginal is within ``tol`` of
    maximally mixed, and the record distribution is within ``tol`` of
    uniform.  Witness dict carries the worst record and its deviations.
    """
    failures = []
    if report.product_deviation > tol:
        failures.append(
            f"conditional state deviates from product form by {report.product_deviation:.3e}"
        )
    if report.reference_deviation_from_maximally_mixed > tol:
        failures.append(
            "reference marginal deviates from maximally mixed by "
            f"{report.reference_deviation_from_maximally_mixed:.3e}"
        )
    if report.record_uniformity > tol:
        failures.append(f"record distribution deviates from uniform by {report.record_uniformity:.3e}")
    witnesses = {
        "worst_record": report.worst_record,
        "product_deviation": report.product_deviation,
        "reference_deviation": report.reference_deviation_from_maximally_mixed,
        "record_uniformity": report.record_uniformity,
        "failures": failures,
    }
    return not failures, witnesses


def attacked_fidelity(
    config: ProtocolConfig, b1_values: Sequence[int] | None = None
) -> float:
    """Branch-averaged fidelity of the recovered state with the ideal output.

    Computed in closed form: averaging the per-branch fidelity over all
    announced records collapses the record sum to a delta on the
    correction-adjusted measured values, leaving a quadratic form over the
    support.  Agrees with explicit branch enumeration (see tests) but costs
    O(support^2) instead of O(p^9 * support).
    """
    if config.attack is None:
        raise ValueError("attacked_fidelity requires a configured attack")
    if config.input_mode != ENTANGLED:
        raise ValueError("attacked_fidelity requires entangled-halves inputs")
    p = config.p
    b1s = tuple(range(p)) if b1_values is None else tuple(v % p for v in b1_values)
    m1, m2 = (np.array(c, dtype=np.int64) for c in recovery_columns(p))

    total = 0.0
    for b1 in b1s:
        cfg = replace(config, b1=b1)
        state = step2_transmit(step1_initialize(cfg), cfg)
        amp = np.array(list(state.amps.values()), dtype=np.complex128)
        cols = {n: state.value_column(n) for n in state.layout.names}
        h12, h13 = cols[wire(12)], cols[wire(13)]
        matched = (cols["ref1"] == h12) & (cols["ref2"] == h13)
        if not matched.any():
            continue
        zmeas = np.stack([cols[wire(e)] for e in MEASURED_EDGES], axis=1)
        adjusted = (zmeas - h12[:, None] * m1[None, :] - h13[:, None] * m2[None, :]) % p
        key = np.column_stack([cols["E"][matched], adjusted[matched]])
        _, inverse = np.unique(key, axis=0, return_inverse=True)
        sums = np.zeros(inverse.max() + 1, dtype=np.complex128)
        np.add.at(sums, inverse, amp[matched])
        total += float((sums * sums.conj()).real.sum()) / (p * p)
    return total / len(b1s)
