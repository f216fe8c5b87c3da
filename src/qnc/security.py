"""Wiretap security analysis of the attacked protocol.

The wiretapper ends up holding her environment register plus the announced
outcomes that are not one-time-padded.  This module reconstructs, for every
such announced record, the exact joint state of (reference registers,
environment) conditioned on that record, with the scrambling key folded in
as a uniform classical mixture and the sink-side registers traced out (the
recovery step acts only on traced registers, so omitting it changes
nothing; a test exercises the slow path with recovery applied to confirm).

Both the states and the attacked fidelity read ``protocol.support``, built
once per ``analyze`` from the transfer matrix; ``protocol.visible_edges``
and ``protocol.overlap_terms`` pick the record digits and the overlap.  The
states come from one difference spectrum (``kernels.spectrum``): the support
is bucketed by traced group (hidden wires, sink wires, key) with the visible
record digits as positions and a_i e_kept_i as coefficients, so rho_r =
Omega_0 + sum_delta (w^(r . delta) Omega_delta + h.c.) over the non-zero
record differences delta inside a group.  On every full-pad input measured
only delta = 0 occurs, so every state is Omega_0.  Memory is the spectrum,
m x m per delta with m = p^2 d_env, plus one batch of records sized to
``_BATCH_BYTES``.

Security holds when each conditional state is the fixed product
(I / p^2) tensor (total environment leak / p), and the record distribution
is uniform.  rho_r depends on r only through its class (r . delta mod p)
over the deltas, so ``analyze`` measures both deviations exactly, one
trace distance per class of the evaluated records; the record loop supplies
the probabilities, the hermiticity check and the wiretapper's marginal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .adversary import AttackSpec
from .engine import DensityMatrix, RegisterLayout, trace_distance
from .kernels import class_representatives, conditional_states, record_digits, scalar_w0, spectrum
from .protocol import (
    ENTANGLED,
    MEASURED_EDGES,
    ProtocolConfig,
    Support,
    overlap_terms,
    support,
    visible_edges,
)
# not called here; kept importable because qncbench/tracing.py lists it in WRAPPED
from .protocol import step2_transmit  # noqa: F401

RECORD_CAP = 3**8
# bytes of one batch of conditional states (records x n_kept^2 complex);
# analyze holds a few arrays of this size at once
_BATCH_BYTES = 4 << 20


def expected_environment_state(attack: AttackSpec) -> np.ndarray:
    """The proven limit of the wiretapper's knowledge: total leak, normalized."""
    return attack.total_leak() / attack.p


def _wiretap_arrays(
    config: ProtocolConfig, sup: Support
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The support as the wiretapper's states see it: (amplitudes, visible
    record digits, kept index over (ref1, ref2, E), traced group).  A traced
    group shares the hidden wires, the sink wires and the key."""
    vis = visible_edges(config.variant)
    hidden = [e for e in MEASURED_EDGES if e not in vis]
    a1, a2, b1, env, _ = sup.coords.T
    _, group = np.unique(
        np.column_stack([sup.edges(hidden + [12, 13]), b1]), axis=0, return_inverse=True
    )
    kept = (a1 * config.p + a2) * config.attack.d_env + env
    return sup.amp, sup.edges(vis), kept, group.ravel()


@dataclass(frozen=True)
class _WiretapSpectrum:
    """The conditional states' delta spectrum (see ``kernels.spectrum``)."""

    p: int
    kept_layout: RegisterLayout = field(repr=False)
    omega0: np.ndarray = field(repr=False)
    diffs: np.ndarray = field(repr=False)
    omega: np.ndarray = field(repr=False)

    def states(self, records: np.ndarray) -> np.ndarray:
        return conditional_states(records, self.omega0, self.diffs, self.omega, self.p)


def _wiretap_spectrum(config: ProtocolConfig, sup: Support) -> _WiretapSpectrum:
    p = config.p
    layout = RegisterLayout([("ref1", p), ("ref2", p), ("E", config.attack.d_env)])
    amp, zvis, kept, group = _wiretap_arrays(config, sup)
    return _WiretapSpectrum(p, layout, *spectrum(amp, group, zvis, kept, layout.total_dim, p))


# report fields copied to JSON as they are
_JSON_SCALARS = (
    "p", "variant", "exhaustive", "n_records", "record_classes", "probability_total",
    "record_uniformity", "product_deviation", "reference_deviation_from_maximally_mixed",
    "sigma_sum_match", "hermiticity_error", "output_fidelity_under_attack", "elapsed_seconds",
)


@dataclass
class SecurityReport:
    """Everything ``analyze`` learned about one attacked configuration, built
    once at its end.  Conditional states, the anchor's included, are
    computed on request from the wiretap spectrum it keeps."""

    p: int
    variant: str
    attack: AttackSpec
    record_edges: tuple[int, ...]
    exhaustive: bool
    n_records: int
    record_classes: int
    probability_total: float
    record_uniformity: float
    product_deviation: float
    reference_deviation_from_maximally_mixed: float
    sigma_sum_match: float
    hermiticity_error: float
    output_fidelity_under_attack: float | None
    worst_record: tuple[int, ...]
    elapsed_seconds: float
    _spectrum: _WiretapSpectrum = field(repr=False)

    def _state(self, record: Sequence[int]) -> np.ndarray:
        """Unnormalized state of one record: a digit in [0, p) per record edge."""
        rec = np.asarray([record], dtype=np.int64)
        if rec.shape != (1, len(self.record_edges)) or rec.min() < 0 or rec.max() >= self.p:
            raise ValueError(f"record must be {len(self.record_edges)} digits in [0, {self.p})")
        return self._spectrum.states(rec)[0]

    def conditional(self, record: Sequence[int]) -> DensityMatrix:
        """Exact conditional joint state for one announced record."""
        rho = self._state(record)
        tr = float(np.trace(rho).real)
        if tr <= 0.0:
            raise ValueError(f"record {tuple(record)} has zero probability")
        return DensityMatrix(self._spectrum.kept_layout, rho / tr)

    @property
    def anchor_conditional(self) -> DensityMatrix:
        """The conditional state of the all-zero record."""
        return self.conditional((0,) * len(self.record_edges))

    def record_probability(self, record: Sequence[int]) -> float:
        tr = float(np.trace(self._state(record)).real)
        return tr * float(self.p) ** (-len(self.record_edges))

    def to_json(self) -> dict:
        out = {name: getattr(self, name) for name in _JSON_SCALARS}
        out.update(
            attack=self.attack.to_json(),
            record_edges=list(self.record_edges),
            worst_record=list(self.worst_record),
        )
        return out


def _marginals(rho: np.ndarray, p: int, d_env: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference (p^2) and environment (d_env) marginals of one joint state."""
    t = rho.reshape(p, p, d_env, p, p, d_env)
    ref = np.einsum("xyeuve->xyuv", t).reshape(p * p, p * p)
    return ref, np.einsum("xyexyf->ef", t)


def analyze(
    config: ProtocolConfig,
    n_samples: int | None = None,
    sample_seed: int = 0,
    with_fidelity: bool = True,
) -> SecurityReport:
    """Reconstruct the wiretapper's conditional states and measure deviations.

    Every record is enumerated unless ``n_samples`` is given; then that many
    records are drawn with ``sample_seed``.  More than ``RECORD_CAP`` records
    without ``n_samples`` is a ``ValueError``, raised before any work.  The
    scrambling key is averaged uniformly over F_p; ``config.b1`` is ignored
    here.  Recovery-step corrections act only on traced registers and are
    omitted, as the verdict cannot depend on them.

    Every evaluated record's state is built once, in batches, for its
    probability, the hermiticity check and the wiretapper's marginal.  The
    deviations are exact: one trace distance per class of the evaluated
    records (``kernels.class_representatives``), taken at the class's first
    record; the worst class's first record is the reported ``worst_record``.
    A zero-probability class counts as the zero matrix, at deviation 1/2.
    """
    if config.attack is None:
        raise ValueError("analyze requires a configured attack")
    if config.input_mode != ENTANGLED:
        raise ValueError("analyze requires entangled-halves inputs")
    t0 = time.perf_counter()
    p = config.p
    visible = visible_edges(config.variant)
    n_vis = len(visible)
    n_all = p**n_vis
    exhaustive = n_samples is None
    if exhaustive and n_all > RECORD_CAP:
        raise ValueError(
            f"{n_all} records exceed the exhaustive cap {RECORD_CAP}; "
            "pass --sample N to sample records"
        )
    sup = support(config)
    spec = _wiretap_spectrum(config, sup)
    d_env = config.attack.d_env
    ng = spec.kept_layout.total_dim
    batch = max(1, _BATCH_BYTES // (16 * ng * ng))
    if exhaustive:
        records = record_digits(p, n_vis, 0, n_all)
    else:
        rng = np.random.default_rng(sample_seed)
        records = rng.integers(0, p, size=(n_samples, n_vis), dtype=np.int64)

    traces: list[np.ndarray] = []
    herm_err = 0.0
    rho_sum = np.zeros((ng, ng), dtype=complex)
    for lo in range(0, len(records), batch):
        rho = spec.states(records[lo : lo + batch])
        traces.append(np.einsum("bii->b", rho).real)
        herm_err = max(herm_err, float(np.abs(rho - rho.conj().transpose(0, 2, 1)).max()))
        rho_sum += rho.sum(axis=0)
    prob_all = np.concatenate(traces) * float(p) ** (-n_vis)
    total = float(prob_all.sum())
    if exhaustive:
        uniformity = 0.5 * float(np.abs(prob_all - 1.0 / n_all).sum())
    else:
        uniformity = float(np.abs(prob_all * n_all - 1.0).max())

    eve_ref = expected_environment_state(config.attack)
    expected = np.kron(np.eye(p * p) / (p * p), eve_ref)
    ref_expected = np.eye(p * p) / (p * p)
    first, _ = class_representatives(records, spec.diffs, p)
    product_devs, ref_devs = [], []
    for lo in range(0, len(first), batch):
        for rho in spec.states(records[first[lo : lo + batch]]):
            tr = float(np.trace(rho).real)
            rho = rho / tr if tr > 0.0 else np.zeros_like(rho)
            product_devs.append(trace_distance(rho, expected))
            ref_devs.append(trace_distance(_marginals(rho, p, d_env)[0], ref_expected))
    worst = int(np.argmax(product_devs))

    eve_mean = _marginals(rho_sum, p, d_env)[1] * float(p) ** (-n_vis) / total
    fidelity = scalar_w0(*overlap_terms(config, sup), p) if with_fidelity else None
    return SecurityReport(
        p=p,
        variant=config.variant,
        attack=config.attack,
        record_edges=visible,
        exhaustive=exhaustive,
        n_records=len(records),
        record_classes=len(first),
        probability_total=total,
        record_uniformity=uniformity,
        product_deviation=product_devs[worst],
        reference_deviation_from_maximally_mixed=max(ref_devs),
        sigma_sum_match=trace_distance(eve_mean, eve_ref),
        hermiticity_error=herm_err,
        output_fidelity_under_attack=fidelity,
        worst_record=tuple(int(d) for d in records[first[worst]]),
        elapsed_seconds=time.perf_counter() - t0,
        _spectrum=spec,
    )


def verify_independence(report: SecurityReport, tol: float = 1e-9) -> tuple[bool, list[str]]:
    """Certify that the wiretapper learns nothing, or say why not.

    True iff every conditional state is within ``tol``, a finite number
    >= 0, of the proven product form (trace distance), every reference
    marginal is within ``tol`` of maximally mixed, and the record
    distribution is within ``tol`` of uniform.  The list names each bound
    that fails; the report itself holds the worst record and the deviations.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
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
    return not failures, failures


def attacked_fidelity(config: ProtocolConfig) -> float:
    """Branch-averaged fidelity of the recovered state with the ideal output,
    the scrambling key averaged uniformly over F_p.

    Computed in closed form as the delta = 0 term W_0 of the overlap
    spectrum (``kernels.scalar_w0`` of ``protocol.overlap_terms``):
    sum_r prob(r) fid(r) is p^-n times the record sum of the overlap, over
    which every non-zero delta cancels.  Agrees with the key average of
    ``protocol.branch_table`` (see tests) but costs one pass over the
    support instead of O(p^9).
    """
    if config.attack is None:
        raise ValueError("attacked_fidelity requires a configured attack")
    if config.input_mode != ENTANGLED:
        raise ValueError("attacked_fidelity requires entangled-halves inputs")
    return scalar_w0(*overlap_terms(config, support(config)), config.p)
