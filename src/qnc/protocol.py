"""Four-step secure quantum network coding protocol on the butterfly graph.

Step 1 prepares the sources: each message wire starts as half of a
maximally entangled pair (its other half kept as a reference), interior
wires start at |0>.  Step 2 runs the classical code coherently, one affine
adder per computed edge, mixing in the scrambling key b1; a wiretap
isometry, when present, is spliced onto its edge right after that edge is
written and before anything downstream reads it.  Step 3 measures the nine
upstream wires in the Fourier basis and broadcasts the outcomes, those that
``visible_edges`` leaves out one-time-padded by the pair key b2.
Step 4 applies outcome-dependent phase corrections at the sinks, after
which each sink wire holds the teleported message wire exactly.

The steps run on the dict-based ``SparseState`` engine, the literal oracle
behind ``run`` and ``enumerate_branches``.  The fast paths (``branch_table``
and the ``security`` analysis) read ``support`` instead: the same
post-transmission state as arrays, built from the transfer matrix.  Which of
its entries overlap the ideal output (``overlap_terms``) and which outcomes
the wiretapper sees (``visible_edges``) are decided here, once for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .adversary import AttackSpec
from .classical_code import FLOW_RULES, ROW_EDGES, _coeff, transfer_matrix, validate_modulus
from .engine import PRUNE_TOL, RegisterLayout, SparseState

VARIANT_FULL = "full_pad"
VARIANT_WEAK = "weak_pad_c11_only"
VARIANTS = (VARIANT_FULL, VARIANT_WEAK)

ENTANGLED = "entangled_halves"
GIVEN = "given_states"

# Edges measured in Step 3, in measurement order; edge k lives on wire Hk.
MEASURED_EDGES: tuple[int, ...] = (1, 2, 5, 6, 7, 8, 9, 10, 11)
# Edge values one-time-padded before broadcast.
PADDED_EDGES: tuple[int, ...] = (10, 11)
# Coherent adders are applied in edge order; sinks keep edges 12 and 13.
CODED_EDGES: tuple[int, ...] = (5, 6, 7, 8, 9, 10, 11, 12, 13)

ENUMERATION_CAP = 3**10


class EnumerationCapExceeded(RuntimeError):
    """Raised when a branch enumeration would exceed ``ENUMERATION_CAP``."""


def wire(edge: int) -> str:
    return f"H{edge}"


def visible_edges(variant: str) -> tuple[int, ...]:
    """Measured edges whose announced outcomes reach the wiretapper unpadded:
    the full pad hides ``PADDED_EDGES``, the weak pad edge 11 alone."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    hidden = PADDED_EDGES if variant == VARIANT_FULL else (11,)
    return tuple(e for e in MEASURED_EDGES if e not in hidden)


@dataclass(frozen=True)
class ProtocolConfig:
    """One protocol run: field size, keys, optional attack, input mode."""

    p: int
    b1: int = 0
    # The pad key reaches nothing here: it changes what is broadcast, not the
    # state.  It stays because the benchmark's honest workload passes it.
    b2: tuple[int, int] = (0, 0)
    attack: AttackSpec | None = None
    variant: str = VARIANT_FULL
    input_mode: str = ENTANGLED
    psi1: np.ndarray | None = None
    psi2: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        validate_modulus(self.p)
        object.__setattr__(self, "b1", self.b1 % self.p)
        object.__setattr__(self, "b2", (self.b2[0] % self.p, self.b2[1] % self.p))
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.input_mode not in (ENTANGLED, GIVEN):
            raise ValueError(f"input_mode must be {ENTANGLED!r} or {GIVEN!r}")
        if self.attack is not None and self.attack.p != self.p:
            raise ValueError(f"attack is over F_{self.attack.p}, config over F_{self.p}")
        if self.input_mode == GIVEN:
            for name, psi in (("psi1", self.psi1), ("psi2", self.psi2)):
                if psi is None:
                    raise ValueError(f"{name} is required in given-input mode")
                psi = np.asarray(psi, dtype=complex)
                if psi.shape != (self.p,):
                    raise ValueError(f"{name} must be a length-{self.p} vector")
                if abs(np.vdot(psi, psi).real - 1.0) > 1e-10:
                    raise ValueError(f"{name} must be normalized")
                object.__setattr__(self, name, psi)
        elif self.psi1 is not None or self.psi2 is not None:
            raise ValueError("input vectors are only allowed in given-input mode")


@dataclass(frozen=True)
class RunResult:
    """One finished branch.  ``outcomes`` maps each measured edge to its
    announced symbol C_k; the sinks see them all, the wiretapper those on
    ``visible_edges``."""

    final_state: SparseState = field(repr=False)
    outcomes: dict[int, int]
    branch_probability: float
    fidelity: float


def _message_state(config: ProtocolConfig, on: tuple[int, int],
                   blank: tuple[int, ...] = ()) -> SparseState:
    """The two messages on the wires of edges ``on``, then ``blank`` wires at |0>.

    Entangled mode: each message wire is half of a maximally entangled pair
    whose other half is a reference register (``ref1``, ``ref2``, placed
    first).  Given mode: the message wires carry the supplied input vectors.
    """
    p = config.p
    wires = [(wire(e), p) for e in on + blank]
    if config.input_mode == ENTANGLED:
        layout = RegisterLayout([("ref1", p), ("ref2", p)] + wires)
        zeros = (0,) * len(blank)
        amps = {(a, b, a, b) + zeros: 1.0 / p for a in range(p) for b in range(p)}
        return SparseState(layout, amps)
    vectors = [config.psi1, config.psi2] + [np.eye(p)[0]] * len(blank)
    return SparseState.from_site_vectors(RegisterLayout(wires), vectors)


def step1_initialize(config: ProtocolConfig) -> SparseState:
    """Prepare the sources on edges 1 and 2 and blank the coded wires."""
    return _message_state(config, (1, 2), CODED_EDGES)


def step2_transmit(state: SparseState, config: ProtocolConfig) -> SparseState:
    """Run the classical code coherently, splicing in any wiretap isometry.

    Each computed edge gets one affine adder built from the same flow table
    as the classical evaluator; the scrambling key b1 enters as the adder
    constant wherever the key edges feed in.  The attack isometry acts on
    its edge immediately after that edge is written.
    """
    p = config.p
    for edge in CODED_EDGES:
        terms = []
        constant = 0
        for src, tag in FLOW_RULES[edge]:
            c = _coeff(tag, p)
            if src in (3, 4):
                constant += c * config.b1
            else:
                terms.append((wire(src), c))
        state = state.apply_affine_adder(wire(edge), terms, constant)
        if config.attack is not None and config.attack.edge == edge:
            state = state.apply_isometry(wire(edge), config.attack.isometry)
    return state


@dataclass(frozen=True)
class Support:
    """The state after Steps 1-2 as arrays, one entry per (a1, a2, b1, env, e1)."""

    amp: np.ndarray  # amplitudes, key-mixture weight included
    coords: np.ndarray  # columns a1, a2, b1, env, e1 (env = e1 = 0 without an attack)
    values: np.ndarray  # the ROW_EDGES values

    def edges(self, edges: Sequence[int]) -> np.ndarray:
        return self.values[:, [ROW_EDGES.index(e) for e in edges]]


def support(config: ProtocolConfig, b1_values: Sequence[int] | None = None) -> Support:
    """The state ``step2_transmit`` builds, mixed uniformly over ``b1_values``
    (every key by default), from the transfer matrix applied to (a1, a2, b1),
    plus e1 under attack.  A tap multiplies the amplitude by V[(env, e1), z],
    z being the tapped edge's honest value; entries below ``PRUNE_TOL`` are
    dropped, as the engine drops them.  Amplitudes carry the
    1/sqrt(len(b1_values)) mixture weight."""
    p = config.p
    keys = np.arange(p) if b1_values is None else np.asarray(b1_values, dtype=np.int64) % p
    if keys.size == 0 or len(set(keys.tolist())) < keys.size:
        raise ValueError(f"b1_values must be one or more distinct keys mod {p}")
    grid = np.meshgrid(np.arange(p), np.arange(p), keys, indexing="ij")
    inputs = np.stack([g.ravel() for g in grid], axis=1)
    if config.input_mode == ENTANGLED:
        amp = np.full(len(inputs), 1.0 / p, dtype=np.complex128)
    else:
        amp = config.psi1[inputs[:, 0]] * config.psi2[inputs[:, 1]]
    matrix = transfer_matrix(p)
    taps = amp[:, None]
    if config.attack is not None:
        z = inputs @ matrix[ROW_EDGES.index(config.attack.edge)] % p
        taps = taps * config.attack.isometry.T[z]
        matrix = transfer_matrix(p, config.attack.edge)
    entry, row = np.nonzero(np.abs(taps) >= PRUNE_TOL)
    env, e1 = divmod(row, p)
    coords = np.column_stack([inputs[entry], env, e1])
    # columns (a1, a2, b1), plus e1 under attack
    values = coords[:, [0, 1, 2, 4][: matrix.shape[1]]] @ matrix.T % p
    return Support(taps[entry, row] * (1.0 / math.sqrt(len(keys))), coords, values)


def step3_measure(
    state: SparseState, config: ProtocolConfig
) -> tuple[SparseState, dict[int, int], float]:
    """Measure the nine upstream wires in the Fourier basis, sampling each
    outcome from one generator seeded with ``config.seed``.

    Outcomes are announced in the negated labeling, chosen so that the
    Step 4 exponents cancel the measurement phases without an extra sign
    flip.  Returns the post-measurement state, the announced outcomes by
    edge, and the branch probability.
    """
    rng = np.random.default_rng(config.seed)
    outcomes: dict[int, int] = {}
    probability = 1.0
    for edge in MEASURED_EDGES:
        result = state.measure_x_basis(wire(edge), rng=rng)
        outcomes[edge] = (-result.outcome) % config.p
        probability *= result.probability
        state = result.state
    return state, outcomes, probability


@lru_cache(maxsize=None)
def recovery_columns(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The a1 and a2 columns of the honest transfer matrix on MEASURED_EDGES.

    Cached as int tuples; the matrix itself is a mutable array.
    """
    rows = transfer_matrix(p)[[ROW_EDGES.index(e) for e in MEASURED_EDGES]]
    return tuple(rows[:, 0].tolist()), tuple(rows[:, 1].tolist())


def recovery_exponents(p: int, outcomes: dict[int, int]) -> tuple[int, int]:
    """Per-sink phase correction exponents from the announced outcomes.

    Each sink contracts the outcomes against the message column of the
    honest transfer matrix; the scrambling-key column only ever
    contributes a global phase.
    """
    m1, m2 = recovery_columns(p)
    r1 = sum(outcomes[e] * c for e, c in zip(MEASURED_EDGES, m1))
    r2 = sum(outcomes[e] * c for e, c in zip(MEASURED_EDGES, m2))
    return r1 % p, r2 % p


def step4_recover(state: SparseState, p: int, outcomes: dict[int, int]) -> SparseState:
    """Apply the announced-outcome phase corrections at the two sinks."""
    r1, r2 = recovery_exponents(p, outcomes)
    state = state.apply_phase_power(wire(12), -r1)
    state = state.apply_phase_power(wire(13), -r2)
    return state


def ideal_output_state(config: ProtocolConfig) -> SparseState:
    """The target final state: the messages teleported to sink edges 12 and 13."""
    return _message_state(config, (12, 13))


def output_fidelity(state: SparseState, config: ProtocolConfig, target: SparseState) -> float:
    """Fidelity of the post-recovery state with the ideal output ``target``,
    which is ``ideal_output_state(config)``.

    Pure overlap when no environment is attached; otherwise the environment
    is traced out first.
    """
    if config.attack is None:
        return float(abs(state.inner(target)) ** 2)
    reduced = state.partial_trace(target.layout.names)
    return reduced.fidelity_with_pure(target)


def _finish(state: SparseState, config: ProtocolConfig, outcomes: dict[int, int],
            probability: float, target: SparseState) -> RunResult:
    """Step 4 on one measured branch, and its fidelity with ``target``."""
    final = step4_recover(state, config.p, outcomes)
    return RunResult(final, outcomes, probability, output_fidelity(final, config, target))


def run(config: ProtocolConfig) -> RunResult:
    """Execute one full protocol run, sampling the measurement branch from
    ``config.seed``."""
    state = step2_transmit(step1_initialize(config), config)
    state, outcomes, probability = step3_measure(state, config)
    return _finish(state, config, outcomes, probability, ideal_output_state(config))


def enumerate_branches(
    config: ProtocolConfig, forced: dict[int, int] | None = None
) -> Iterator[RunResult]:
    """Yield every nonzero-probability branch of Steps 3-4.

    Edges in ``forced`` are pinned to an announced outcome in [0, p) (its
    branch weight multiplies in); every other measured edge is enumerated.
    Without forcing, branch probabilities sum to one.  This path computes a
    fidelity per leaf, for attacked runs via a partial trace, which is the
    slow, obviously-correct route; the vectorized kernels exist for bulk
    work.
    """
    p = config.p
    forced = forced or {}
    for e, announced in forced.items():
        if e not in MEASURED_EDGES:
            raise ValueError(f"edge {e} is not measured in Step 3")
        if not 0 <= announced < p:
            raise ValueError(f"announced outcome {announced} on edge {e} is outside [0, {p})")
    free = len(MEASURED_EDGES) - len(forced)
    if p**free > ENUMERATION_CAP:
        raise EnumerationCapExceeded(f"{p}^{free} branches exceed the cap of {ENUMERATION_CAP}")
    target = ideal_output_state(config)

    def descend(state: SparseState, outcomes: tuple[int, ...], prob: float) -> Iterator[RunResult]:
        if len(outcomes) == len(MEASURED_EDGES):
            yield _finish(state, config, dict(zip(MEASURED_EDGES, outcomes)), prob, target)
            return
        edge = MEASURED_EDGES[len(outcomes)]
        if edge in forced:
            announced = forced[edge]
            branches = [(announced, state.measure_x_basis(wire(edge), outcome=(-announced) % p))]
        else:
            # all p branches of the edge from one pass over the state
            results = state.measure_x_basis_all(wire(edge))
            branches = [(a, results[(-a) % p]) for a in range(p)]
        for a, result in branches:
            if result.probability > 0.0:
                yield from descend(result.state, outcomes + (a,), prob * result.probability)

    yield from descend(step2_transmit(step1_initialize(config), config), (), 1.0)


def overlap_terms(
    config: ProtocolConfig, sup: Support
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The support entries that overlap the ideal output after Step 4, as
    (coef, bucket, pos) for the kernels' scalar spectrum.

    coef is the amplitude times the conjugated target amplitude: entangled
    inputs keep the entries whose sink wires hold the references, at target
    amplitude 1/p; given inputs weigh every entry by psi1[h12] psi2[h13].
    Terms add coherently within a (key, environment) bucket, and the sinks'
    correction puts each at the record position z - h12 m1 - h13 m2.
    """
    p = config.p
    a1, a2, b1, env, _ = sup.coords.T
    h12, h13 = sup.edges((12, 13)).T
    m1, m2 = (np.array(c, dtype=np.int64) for c in recovery_columns(p))
    shift = np.outer(h12, m1) + np.outer(h13, m2)
    pos = (sup.edges(MEASURED_EDGES) - shift) % p
    d_env = 1 if config.attack is None else config.attack.d_env
    bucket = b1 * d_env + env
    if config.input_mode == GIVEN:
        return sup.amp * (config.psi1[h12] * config.psi2[h13]).conj(), bucket, pos
    on = (a1 == h12) & (a2 == h13)
    return sup.amp[on] / p, bucket[on], pos[on]


def branch_table(config: ProtocolConfig) -> tuple[np.ndarray, np.ndarray]:
    """Probability and output fidelity of every announced-outcome branch.

    The vectorized counterpart of a full ``enumerate_branches`` sweep:
    returns two arrays of length p^9 indexed by the announced record in
    lexicographic order (first measured wire most significant).  The
    post-transmission ``support``, bucketed by its unmeasured registers, and
    its ``overlap_terms`` go to ``kernels.branch_summary``, which sums their
    difference (delta) spectra: O(pairs within buckets + p^9 x number of
    deltas), a constant table when only delta = 0 occurs, as for every honest
    run.  Cross-checked against the generator in the tests.
    """
    from .kernels import branch_summary

    sup = support(config, (config.b1,))
    a1, a2, _, env, _ = sup.coords.T
    h12, h13 = sup.edges((12, 13)).T
    # the unmeasured registers: references (entangled mode), sinks, environment
    rest = [h12, h13, env] if config.input_mode == GIVEN else [a1, a2, h12, h13, env]
    _, rest_index = np.unique(np.stack(rest, axis=1), axis=0, return_inverse=True)
    return branch_summary(
        sup.amp, sup.edges(MEASURED_EDGES), rest_index.ravel(), *overlap_terms(config, sup), config.p
    )
