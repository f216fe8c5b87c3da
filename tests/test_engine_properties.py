"""Property tests of the sparse engine's fast paths on random small layouts.

Amplitudes are drawn both well above and around ``PRUNE_TOL``, so pruning at
construction and after summing is exercised.  The Fourier-measurement
references below are written out here, one outcome at a time, with their own
phases, sharing nothing with the engine's grouped (rest x value) pass.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qnc.engine import (
    PRUNE_TOL,
    LayoutError,
    RegisterLayout,
    SparseState,
    ZeroProbabilityBranch,
)

NAMES = "abcd"


@st.composite
def amplitudes(draw, tiny=True):
    """A unit-scale or (if ``tiny``) a near-threshold magnitude, random phase."""
    if not tiny or draw(st.booleans()):
        mag = draw(st.floats(0.1, 1.0))
    else:
        mag = 10.0 ** draw(st.floats(-16.0, -13.5))
    return cmath.rect(mag, draw(st.floats(0.0, 2 * math.pi)))


@st.composite
def states(draw, min_regs=1):
    """A state on 1-3 (or min_regs-3) registers of dimension 1-4; its first
    entry is unit-scale, so no state is empty after pruning."""
    dims = draw(st.lists(st.integers(1, 4), min_size=min_regs, max_size=3))
    layout = RegisterLayout(list(zip(NAMES, dims)))
    keys = draw(st.lists(
        st.tuples(*(st.integers(0, d - 1) for d in dims)), min_size=1, max_size=24, unique=True
    ))
    return SparseState(layout, {k: draw(amplitudes(tiny=n > 0)) for n, k in enumerate(keys)})


@st.composite
def measured(draw):
    """A state and the name of one of its registers."""
    state = draw(states())
    return state, draw(st.sampled_from(state.layout.names))


def collapse_reference(state, name, outcome):
    """Unnormalized, unpruned {rest key: amplitude} after Fourier outcome
    ``outcome``: sum_v a(rest, v) exp(-2 pi i outcome v / d) / sqrt(d)."""
    i = state.layout.index(name)
    d = state.layout.dim(name)
    out = {}
    for key, a in state.amps.items():
        rest = tuple(v for j, v in enumerate(key) if j != i)
        out[rest] = out.get(rest, 0.0) + a * cmath.exp(-2j * math.pi * outcome * key[i] / d) / math.sqrt(d)
    return out


def assert_python_typed(state):
    n = len(state.layout)
    for key, a in state.amps.items():
        assert type(key) is tuple and len(key) == n
        assert all(type(v) is int for v in key), key
        assert type(a) is complex, type(a)


def assert_pruned_like(got, want, scale=1.0):
    """``got`` holds the entries of ``want`` (times ``scale``) that are not
    negligible: entries clearly below PRUNE_TOL are absent, entries clearly
    above it are present and agree, and the thin band around the threshold,
    where round-off decides, may go either way."""
    for rest, a in want.items():
        if abs(a) < 0.5 * PRUNE_TOL:
            assert rest not in got.amps, (rest, a)
        elif abs(a) > 2.0 * PRUNE_TOL:
            assert rest in got.amps, (rest, a)
    for rest, a in got.amps.items():
        assert abs(a) >= PRUNE_TOL * scale
        assert a == pytest.approx(want[rest] * scale, abs=1e-12)


@given(measured())
def test_outcome_probabilities_are_the_collapse_norms(case):
    state, name = case
    d = state.layout.dim(name)
    probs = [r.probability for r in state.measure_x_basis_all(name)]
    assert len(probs) == d
    for k in range(d):
        want = sum(abs(a) ** 2 for a in collapse_reference(state, name, k).values())
        assert probs[k] == pytest.approx(want, abs=1e-14)
    assert sum(probs) == pytest.approx(state.norm_squared(), abs=1e-14)


@given(measured(), st.integers(0, 2**32 - 1))
def test_sampled_measurement_matches_collapsing_every_outcome(case, seed):
    state, name = case
    d = state.layout.dim(name)
    collapsed = [collapse_reference(state, name, k) for k in range(d)]
    probs = np.array([sum(abs(a) ** 2 for a in c.values()) for c in collapsed])
    outcome = int(np.random.default_rng(seed).choice(d, p=probs / probs.sum()))
    want = collapsed[outcome]
    kept = sum(abs(a) ** 2 for a in want.values() if abs(a) >= PRUNE_TOL)
    if kept < PRUNE_TOL**2:
        with pytest.raises(ZeroProbabilityBranch):
            state.measure_x_basis(name, rng=np.random.default_rng(seed))
        return
    res = state.measure_x_basis(name, rng=np.random.default_rng(seed))
    assert res.outcome == outcome
    assert res.state.layout == state.layout.without(name)
    assert_python_typed(res.state)
    assert res.probability == pytest.approx(kept, rel=1e-12, abs=1e-28)
    assert_pruned_like(res.state, want, 1.0 / math.sqrt(res.probability))
    forced = state.measure_x_basis(name, outcome=outcome)
    assert forced.state.amps == res.state.amps


@given(measured())
def test_forced_collapse_prunes_the_summed_amplitudes(case):
    state, name = case
    for k in range(state.layout.dim(name)):
        res = state.measure_x_basis(name, outcome=k)
        want = collapse_reference(state, name, k)
        if res.probability == 0.0:
            assert_pruned_like(res.state, want)
        else:
            assert_pruned_like(res.state, want, 1.0 / math.sqrt(res.probability))


@given(measured())
def test_all_outcomes_from_one_pass_match_the_forced_measurements(case):
    state, name = case
    results = state.measure_x_basis_all(name)
    assert [r.outcome for r in results] == list(range(state.layout.dim(name)))
    for k, res in enumerate(results):
        forced = state.measure_x_basis(name, outcome=k)
        assert res.probability == forced.probability
        assert res.state.layout == state.layout.without(name)
        assert res.state.amps == forced.state.amps
        assert_python_typed(res.state)
        want = collapse_reference(state, name, k)
        scale = 1.0 if res.probability == 0.0 else 1.0 / math.sqrt(res.probability)
        assert_pruned_like(res.state, want, scale)


@given(states(min_regs=2), st.data())
def test_gate_outputs_keep_python_int_keys(state, data):
    names = state.layout.names
    target, source = data.draw(st.permutations(names))[:2]
    coeff = np.int64(data.draw(st.integers(-5, 5)))
    shifted = state.apply_affine_adder(target, [(source, coeff)], np.int64(data.draw(st.integers(0, 5))))
    assert_python_typed(shifted)
    assert len(shifted.amps) == len(state.amps)

    phased = state.apply_phase_power(target, np.int64(data.draw(st.integers(-4, 4))))
    assert_python_typed(phased)
    assert phased.norm_squared() == pytest.approx(state.norm_squared(), rel=1e-12)

    d = state.layout.dim(target)
    env = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=(env * d, d)) + 1j * rng.normal(size=(env * d, d))
    iso = np.linalg.qr(z)[0]
    tapped = state.apply_isometry(target, iso)
    assert_python_typed(tapped)
    assert all(abs(a) >= PRUNE_TOL for a in tapped.amps.values())
    assert tapped.norm_squared() == pytest.approx(state.norm_squared(), rel=1e-10, abs=1e-26)


def test_isometry_prunes_amplitudes_that_cancel():
    """Two inputs whose images cancel on one output key leave no entry there."""
    state = SparseState(RegisterLayout([("a", 2)]), {(0,): 1 / math.sqrt(2), (1,): 1 / math.sqrt(2)})
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    out = state.apply_isometry("a", hadamard)
    assert set(out.amps) == {(0, 0)}
    assert out.amps[(0, 0)] == pytest.approx(1.0)


@given(states())
def test_public_constructor_validates_converts_and_prunes(state):
    n = len(state.layout)
    zero = (0,) * n
    raw = {tuple(np.int64(v) for v in k): np.complex128(a) for k, a in state.amps.items()}
    if zero not in state.amps:
        raw[tuple(np.int64(0) for _ in zero)] = np.complex128(1e-15)
    rebuilt = SparseState(state.layout, raw)
    assert_python_typed(rebuilt)
    assert rebuilt.amps == state.amps
    assert all(abs(a) >= PRUNE_TOL for a in rebuilt.amps.values())
    with pytest.raises(LayoutError):
        SparseState(state.layout, {(0,) * (n + 1): 1.0})
