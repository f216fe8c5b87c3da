import numpy as np
import pytest

from dense_ref import validate_density
from qnc.engine import (
    DensityMatrix,
    LayoutError,
    RegisterLayout,
    SparseState,
    ZeroProbabilityBranch,
    fourier_basis_state,
    phase_table,
    trace_distance,
)


def layout3(*names):
    return RegisterLayout([(n, 3) for n in names])


def bell_pair(p=3):
    layout = RegisterLayout([("a", p), ("b", p)])
    return SparseState(layout, {(k, k): 1 / np.sqrt(p) for k in range(p)})


# -- layout ------------------------------------------------------------


def test_layout_basics():
    lay = RegisterLayout([("a", 3), ("b", 5)])
    assert lay.names == ("a", "b")
    assert lay.dims == (3, 5)
    assert lay.total_dim == 15
    assert lay.index("b") == 1
    assert lay.dim("b") == 5
    assert len(lay) == 2


def test_layout_ravel_is_mixed_radix():
    lay = RegisterLayout([("a", 3), ("b", 5)])
    assert lay.ravel([2, 4]) == 2 * 5 + 4
    assert lay.ravel([0, 1]) == 1


def test_layout_rejects_duplicates_and_bad_dims():
    with pytest.raises(LayoutError):
        RegisterLayout([("a", 3), ("a", 3)])
    with pytest.raises(LayoutError):
        RegisterLayout([("a", 0)])


def test_layout_dimension_one_is_allowed():
    lay = RegisterLayout([("a", 3), ("e", 1)])
    assert lay.total_dim == 3


def test_layout_edits():
    lay = layout3("a", "b", "c")
    assert lay.without("b").names == ("a", "c")
    assert lay.appended("d", 9).dims == (3, 3, 3, 9)
    assert lay.subset(["c", "a"]).names == ("c", "a")
    with pytest.raises(LayoutError):
        lay.appended("a", 3)
    with pytest.raises(LayoutError):
        lay.index("zz")


# -- state construction ------------------------------------------------


def test_basis_state_and_norm():
    st = SparseState(layout3("a", "b"), {(1, 2): 1.0})
    assert st.amps == {(1, 2): 1.0}
    assert st.norm_squared() == 1.0
    assert st.support_size == 1


def test_product_state_from_site_vectors():
    v = fourier_basis_state(3, 1)
    st = SparseState.from_site_vectors(layout3("a", "b"), [v, np.array([0, 1, 0.0])])
    assert st.support_size == 3
    assert st.norm_squared() == pytest.approx(1.0)
    got = st.to_vector()
    expected = np.kron(v, [0, 1, 0])
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_tiny_amplitudes_are_pruned():
    st = SparseState(layout3("a"), {(0,): 1.0, (1,): 1e-16})
    assert st.support_size == 1


def test_vector_register_reorder():
    st = SparseState(layout3("a", "b"), {(1, 2): 1.0})
    vec = st.to_vector(["b", "a"])
    assert vec[2 * 3 + 1] == 1.0
    with pytest.raises(LayoutError):
        st.to_vector(["a"])


def test_inner_product():
    st = bell_pair()
    assert st.inner(st) == pytest.approx(1.0)
    other = SparseState(st.layout, {(0, 0): 1.0})
    assert st.inner(other) == pytest.approx(1 / np.sqrt(3))
    with pytest.raises(LayoutError):
        st.inner(SparseState(layout3("a", "c"), {(0, 0): 1.0}))


def test_renormalize_zero_state_fails():
    """A sampled measurement cannot renormalize a state of zero weight."""
    st = SparseState(layout3("a"), {})
    with pytest.raises(ZeroProbabilityBranch):
        st.measure_x_basis("a", rng=np.random.default_rng(0))


def test_adder_worked_example():
    """Doubling one register into another: (1, 0) -> (1, 2) at p=3."""
    st = SparseState(layout3("x", "y"), {(1, 0): 1.0})
    out = st.apply_affine_adder("y", terms=[("x", 2)])
    assert out.amps == {(1, 2): 1.0}


def test_adder_with_constant_and_halving():
    # y += (1/2) x - c  at p=3, 1/2 = 2
    st = SparseState(layout3("x", "y"), {(1, 1): 1.0})
    out = st.apply_affine_adder("y", terms=[("x", 2)], constant=-2)
    assert out.amps == {(1, (1 + 2 - 2) % 3): 1.0}


def test_adder_is_a_permutation():
    rng = np.random.default_rng(11)
    amps = {
        (i, j): complex(*rng.normal(size=2)) for i in range(3) for j in range(3)
    }
    st = SparseState(layout3("x", "y"), amps)
    out = st.apply_affine_adder("y", terms=[("x", 1)], constant=2)
    assert out.support_size == st.support_size
    assert out.norm_squared() == pytest.approx(st.norm_squared())
    # invert by adding the negated combination
    back = out.apply_affine_adder("y", terms=[("x", -1)], constant=-2)
    assert back.inner(st) == pytest.approx(st.norm_squared())


def test_adder_rejects_self_reference():
    st = SparseState(layout3("x", "y"), {(0, 0): 1.0})
    with pytest.raises(LayoutError):
        st.apply_affine_adder("x", terms=[("x", 1)])


def test_phase_power_values():
    st = SparseState(layout3("x"), {(v,): 0.5 for v in range(3)})
    out = st.apply_phase_power("x", 2)
    w = np.exp(2j * np.pi / 3)
    for v in range(3):
        assert out.amps[(v,)] == pytest.approx(0.5 * w ** ((2 * v) % 3))


def test_phase_power_period():
    st = bell_pair()
    cycled = st.apply_phase_power("a", 3)  # omega^(3 v) = 1
    assert abs(st.inner(cycled)) ** 2 == pytest.approx(1.0)


def test_phase_table_cached_and_unit_modulus():
    t = phase_table(7)
    assert t is phase_table(7)
    np.testing.assert_allclose(np.abs(t), 1.0, atol=1e-14)


# -- isometries --------------------------------------------------------


def test_isometry_appends_environment():
    # copy the wire value into a p-dim environment: rows e*d + x
    p = 3
    v = np.zeros((p * p, p))
    for a in range(p):
        v[a * p + a, a] = 1.0
    st = bell_pair()
    out = st.apply_isometry("b", v)
    assert out.layout.names == ("a", "b", "E")
    assert out.amps == {
        (k, k, k): pytest.approx(1 / np.sqrt(3)) for k in range(3)
    }


def test_isometry_environment_name_and_dim_one():
    st = SparseState(layout3("a"), {(1,): 1.0})
    out = st.apply_isometry("a", np.eye(3))
    assert out.layout.names == ("a", "E")
    assert out.layout.dim("E") == 1
    assert out.amps == {(1, 0): 1.0}


def test_non_isometry_rejected():
    st = SparseState(layout3("a"), {(0,): 1.0})
    with pytest.raises(ValueError):
        st.apply_isometry("a", np.eye(3) * 0.5)
    with pytest.raises(LayoutError):
        st.apply_isometry("a", np.eye(4))


# -- measurement -------------------------------------------------------


def test_fourier_state_measures_to_its_label():
    """A register prepared in Fourier state k always announces k."""
    for k in range(3):
        st = SparseState.from_site_vectors(
            layout3("a", "b"), [fourier_basis_state(3, k), np.array([1, 0, 0.0])]
        )
        probs = [r.probability for r in st.measure_x_basis_all("a")]
        assert probs[k] == pytest.approx(1.0)
        res = st.measure_x_basis("a", outcome=k)
        assert res.probability == pytest.approx(1.0)
        assert res.state.layout.names == ("b",)


def test_measurement_collapse_phases():
    """Measuring half of a shared pair leaves the Fourier-twisted partner."""
    st = bell_pair()
    res = st.measure_x_basis("a", outcome=1)
    assert res.probability == pytest.approx(1 / 3)
    # remaining amplitudes carry omega^(-1 * value) / sqrt(3), renormalized
    w = np.exp(-2j * np.pi / 3)
    for v in range(3):
        assert res.state.amps[(v,)] == pytest.approx(w**v / np.sqrt(3))


def test_outcome_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    amps = {
        (i, j): complex(*rng.normal(size=2)) for i in range(3) for j in range(3)
    }
    norm = np.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    st = SparseState(layout3("u", "v"), {k: a / norm for k, a in amps.items()})
    total = sum(r.probability for r in st.measure_x_basis_all("u"))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_sampled_measurement_is_seed_deterministic():
    st = bell_pair()
    a = st.measure_x_basis("a", rng=np.random.default_rng(42))
    b = st.measure_x_basis("a", rng=np.random.default_rng(42))
    assert a.outcome == b.outcome
    with pytest.raises(ValueError):
        st.measure_x_basis("a")  # neither outcome nor rng


def test_impossible_outcome_raises_unless_allowed():
    """Forcing an impossible outcome reports probability 0.0, as the
    all-outcome pass does; only a sampled measurement of a state with no
    weight raises."""
    st = SparseState.from_site_vectors(
        layout3("a", "b"), [fourier_basis_state(3, 0), np.array([1, 0, 0.0])]
    )
    res = st.measure_x_basis("a", outcome=2)
    assert res.probability == 0.0 and res.state.amps == {}
    assert st.measure_x_basis_all("a")[2].probability == 0.0
    with pytest.raises(ZeroProbabilityBranch):
        res.state.measure_x_basis("b", rng=np.random.default_rng(0))


# -- reductions --------------------------------------------------------


def test_partial_trace_of_shared_pair_is_maximally_mixed():
    st = bell_pair()
    rho = st.partial_trace(["a"])
    np.testing.assert_allclose(rho.matrix, np.eye(3) / 3, atol=1e-14)
    validate_density(rho)


def test_partial_trace_keeps_everything():
    st = bell_pair()
    rho = st.partial_trace(["a", "b"])
    vec = st.to_vector()
    np.testing.assert_allclose(rho.matrix, np.outer(vec, vec.conj()), atol=1e-14)


def test_partial_trace_product_state_stays_pure():
    st = SparseState.from_site_vectors(
        layout3("a", "b"), [fourier_basis_state(3, 1), fourier_basis_state(3, 2)]
    )
    rho = st.partial_trace(["b"])
    purity = np.trace(rho.matrix @ rho.matrix).real
    assert purity == pytest.approx(1.0)


def test_density_matrix_validate_catches_garbage():
    lay = layout3("a")
    with pytest.raises(ValueError):
        validate_density(DensityMatrix(lay, np.diag([0.5, 0.5, 0.5])))
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 1.0
    bad[0, 0] = 1.0
    with pytest.raises(ValueError):
        validate_density(DensityMatrix(lay, bad))
    with pytest.raises(LayoutError):
        DensityMatrix(lay, np.eye(4))


def test_fidelity_with_pure():
    rho = bell_pair().partial_trace(["a"])
    target = SparseState(RegisterLayout([("a", 3)]), {(0,): 1.0})
    assert rho.fidelity_with_pure(target) == pytest.approx(1 / 3)


def test_trace_distance_known_value():
    assert trace_distance(np.eye(3) / 3, np.diag([1.0, 0, 0])) == pytest.approx(2 / 3)
    rho = bell_pair().partial_trace(["a"]).matrix
    assert trace_distance(rho, rho) == 0.0
