"""Dense full-vector reference engine, used solely as a test oracle.

Deliberately implemented the heavy way: every gate becomes an explicit
matrix over the whole product space, built by enumerating basis tuples, and
measurement contracts a Fourier bra into the state tensor.  Nothing here is
shared with the sparse engine, so agreement between the two is meaningful.
``validate_density`` and ``channel_block`` are dense references for the
density matrices and tap channels the package builds.
"""

from __future__ import annotations

import numpy as np


def fourier_vector(dim: int, k: int) -> np.ndarray:
    a = np.arange(dim)
    return np.exp(2j * np.pi * k * a / dim) / np.sqrt(dim)


def haar_isometry(dim_in: int, dim_out: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim_out, dim_in)) + 1j * rng.normal(size=(dim_out, dim_in))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def validate_density(rho, atol: float = 1e-10) -> None:
    """Check that ``rho`` (a ``DensityMatrix``) is hermitian, of unit trace
    and positive, up to ``atol``."""
    m = rho.matrix
    if not np.allclose(m, m.conj().T, atol=atol):
        raise ValueError("density matrix is not hermitian")
    if abs(np.trace(m) - 1.0) > atol:
        raise ValueError(f"trace {np.trace(m)} is not 1")
    eigs = np.linalg.eigvalsh(m)
    if eigs.min() < -atol:
        raise ValueError(f"negative eigenvalue {eigs.min():.3e}")


def channel_block(attack, a: int, b: int, x: int, y: int) -> np.ndarray:
    """Environment block <x| V |a><b| V^+ |y> of an attack's tapped channel.

    Entry (e, e') is V[(e, x), a] * conj(V[(e', y), b]): what the environment
    holds between wire basis states x (ket side) and y (bra side).
    """
    p = attack.p
    ket = attack.isometry[x::p, a % p]
    bra = attack.isometry[y::p, b % p]
    return np.outer(ket, bra.conj())


class DenseState:
    """Full statevector over named registers; operations build full matrices."""

    def __init__(self, registers: list[tuple[str, int]], vector: np.ndarray | None = None):
        self.registers = list(registers)
        self.dims = tuple(d for _, d in self.registers)
        self.size = int(np.prod(self.dims))
        if vector is None:
            vector = np.zeros(self.size, dtype=complex)
            vector[0] = 1.0
        self.vector = np.asarray(vector, dtype=complex).reshape(self.size)

    def axis(self, name: str) -> int:
        return [n for n, _ in self.registers].index(name)

    def tuples(self):
        return np.ndindex(*self.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))

    def adder(self, target: str, terms, constant: int = 0) -> "DenseState":
        ax = self.axis(target)
        d = self.dims[ax]
        term_axes = [(self.axis(n), c) for n, c in terms]
        mat = np.zeros((self.size, self.size), dtype=complex)
        for idx, tup in enumerate(self.tuples()):
            shift = constant + sum(c * tup[a] for a, c in term_axes)
            new = list(tup)
            new[ax] = (tup[ax] + shift) % d
            mat[np.ravel_multi_index(tuple(new), self.dims), idx] = 1.0
        return DenseState(self.registers, mat @ self.vector)

    def phase(self, name: str, power: int) -> "DenseState":
        ax = self.axis(name)
        d = self.dims[ax]
        diag = np.array(
            [np.exp(2j * np.pi * ((power * tup[ax]) % d) / d) for tup in self.tuples()]
        )
        return DenseState(self.registers, diag * self.vector)

    def isometry(self, name: str, v: np.ndarray, env_name: str = "E") -> "DenseState":
        ax = self.axis(name)
        d = self.dims[ax]
        d_env = v.shape[0] // d
        new_regs = self.registers + [(env_name, d_env)]
        new_dims = self.dims + (d_env,)
        mat = np.zeros((self.size * d_env, self.size), dtype=complex)
        for idx, tup in enumerate(self.tuples()):
            a = tup[ax]
            for e in range(d_env):
                for x in range(d):
                    amp = v[e * d + x, a]
                    if amp == 0.0:
                        continue
                    new = list(tup)
                    new[ax] = x
                    out_idx = np.ravel_multi_index(tuple(new) + (e,), new_dims)
                    mat[out_idx, idx] += amp
        return DenseState(new_regs, mat @ self.vector)

    def project_x(self, name: str, outcome: int) -> "DenseState":
        """Contract the Fourier bra for ``outcome`` into the state (unnormalized)."""
        ax = self.axis(name)
        d = self.dims[ax]
        tensor = self.vector.reshape(self.dims)
        reduced = np.tensordot(fourier_vector(d, outcome).conj(), tensor, axes=([0], [ax]))
        regs = [r for i, r in enumerate(self.registers) if i != ax]
        return DenseState(regs, reduced.reshape(-1))

    def x_probabilities(self, name: str) -> np.ndarray:
        d = self.dims[self.axis(name)]
        return np.array(
            [np.linalg.norm(self.project_x(name, k).vector) ** 2 for k in range(d)]
        )

    def measure_x(self, name: str, outcome: int) -> tuple[float, "DenseState"]:
        projected = self.project_x(name, outcome)
        prob = float(np.linalg.norm(projected.vector) ** 2)
        if prob > 0.0:
            projected = DenseState(projected.registers, projected.vector / np.sqrt(prob))
        return prob, projected

    def density(self, keep: list[str]) -> np.ndarray:
        """Reduced density matrix of the kept registers, in their current order."""
        keep_axes = [self.axis(n) for n in keep]
        other = [i for i in range(len(self.registers)) if i not in keep_axes]
        tensor = self.vector.reshape(self.dims)
        perm = keep_axes + other
        moved = np.transpose(tensor, perm)
        dk = int(np.prod([self.dims[i] for i in keep_axes], initial=1))
        dt = self.size // dk
        flat = moved.reshape(dk, dt)
        return flat @ flat.conj().T


def random_circuit_comparison(seed: int, p: int = 3, n_ops: int = 12) -> float:
    """Run one random circuit through both engines, return the worst deviation.

    Each operation (adder, phase, isometry splice, Fourier-basis measurement)
    is mirrored on a SparseState and a DenseState over the same registers, and
    the full statevectors are compared after every step.  Measurement outcomes
    are pinned to the dense engine's most likely result so both branches agree;
    the probability vectors themselves are compared first.  At the end, if at
    least two registers survive, a partial trace is cross-checked as well.
    """
    from qnc.engine import RegisterLayout, SparseState

    rng = np.random.default_rng(seed)
    n_regs = int(rng.integers(2, 5))
    names = [f"r{i}" for i in range(n_regs)]
    layout = RegisterLayout([(n, p) for n in names])

    full = p**n_regs
    support = int(rng.integers(1, min(9, full + 1)))
    flat_keys = rng.choice(full, size=support, replace=False)
    amps = rng.normal(size=support) + 1j * rng.normal(size=support)
    amps /= np.linalg.norm(amps)
    entries = {
        tuple(int(v) for v in np.unravel_index(int(k), [p] * n_regs)): complex(a)
        for k, a in zip(flat_keys, amps)
    }

    sparse = SparseState(layout, dict(entries))
    vec = np.zeros(full, dtype=complex)
    for key, amp in entries.items():
        vec[np.ravel_multi_index(key, [p] * n_regs)] = amp
    dense = DenseState([(n, p) for n in names], vec)

    worst = 0.0

    def compare() -> None:
        nonlocal worst
        order = [n for n, _ in dense.registers]
        got = sparse.to_vector(order)
        worst = max(worst, float(np.max(np.abs(got - dense.vector))))

    compare()
    spliced = False
    measurements = 0
    for _ in range(n_ops):
        live = [n for n, _ in dense.registers]
        op = rng.choice(["adder", "phase", "isometry", "measure"])
        if op == "adder" and len(live) >= 2:
            target = str(rng.choice(live))
            pool = [n for n in live if n != target]
            n_terms = int(rng.integers(0, min(2, len(pool)) + 1))
            chosen = rng.choice(pool, size=n_terms, replace=False)
            terms = tuple((str(n), int(rng.integers(0, p))) for n in chosen)
            constant = int(rng.integers(0, p))
            sparse = sparse.apply_affine_adder(target, terms, constant)
            dense = dense.adder(target, terms, constant)
        elif op == "phase":
            target = str(rng.choice(live))
            power = int(rng.integers(0, 2 * p))
            sparse = sparse.apply_phase_power(target, power)
            dense = dense.phase(target, power)
        elif op == "isometry" and not spliced:
            target = str(rng.choice(live))
            d_env = int(rng.choice([1, p, p * p]))
            v = haar_isometry(p, p * d_env, rng)
            sparse = sparse.apply_isometry(target, v)
            dense = dense.isometry(target, v)
            spliced = True
        elif op == "measure" and len(live) > 1 and measurements < 2:
            target = str(rng.choice(live))
            d = dense.dims[dense.axis(target)]
            dense_probs = dense.x_probabilities(target)
            sparse_probs = np.array([r.probability for r in sparse.measure_x_basis_all(target)])
            worst = max(worst, float(np.max(np.abs(sparse_probs - dense_probs))))
            outcome = int(np.argmax(dense_probs)) % d
            result = sparse.measure_x_basis(target, outcome=outcome)
            prob, dense = dense.measure_x(target, outcome)
            sparse = result.state
            worst = max(worst, abs(result.probability - prob))
            measurements += 1
        else:
            continue
        compare()

    live = [n for n, _ in dense.registers]
    if len(live) >= 2:
        keep = sorted(str(n) for n in rng.choice(live, size=2, replace=False))
        rho_sparse = sparse.partial_trace(keep)
        rho_dense = dense.density(keep)
        worst = max(worst, float(np.max(np.abs(rho_sparse.matrix - rho_dense))))
    return worst
