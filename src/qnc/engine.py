"""Sparse qudit statevector engine.

States live on an ordered collection of named registers of arbitrary integer
dimension.  Amplitudes are kept in a dict keyed by basis tuples, so circuits
whose support stays polynomial (everything in this package) cost far less
than the full product space.  The gate set is exactly what the protocol
needs: affine adders (basis permutations), powers of the diagonal phase
gate, isometries that split a wire into an environment plus a resent wire,
and destructive Fourier-basis measurement.

Cost model: the public constructor validates every key and converts keys to
tuples of Python ints and amplitudes to Python complex; states the gates
build go through ``SparseState._raw`` and are not validated again (gates
that sum amplitudes prune the sums through ``_raw_pruned``).  Per-key loops
read phases from ``phase_table(d).tolist()``, so no numpy scalar enters a key
or an amplitude.  A Fourier measurement makes one pass over the support: it
groups the support by the rest of the basis tuple into a (rest x value)
array and multiplies by the Fourier matrix.  The squared column norms are
the d outcome probabilities, and column k is the collapse onto outcome k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

PRUNE_TOL = 1e-14


class LayoutError(ValueError):
    """Raised when a register name or dimension does not fit the layout."""


class ZeroProbabilityBranch(RuntimeError):
    """Raised when a sampled measurement outcome has (numerically) zero weight."""


@lru_cache(maxsize=None)
def phase_table(dim: int) -> np.ndarray:
    """Unit phases exp(2*pi*i*r/dim) for r in [0, dim); exact periodicity."""
    return np.exp(2j * np.pi * np.arange(dim) / dim)


@lru_cache(maxsize=None)
def fourier_matrix(dim: int) -> np.ndarray:
    """Read-only matrix whose column k is the conjugate of the k-th Fourier
    basis state: entry (v, k) is omega^(-k v) / sqrt(dim)."""
    v = np.arange(dim)
    matrix = phase_table(dim)[(-np.outer(v, v)) % dim] / math.sqrt(dim)
    matrix.flags.writeable = False
    return matrix


def fourier_basis_state(dim: int, k: int) -> np.ndarray:
    """The k-th Fourier (conjugate) basis vector of a dim-level system."""
    return phase_table(dim)[(k * np.arange(dim)) % dim] / math.sqrt(dim)


class RegisterLayout:
    """Ordered, uniquely named registers with integer dimensions."""

    def __init__(self, registers: Sequence[tuple[str, int]]):
        names = [n for n, _ in registers]
        if len(set(names)) != len(names):
            raise LayoutError(f"duplicate register names in {names}")
        for n, d in registers:
            # dimension 1 is allowed: a trivial environment is still a register
            if d < 1:
                raise LayoutError(f"register {n!r} must have dimension >= 1, got {d}")
        self._set(tuple((n, int(d)) for n, d in registers))

    def _set(self, registers: tuple[tuple[str, int], ...]) -> "RegisterLayout":
        self._registers = registers
        self._index = {n: i for i, (n, _) in enumerate(registers)}
        return self

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self._registers)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self._registers)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise LayoutError(f"no register named {name!r} in {self.names}") from None

    def dim(self, name: str) -> int:
        return self._registers[self.index(name)][1]

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64))

    def without(self, name: str) -> "RegisterLayout":
        # a valid layout minus one register is valid: skip the constructor's checks
        i = self.index(name)
        layout = RegisterLayout.__new__(RegisterLayout)
        return layout._set(self._registers[:i] + self._registers[i + 1:])

    def appended(self, name: str, dim: int) -> "RegisterLayout":
        if name in self._index:
            raise LayoutError(f"register {name!r} already present")
        return RegisterLayout(self._registers + ((name, dim),))

    def subset(self, names: Sequence[str]) -> "RegisterLayout":
        return RegisterLayout(tuple((n, self.dim(n)) for n in names))

    def ravel(self, values: Sequence[int]) -> int:
        """Mixed-radix index of a basis tuple, first register most significant."""
        idx = 0
        for v, d in zip(values, self.dims):
            idx = idx * d + v
        return idx

    def __len__(self) -> int:
        return len(self._registers)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RegisterLayout) and other._registers == self._registers

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{d}" for n, d in self._registers)
        return f"RegisterLayout({inner})"


class SparseState:
    """Pure state stored as {basis tuple: amplitude}; ops return new states."""

    def __init__(self, layout: RegisterLayout, amplitudes: Mapping[tuple[int, ...], complex]):
        self.layout = layout
        n = len(layout)
        amps: dict[tuple[int, ...], complex] = {}
        for key, a in amplitudes.items():
            if len(key) != n:
                raise LayoutError(f"basis tuple {key} does not match {n} registers")
            if abs(a) < PRUNE_TOL:
                continue
            amps[tuple(int(v) for v in key)] = complex(a)
        self.amps = amps

    @classmethod
    def _raw(cls, layout: RegisterLayout, amps: dict[tuple[int, ...], complex]) -> "SparseState":
        """Wrap a dict the engine built itself: int-tuple keys, complex values, no checks."""
        state = cls.__new__(cls)
        state.layout = layout
        state.amps = amps
        return state

    @classmethod
    def _raw_pruned(cls, layout: RegisterLayout, amps: Mapping[tuple[int, ...], complex]) -> "SparseState":
        """``_raw`` for summed amplitudes: drops those below ``PRUNE_TOL`` first."""
        return cls._raw(layout, {k: a for k, a in amps.items() if abs(a) >= PRUNE_TOL})

    @classmethod
    def from_site_vectors(
        cls, layout: RegisterLayout, vectors: Sequence[np.ndarray]
    ) -> "SparseState":
        """Product state from one dense vector per register."""
        if len(vectors) != len(layout):
            raise LayoutError("need exactly one vector per register")
        amps: dict[tuple[int, ...], complex] = {(): 1.0}
        for vec, d in zip(vectors, layout.dims):
            vec = np.asarray(vec, dtype=complex)
            if vec.shape != (d,):
                raise LayoutError(f"site vector shape {vec.shape} does not match dim {d}")
            amps = {
                key + (v,): a * vec[v]
                for key, a in amps.items()
                for v in range(d)
                if abs(vec[v]) >= PRUNE_TOL
            }
        return cls(layout, amps)

    # -- bookkeeping ---------------------------------------------------

    def norm_squared(self) -> float:
        return float(sum((a * a.conjugate()).real for a in self.amps.values()))

    def inner(self, other: "SparseState") -> complex:
        """<self|other> over the shared layout."""
        if other.layout != self.layout:
            raise LayoutError("inner product requires identical layouts")
        small, big = (self.amps, other.amps) if len(self.amps) < len(other.amps) else (other.amps, self.amps)
        total = 0.0 + 0.0j
        for key in small:
            if key in big:
                total += self.amps[key].conjugate() * other.amps[key]
        return total

    @property
    def support_size(self) -> int:
        return len(self.amps)

    def to_vector(self, order: Sequence[str] | None = None) -> np.ndarray:
        """Dense amplitude vector; intended for small layouts and tests."""
        layout = self.layout if order is None else self.layout.subset(order)
        perm = [self.layout.index(n) for n in layout.names]
        if sorted(perm) != list(range(len(self.layout))):
            raise LayoutError("order must be a permutation of the layout names")
        vec = np.zeros(layout.total_dim, dtype=complex)
        for key, a in self.amps.items():
            vec[layout.ravel([key[i] for i in perm])] += a
        return vec

    # -- gates ---------------------------------------------------------

    def apply_affine_adder(
        self,
        target: str,
        terms: Sequence[tuple[str, int]] = (),
        constant: int = 0,
    ) -> "SparseState":
        """Map |t> to |t + sum(coeff * source) + constant mod d> on the target.

        A basis permutation, hence unitary for any coefficients.  The target
        may not appear among its own source terms.
        """
        ti = self.layout.index(target)
        d = self.layout.dim(target)
        src = [(self.layout.index(n), int(c) % d) for n, c in terms]
        if any(i == ti for i, _ in src):
            raise LayoutError("adder target cannot be one of its own sources")
        constant = int(constant)
        out: dict[tuple[int, ...], complex] = {}
        for key, a in self.amps.items():
            shift = constant
            for i, c in src:
                shift += c * key[i]
            out[key[:ti] + ((key[ti] + shift) % d,) + key[ti + 1:]] = a
        return SparseState._raw(self.layout, out)

    def apply_phase_power(self, name: str, power: int) -> "SparseState":
        """Multiply each basis state by omega^(power * value) on one register."""
        i = self.layout.index(name)
        d = self.layout.dim(name)
        table = phase_table(d).tolist()
        power = int(power)
        out = {key: a * table[(power * key[i]) % d] for key, a in self.amps.items()}
        return SparseState._raw(self.layout, out)

    def apply_isometry(self, name: str, matrix: np.ndarray) -> "SparseState":
        """Send one register through an isometry into (environment, register).

        ``matrix`` has shape (env_dim * d, d) with row index env * d + wire;
        the environment register ``E`` is appended at the end of the layout.
        """
        i = self.layout.index(name)
        d = self.layout.dim(name)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[1] != d or matrix.shape[0] % d != 0:
            raise LayoutError(f"isometry shape {matrix.shape} does not fit dimension {d}")
        env_dim = matrix.shape[0] // d
        gram = matrix.conj().T @ matrix
        if not np.allclose(gram, np.eye(d), atol=1e-10):
            raise ValueError("matrix is not an isometry (V†V != I)")
        new_layout = self.layout.appended("E", env_dim)
        # per input value: the (env, wire, entry) triples of its non-negligible column
        columns = [
            [(*divmod(int(row), d), complex(matrix[row, v]))
             for row in np.flatnonzero(np.abs(matrix[:, v]) >= PRUNE_TOL)]
            for v in range(d)
        ]
        out: dict[tuple[int, ...], complex] = {}
        for key, a in self.amps.items():
            for e, x, m in columns[key[i]]:
                new_key = key[:i] + (x,) + key[i + 1:] + (e,)
                out[new_key] = out.get(new_key, 0.0) + a * m
        return SparseState._raw_pruned(new_layout, out)

    # -- measurement ---------------------------------------------------

    def _fourier_projections(self, name: str) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """Group the support once by its rest key into an (n_rest, d) array and
        multiply by the Fourier matrix.  Column k holds, per rest key, the
        unnormalized amplitude after outcome k: sum_v a(rest, v) omega^(-k v) / sqrt(d)."""
        i = self.layout.index(name)
        rows: dict[tuple[int, ...], int] = {}
        row_of = [rows.setdefault(key[:i] + key[i + 1:], len(rows)) for key in self.amps]
        grid = np.zeros((len(rows), self.layout.dim(name)), dtype=complex)
        grid[row_of, [key[i] for key in self.amps]] = list(self.amps.values())
        return list(rows), grid @ fourier_matrix(self.layout.dim(name))

    def measure_x_basis(
        self,
        name: str,
        outcome: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> "MeasurementResult":
        """Destructively measure one register in the Fourier basis.

        With ``outcome`` given the branch is forced, and an outcome of
        (numerically) zero weight has probability 0.0; otherwise it is sampled
        from ``rng``, and a sample of zero weight raises.  The returned state
        is renormalized and no longer contains the register.
        """
        d = self.layout.dim(name)
        sampled = outcome is None
        if sampled and rng is None:
            raise ValueError("measure_x_basis needs either an outcome or an rng")
        rest, proj = self._fourier_projections(name)
        if sampled:
            probs = _column_norms_squared(proj)
            total = probs.sum()
            if total <= 0.0:
                raise ZeroProbabilityBranch("state has no weight to measure")
            outcome = int(rng.choice(d, p=probs / total))
        outcome = int(outcome) % d
        result = _collapse(self.layout.without(name), outcome, rest, proj[:, outcome])
        if sampled and result.probability == 0.0:
            raise ZeroProbabilityBranch(
                f"outcome {outcome} on {name!r} has probability below {PRUNE_TOL**2:.0e}"
            )
        return result

    def measure_x_basis_all(self, name: str) -> list["MeasurementResult"]:
        """Every Fourier outcome of one register, in order, from one pass.

        Each result is what ``measure_x_basis(name, outcome=k)`` returns.
        """
        rest, proj = self._fourier_projections(name)
        layout = self.layout.without(name)
        return [_collapse(layout, k, rest, proj[:, k]) for k in range(proj.shape[1])]

    # -- reductions ----------------------------------------------------

    def partial_trace(self, keep: Sequence[str]) -> "DensityMatrix":
        """Density matrix of the kept registers, tracing out the rest."""
        kept_layout = self.layout.subset(keep)
        kept_idx = [self.layout.index(n) for n in keep]
        traced_idx = [i for i in range(len(self.layout)) if i not in kept_idx]
        keys = np.array(list(self.amps), dtype=np.int64).reshape(-1, len(self.layout))

        def mixed_radix(cols: list[int]) -> np.ndarray:
            idx = np.zeros(len(keys), dtype=np.int64)
            for c in cols:
                idx = idx * self.layout.dims[c] + keys[:, c]
            return idx

        # one row per traced basis tuple, one column per kept basis index;
        # each support key fills exactly one cell, so rho = rows^T rows^*
        _, traced = np.unique(mixed_radix(traced_idx), return_inverse=True)
        rows = np.zeros((traced.max(initial=-1) + 1, kept_layout.total_dim), dtype=complex)
        rows[traced, mixed_radix(kept_idx)] = list(self.amps.values())
        return DensityMatrix(kept_layout, rows.T @ rows.conj())

    def __repr__(self) -> str:
        return f"SparseState({self.layout!r}, support={self.support_size})"


@dataclass(frozen=True)
class MeasurementResult:
    outcome: int
    probability: float
    state: SparseState


def _column_norms_squared(proj: np.ndarray) -> np.ndarray:
    return np.einsum("rk,rk->k", proj, proj.conj()).real


def _collapse(
    layout: RegisterLayout, outcome: int, rest: list[tuple[int, ...]], column: np.ndarray
) -> MeasurementResult:
    """The branch of one projection column: pruned, then renormalized unless
    its weight is (numerically) zero, in which case the probability is 0.0."""
    collapsed = SparseState._raw_pruned(layout, dict(zip(rest, column.tolist())))
    prob = collapsed.norm_squared()
    if prob < PRUNE_TOL**2:
        return MeasurementResult(outcome, 0.0, collapsed)
    n = math.sqrt(prob)
    return MeasurementResult(
        outcome, prob, SparseState._raw(layout, {k: a / n for k, a in collapsed.amps.items()})
    )


class DensityMatrix:
    """Dense density matrix over a register layout."""

    def __init__(self, layout: RegisterLayout, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        d = layout.total_dim
        if matrix.shape != (d, d):
            raise LayoutError(f"matrix shape {matrix.shape} does not match dimension {d}")
        self.layout = layout
        self.matrix = matrix

    def fidelity_with_pure(self, target: SparseState) -> float:
        """<psi|rho|psi> for a pure target state."""
        vec = target.to_vector(order=self.layout.names)
        return float(np.real(vec.conj() @ self.matrix @ vec))

    def __repr__(self) -> str:
        return f"DensityMatrix({self.layout!r})"


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of (a - b); both operators must be hermitian."""
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())

