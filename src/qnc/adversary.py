"""Wiretap attacks on a single interior edge.

An attack is the most general passive intervention allowed by quantum
mechanics on one wire: an isometry V from the p-dimensional edge system into
(environment of dimension d_env) tensor (resent edge system).  Rows of the
isometry are indexed by env * p + wire.  Named constructors cover the
attacks used throughout the test suite; arbitrary attacks come from
Haar-random isometries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classical_code import ATTACKABLE_EDGES, validate_modulus
from .engine import fourier_basis_state


@dataclass(frozen=True)
class AttackSpec:
    """A single-edge isometry attack.

    ``isometry`` has shape (d_env * p, p); column a is the joint
    environment/wire state produced when basis value a enters the tap.
    """

    edge: int
    isometry: np.ndarray = field(repr=False)
    label: str = "attack"
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.edge not in ATTACKABLE_EDGES:
            raise ValueError(f"attackable edges are {ATTACKABLE_EDGES}, got {self.edge}")
        v = np.asarray(self.isometry, dtype=complex)
        object.__setattr__(self, "isometry", v)
        if v.ndim != 2 or v.shape[1] == 0 or v.shape[0] % v.shape[1] != 0:
            raise ValueError(f"isometry shape {v.shape} is not (d_env * p, p)")
        gram = v.conj().T @ v
        if not np.allclose(gram, np.eye(v.shape[1]), atol=1e-10):
            raise ValueError("columns are not orthonormal (V†V != I)")

    @property
    def p(self) -> int:
        return int(self.isometry.shape[1])

    @property
    def d_env(self) -> int:
        return int(self.isometry.shape[0] // self.isometry.shape[1])

    def leak_operator(self, b: int) -> np.ndarray:
        """Environment operator accompanying resent wire value b.

        Sum over inputs a of the environment blocks with entry (e, e')
        V[(e, b), a] * conj(V[(e', b), a]); positive semidefinite, and the
        b-sum over all wire values has unit-trace normalization p (one trace
        unit per input state).
        """
        rows = self.isometry[(b % self.p):: self.p, :]
        return rows @ rows.conj().T

    def total_leak(self) -> np.ndarray:
        """Sum of leak_operator(b) over all wire values b; trace p."""
        return sum(self.leak_operator(b) for b in range(self.p))

    def to_json(self) -> dict:
        out: dict = {"edge": self.edge, "label": self.label, "p": self.p, "d_env": self.d_env}
        if self.seed is not None:
            out["seed"] = self.seed
        else:
            out["isometry"] = [[z.real, z.imag] for z in self.isometry.ravel()]
        return out


def identity_forward(edge: int, p: int) -> AttackSpec:
    """Trivial tap: one-dimensional environment, wire passed through intact."""
    validate_modulus(p)
    return AttackSpec(edge=edge, isometry=np.eye(p), label="identity")


def keep_and_send_phi0(edge: int, p: int) -> AttackSpec:
    """Keep the wire state, resend the zeroth Fourier basis state.

    V |a> = |a>_env |phi_0>; the environment dimension equals p.
    """
    validate_modulus(p)
    phi0 = fourier_basis_state(p, 0)
    v = np.zeros((p * p, p), dtype=complex)
    for a in range(p):
        for x in range(p):
            v[a * p + x, a] = phi0[x]
    return AttackSpec(edge=edge, isometry=v, label="keep-phi0")


def measure_and_resend(edge: int, p: int, basis: str = "Z") -> AttackSpec:
    """Measure the wire in the given basis, record the result, resend the
    post-measurement state.  ``basis`` is "Z" (computational) or "X"
    (Fourier); the environment holds the recorded outcome.
    """
    validate_modulus(p)
    v = np.zeros((p * p, p), dtype=complex)
    if basis.upper() == "Z":
        for a in range(p):
            v[a * p + a, a] = 1.0
    elif basis.upper() == "X":
        for k in range(p):
            phi_k = fourier_basis_state(p, k)
            for a in range(p):
                for x in range(p):
                    # outcome k with amplitude <phi_k|a>, resending |phi_k>
                    v[k * p + x, a] += phi_k[a].conjugate() * phi_k[x]
    else:
        raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")
    return AttackSpec(edge=edge, isometry=v, label=f"measure-{basis.lower()}")


def random_isometry(edge: int, p: int, d_env: int | None = None, seed: int = 0) -> AttackSpec:
    """Haar-random isometry attack with the given environment dimension.

    Drawn by QR-decomposing a complex Ginibre matrix and fixing the phase of
    R's diagonal, which makes the distribution exactly Haar.  A degenerate
    draw (a vanishing diagonal entry, probability zero) fails the
    orthonormality check of ``AttackSpec``.
    """
    validate_modulus(p)
    if d_env is None:
        d_env = p * p
    if d_env < 1:
        raise ValueError(f"environment dimension must be >= 1, got {d_env}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d_env * p, p)) + 1j * rng.normal(size=(d_env * p, p))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    v = q * (diag / np.abs(diag))
    return AttackSpec(edge=edge, isometry=v, label=f"haar-d{d_env}", seed=seed)
