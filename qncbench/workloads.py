"""The four benchmark workloads: seeded inputs, one operation, and its checks.

Every workload keeps like work together: within one workload all operations
share p, pad variant, environment size and attack kind, because a mix of
environment sizes spreads per-operation latency from 20 ms to 1.4 s and made
an earlier benchmark's medians move by 18% between passes. Attacked edges are
cycled evenly over a round and every operation draws a fresh seed.

The program is reached only through module attributes (``security.analyze``,
``protocol.branch_table``, ...) so that a traced run sees every call.

Checks compare the program's outputs with values computed here, apart from
the program, or with properties the method must have. They raise
``CheckFailed``; they never run inside the timed region.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from qnc import adversary, protocol, security
from qnc.classical_code import ATTACKABLE_EDGES
from qnc.protocol import GIVEN, VARIANT_WEAK, ProtocolConfig


class CheckFailed(AssertionError):
    """An output of the program is not what the method guarantees."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b, from this module's own eigendecomposition."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def product_form(attack) -> np.ndarray:
    """kron(I/p^2, sum_b V_b V_b^dagger / p), built from the isometry rows.

    Row env * p + b of the isometry belongs to resent wire value b, so V_b is
    the d_env x p block of rows with wire value b.
    """
    p, d_env = attack.p, attack.d_env
    blocks = attack.isometry.reshape(d_env, p, p)
    leak = sum(blocks[:, b, :] @ blocks[:, b, :].conj().T for b in range(p)) / p
    return np.kron(np.eye(p * p) / (p * p), leak)


def literal_conditional(config: ProtocolConfig, forced: dict[int, int]) -> np.ndarray:
    """The (ref1, ref2, E) state given the visible outcomes ``forced``, from the
    literal protocol: every key and every hidden outcome enumerated branch by
    branch on the sparse engine, recovery included, then traced out."""
    acc, total = 0.0, 0.0
    for b1 in range(config.p):
        for leaf in protocol.enumerate_branches(replace(config, b1=b1), forced=forced):
            acc = acc + leaf.branch_probability * leaf.final_state.partial_trace(["ref1", "ref2", "E"]).matrix
            total += leaf.branch_probability
    return acc / total


def random_state(rng: np.random.Generator, p: int) -> np.ndarray:
    v = rng.normal(size=p) + 1j * rng.normal(size=p)
    return v / np.linalg.norm(v)


def fresh_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


@dataclass
class Attacked:
    """Inputs of one attacked operation: the attack and records to spot-check."""

    config: ProtocolConfig
    records: np.ndarray


class Workload:
    """One kind of operation; ``round_size`` operations make a whole round."""

    name = ""
    round_size = 1
    warmup_ops = 1

    def inputs(self, rng: np.random.Generator, index: int):
        raise NotImplementedError

    def op(self, x):
        raise NotImplementedError

    def check(self, x, out) -> None:
        raise NotImplementedError

    def controls(self, rng: np.random.Generator) -> dict:
        """Per-run reference computations, run once outside the timed region."""
        return {}

    def check_controls(self, values: dict) -> None:
        pass


class FullPadP3(Workload):
    """Certify one full-pad, p = 3 Haar attack with d_env = 9 (the default p^2)."""

    name = "fullpad-p3"
    round_size = len(ATTACKABLE_EDGES)
    warmup_ops = 2
    p, d_env, n_checked = 3, 9, 3

    def inputs(self, rng, index):
        edge = ATTACKABLE_EDGES[index % len(ATTACKABLE_EDGES)]
        attack = adversary.random_isometry(edge, self.p, self.d_env, fresh_seed(rng))
        n_vis = len(security.visible_edges(protocol.VARIANT_FULL))
        records = rng.integers(0, self.p, size=(self.n_checked, n_vis))
        return Attacked(ProtocolConfig(p=self.p, attack=attack), records)

    def op(self, x):
        report = security.analyze(x.config, with_fidelity=False)
        verdict, _ = security.verify_independence(report, 1e-9)
        return report, verdict

    def check(self, x, out):
        report, verdict = out
        expect(verdict, f"edge {x.config.attack.edge}: full-pad verdict is not secure")
        expected = product_form(x.config.attack)
        n_vis = x.records.shape[1]
        for record in x.records:
            r = tuple(int(d) for d in record)
            td = trace_distance(report.conditional(r).matrix, expected)
            expect(td <= 1e-9, f"record {r}: conditional state is {td:.3e} from the product form")
            prob = report.record_probability(r)
            want = float(self.p) ** -n_vis
            expect(abs(prob - want) <= 1e-12 * want, f"record {r}: probability {prob!r}, want p^-{n_vis}")


class WeakPadP3(Workload):
    """Analyse one weak-pad, p = 3 Haar attack with d_env = 3 on edge 11."""

    name = "weakpad-p3"
    p, d_env, edge, n_checked = 3, 3, 11, 3

    def inputs(self, rng, index):
        attack = adversary.random_isometry(self.edge, self.p, self.d_env, fresh_seed(rng))
        n_vis = len(security.visible_edges(VARIANT_WEAK))
        records = rng.integers(0, self.p, size=(self.n_checked, n_vis))
        return Attacked(ProtocolConfig(p=self.p, attack=attack, variant=VARIANT_WEAK), records)

    def op(self, x):
        report = security.analyze(x.config)
        verdict, _ = security.verify_independence(report, 1e-9)
        return report, verdict

    def check(self, x, out):
        report, verdict = out
        expect(not verdict, "weak-pad edge-11 verdict is secure")
        fid = report.output_fidelity_under_attack
        expect(0.0 <= fid <= 1.0, f"attacked fidelity {fid!r} is outside [0, 1]")
        expected = product_form(x.config.attack)
        worst = trace_distance(report.conditional(report.worst_record).matrix, expected)
        expect(
            abs(worst - report.product_deviation) <= 1e-10,
            f"deviation at the worst record is {worst!r}, report says {report.product_deviation!r}",
        )
        for record in x.records:
            r = tuple(int(d) for d in record)
            td = trace_distance(report.conditional(r).matrix, expected)
            expect(td <= worst + 1e-12, f"record {r} deviates by {td!r}, more than the worst {worst!r}")
        r = tuple(int(d) for d in x.records[0])
        literal = literal_conditional(x.config, dict(zip(report.record_edges, r)))
        err = float(np.abs(report.conditional(r).matrix - literal).max())
        expect(err <= 1e-10, f"record {r}: conditional state is {err:.3e} from the literal protocol")

    def controls(self, rng):
        """The keep-phi0 attack on edge 11, and its closed forms.

        The kept wire holds 2a1 + 2a2 + 2b1; averaging the key leaves
        coherences between distinct a1 values on the all-zero record, whose
        distance from the product of its marginals is exactly 2/3. Keeping the
        wire and resending phi_0 leaves an output fidelity of 1/9.
        """
        config = ProtocolConfig(
            p=self.p, attack=adversary.keep_and_send_phi0(self.edge, self.p), variant=VARIANT_WEAK
        )
        report = security.analyze(config)
        displayed = np.zeros((27, 27), dtype=complex)
        for a1, a1p, a2, b1 in itertools.product(range(3), repeat=4):
            e = (2 * a1 + 2 * a2 + 2 * b1) % 3
            ep = (2 * a1p + 2 * a2 + 2 * b1) % 3
            displayed[(a1 * 3 + a2) * 3 + e, (a1p * 3 + a2) * 3 + ep] += 1 / 27
        blocks = displayed.reshape(9, 3, 9, 3)
        marginals = np.kron(np.einsum("iaja->ij", blocks), np.einsum("iaib->ab", blocks))
        return {
            "keep_fidelity": report.output_fidelity_under_attack,
            "keep_deviation": report.product_deviation,
            "keep_anchor": report.anchor_conditional.matrix,
            "closed_form_anchor": displayed,
            "closed_form_deviation": trace_distance(displayed, marginals),
        }

    def check_controls(self, values):
        closed = values["closed_form_deviation"]
        expect(abs(closed - 2 / 3) <= 1e-12, f"closed-form keep deviation is {closed!r}, not 2/3")
        dev = values["keep_deviation"]
        expect(abs(dev - 2 / 3) <= 1e-9, f"keep-phi0 product deviation is {dev!r}, not 2/3")
        err = float(np.abs(values["keep_anchor"] - values["closed_form_anchor"]).max())
        expect(err <= 1e-10, f"keep-phi0 anchor state is {err:.3e} from the closed form")
        fid = values["keep_fidelity"]
        expect(abs(fid - 1 / 9) <= 1e-10, f"keep-phi0 attacked fidelity is {fid!r}, not 1/9")


@dataclass
class Honest:
    config: ProtocolConfig
    pads: list[tuple[int, int]]
    run_seeds: list[int]


class HonestP5(Workload):
    """Verify honest transmission of one random pair of input states at p = 5."""

    name = "honest-p5"
    p, trials = 5, 4

    def inputs(self, rng, index):
        config = ProtocolConfig(
            p=self.p,
            b1=int(rng.integers(self.p)),
            input_mode=GIVEN,
            psi1=random_state(rng, self.p),
            psi2=random_state(rng, self.p),
        )
        pads = [(int(rng.integers(self.p)), int(rng.integers(self.p))) for _ in range(self.trials)]
        return Honest(config, pads, [fresh_seed(rng) for _ in range(self.trials)])

    def op(self, x):
        probs, fids = protocol.branch_table(x.config)
        runs = [
            protocol.run(ProtocolConfig(
                p=self.p, b1=x.config.b1, b2=pad, input_mode=GIVEN,
                psi1=x.config.psi1, psi2=x.config.psi2, seed=seed,
            )).fidelity
            for pad, seed in zip(x.pads, x.run_seeds)
        ]
        return probs, fids, runs

    def check(self, x, out):
        probs, fids, runs = out
        n = self.p**len(protocol.MEASURED_EDGES)
        expect(probs.shape == (n,) and fids.shape == (n,), f"branch table does not have {n} rows")
        want = 1.0 / n
        dev = float(np.abs(probs - want).max())
        expect(dev <= 1e-12 * want, f"branch probability deviates from uniform by {dev / want:.3e} relative")
        dev = float(np.abs(fids - 1.0).max())
        expect(dev <= 1e-10, f"branch fidelity deviates from 1 by {dev:.3e}")
        dev = max(abs(f - 1.0) for f in runs)
        expect(dev <= 1e-10, f"run fidelity deviates from 1 by {dev:.3e}")


class FidelityP5(Workload):
    """Attacked output fidelity for one p = 5 Haar attack with d_env = 25."""

    name = "fidelity-p5"
    round_size = len(ATTACKABLE_EDGES)
    warmup_ops = len(ATTACKABLE_EDGES)
    p, d_env = 5, 25

    def inputs(self, rng, index):
        edge = ATTACKABLE_EDGES[index % len(ATTACKABLE_EDGES)]
        attack = adversary.random_isometry(edge, self.p, self.d_env, fresh_seed(rng))
        return ProtocolConfig(p=self.p, attack=attack)

    def op(self, x):
        return security.attacked_fidelity(x)

    def check(self, x, out):
        expect(0.0 <= out <= 1.0, f"edge {x.attack.edge}: attacked fidelity {out!r} is outside [0, 1]")

    def controls(self, rng):
        """Identity taps at p = 5, and one p = 3 attack against its branch table."""
        identity = [
            security.attacked_fidelity(ProtocolConfig(p=self.p, attack=adversary.identity_forward(e, self.p)))
            for e in ATTACKABLE_EDGES
        ]
        edge = ATTACKABLE_EDGES[int(rng.integers(len(ATTACKABLE_EDGES)))]
        attack = adversary.random_isometry(edge, 3, 9, fresh_seed(rng))
        table = 0.0
        for b1 in range(3):
            probs, fids = protocol.branch_table(ProtocolConfig(p=3, b1=b1, attack=attack))
            table += float(probs @ fids) / 3
        closed = security.attacked_fidelity(ProtocolConfig(p=3, attack=attack))
        return {"identity": identity, "p3_closed_form": closed, "p3_branch_table": table}

    def check_controls(self, values):
        for edge, f in zip(ATTACKABLE_EDGES, values["identity"]):
            expect(abs(f - 1.0) <= 1e-12, f"identity tap on edge {edge} has fidelity {f!r}")
        closed, table = values["p3_closed_form"], values["p3_branch_table"]
        expect(
            abs(closed - table) <= 1e-12,
            f"p=3 attacked fidelity {closed!r} differs from its branch-table average {table!r}",
        )


WORKLOADS = {w.name: w for w in (FullPadP3(), WeakPadP3(), HonestP5(), FidelityP5())}
