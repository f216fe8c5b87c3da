"""Command line front end: reproducible runs and report emission.

Exit codes: 0 success (or expected verdict), 1 verdict/tolerance failure,
2 usage error, 3 out of memory (a one-line ``error:`` message on stderr,
never a traceback), 4 internal error (the traceback, then a last line
``error: internal: <Type>: <message>``).  Seeds fall back to the QNC_SEED
environment variable.  All floats are emitted with 12 significant digits;
JSON output is byte-stable for a fixed (config, seed) once --no-timestamp
is given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone

import numpy as np

from .adversary import (
    AttackSpec,
    identity_forward,
    keep_and_send_phi0,
    measure_and_resend,
    random_isometry,
)
from .classical_code import (
    ATTACKABLE_EDGES,
    ROW_EDGES,
    classical_secrecy_check,
    is_odd_prime,
    key_coefficient,
    recovery_check,
    transfer_matrix,
)
from .protocol import VARIANT_FULL, VARIANT_WEAK, ProtocolConfig, run
from .security import SecurityReport, analyze, verify_independence

VARIANT_FLAGS = {"full-pad": VARIANT_FULL, "weak-pad": VARIANT_WEAK}
ATTACK_KINDS = ("random", "keep-phi0", "measure-z", "measure-x", "identity")


def _sig12(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _sig12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sig12(v) for v in value]
    return value


def _emit_json(data: dict, path: str | None, no_timestamp: bool) -> None:
    data = dict(data)
    if no_timestamp:
        # byte-stable output: wall-clock fields would defeat the point
        data.pop("elapsed_seconds", None)
    else:
        data["generated_at"] = datetime.now(timezone.utc).isoformat()
    _write(json.dumps(_sig12(data), indent=2, sort_keys=True) + "\n", path)


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_seed(explicit: int | None) -> int:
    """``--seed``, else QNC_SEED, else 0; QNC_SEED obeys the rule of ``--seed``."""
    if explicit is not None:
        return explicit
    env = os.environ.get("QNC_SEED", "").strip()
    if not env:
        return 0
    try:
        return _count(0)(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"QNC_SEED: {exc}") from None


def make_attack(kind: str, edge: int, p: int, d_env: int | None, seed: int) -> AttackSpec:
    if kind == "random":
        return random_isometry(edge, p, d_env, seed)
    if kind == "keep-phi0":
        return keep_and_send_phi0(edge, p)
    if kind == "measure-z":
        return measure_and_resend(edge, p, "Z")
    if kind == "measure-x":
        return measure_and_resend(edge, p, "X")
    if kind == "identity":
        return identity_forward(edge, p)
    raise ValueError(f"unknown attack kind {kind!r}")


def _count(low: int):
    """An argparse type for integers >= ``low``; argparse names the flag on error."""

    def parse(text: str) -> int:
        if text.removeprefix("-").isdecimal() and int(text) >= low:
            return int(text)
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")

    return parse


def _tolerance(text: str) -> float:
    """An argparse type for a tolerance: a finite float >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isfinite(value) and value >= 0.0:
        return value
    raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")


def _odd_prime(text: str) -> int:
    """An argparse type for the field size: an odd prime."""
    if text.removeprefix("-").isdecimal() and is_odd_prime(int(text)):
        return int(text)
    raise argparse.ArgumentTypeError(f"must be an odd prime >= 3, got {text!r}")


def cmd_honest(args, parser) -> int:
    seed = _resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    trials = []
    all_ok = True
    for t in range(args.trials):
        b1 = args.b1 % args.p if args.b1 is not None else t % args.p
        result = run(ProtocolConfig(p=args.p, b1=b1, seed=int(rng.integers(2**63 - 1))))
        all_ok &= abs(result.fidelity - 1.0) <= args.tol
        trials.append(
            {
                "trial": t,
                "b1": b1,
                "fidelity": result.fidelity,
                "branch_probability": result.branch_probability,
            }
        )
        print(f"trial {t:3d}  b1={b1}  fidelity={result.fidelity:.12g}")
    report = {
        "command": "honest",
        "p": args.p,
        "seed": seed,
        "trials": trials,
        "all_within_tolerance": all_ok,
        "tolerance": args.tol,
    }
    if args.json:
        _emit_json(report, args.json, args.no_timestamp)
    return 0 if all_ok else 1


def cmd_attack(args, parser) -> int:
    variant = VARIANT_FLAGS[args.variant]
    seed = _resolve_seed(args.seed)
    if args.d_e is not None and args.attack != "random":
        parser.error(f"argument --d-e: applies to random attacks only, not {args.attack}")
    attack = make_attack(args.attack, args.edge, args.p, args.d_e, seed)
    config = ProtocolConfig(p=args.p, attack=attack, variant=variant)
    report = analyze(config, n_samples=args.sample, sample_seed=seed)
    verdict, failures = verify_independence(report, args.tol)
    payload = report.to_json()
    payload.update(
        {
            "command": "attack",
            "verdict": "secure" if verdict else "insecure",
            "tolerance": args.tol,
            "witnesses": {"worst_record": list(report.worst_record), "failures": failures},
        }
    )
    _emit_json(payload, args.out, args.no_timestamp)
    if args.expect is None:
        return 0
    return 0 if (verdict == (args.expect == "secure")) else 1


def _sweep_task(task) -> dict:
    p, edge, kind, d_env, seed, variant, tol = task
    attack = make_attack(kind, edge, p, d_env, seed)
    config = ProtocolConfig(p=p, attack=attack, variant=variant)
    return csv_row(analyze(config, with_fidelity=False), tol)


CSV_FIELDS = ("edge", "attack", "variant", "product_deviation", "verdict", "worst_record")


def csv_row(report: SecurityReport, tol: float) -> dict:
    """One sweep row of ``CSV_FIELDS``; the deviation stays a float until written."""
    verdict, _ = verify_independence(report, tol)
    return {
        "edge": report.attack.edge,
        "attack": report.attack.label,
        "variant": report.variant,
        "product_deviation": report.product_deviation,
        "verdict": "secure" if verdict else "insecure",
        "worst_record": "".join(str(d) for d in report.worst_record),
    }


def cmd_sweep(args, parser) -> int:
    variant = VARIANT_FLAGS[args.variant]
    base = _resolve_seed(args.seed)
    d_cycle = args.d_e_cycle
    tasks = []
    for edge in ATTACKABLE_EDGES:
        if args.named:
            for kind in ("keep-phi0", "measure-z", "measure-x"):
                tasks.append((args.p, edge, kind, None, base, variant, args.tol))
        for i in range(args.attacks_per_edge):
            d_env = d_cycle[i % len(d_cycle)]
            seed = base * 100_000 + edge * 1_000 + i
            tasks.append((args.p, edge, "random", d_env, seed, variant, args.tol))

    if args.jobs == 1:
        rows = [_sweep_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_task, tasks))

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for row in rows:
        row = dict(row)
        row["product_deviation"] = f"{row['product_deviation']:.12g}"
        writer.writerow(row)
    _write(buf.getvalue(), args.out)

    mismatch = False
    for edge in ATTACKABLE_EDGES:
        edge_rows = [r for r in rows if r["edge"] == edge]
        if not edge_rows:
            continue
        worst = max(float(r["product_deviation"]) for r in edge_rows)
        print(f"edge {edge}: {len(edge_rows)} attacks, max product_deviation = {worst:.12g}")
        if args.expect is not None:
            mismatch |= any(r["verdict"] != args.expect for r in edge_rows)
    return 1 if mismatch else 0


def _matrix_json(p: int, attacked_edge: int | None = None) -> dict:
    columns = ["a1", "a2", "b1"] + ([] if attacked_edge is None else ["e1"])
    return {
        "p": p,
        "row_edges": list(ROW_EDGES),
        "columns": columns,
        "rows": transfer_matrix(p, attacked_edge).tolist(),
        "attacked_edge": attacked_edge,
    }


def cmd_classical(args, parser) -> int:
    recovered = recovery_check(args.p)
    secrecy = {str(e): classical_secrecy_check(args.p, e) for e in ATTACKABLE_EDGES}
    key_coeffs = {str(e): key_coefficient(args.p, e) for e in ATTACKABLE_EDGES}
    report = {
        "command": "classical",
        "p": args.p,
        "recovery": recovered,
        "secrecy_bits": secrecy,
        "key_coefficients": key_coeffs,
        "coefficient_matrix": _matrix_json(args.p),
        "attacked_matrices": {str(e): _matrix_json(args.p, e) for e in ATTACKABLE_EDGES},
    }
    _emit_json(report, args.out, args.no_timestamp)
    ok = recovered and all(v == 0.0 for v in secrecy.values()) and all(
        c != 0 for c in key_coeffs.values()
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnc",
        description="Butterfly-network secure quantum network coding: "
        "simulation and security certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=_odd_prime, default=3, help="odd prime field size")
        sp.add_argument("--seed", type=_count(0), default=None,
                        help="RNG seed >= 0 (falls back to QNC_SEED, then 0)")
        sp.add_argument("--no-timestamp", action="store_true",
                        help="omit the generated_at field for byte-stable output")

    sp = sub.add_parser("honest", help="run the protocol without an attack")
    common(sp)
    sp.add_argument("--trials", type=_count(1), default=10)
    sp.add_argument("--b1", type=int, default=None, help="fix the scrambling key")
    sp.add_argument("--tol", type=_tolerance, default=1e-10)
    sp.add_argument("--json", metavar="PATH", default=None, help="write a JSON report")
    sp.set_defaults(func=cmd_honest)

    sp = sub.add_parser("attack", help="analyze one attack and write a report")
    common(sp)
    sp.add_argument("--edge", type=int, choices=ATTACKABLE_EDGES, required=True)
    sp.add_argument("--attack", choices=ATTACK_KINDS, default="random")
    sp.add_argument("--d-e", type=_count(1), default=None, dest="d_e",
                    help="environment dimension for random attacks (default p^2)")
    sp.add_argument("--variant", choices=sorted(VARIANT_FLAGS), default="full-pad")
    sp.add_argument("--tol", type=_tolerance, default=1e-9)
    sp.add_argument("--expect", choices=("secure", "insecure"), default=None)
    sp.add_argument("--sample", type=_count(1), default=None,
                    help="sample this many records instead of exhausting them")
    sp.add_argument("--out", metavar="PATH", default=None)
    sp.set_defaults(func=cmd_attack)

    sp = sub.add_parser("sweep", help="sweep random attacks over all edges")
    common(sp)
    sp.add_argument("--attacks-per-edge", type=_count(0), default=20)
    sp.add_argument("--d-e-cycle", type=_count(1), nargs="+", default=[1, 3, 9],
                    dest="d_e_cycle", help="environment dimensions to cycle through")
    sp.add_argument("--variant", choices=sorted(VARIANT_FLAGS), default="full-pad")
    sp.add_argument("--tol", type=_tolerance, default=1e-9)
    sp.add_argument("--named", action="store_true",
                    help="also include keep-phi0 and measure-and-resend attacks")
    sp.add_argument("--expect", choices=("secure", "insecure"), default=None)
    sp.add_argument("--jobs", type=_count(1), default=os.cpu_count() or 1)
    sp.add_argument("--out", metavar="PATH", default=None)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("classical", help="exhaustive classical-code checks")
    common(sp)
    sp.add_argument("--out", metavar="PATH", default=None)
    sp.set_defaults(func=cmd_classical)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")
    except MemoryError as exc:
        # also numpy's allocation failures; kept apart from exit 1 (verdict mismatch)
        detail = " ".join(str(exc).split())
        parser.exit(3, f"error: out of memory{': ' + detail if detail else ''}\n")
    except Exception as exc:
        # a bug, not a verdict: kept apart from exit 1 (verdict mismatch)
        traceback.print_exc()
        parser.exit(4, f"error: internal: {type(exc).__name__}: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
