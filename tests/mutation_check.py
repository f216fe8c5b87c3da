"""Mutation check: each named mutation of ``src/`` must make its tests fail.

Opt-in, standard library only; pytest does not collect this file.  From the
repository root:

    python tests/mutation_check.py           # every mutation
    python tests/mutation_check.py NAME ...  # only the named ones

Each mutation replaces one snippet of one file in a copy of ``src/``; the
snippet must occur exactly once, so a mutation gone stale after an edit stops
the run instead of passing unnoticed.  Its tests then run against the copy
through ``PYTHONPATH`` and must fail.  First the same tests run against an
unmutated copy and must pass.  Exit status 0 when every mutation is caught.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WEAK_PAD_STATES = (
    "tests/test_kernels.py::test_conditional_states_backends_agree",
    "tests/test_security.py::test_analysis_matches_protocol_spot_records_under_weak_pad_haar",
)
SUPPORT = ("tests/test_protocol.py::test_support_equals_the_engine",)
BRANCHES_VS_LITERAL = "tests/test_kernels.py::test_branch_summary_backends_agree"
CRITERION_2 = "tests/test_acceptance.py::test_criterion_2_classical_code_recovers_and_hides"

# name -> (file under src/qnc, snippet, replacement, tests that must fail)
MUTATIONS = {
    "spectrum-delta-sign": (
        "kernels.py",
        "dkey = ((zdig[left] - zdig[right]) % p) @ place",
        "dkey = ((zdig[right] - zdig[left]) % p) @ place",
        WEAK_PAD_STATES,
    ),
    "conditional-states-no-hc": (
        "kernels.py",
        "        out += part.conj().transpose(0, 2, 1)\n",
        "",
        WEAK_PAD_STATES,
    ),
    "spectrum-pairs-across-buckets": (
        "kernels.py",
        "bucket_of = keys // span",
        "bucket_of = keys * 0",
        WEAK_PAD_STATES,
    ),
    "class-key-first-delta-only": (
        "kernels.py",
        "key = (np.asarray(records, dtype=np.int64) @ np.asarray(diffs, dtype=np.int64).T) % p",
        "key = (np.asarray(records, dtype=np.int64) @ np.asarray(diffs, dtype=np.int64)[:1].T) % p",
        ("tests/test_kernels.py::test_records_in_one_class_share_their_state",),
    ),
    "support-honest-rows-downstream": (
        "protocol.py",
        "        matrix = transfer_matrix(p, config.attack.edge)\n",
        "",
        SUPPORT,
    ),
    "support-env-e1-swapped": (
        "protocol.py",
        "env, e1 = divmod(row, p)",
        "e1, env = divmod(row, p)",
        SUPPORT,
    ),
    "support-no-1/p": (
        "protocol.py",
        "np.full(len(inputs), 1.0 / p, dtype=np.complex128)",
        "np.full(len(inputs), 1.0, dtype=np.complex128)",
        SUPPORT,
    ),
    # Dropping the key instead (bucket = env) is an equivalent mutation on this
    # graph: the adjusted value of edge 7 (a1 + b1), or of edge 8 (a2 + b1)
    # when 7 is tapped, already fixes the key, so no bucket mixes two keys.
    "fidelity-bucket-without-environment": (
        "protocol.py",
        "bucket = b1 * d_env + env",
        "bucket = b1",
        (BRANCHES_VS_LITERAL,),
    ),
    "overlap-shift-sign": (
        "protocol.py",
        "pos = (sup.edges(MEASURED_EDGES) - shift) % p",
        "pos = (sup.edges(MEASURED_EDGES) + shift) % p",
        (BRANCHES_VS_LITERAL, "tests/test_security.py::test_attacked_fidelity_known_values"),
    ),
    "given-target-unconjugated": (
        "protocol.py",
        "(config.psi1[h12] * config.psi2[h13]).conj()",
        "(config.psi1[h12] * config.psi2[h13])",
        ("tests/test_kernels.py::test_branch_table_matches_the_literal_path_at_p5[given]",),
    ),
    "forced-outcome-sign": (
        "protocol.py",
        "(-announced) % p",
        "announced % p",
        (BRANCHES_VS_LITERAL,
         "tests/test_security.py::test_analysis_matches_protocol_spot_records_under_weak_pad_haar"),
    ),
    # Each sink then undoes the other sink's measurement phases.
    "sinks-corrections-swapped": (
        "protocol.py",
        "    m1, m2 = recovery_columns(p)\n",
        "    m2, m1 = recovery_columns(p)\n",
        ("tests/test_protocol.py::test_honest_run_teleports_perfectly",
         "tests/test_protocol.py::test_recovery_exponents_contract_the_message_columns"),
    ),
    # The weak pad then hides what the full pad hides, and its leak vanishes.
    "weak-pad-hides-edge-10": (
        "protocol.py",
        "hidden = PADDED_EDGES if variant == VARIANT_FULL else (11,)",
        "hidden = PADDED_EDGES if variant == VARIANT_FULL else (10, 11)",
        ("tests/test_security.py::test_weak_pad_keep_attack_is_flagged",
         "tests/test_protocol.py::test_transcript_pad_and_eve_view"),
    ),
    "anchor-record-not-zero": (
        "security.py",
        "return self.conditional((0,) * len(self.record_edges))",
        "return self.conditional((1,) * len(self.record_edges))",
        ("tests/test_security.py::test_anchor_conditional_is_the_all_zero_record_on_access",
         "tests/test_acceptance.py::test_criterion_6_weak_pad_keep_attack_breaks_independence"),
    ),
    # At p = 3, 1/2 = -1 = p - 1, so no check at p = 3 can see this slip.
    "half-is-minus-one": (
        "classical_code.py",
        "        return inverse_of_two(p)\n",
        "        return p - 1\n",
        ("tests/test_security.py::test_weak_pad_keep_attack_is_frozen_at_larger_p",),
    ),
    "edge-4-without-key": (
        "classical_code.py",
        "vecs = {1: unit[0], 2: unit[1], 3: unit[2], 4: unit[2]}",
        "vecs = {1: unit[0], 2: unit[1], 3: unit[2], 4: 0 * unit[2]}",
        ("tests/test_classical_code.py::test_matrix_agrees_with_flow", CRITERION_2),
    ),
    # FLOW_RULES feeds the matrix and tests/flow_ref.py alike, so the two still
    # agree; the sinks' recovery is what breaks.
    "edge-12-sign-flipped": (
        "classical_code.py",
        "    12: ((11, \"half\"), (8, -1)),",
        "    12: ((11, \"half\"), (8, 1)),",
        ("tests/test_classical_code.py::test_recovery_exhaustive", CRITERION_2),
    ),
}


def copy_src(dest: Path, mutation: tuple | None) -> None:
    shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
    if mutation is None:
        return
    name, snippet, replacement, _ = mutation
    path = dest / "qnc" / name
    text = path.read_text()
    if text.count(snippet) != 1:
        raise SystemExit(f"stale mutation: {snippet!r} is in {name} {text.count(snippet)} times")
    path.write_text(text.replace(snippet, replacement))


def run_tests(src: Path, tests: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH=str(src))
    found = subprocess.run(
        [sys.executable, "-c", "import qnc; print(qnc.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not found.startswith(str(src)):
        raise SystemExit(f"tests would import qnc from {found}, not from the copy in {src}")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True).returncode


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in MUTATIONS]
    if unknown:
        raise SystemExit(f"unknown mutations {unknown}; known: {sorted(MUTATIONS)}")
    chosen = {n: MUTATIONS[n] for n in (names or MUTATIONS)}
    t0 = time.perf_counter()
    survivors = []
    with tempfile.TemporaryDirectory(prefix="qnc-mutation-") as tmp:
        every_test = tuple(dict.fromkeys(t for m in chosen.values() for t in m[3]))
        copy_src(Path(tmp) / "clean", None)
        if run_tests(Path(tmp) / "clean", every_test) != 0:
            raise SystemExit("the tests fail on the unmutated source; nothing to check")
        for i, (name, mutation) in enumerate(chosen.items()):
            src = Path(tmp) / f"m{i}"
            copy_src(src, mutation)
            rc = run_tests(src, mutation[3])
            caught = rc == 1
            print(f"{'caught  ' if caught else 'SURVIVED'} {name} (pytest exit {rc})", flush=True)
            if not caught:
                survivors.append(name)
    print(f"{len(chosen) - len(survivors)}/{len(chosen)} mutations caught "
          f"in {time.perf_counter() - t0:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
