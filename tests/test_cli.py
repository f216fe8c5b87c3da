import csv
import json
import re
import shutil
import subprocess
import sys

import pytest

from qnc import cli
from qnc.classical_code import ATTACKABLE_EDGES, ROW_EDGES
from qnc.cli import main
from test_classical_code import EDGE7_ROWS_P3, HONEST_ROWS_P3


def run_cli(argv):
    """Invoke the CLI in-process, returning its exit code."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    return 0 if rc is None else rc


# -- honest ------------------------------------------------------------


def test_honest_prints_per_trial_lines(capsys):
    assert run_cli(["honest", "--p", "3", "--trials", "3", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for t, line in enumerate(lines):
        match = re.fullmatch(rf"trial +{t}  b1={t}  fidelity=(\S+)", line)
        assert match, line
        assert float(match[1]) == pytest.approx(1.0, abs=1e-10)


def test_honest_runs_the_protocol_once_per_trial(monkeypatch, capsys):
    calls = []
    real_run = cli.run

    def counted(config):
        calls.append(config)
        return real_run(config)

    monkeypatch.setattr("qnc.cli.run", counted)
    assert run_cli(["honest", "--p", "3", "--trials", "4", "--seed", "2"]) == 0
    capsys.readouterr()
    assert len(calls) == 4


def test_honest_rejects_composite_modulus(capsys):
    assert run_cli(["honest", "--p", "4"]) == 2
    assert "argument --p: must be an odd prime >= 3, got '4'" in capsys.readouterr().err


def test_honest_json_report(tmp_path, capsys):
    path = tmp_path / "honest.json"
    rc = run_cli(
        ["honest", "--p", "3", "--trials", "2", "--seed", "9",
         "--json", str(path), "--no-timestamp"]
    )
    capsys.readouterr()
    assert rc == 0
    blob = json.loads(path.read_text())
    assert blob["all_within_tolerance"] is True
    assert len(blob["trials"]) == 2
    for t, trial in enumerate(blob["trials"]):
        assert set(trial) == {"trial", "b1", "fidelity", "branch_probability"}
        assert trial["trial"] == t and trial["fidelity"] == pytest.approx(1.0, abs=1e-10)
    assert "generated_at" not in blob


def test_seed_environment_fallback(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["honest", "--trials", "2", "--seed", "5", "--json", str(a), "--no-timestamp"])
    monkeypatch.setenv("QNC_SEED", "5")
    run_cli(["honest", "--trials", "2", "--json", str(b), "--no-timestamp"])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# -- attack ------------------------------------------------------------


def test_attack_secure_expectation(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc = run_cli(
        ["attack", "--p", "3", "--edge", "7", "--attack", "identity",
         "--expect", "secure", "--out", str(path), "--no-timestamp"]
    )
    capsys.readouterr()
    assert rc == 0
    blob = json.loads(path.read_text())
    assert blob["verdict"] == "secure"
    assert blob["witnesses"]["failures"] == []
    assert blob["product_deviation"] <= 1e-9
    assert blob["output_fidelity_under_attack"] == 1.0
    assert blob["record_classes"] == 1


def test_attack_verdict_mismatch_sets_exit_one(capsys):
    rc = run_cli(
        ["attack", "--p", "3", "--edge", "7", "--attack", "identity",
         "--expect", "insecure", "--no-timestamp"]
    )
    capsys.readouterr()
    assert rc == 1


def test_attack_at_p5_with_the_default_environment_fits(capsys):
    """p = 5 with d_env = 25 once needed GiB-sized record batches."""
    rc = run_cli(
        ["attack", "--p", "5", "--edge", "9", "--sample", "8",
         "--expect", "secure", "--no-timestamp"]
    )
    capsys.readouterr()
    assert rc == 0


def test_attack_out_of_memory_sets_exit_three(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("pair list of size 5764801 exceeds the cap 5000000")

    monkeypatch.setattr("qnc.cli.analyze", exhausted)
    rc = run_cli(["attack", "--p", "3", "--edge", "9", "--expect", "secure"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.count("\n") == 1
    assert err.startswith("error: out of memory: pair list of size 5764801")
    assert "Traceback" not in err


def test_attack_internal_error_sets_exit_four(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("support arrays disagree")

    monkeypatch.setattr("qnc.cli.analyze", broken)
    rc = run_cli(["attack", "--p", "3", "--edge", "9", "--expect", "secure"])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith("Traceback")
    assert err.splitlines()[-1] == "error: internal: RuntimeError: support arrays disagree"


def test_attack_weak_pad_keep_is_insecure(tmp_path, capsys):
    path = tmp_path / "weak.json"
    rc = run_cli(
        ["attack", "--p", "3", "--edge", "11", "--attack", "keep-phi0",
         "--variant", "weak-pad", "--expect", "insecure",
         "--out", str(path), "--no-timestamp"]
    )
    capsys.readouterr()
    assert rc == 0
    blob = json.loads(path.read_text())
    assert blob["verdict"] == "insecure"
    # 12 significant digits of 2/3
    assert blob["product_deviation"] == 0.666666666667
    assert blob["witnesses"]["failures"]
    assert blob["record_classes"] == 3


def test_attack_output_is_byte_stable(tmp_path, capsys):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for path in paths:
        rc = run_cli(
            ["attack", "--p", "3", "--edge", "9", "--attack", "random",
             "--d-e", "3", "--seed", "12", "--out", str(path), "--no-timestamp"]
        )
        assert rc == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_attack_rejects_non_interior_edge(capsys):
    assert run_cli(["attack", "--p", "3", "--edge", "12"]) == 2
    capsys.readouterr()


def test_attack_large_field_needs_sampling(tmp_path, capsys):
    rc = run_cli(["attack", "--p", "5", "--edge", "7", "--attack", "identity"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--sample" in err
    path = tmp_path / "sampled.json"
    rc = run_cli(
        ["attack", "--p", "5", "--edge", "7", "--attack", "identity",
         "--sample", "40", "--expect", "secure", "--out", str(path), "--no-timestamp"]
    )
    capsys.readouterr()
    assert rc == 0
    blob = json.loads(path.read_text())
    assert blob["exhaustive"] is False
    assert blob["n_records"] == 40


@pytest.mark.parametrize(
    "argv",
    [
        ["attack", "--p", "5", "--edge", "9", "--sample", "0"],
        ["attack", "--p", "5", "--edge", "9", "--sample", "-1"],
        ["honest", "--trials", "-2"],
        ["honest", "--trials", "0"],
        ["sweep", "--jobs", "0"],
        ["sweep", "--attacks-per-edge", "-1", "--jobs", "1"],
        ["sweep", "--attacks-per-edge", "two"],
        ["attack", "--edge", "9", "--d-e", "0"],
        ["sweep", "--d-e-cycle", "3", "0", "--jobs", "1"],
    ],
    ids=["sample-0", "sample-neg", "trials-neg", "trials-0", "jobs-0", "attacks-neg",
         "attacks-text", "d-e-0", "d-e-cycle-0"],
)
def test_out_of_range_counts_are_usage_errors(argv, capsys):
    """A count flag outside its range exits 2 with a message naming the flag,
    before any work starts (--attacks-per-edge 0 stays valid: named attacks only)."""
    flags = ("--sample", "--trials", "--jobs", "--attacks-per-edge", "--d-e", "--d-e-cycle")
    flag = next(a for a in argv if a in flags)
    assert run_cli(argv) == 2
    assert f"argument {flag}: must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "argv",
    [["honest", "--trials", "1"], ["attack", "--edge", "11", "--attack", "keep-phi0",
     "--variant", "weak-pad", "--expect", "insecure"], ["sweep", "--jobs", "1"]],
    ids=["honest", "attack", "sweep"],
)
def test_tolerance_outside_its_domain_is_a_usage_error(argv, value, capsys, monkeypatch):
    """--tol is a finite number >= 0: NaN would call every tap secure (every
    comparison with it is False), and so would inf.  Refused before any work."""
    monkeypatch.setattr("qnc.cli.analyze", None)  # any analysis would fail with exit 4
    monkeypatch.setattr("qnc.cli.run", None)
    assert run_cli(argv + ["--tol", value]) == 2
    assert f"argument --tol: must be a finite number >= 0, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "abc"])
@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize(
    "argv",
    [["honest", "--trials", "1"], ["attack", "--edge", "9", "--attack", "keep-phi0"],
     ["sweep", "--attacks-per-edge", "1", "--jobs", "1"]],
    ids=["honest", "attack", "sweep"],
)
def test_seed_outside_its_domain_is_a_usage_error(argv, source, value, capsys, monkeypatch):
    """--seed, and QNC_SEED in its place, is an integer >= 0: numpy refuses a
    negative seed only where a random draw happens, so a named tap ran with
    --seed -1.  Refused before any work, with a message naming its source."""
    monkeypatch.setattr("qnc.cli.analyze", None)  # any analysis would fail with exit 4
    monkeypatch.setattr("qnc.cli.run", None)
    if source == "flag":
        argv, name = argv + ["--seed", value], "argument --seed"
    else:
        monkeypatch.setenv("QNC_SEED", value)
        name = "QNC_SEED"
    assert run_cli(argv) == 2
    assert f"{name}: must be an integer >= 0, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["attack", "--p", "9", "--edge", "9"], ["sweep", "--p", "x", "--jobs", "1"]],
    ids=["attack-9", "sweep-text"],
)
def test_modulus_that_is_not_an_odd_prime_is_a_usage_error(argv, capsys, monkeypatch):
    """--p is parsed like the count flags: exit 2 naming the flag, before any work."""
    monkeypatch.setattr("qnc.cli.analyze", None)  # any analysis would fail with exit 4
    assert run_cli(argv) == 2
    assert f"argument --p: must be an odd prime >= 3, got {argv[2]!r}" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["keep-phi0", "identity"])
def test_d_e_with_a_non_random_attack_is_a_usage_error(kind, capsys):
    """--d-e sizes a random attack's environment; a named attack fixes its
    own, so the flag is refused rather than silently dropped."""
    assert run_cli(["attack", "--edge", "9", "--attack", kind, "--d-e", "9"]) == 2
    assert "argument --d-e" in capsys.readouterr().err


# -- sweep -------------------------------------------------------------


def test_sweep_zero_attacks_gives_header_only(capsys):
    rc = run_cli(["sweep", "--attacks-per-edge", "0", "--jobs", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "edge,attack,variant,product_deviation,verdict,worst_record"
    assert len(out.splitlines()) == 1


def test_sweep_writes_csv_and_summary(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    rc = run_cli(
        ["sweep", "--attacks-per-edge", "1", "--d-e-cycle", "1", "--jobs", "1",
         "--seed", "3", "--expect", "secure", "--out", str(path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    rows = list(csv.DictReader(path.open()))
    assert [int(r["edge"]) for r in rows] == [5, 6, 7, 8, 9, 10, 11]
    assert all(r["verdict"] == "secure" for r in rows)
    assert all(float(r["product_deviation"]) <= 1e-9 for r in rows)
    summary = [l for l in out.splitlines() if l.startswith("edge ")]
    assert len(summary) == 7
    assert "max product_deviation" in summary[0]


def test_sweep_at_p5_is_refused_before_any_analysis(monkeypatch, capsys):
    """5^7 records exceed the exhaustive cap, and a sweep has no --sample:
    it exits 2, as ``attack`` does, instead of sampling records."""

    def no_support(*args, **kwargs):
        raise AssertionError("an analysis started")

    monkeypatch.setattr("qnc.security.support", no_support)
    assert run_cli(["sweep", "--p", "5", "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert "exceed the exhaustive cap" in err and "--sample" in err


def test_sweep_worker_pool_matches_serial(tmp_path, capsys):
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    args = ["sweep", "--attacks-per-edge", "1", "--d-e-cycle", "3", "--seed", "4"]
    assert run_cli(args + ["--jobs", "1", "--out", str(serial)]) == 0
    assert run_cli(args + ["--jobs", "2", "--out", str(pooled)]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == pooled.read_bytes()


def test_weak_pad_named_sweep_flags_edge_eleven(tmp_path, capsys):
    path = tmp_path / "weak.csv"
    rc = run_cli(
        ["sweep", "--attacks-per-edge", "0", "--named", "--variant", "weak-pad",
         "--jobs", "1", "--expect", "secure", "--out", str(path)]
    )
    capsys.readouterr()
    assert rc == 1  # edge 11 breaks the expectation
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 21  # three named attacks per edge
    flagged = [(r["edge"], r["attack"]) for r in rows if r["verdict"] == "insecure"]
    # keeping the wire and measuring its phase leak the same dit once the
    # edge-10 announcement goes out unpadded; measuring the value does not,
    # because the value itself is masked by the classical key
    assert flagged == [("11", "keep-phi0"), ("11", "measure-x")]
    for row in rows:
        if row["verdict"] == "insecure":
            assert float(row["product_deviation"]) == pytest.approx(2 / 3, abs=1e-9)
        else:
            assert float(row["product_deviation"]) <= 1e-9


# -- classical ---------------------------------------------------------


def test_classical_report(tmp_path, capsys):
    path = tmp_path / "classical.json"
    rc = run_cli(["classical", "--p", "3", "--out", str(path), "--no-timestamp"])
    capsys.readouterr()
    assert rc == 0
    blob = json.loads(path.read_text())
    assert blob["recovery"] is True
    assert set(blob["secrecy_bits"]) == {"5", "6", "7", "8", "9", "10", "11"}
    assert all(v == 0 for v in blob["secrecy_bits"].values())
    assert all(c != 0 for c in blob["key_coefficients"].values())
    row_edges = list(ROW_EDGES)
    assert blob["coefficient_matrix"] == {
        "p": 3,
        "row_edges": row_edges,
        "columns": ["a1", "a2", "b1"],
        "rows": [list(HONEST_ROWS_P3[e]) for e in row_edges],
        "attacked_edge": None,
    }
    assert blob["attacked_matrices"]["7"] == {
        "p": 3,
        "row_edges": row_edges,
        "columns": ["a1", "a2", "b1", "e1"],
        "rows": [list(EDGE7_ROWS_P3[e]) for e in row_edges],
        "attacked_edge": 7,
    }
    assert sorted(blob["attacked_matrices"], key=int) == [str(e) for e in ATTACKABLE_EDGES]


def test_classical_rejects_p2(capsys):
    assert run_cli(["classical", "--p", "2"]) == 2
    assert "argument --p: must be an odd prime >= 3, got '2'" in capsys.readouterr().err


# -- entry point -------------------------------------------------------


def test_console_script_is_wired():
    exe = shutil.which("qnc")
    cmd = [exe] if exe else [sys.executable, "-m", "qnc.cli"]
    proc = subprocess.run(
        cmd + ["honest", "--p", "3", "--trials", "1", "--seed", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "fidelity=1" in proc.stdout
