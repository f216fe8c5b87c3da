"""Benchmark of ``qnc``: one workload per process, timed from outside the program.

Run from the root of the repository:

    python3 qncbench/run.py --workload weakpad-p3 --seed 1 --seconds 50 --trace 0
    python3 qncbench/run.py --seed 1 --trace 1     # all four workloads, traced
    python3 qncbench/run.py --selftest

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the calls into each layer are wrapped
in spans and it carries the per-layer metrics instead. Every output is checked
outside the timed region. ``--selftest`` runs a few operations per workload
and shows that perturbing an output makes its check fail. See README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("fullpad-p3", "weakpad-p3", "honest-p5", "fidelity-p5")
SETUP_REPEATS = 5

sys.path.insert(0, str(SRC))


def import_workloads():
    """Import the workloads, and with them ``qnc`` from this checkout's src."""
    try:
        import qnc
        import workloads
    except ImportError as exc:
        raise SystemExit(f"qncbench: cannot import qnc from {SRC}: {exc}")
    if Path(qnc.__file__).resolve().parent != SRC / "qnc":
        raise SystemExit(f"qncbench: imported qnc from {qnc.__file__}, not from {SRC}")
    return workloads


def rngs(seed: int):
    """Independent generators for the timed operations, the warm-up and the controls."""
    import numpy as np

    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]


def setup_only(name: str, seed: int) -> float:
    """Import qnc and generate the first round's inputs, as a timed run does."""
    wl = import_workloads().WORKLOADS[name]
    timed_rng = rngs(seed)[0]
    [wl.inputs(timed_rng, i) for i in range(wl.round_size)]
    return time.perf_counter() - _START


def measure_setup(name: str, seed: int) -> float:
    """Median set-up time over several fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def machine() -> dict:
    import numpy as np

    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": have_numba,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = import_workloads().WORKLOADS[name]
    setup_s = measure_setup(name, seed)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    def recording(scope):
        return tracer.recording(scope) if tracer else contextlib.nullcontext()

    failures: list[str] = []

    def checked(check, *args) -> None:
        try:
            check(*args)
        except Exception as exc:  # a check that cannot run is a failed check
            failures.append(f"{type(exc).__name__}: {exc}")

    def attempt(x):
        """The operation's output, or None if it raised."""
        try:
            return wl.op(x)
        except Exception:
            traceback.print_exc()
            return None

    timed_rng, warm_rng, control_rng = rngs(seed)
    for i in range(wl.warmup_ops):
        x = wl.inputs(warm_rng, i)
        out = attempt(x)
        if out is not None:
            checked(wl.check, x, out)

    latencies: list[float] = []
    failed = 0
    while sum(latencies) < seconds:
        first = len(latencies)
        with recording("inputs"):
            batch = [wl.inputs(timed_rng, first + k) for k in range(wl.round_size)]
        for x in batch:
            with recording(len(latencies)):
                t0 = time.perf_counter()
                out = attempt(x)
                latencies.append(time.perf_counter() - t0)
            if out is None:
                failed += 1
            else:
                checked(wl.check, x, out)
            del out

    attempted = len(latencies)
    # read before the controls, whose reference computations can need more memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked(lambda: wl.check_controls(wl.controls(control_rng)))
    if tracer:
        metrics = tracer.layer_metrics(attempted)
    else:
        metrics = {
            "ops_per_s": {"value": attempted / sum(latencies), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    record = dict(result, workload=name, seed=seed, seconds=seconds, failures=failures,
                  latencies_ms=[t * 1e3 for t in latencies], machine=machine())
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(tracer.dump()))
    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="show that perturbed outputs fail their checks")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print its seconds")
    args = parser.parse_args(argv)

    if args.selftest:
        workloads = import_workloads()
        import selftest

        return selftest.main(workloads, [args.workload] if args.workload else WORKLOAD_NAMES)
    if args.setup_only:
        if args.workload is None:
            parser.error("--setup-only needs --workload")
        print(setup_only(args.workload, args.seed))
        return 0
    if args.workload is None:
        # every workload in a fresh process of its own, one after another
        codes = [
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], cwd=ROOT).returncode
            for name in WORKLOAD_NAMES
        ]
        return max(codes)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, m in result["metrics"].items():
        print(f"{args.workload}  {metric:<42} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
