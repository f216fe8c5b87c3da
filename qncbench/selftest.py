"""Show that every workload's checks can fail.

For each workload this runs its controls and one operation, requires the
untouched outputs to pass, and then requires each perturbed copy below to
fail: a shifted conditional state, a fidelity set to 0.99, a branch
probability moved off 5^-9, a deviation moved off its closed form.
"""

from __future__ import annotations

import copy

import numpy as np

from qnc.engine import DensityMatrix


def shifted_conditionals(report):
    """A copy of the report whose conditional states are moved by 1e-3 on the diagonal."""
    bad = copy.copy(report)

    def conditional(record):
        rho = report.conditional(record)
        m = rho.matrix.copy()
        m[0, 0] += 1e-3
        m[1, 1] -= 1e-3
        return DensityMatrix(rho.layout, m)

    bad.conditional = conditional
    return bad


def perturbed_outputs(name: str, out):
    if name in ("fullpad-p3", "weakpad-p3"):
        report, verdict = out
        yield "conditional state shifted", (shifted_conditionals(report), verdict)
        yield "verdict flipped", (report, not verdict)
        if name == "weakpad-p3":
            bad = copy.copy(report)
            bad.output_fidelity_under_attack = 1.01
            yield "attacked fidelity set to 1.01", (bad, verdict)
    elif name == "honest-p5":
        probs, fids, runs = out
        bad = probs.copy()
        bad[12345] *= 1 + 1e-9
        yield "one branch probability off uniform", (bad, fids, runs)
        bad = fids.copy()
        bad[678] = 0.99
        yield "one branch fidelity set to 0.99", (probs, bad, runs)
        yield "one run fidelity set to 0.99", (probs, fids, runs[:-1] + [0.99])
    elif name == "fidelity-p5":
        yield "fidelity set to 1.01", 1.01
        yield "fidelity set to -0.01", -0.01


def perturbed_controls(name: str, values: dict):
    if name == "weakpad-p3":
        yield "keep-phi0 deviation off 2/3", dict(values, keep_deviation=values["keep_deviation"] + 1e-6)
        anchor = values["keep_anchor"].copy()
        anchor[0, 0] += 1e-6
        yield "keep-phi0 anchor state shifted", dict(values, keep_anchor=anchor)
        yield "keep-phi0 fidelity set to 0.99", dict(values, keep_fidelity=0.99)
    elif name == "fidelity-p5":
        identity = list(values["identity"])
        identity[3] = 0.99
        yield "identity-tap fidelity set to 0.99", dict(values, identity=identity)
        yield "p=3 closed form moved by 1e-9", dict(values, p3_closed_form=values["p3_closed_form"] + 1e-9)


def main(workloads, names) -> int:
    failures = 0

    def expect_fail(label, check, *args):
        nonlocal failures
        try:
            check(*args)
        except workloads.CheckFailed as exc:
            print(f"  caught   {label}: {exc}")
        else:
            failures += 1
            print(f"  MISSED   {label}")

    for name in names:
        wl = workloads.WORKLOADS[name]
        rng = np.random.default_rng(0)
        print(f"{name}:")
        values = wl.controls(rng)
        wl.check_controls(values)
        for label, bad in perturbed_controls(name, values):
            expect_fail(label, wl.check_controls, bad)
        x = wl.inputs(rng, 0)
        out = wl.op(x)
        wl.check(x, out)
        print("  passed   untouched outputs")
        for label, bad in perturbed_outputs(name, out):
            expect_fail(label, wl.check, x, bad)
    print("self-test " + ("passed" if failures == 0 else f"FAILED: {failures} perturbation(s) not caught"))
    return 0 if failures == 0 else 1
