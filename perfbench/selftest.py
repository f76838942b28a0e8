"""Self-test of the benchmark's checks: each must reject a broken output.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Every case takes a genuine output of
cheshire, shows that its check accepts it, then breaks it in one way and
shows that the same check rejects it.  Exits 1 if any genuine output is
rejected or any broken one is accepted.  This script is not part of the
repository's pytest suite.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import math  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402

results: list[tuple[str, bool]] = []


def case(name: str, check, genuine, broken) -> None:
    """``check(x)`` must accept ``genuine`` and reject ``broken``."""
    try:
        check(genuine)
    except oracle.CheckFailure as exc:
        results.append((f"{name}: genuine output rejected: {exc}", False))
        return
    try:
        check(broken)
    except oracle.CheckFailure as exc:
        results.append((f"{name}: rejected ({str(exc)[:110]})", True))
        return
    results.append((f"{name}: broken output ACCEPTED", False))


def observe(op):
    return op.observe(op.call())


def csv_cases(workdir: Path) -> None:
    alpha = math.radians(20.0)
    base = {"kind": "magnet", "path": "I", "truncation": "exact", "vary": "chi", "points": 37,
            "scale": 11.25, "start": -math.pi, "stop": 2.0 * math.pi, "alpha": alpha}

    def sweep_text(spec):
        return observe(workloads.sweep_op(spec, workdir / "selftest.csv"))[2]

    def rows(text):
        return text.split("\n")

    def check_as(spec):
        return lambda text: oracle.check_sweep_csv(text, spec)

    exact_ii = dict(base, path="II")
    quad_ii = dict(exact_ii, truncation="quadratic")
    genuine = sweep_text(exact_ii)
    mislabelled = sweep_text(quad_ii).replace("quadratic", "exact")
    case("CSV: quadratic intensities labelled exact", check_as(exact_ii), genuine, mislabelled)

    genuine = sweep_text(base)
    flipped = dict(base, start=-base["stop"], stop=-base["start"])
    lines, neg = rows(genuine), rows(sweep_text(flipped))
    broken = lines[:1]
    n = base["points"]
    for k in range(n):  # intensities computed at -chi, labelled chi
        for j in range(3):
            cells = neg[1 + 3 * (n - 1 - k) + j].split(",")
            cells[2] = lines[1 + 3 * k + j].split(",")[2]
            broken.append(",".join(cells))
    case("CSV: chi with its sign flipped", check_as(base), genuine, "\n".join(broken + [""]))

    for column, name in ((5, "intensity_norm"), (6, "intensity_cps"), (2, "chi_rad")):
        lines = rows(genuine)
        cells = lines[20].split(",")
        cells[column] = format(float(cells[column]) + 1e-9, ".12e")
        lines[20] = ",".join(cells)
        case(f"CSV: one {name} nudged by 1e-9", check_as(base), genuine, "\n".join(lines))

    lines = rows(genuine)
    case("CSV: a dropped row", check_as(base), genuine, "\n".join(lines[:30] + lines[31:]))

    alpha_spec = dict(base, vary="alpha", truncation="linear", start=2e-3, stop=0.8, chi=0.7)
    case("CSV: alpha sweep, quadratic intensities labelled linear", check_as(alpha_spec), sweep_text(alpha_spec),
         sweep_text(dict(alpha_spec, truncation="quadratic")).replace("quadratic", "linear"))

    absorber = {"kind": "absorber", "path": "II", "truncation": "exact", "vary": "chi", "points": 12,
                "scale": 3.0, "start": 0.0, "stop": 1.0, "transmissivity": 0.36}
    genuine_abs = sweep_text(absorber)
    case("CSV: absorber checked as path I", check_as(absorber), genuine_abs,
         genuine_abs.replace("absorber:II", "absorber:I"))


def point_cases() -> None:
    def mix(kind, path, trunc, alpha, t, chi, scale=11.25):
        return observe(workloads.mix_op(kind, path, trunc, alpha, t, chi, scale, 5))

    def check_point(kind, path, trunc, alpha, t, chi, scale=11.25):
        return lambda obs: oracle.check_point("selftest", kind, path, chi, alpha, trunc, t, scale, obs[0], obs[1])

    chi, alpha = 0.9, 0.6
    good = mix("magnet", "I", "exact", alpha, 1.0, chi)
    case("point: path I magnet at -chi labelled chi", check_point("magnet", "I", "exact", alpha, 1.0, chi),
         good, mix("magnet", "I", "exact", alpha, 1.0, -chi))
    case("point: quadratic intensities labelled exact", check_point("magnet", "II", "exact", alpha, 1.0, chi),
         mix("magnet", "II", "exact", alpha, 1.0, chi), mix("magnet", "II", "quadratic", alpha, 1.0, chi))
    norms = list(good[0])
    norms[2] += 1e-12
    case("point: H nudged by 1e-12 (flux ledger)", check_point("magnet", "I", "exact", alpha, 1.0, chi),
         good, (tuple(norms),) + good[1:])
    case("point: cps at another scale", check_point("magnet", "I", "exact", alpha, 1.0, chi, 11.25),
         good, mix("magnet", "I", "exact", alpha, 1.0, chi, 11.3))
    case("point: absorber on path II labelled path I", check_point("absorber", "I", "exact", 0.0, 0.3, chi),
         mix("absorber", "I", "exact", 0.0, 0.3, chi), mix("absorber", "II", "exact", 0.0, 0.3, chi))

    for path in ("I", "II"):
        for a in (1.4e-3, 0.35, 2.5):
            exact = mix("magnet", path, "exact", a, 1.0, 0.0)[3]
            quad = mix("magnet", path, "quadratic", a, 1.0, 0.0)[3]
            broken = quad if path == "II" else exact * (1.0 + 1e-6)
            case(f"estimate_sigma_pi path {path} alpha={a}: {'quadratic as exact' if path == 'II' else 'off by 1e-6'}",
                 lambda v, p=path, a=a: oracle.check_sigma_pi_estimate("selftest", p, a, "exact", v), exact, broken)
    for path in ("I", "II"):
        t = 0.49
        value = mix("absorber", path, "exact", 0.0, t, 0.0)[3]
        case(f"estimate_pi_from_absorber path {path}: sqrt(T) taken as T",
             lambda v, p=path: oracle.check_absorber_estimate("selftest", p, t, v),
             value, value + (t - math.sqrt(t)) / 2.0 if path == "II" else value + 1e-9)

    rate, duration, counts, est_rate, est_sigma = good[2]
    check_sample = lambda s: oracle.check_poisson_sample("selftest", good[1][0], *s)  # noqa: E731
    case("poisson: est_rate not counts/duration", check_sample,
         (duration, counts, est_rate, est_sigma, rate), (duration, counts, est_rate * 1.001, est_sigma, rate))
    case("poisson: count total 6 sigma off", lambda c: oracle.check_poisson_total("selftest", c, 1e6),
         int(1e6 + 2e3), int(1e6 + 6e3))


def scan_cases() -> None:
    import numpy as np

    for path in ("I", "II"):
        grid = np.geomspace(5e-3, 0.5, 24)
        scan, witness_op, weak_op = workloads.scan_ops(path, grid)
        good = observe(scan)
        alphas, i_exact, i_linear, i_quadratic, e_lin, e_quad = good
        case(f"scan path {path}: exact and linear intensities swapped", scan.check, good,
             (alphas, i_linear, i_exact, i_quadratic, e_lin, e_quad))
        case(f"scan path {path}: exponent nudged by 0.01", scan.check, good,
             (alphas, i_exact, i_linear, i_quadratic, e_lin + 0.01, e_quad))
        other = "II" if path == "I" else "I"
        case(f"scan path {path}: path {other} intensities", scan.check, good,
             observe(workloads.scan_ops(other, grid)[0]))
        if path == "II":
            witness = observe(witness_op)
            a, d_lin, d_quad, d_exact = witness
            case("witness: linear deficit set to the quadratic one", witness_op.check, witness,
                 (a, d_quad, d_quad, d_exact))
            case("witness: exact deficit nudged by 1e-12", witness_op.check, witness,
                 (a, d_lin, d_quad, d_exact + 1e-12))
            per_point = observe(weak_op)
            values, predicted, est = per_point[3]
            swapped = list(per_point)
            swapped[3] = ((values[1], values[0]) + values[2:], predicted, est)
            case("weak values: Pi_I and Pi_II swapped", weak_op.check, per_point, swapped)
            other_prediction = list(per_point)
            other_prediction[3] = (values, per_point_path_i_prediction(alphas[3]), est)
            case("weakvalue_intensity: path I prediction on path II", weak_op.check, per_point, other_prediction)
            quadratic_estimate = list(per_point)
            quadratic_estimate[3] = (values, predicted, alphas[3] / 4.0)
            case("estimate_sigma_pi: quadratic-truncation estimate a/4 for the exact one", weak_op.check,
                 per_point, quadratic_estimate)

    rows = observe(workloads.reproduce_op())
    check_rows = lambda r: oracle.check_reproduce(r, 11.25)  # noqa: E731
    broken = [r if r[0] != "I_mag_I" else (r[0], r[1], r[2], 11.75, r[4], r[5]) for r in rows]
    case("reproduce: a measured rate changed", check_rows, rows, broken)
    case("reproduce: theory at another scale", check_rows, rows, observe_reproduce_at(11.4))


def per_point_path_i_prediction(alpha: float) -> float:
    import cheshire

    return cheshire.weakvalue_intensity(alpha, cheshire.Path.I, cheshire.exact_weak_values(), 0.25)


def observe_reproduce_at(scale: float):
    import cheshire

    return [(r.quantity, r.theory_norm, r.theory_cps, r.measured_cps, r.measured_sigma_cps, True)
            for r in cheshire.reproduce_benchmark_table(scale)]


def main() -> int:
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench_tmp"))
    try:
        csv_cases(workdir)
        point_cases()
        scan_cases()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line, ok in results:
        print(("ok    " if ok else "FAIL  ") + line)
    bad = sum(not ok for _, ok in results)
    print(f"{len(results) - bad}/{len(results)} checks reject their broken output")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
