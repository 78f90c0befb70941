"""Command-line front end: named verification suites with JSON/CSV reports.

One process, subcommand dispatch.  Exit codes: 0 all checks pass, 1 at
least one verification failed, 2 usage or input error, 3 internal error.
Reports are deterministic for a fixed seed; PIC_TOOLKIT_SEED overrides any
configured seed.  Each suite parameter is declared once, as its argparse
flag, and every suite run, in process too, goes through the parser:
``run_suite`` takes the parsed ``verify`` namespace.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback

import numpy as np

from . import bands, comparison, curvature, exterior, gridcalc, hodge, potentials
from .reporting import Region, Report, dump_reports, write_csv


class InputError(ValueError):
    """Bad config or data file; maps to exit code 2."""


def _finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and infinities are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _count(text: str) -> int:
    """argparse type of every count flag: a count of zero checks nothing."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need a count of at least 1, got {text!r}")
    return value


def _radial_sizes(text: str) -> list[int]:
    """'16,32,64' -> [16, 32, 64]; a refinement ladder needs at least two
    strictly increasing sizes for an observed order."""
    sizes = [int(t) for t in text.split(",")]
    if len(sizes) < 2 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise argparse.ArgumentTypeError(f"need at least two strictly increasing sizes, got {text!r}")
    return sizes


def _reject_constant(name: str):
    raise ValueError(f"non-finite constant {name} in JSON input")


def _finite_literal(text: str) -> float:
    """A JSON number literal; one that overflows to infinity, like 1e309, is rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} in JSON input is not finite")
    return value


def _load(path: str, parse, what: str):
    """parse(JSON document at path).  Non-finite numbers are rejected: the
    NaN and Infinity constants Python's parser accepts by default and
    literals that overflow a float.  Every failure to read or parse the
    file is an InputError (exit 2)."""
    try:
        with open(path) as fh:
            return parse(json.load(fh, parse_constant=_reject_constant, parse_float=_finite_literal))
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"cannot load {what} from {path}: {exc}") from exc


def _worst(*values: float) -> float:
    """Running max of defects that keeps a NaN, which max() would drop
    (max(0.0, nan) == 0.0) and so read as a pass."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _parse_range(text: str) -> list[int]:
    """'4..8' -> [4, 5, 6, 7, 8], '4' -> [4]; an empty range like '8..4'
    is a usage error."""
    if ".." in text:
        lo, hi = (int(t) for t in text.split("..", 1))
        if lo > hi:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


# -- suites --------------------------------------------------------------


def suite_clifford(args):
    rng = np.random.default_rng(args.seed)
    reports = []
    samples = args.samples
    for n in args.n:
        worst = 0.0
        eye = np.eye(n)
        for k in range(n + 1):
            for key in exterior.degree_basis(n, k):
                a = exterior.FormElement(n, {key: 1.0})
                for i in range(n):
                    for j in range(i, n):
                        ci_cj = exterior.clifford_c(eye[i], exterior.clifford_c(eye[j], a))
                        cj_ci = exterior.clifford_c(eye[j], exterior.clifford_c(eye[i], a))
                        t1 = ci_cj + cj_ci + (2.0 if i == j else 0.0) * a
                        ti_tj = exterior.clifford_ct(eye[i], exterior.clifford_ct(eye[j], a))
                        tj_ti = exterior.clifford_ct(eye[j], exterior.clifford_ct(eye[i], a))
                        t2 = ti_tj + tj_ti - (2.0 if i == j else 0.0) * a
                        mixed = exterior.clifford_c(eye[i], exterior.clifford_ct(eye[j], a)) + \
                            exterior.clifford_ct(eye[j], exterior.clifford_c(eye[i], a))
                        worst = _worst(worst, t1.norm(), t2.norm(), mixed.norm())
        for _ in range(samples):
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            w = exterior.random_form(n, int(rng.integers(0, n + 1)), rng)
            lhs = exterior.clifford_c(u, exterior.clifford_c(v, w)) + exterior.clifford_c(
                v, exterior.clifford_c(u, w)
            )
            worst = _worst(worst, (lhs + 2.0 * float(u @ v) * w).norm() / max(1.0, w.norm()))
        reports.append(
            Report(
                check=f"clifford.relations.n{n}",
                params={"n": n, "samples": samples},
                passed=worst < 1e-12,
                tolerance=1e-12,
                regions=[Region("relation_margin", 1e-12 - worst)],
                details={"max_defect": worst},
            )
        )
    return reports


def _tensor(args):
    if args.tensor:
        return _load(args.tensor, curvature.load_curvature_json, "curvature tensor")
    return curvature.sphere_line_product(args.n, 1.0)  # product model default


def suite_curvature(args):
    sigma = args.sigma
    R = _tensor(args)
    scfg = curvature.SearchConfig(seed=args.seed, tolerance=args.tol)
    verdict = curvature.is_sigma_pic(R, sigma, scfg)
    report = Report(
        check="curvature.sigma_pic",
        params={"n": R.n, "sigma": sigma, "restarts": verdict.restarts},
        passed=verdict.passed,
        tolerance=scfg.tolerance,
        regions=[Region("min_isotropic_margin", verdict.min_found - sigma)],
        details={"min_found": verdict.min_found, "seed": scfg.seed},
    )
    return [report]


def suite_weitzenboeck(args):
    sigma = args.sigma
    R = _tensor(args)
    scfg = curvature.SearchConfig(seed=args.seed, tolerance=args.tol)
    rep = curvature.weitzenboeck_lower_bound_check(R, sigma, scfg)
    double_path = float(
        np.max(
            np.abs(
                curvature.weitzenboeck_on_two_forms(R).matrix
                - curvature.weitzenboeck_clifford_trace(R)
            )
        )
    )
    return [
        Report(
            check="weitzenboeck.lower_bound",
            params={"n": R.n, "sigma": sigma},
            passed=rep.passed or not rep.asserted,
            tolerance=1e-9,
            regions=[Region("eigenvalue_margin", rep.margin)],
            details={
                "lambda_min": rep.lambda_min,
                "bound": rep.bound,
                "pic_precondition": rep.pic_verdict.passed,
                "asserted": rep.asserted,
            },
        ),
        Report(
            check="weitzenboeck.double_path",
            params={"n": R.n},
            passed=double_path < 1e-10,
            tolerance=1e-10,
            regions=[Region("matrix_agreement", 1e-10 - double_path)],
        ),
    ]


def suite_comparison(args):
    rng = np.random.default_rng(args.seed)
    draws = args.draws
    worst = 0.0
    for _ in range(draws):
        n = int(rng.integers(3, 8))
        K = float(rng.uniform(0.05, 4.0))
        Lam = float(rng.uniform(0.0, 3.0))
        rho = float(rng.uniform(0.05, 2.0))
        model = comparison.RotSymModel(n=n, K=K, A0=-Lam / (n - 1))
        res = comparison.riccati_oracle(model, rho)
        barrier = comparison.laplace_upper_negative_boundary(
            comparison.ComparisonParams(n, K, Lam, rho)
        )
        worst = _worst(worst, abs(res.trace - barrier))
    pole_err = 0.0
    for _ in range(5):
        K = float(rng.uniform(0.3, 2.0))
        Lam = math.sqrt(K) * float(rng.uniform(1.2, 3.0))
        out = comparison.laplace_upper_positive_boundary(
            comparison.ComparisonParams(4, K, Lam, 50.0)
        )
        expected = math.atanh(math.sqrt(K) / Lam) / math.sqrt(K)
        pole_err = _worst(pole_err, abs(out.rho_pole - expected))
    flat = comparison.ComparisonParams(4, 0.0, 0.0, 0.0, r_f=3.0)
    limit_err = _worst(
        abs(comparison.hessian_lower_focal(flat) + 2.0 / 3.0),
        abs(comparison.laplace_lower_focal(flat) + 2.0),
    )
    return [
        Report(
            check="comparison.umbilic_equality",
            params={"draws": draws},
            passed=worst < 1e-6,
            tolerance=1e-6,
            regions=[Region("oracle_vs_barrier", 1e-6 - worst)],
            details={"seed": args.seed},
        ),
        Report(
            check="comparison.pole_location",
            params={},
            passed=pole_err < 1e-9,
            tolerance=1e-9,
            regions=[Region("pole_agreement", 1e-9 - pole_err)],
        ),
        Report(
            check="comparison.flat_limits",
            params={"r_f": 3.0},
            passed=limit_err < 1e-9,
            tolerance=1e-9,
            regions=[Region("flat_limit_agreement", 1e-9 - limit_err)],
        ),
    ]


def suite_bandwidth(args):
    p = potentials.BandwidthParams(
        n=args.n, sigma=args.sigma, delta=args.delta, Lambda=args.Lambda, r_f=args.rf, L=args.L
    )
    reports = [potentials.verify_bandwidth_margin(p), potentials.check_L_chain(p.n, p.sigma, p.delta)]
    chi = potentials.ChiCutoff()
    xs = np.linspace(0.0, 2.0, 10_001)
    chi_ok = (
        float(np.max(np.abs(chi.chi(xs[xs <= 0.5]) + xs[xs <= 0.5]))) < 1e-12
        and float(chi.chipp(xs).min()) >= 0.0
        and float(chi.chipp(xs).max()) <= 4.0
        and float(chi.chip(xs).min()) >= -1.0
        and float(chi.chip(xs).max()) <= 0.0
    )
    reports.append(
        Report(
            check="bandwidth.chi_cutoff",
            params={"plateau_end": chi.plateau_end},
            passed=chi_ok,
            tolerance=1e-12,
            regions=[Region("chi_second_deriv_headroom", 4.0 - float(chi.chipp(xs).max()))],
            details={"c_plateau": chi.c_plateau},
        )
    )
    return reports


def suite_focal(args):
    p, r_f = potentials.FocalParams(args.n, args.sigma, args.lam, args.lam_bar), args.rf
    reports = [
        potentials.check_focal_regularity(p, r_f),
        potentials.check_focal_boundary(p),
        potentials.verify_focal_inequality(p, r_f, orientation="N"),
        potentials.verify_focal_inequality(p, r_f, orientation="D"),
    ]
    if args.out:
        rows = potentials.focal_margin_rows(p, r_f)
        write_csv(_sibling(args.out, "focal_margins.csv"), ["rho", "lhs", "rhs", "margin"], rows)
    return reports


def suite_identities(args):
    reports = []
    grid_path = args.grid
    if grid_path:
        grid, fields = _load(grid_path, gridcalc.load_grid_config, "grid config")
        if len(fields) < 2 or not (fields[0].sup_norm() > 0 and fields[1].sup_norm() > 0):
            raise InputError("grid config needs two nonzero fields for the pairings")
        alpha, beta = fields[0], fields[1]
        res_dirac = gridcalc.green_residual_dirac(alpha, beta)
        res_lap = gridcalc.green_residual_laplace(alpha, beta)
        bound = 10.0 * grid.h**2
        checks = [("green_dirac", res_dirac), ("green_laplace", res_lap)]
        return [
            Report(
                check=f"identities.{name}.config",
                params={"n": grid.n, "N_r": grid.N_r, "N_t": grid.N_t, "L": grid.L},
                passed=res <= bound,
                tolerance=bound,
                regions=[Region("residual_headroom", bound - res)],
                details={"residual": res},
            )
            for name, res in checks
        ]
    Ns, n, N_t = args.N_r, args.n, args.N_t
    csv_rows = []
    for kind in ("dirac", "laplace", "weitzenboeck"):
        residuals, hs, orders = gridcalc.convergence_study(kind, Ns, n=n, N_t=N_t, seed=args.seed)
        ok = all(abs(o - 2.0) <= 0.3 for o in orders)
        label = f"green_{kind}" if kind != "weitzenboeck" else "twisted_weitzenboeck"
        reports.append(
            Report(
                check=f"identities.{label}",
                params={"n": n, "N_r": Ns, "N_t": N_t},
                passed=ok,
                tolerance=0.3,
                regions=[Region("order_window", 0.3 - max(abs(o - 2.0) for o in orders))],
                details={"residuals": residuals, "orders": orders, "seed": args.seed},
            )
        )
        csv_rows.append((label, [(h, r, o) for h, r, o in zip(hs, residuals, orders + [float("nan")])]))
    if args.out:
        for label, rows in csv_rows:
            write_csv(_sibling(args.out, f"convergence_{label}.csv"), ["h", "residual", "order"], rows)
    return reports


def suite_hodge(args):
    rng = np.random.default_rng(args.seed)
    reports = []
    jobs = [
        ("annulus", "absolute", 1),
        ("annulus", "relative", 1),
        ("torus", "absolute", 1),
        ("solid_torus", "absolute", 1),
        ("solid_torus", "relative", 2),
    ]
    twists = args.twists
    path = args.complex
    if path:
        K = _load(path, hodge.load_complex, "complex")
        jobs = [(K, "absolute", k) for k in range(K.dim + 1)]
    for name, cond, k in jobs:
        K = name if isinstance(name, hodge.SimplicialComplex) else hodge.load_bundled(name)
        target = hodge.betti_relative(K, k) if cond == "relative" else hodge.betti(K, k)
        ok = True
        for _ in range(twists):
            f = rng.uniform(-5.0, 5.0, K.n_simplices(0))
            T = hodge.TwistedComplex(K, f, cond)
            if hodge.harmonic_dimension(T, k) != target:
                ok = False
        label = name if isinstance(name, str) else "custom"
        reports.append(
            Report(
                check=f"hodge.{label}.{cond}.k{k}",
                params={"k": k, "condition": cond, "twists": twists},
                passed=ok,
                tolerance=0.0,
                regions=[Region("dimension_match", 0.0 if ok else -1.0)],
                details={"betti_target": target, "seed": args.seed},
            )
        )
    return reports


def suite_band(args):
    path = args.band
    if path:
        band = _load(path, bands.load_band_json, "band spec")
    else:
        band = bands.WarpedBand(4, 0.0, 3.0, bands.WarpProfile("const"))
    scfg = curvature.SearchConfig(seed=args.seed, restarts=args.restarts)
    return [bands.sigma_pic_profile(band, args.sigma, cfg=scfg)]


def suite_counterexample(args):
    spec = bands.CounterexampleSpec(n=args.n, k=args.k, sigma=args.sigma, L=args.L)
    return [bands.counterexample_report(spec, curvature.SearchConfig(seed=args.seed))]


SUITES = {
    "clifford": suite_clifford,
    "curvature": suite_curvature,
    "weitzenboeck": suite_weitzenboeck,
    "comparison": suite_comparison,
    "bandwidth": suite_bandwidth,
    "focal": suite_focal,
    "identities": suite_identities,
    "hodge": suite_hodge,
    "band": suite_band,
    "counterexample": suite_counterexample,
}


def run_suite(args: argparse.Namespace) -> int:
    """Run the suite of a parsed ``verify`` command line; returns the process
    exit code.  The suites read their parameters from ``args``, so every
    value has passed its flag's type check."""
    env_seed = os.environ.get("PIC_TOOLKIT_SEED")
    if env_seed is not None:
        args = argparse.Namespace(**{**vars(args), "seed": int(env_seed)})
    reports = SUITES[args.suite](args)
    for rep in reports:
        print(rep.summary_line())
    if args.out:
        dump_reports(args.out, reports, seed=args.seed)
    return 0 if all(r.passed for r in reports) else 1


def _sibling(out_path: str, name: str) -> str:
    base = os.path.dirname(os.path.abspath(out_path))
    return os.path.join(base, name)


# -- argument parsing ------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", type=str, default=None, help="write JSON report here")


def _add_focal_flags(sp):
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--sigma", type=_finite_float, default=1.0)
    sp.add_argument("--lambda", dest="lam", type=_finite_float, default=5.0)
    sp.add_argument("--lambda-bar", dest="lam_bar", type=_finite_float, default=100.0)
    sp.add_argument("--rf", type=_finite_float, default=18.01)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pic-verify", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    vf = sub.add_parser("verify", help="run a verification suite")
    vsub = vf.add_subparsers(dest="suite", required=True)

    sp = vsub.add_parser("clifford")
    sp.add_argument("--n", type=_parse_range, default="4..8", help="dimension or range like 4..8")
    sp.add_argument("--samples", type=_count, default=100)
    _add_common(sp)

    for name in ("curvature", "weitzenboeck"):
        sp = vsub.add_parser(name)
        sp.add_argument("--n", type=int, default=4)
        sp.add_argument("--sigma", type=_finite_float, default=1.0)
        sp.add_argument("--tensor", type=str, default=None, help="curvature tensor JSON file")
        sp.add_argument("--tol", type=_finite_float, default=1e-9)
        _add_common(sp)

    sp = vsub.add_parser("comparison")
    sp.add_argument("--draws", type=_count, default=20)
    _add_common(sp)

    sp = vsub.add_parser("bandwidth")
    for flag, default in (("--n", 4), ("--sigma", 1.0), ("--delta", 0.1), ("--Lambda", 0.2),
                          ("--rf", 8.0), ("--L", 8.0)):
        sp.add_argument(flag, type=_finite_float if "." in str(default) else int, default=default)
    _add_common(sp)

    sp = vsub.add_parser("focal")
    _add_focal_flags(sp)
    _add_common(sp)

    sp = vsub.add_parser("identities")
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--N-t", dest="N_t", type=int, default=6)
    sp.add_argument("--N-r", dest="N_r", type=_radial_sizes, default="16,32,64")
    sp.add_argument("--grid", type=str, default=None, help="grid config JSON with explicit fields")
    _add_common(sp)

    sp = vsub.add_parser("hodge")
    sp.add_argument("--complex", type=str, default=None, help="complex JSON file")
    sp.add_argument("--twists", type=_count, default=10)
    _add_common(sp)

    sp = vsub.add_parser("band")
    sp.add_argument("--band", type=str, default=None, help="band spec JSON file")
    sp.add_argument("--sigma", type=_finite_float, default=1.0)
    sp.add_argument("--restarts", type=_count, default=64)
    _add_common(sp)

    sp = vsub.add_parser("counterexample")
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--sigma", type=_finite_float, default=1.0)
    sp.add_argument("--L", type=_finite_float, default=3.0)
    _add_common(sp)

    em = sub.add_parser("emit", help="emit CSV curves or a config template")
    esub = em.add_subparsers(dest="what", required=True)
    sp = esub.add_parser("csv")
    sp.add_argument("--curve", choices=("barrier", "focal"), required=True)
    _add_focal_flags(sp)
    sp.add_argument("--K", type=_finite_float, default=1.0)
    sp.add_argument("--Lambda", type=_finite_float, default=1.0)
    sp.add_argument("--rho-max", type=_finite_float, default=2.0)
    sp.add_argument("--points", type=_count, default=256)
    sp.add_argument("--out", type=str, required=True)
    sp = esub.add_parser("json")
    sp.add_argument("--suite", choices=sorted(SUITES), required=True)
    sp.add_argument("--out", type=str, required=True)

    return ap


def _emit(args) -> int:
    if args.what == "json":
        # what ``verify SUITE`` parses with no flags: every parameter with its default
        defaults = vars(build_parser().parse_args(["verify", args.suite]))
        del defaults["command"]
        doc = {k: defaults.pop(k) for k in ("suite", "seed", "tol", "out") if k in defaults}
        doc["params"] = defaults
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    if args.curve == "barrier":
        p = comparison.ComparisonParams(args.n, args.K, args.Lambda, 0.0)
        rows = comparison.barrier_curve_rows(p, np.linspace(0.0, args.rho_max, args.points))
        header = ["rho", "barrier", "oracle", "margin"]
    else:
        fp = potentials.FocalParams(args.n, args.sigma, args.lam, args.lam_bar)
        rows = potentials.focal_margin_rows(fp, args.rf, points=args.points)
        header = ["rho", "lhs", "rhs", "margin"]
    # numpy overflow raises in main; the barrier's Python-float formulas
    # reach inf silently (--Lambda 1e308)
    if not np.isfinite(rows).all():
        raise ValueError(f"the {args.curve} curve is not finite at these inputs")
    write_csv(args.out, header, rows)
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        # one overflow policy for every command: finite flags that overflow
        # or make a NaN inside numpy are an input error, not a result
        with np.errstate(over="raise", invalid="raise"):
            if args.command == "verify":
                return run_suite(args)
            return _emit(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: the computation is not finite at these inputs: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a defect of the program, not a failed verification (exit 1)
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
