"""Command-line front end: verification suites with JSON reports, and CSV curves.

One process, subcommand dispatch.  Exit codes: 0 all checks pass, 1 at
least one verification failed, 2 usage or input error, 3 internal error.
Reports are deterministic for a fixed seed; PIC_TOOLKIT_SEED overrides the
``--seed`` flag.  Each suite parameter is declared once, as its argparse
flag, and every suite run, in process too, goes through the parser:
``run_suite`` takes the parsed ``verify`` namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import traceback

# One BLAS thread unless the user sets another count, before numpy loads its
# BLAS: the products here are tiny, and on two cores a threaded OpenBLAS made
# `verify curvature --n 6` take 0.29-0.94 s against 0.28-0.29 s on one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import bands, comparison, curvature, exterior, gridcalc, hodge, potentials  # noqa: E402
from .reporting import Region, Report, dump_reports, write_csv  # noqa: E402


class InputError(ValueError):
    """Bad input file or non-finite result; maps to exit code 2."""


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


class _Given(argparse.Action):
    """Store a flag's value and note the flag in ``given``: ``main`` refuses
    it next to the input file that fixes what it sets."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*getattr(namespace, "given", ()), self.option_strings[0])


def _load(path: str, parse, what: str):
    """parse(JSON document at path).  A file that cannot be read, is not
    JSON or that parse refuses with a ValueError (its schema's shape, type
    and key errors, a NaN, an infinity or a literal past the float range
    among them, and its semantic checks) is an InputError, exit 2.  A
    FloatingPointError or OverflowError that parse's arithmetic raises (a
    band table whose spline overflows) passes through to ``main``, which
    reports it as a computation past the float range, also exit 2; any
    other exception raised while loading is a program defect, exit 3."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot load {what} from {path}: {exc}") from exc


def _worst(*values: float) -> float:
    """Running max of defects that keeps a NaN, which max() would drop
    (max(0.0, nan) == 0.0) and so read as a pass."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _parse_range(text: str) -> list[int]:
    """'4..8' -> [4, 5, 6, 7, 8], '4' -> [4]; an empty range like '8..4', a dimension below 1
    and one whose largest degree stacks pass exterior.MAX_STACK_ENTRIES are usage errors."""
    lo, hi = (int(t) for t in text.split("..", 1)) if ".." in text else (int(text),) * 2
    if not (1 <= lo <= hi and exterior._stack_fits(hi, (hi - 1) // 2)):  # before the list is built
        raise argparse.ArgumentTypeError(
            f"need a nonempty range of dimensions >= 1 whose degree stacks fit in MAX_STACK_ENTRIES, got {text!r}")
    return list(range(lo, hi + 1))


# -- suites --------------------------------------------------------------


def _clifford_basis_defect(n: int) -> float:
    """Largest entry defect of {W_i, W_j} = 0, {I_i, I_j} = 0 and {W_i, I_j} = delta_ij on the
    degree stacks W, I: the degree +2, -2 and 0 parts of {c_i, c_j} = -2 delta_ij, {ct_i, ct_j} =
    2 delta_ij and {c_i, ct_j} = 0 for c = W - I, ct = W + I, so they hold exactly when those do."""
    W, I = exterior.wedge_stack, exterior.interior_stack
    worst = 0.0
    for k in range(n + 1):
        for i in range(n):  # batched over j: [j] is the relation of the pair (i, j) on degree k
            wi = W(n, k - 1)[i] @ I(n, k) + I(n, k + 1) @ W(n, k)[i]
            wi[i] -= np.eye(math.comb(n, k))
            for defect in (W(n, k + 1)[i] @ W(n, k) + W(n, k + 1) @ W(n, k)[i],
                           I(n, k - 1)[i] @ I(n, k) + I(n, k - 1) @ I(n, k)[i], wi):
                worst = max(worst, float(np.abs(defect).max(initial=0.0)))
    return worst


def _c_on_stacks(v, form: dict) -> dict:
    """c(v) through the degree stacks, on a form stored as {degree: coefficients}."""
    out = {}
    for k, x in form.items():
        out[k + 1] = out.get(k + 1, 0.0) + v @ (exterior.wedge_stack(len(v), k) @ x)
        out[k - 1] = out.get(k - 1, 0.0) - v @ (exterior.interior_stack(len(v), k) @ x)
    return out


def suite_clifford(args):
    rng = np.random.default_rng(args.seed)
    reports = []
    samples = args.samples
    for n in args.n:
        worst = _clifford_basis_defect(n)
        for _ in range(samples):
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            k = int(rng.integers(0, n + 1))
            w = rng.standard_normal(math.comb(n, k)) + 1j * rng.standard_normal(math.comb(n, k))
            uv, vu = _c_on_stacks(u, _c_on_stacks(v, {k: w})), _c_on_stacks(v, _c_on_stacks(u, {k: w}))
            uv[k] += 2.0 * float(u @ v) * w
            lhs = np.concatenate([uv[d] + vu[d] for d in uv])
            worst = _worst(worst, float(np.linalg.norm(lhs) / max(1.0, np.linalg.norm(w))))
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
        details={"certified_bound" if verdict.kind == "certified" else "min_found": verdict.min_found,
                 "kind": verdict.kind, "seed": scfg.seed},
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
                "kind": rep.pic_verdict.kind,
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

    def positive_barrier(K, Lam, rho):
        return comparison.laplace_upper_positive_boundary(comparison.ComparisonParams(4, K, Lam, rho))

    def oracle_defect(model, pole, barriers):
        """The model integrated to twice the pole: |crossing - pole|, and for
        each (c, b) the gap |c trace - b| / max(1, |b|) at half the pole."""
        half, beyond = comparison.riccati_curve(model, [0.5 * pole, 2.0 * pole])
        return _worst(abs(beyond.crossing - pole) if beyond.crossed else 1.0,
                      *(1.0 if half.crossed else abs(c * half.trace - b) / max(1.0, abs(b)) for c, b in barriers))

    # the positive-boundary barrier's reported pole must separate its two
    # branches, a value just below it and a PoleBeyond just past it, and it
    # and the value at half of it must be the oracle's in the model A0 = Lambda
    pole_err = 0.0
    for _ in range(5):
        K = float(rng.uniform(0.3, 2.0))
        Lam = math.sqrt(K) * float(rng.uniform(1.2, 3.0))
        pole = positive_barrier(K, Lam, 50.0)
        if not isinstance(pole, comparison.PoleBeyond):
            pole_err = _worst(pole_err, 1.0)
            continue
        rho = pole.rho_pole
        bracketed = (isinstance(positive_barrier(K, Lam, rho * (1.0 - 1e-9)), float)
                     and isinstance(positive_barrier(K, Lam, rho * (1.0 + 1e-9)), comparison.PoleBeyond))
        pole_err = _worst(pole_err, 0.0 if bracketed else 1.0,
                          oracle_defect(comparison.RotSymModel(n=4, K=K, A0=Lam), rho,
                                        [(1.0, positive_barrier(K, Lam, 0.5 * rho))]))
    # both lower focal barriers must meet across the switch to their K -> 0
    # limits, and be the oracle's W and trace W at r_f/2 in the model
    # A0 = sqrt(K) coth(sqrt(K) r_f), whose radial curvature -K focuses at r_f
    at_eps, flat = (comparison.ComparisonParams(4, K, 0.0, 0.0, r_f=3.0) for K in (comparison.K_FLAT_EPS, 0.0))
    limit_err = _worst(
        abs(comparison.hessian_lower_focal(at_eps) - comparison.hessian_lower_focal(flat)),
        abs(comparison.laplace_lower_focal(at_eps) - comparison.laplace_lower_focal(flat)),
    )
    for _ in range(5):
        n = int(rng.integers(3, 8))
        K = float(rng.uniform(0.05, 4.0))
        r_f = float(rng.uniform(0.5, 3.0))
        p, s = comparison.ComparisonParams(n, K, r_f=r_f), math.sqrt(K)
        limit_err = _worst(limit_err, oracle_defect(
            comparison.RotSymModel(n=n, K=K, A0=s / math.tanh(s * r_f)), r_f,
            [(1.0 / (n - 1), comparison.hessian_lower_focal(p)), (1.0, comparison.laplace_lower_focal(p))]))
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
            passed=pole_err < 1e-11,
            tolerance=1e-11,
            regions=[Region("pole_agreement", 1e-11 - pole_err)],
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
    return [
        potentials.verify_bandwidth_margin(p),
        potentials.check_L_chain(p.n, p.sigma, p.delta),
        potentials.check_chi_cutoff(potentials.ChiCutoff()),
    ]


def suite_focal(args):
    p, r_f = potentials.FocalParams(args.n, args.sigma, args.lam, args.lam_bar), args.rf
    return [
        potentials.check_focal_regularity(p, r_f),
        potentials.check_focal_boundary(p),
        potentials.verify_focal_inequality(p, r_f, orientation="N"),
        potentials.verify_focal_inequality(p, r_f, orientation="D"),
    ]


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
    for kind in ("dirac", "laplace", "weitzenboeck"):
        residuals, _, orders = gridcalc.convergence_study(kind, Ns, n=n, N_t=N_t, seed=args.seed)
        # judged on the finest pair: a coarse pair may still be pre-asymptotic
        headroom = 0.3 - abs(orders[-1] - 2.0)
        label = f"green_{kind}" if kind != "weitzenboeck" else "twisted_weitzenboeck"
        reports.append(
            Report(
                check=f"identities.{label}",
                params={"n": n, "N_r": Ns, "N_t": N_t},
                passed=headroom >= 0,
                tolerance=0.3,
                regions=[Region("order_window", headroom)],
                details={"residuals": residuals, "orders": orders, "seed": args.seed},
            )
        )
    return reports


TWIST_BLOCK_ENTRIES = 2**18  # float64 entries (2 MiB) of d_{f,k} and d_{f,k-1} per block, at a job's largest degree


def suite_hodge(args):
    rng = np.random.default_rng(args.seed)
    reports = []
    jobs = [  # (complex, condition, degrees): one twist block serves every degree of a job
        ("annulus", "absolute", [1]),
        ("annulus", "relative", [1]),
        ("torus", "absolute", [1]),
        ("solid_torus", "absolute", [1]),
        ("solid_torus", "relative", [2]),
    ]
    twists = args.twists
    path = args.complex
    if path:
        K = _load(path, hodge.load_complex, "complex")
        jobs = [(K, "absolute", list(range(K.dim + 1)))]
    for name, cond, degrees in jobs:
        K = name if isinstance(name, hodge.SimplicialComplex) else hodge.load_bundled(name)
        targets = [hodge.betti_relative(K, k) if cond == "relative" else hodge.betti(K, k) for k in degrees]
        # entries of one twist's d_{f,k} and d_{f,k-1}, counted on the absolute cochains
        entries = max(K.n_simplices(k) * (K.n_simplices(k + 1) + K.n_simplices(k - 1)) for k in degrees)
        block = max(1, TWIST_BLOCK_ENTRIES // max(entries, 1))
        ok = [True] * len(degrees)
        for start in range(0, twists, block):  # the same stream as one draw per twist
            f = rng.uniform(-5.0, 5.0, (min(block, twists - start), K.n_simplices(0)))
            T = hodge.TwistedComplex(K, f, cond)
            for i, k in enumerate(degrees):
                ok[i] &= bool(np.all(hodge.harmonic_dimension(T, k) == targets[i]))
        label = name if isinstance(name, str) else "custom"
        reports += [
            Report(
                check=f"hodge.{label}.{cond}.k{k}",
                params={"k": k, "condition": cond, "twists": twists},
                passed=passed,
                tolerance=0.0,
                regions=[Region("dimension_match", 0.0 if passed else -1.0)],
                details={"betti_target": target, "seed": args.seed},
            )
            for k, target, passed in zip(degrees, targets, ok)
        ]
    return reports


def suite_band(args):
    path = args.band
    if path:
        band = _load(path, bands.load_band_json, "band spec")
    else:
        band = bands.WarpedBand(4, 0.0, 3.0, bands.WarpProfile("const"))
    return [bands.sigma_pic_profile(band, args.sigma)]


def suite_counterexample(args):
    spec = bands.CounterexampleSpec(n=args.n, k=args.k, sigma=args.sigma, L=args.L)
    return [bands.counterexample_report(spec)]


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
        for region in rep.regions:
            # an infinite margin comes from a formula that overflowed (2L at
            # --L 1e308), a NaN one from a NaN defect: neither is a verdict
            if not math.isfinite(region.min_margin):
                raise InputError(f"{rep.check}: {region.name} = {region.min_margin} is not finite at these inputs")
    for rep in reports:
        print(rep.summary_line())
    if args.out:
        dump_reports(args.out, reports, seed=args.seed)
    return 0 if all(r.passed for r in reports) else 1


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``pic-verify`` parser, built once per process: parsing leaves it
    unchanged (no action keeps state), and PIC_TOOLKIT_SEED is read when a
    suite runs, not here."""
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
        sp.add_argument("--n", type=int, default=4, action=_Given)
        sp.add_argument("--sigma", type=_finite_float, default=1.0)
        sp.add_argument("--tensor", type=str, default=None, help="curvature tensor JSON file; excludes --n")
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
    sp.add_argument("--n", type=int, default=4, action=_Given)
    sp.add_argument("--N-t", dest="N_t", type=int, default=6, action=_Given)
    sp.add_argument("--N-r", dest="N_r", type=_radial_sizes, default="16,32,64", action=_Given)
    sp.add_argument("--grid", type=str, default=None,
                    help="grid config JSON with explicit fields; excludes --n, --N-t and --N-r")
    _add_common(sp)

    sp = vsub.add_parser("hodge")
    sp.add_argument("--complex", type=str, default=None, help="complex JSON file")
    sp.add_argument("--twists", type=_count, default=10)
    _add_common(sp)

    sp = vsub.add_parser("band")
    sp.add_argument("--band", type=str, default=None, help="band spec JSON file")
    sp.add_argument("--sigma", type=_finite_float, default=1.0)
    _add_common(sp)

    sp = vsub.add_parser("counterexample")
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--sigma", type=_finite_float, default=1.0)
    sp.add_argument("--L", type=_finite_float, default=3.0)
    _add_common(sp)

    em = sub.add_parser("emit", help="emit CSV curves")
    esub = em.add_subparsers(dest="what", required=True)
    sp = esub.add_parser("csv")
    sp.add_argument("--curve", choices=("barrier", "focal"), required=True)
    _add_focal_flags(sp)
    sp.add_argument("--K", type=_finite_float, default=1.0)
    sp.add_argument("--Lambda", type=_finite_float, default=1.0)
    sp.add_argument("--rho-max", type=_finite_float, default=2.0)
    sp.add_argument("--points", type=_count, default=256)
    sp.add_argument("--out", type=str, required=True)

    return ap


def _emit(args) -> int:
    if args.curve == "barrier":
        p = comparison.ComparisonParams(args.n, args.K, args.Lambda, 0.0)
        rows = comparison.barrier_curve_rows(p, np.linspace(0.0, args.rho_max, args.points))
        header = ["rho", "barrier", "oracle", "margin"]
    else:
        fp = potentials.FocalParams(args.n, args.sigma, args.lam, args.lam_bar)
        rows = potentials.focal_margin_rows(fp, args.rf, args.points)
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
    given = sorted(set(vars(args).pop("given", ())))
    source = getattr(args, "tensor", None) or getattr(args, "grid", None)
    if given and source:
        ap.error(f"{', '.join(given)}: the input file {source} fixes what these flags set")
    try:
        # one overflow policy for every command: finite flags that overflow
        # or make a NaN inside numpy, and integer flags past the float range
        # (OverflowError), are an input error, not a result
        with np.errstate(over="raise", invalid="raise"):
            if args.command == "verify":
                return run_suite(args)
            return _emit(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, OverflowError) as exc:
        print(f"error: the computation is not finite at these inputs: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a defect of the program, not a failed verification (exit 1)
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
