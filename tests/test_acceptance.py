"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math

import numpy as np
import pytest

from picband import bands as BD
from picband import comparison as CB
from picband import curvature as C
from picband import exterior as E
from picband import gridcalc as G
from picband import hodge as H
from picband import potentials as P
from tests.conftest import random_curvature, random_form, sample_bounded_hessian

SEED = 20240612


def _report(num, name, passed, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_clifford_relations():
    """Relations c c + c c = -2 delta, ct ct + ct ct = 2 delta, c ct + ct c = 0:
    exact on all basis pairs for n in 4..8, plus 1000 random vectors per n."""
    worst = 0.0
    rng = np.random.default_rng(SEED)
    for n in range(4, 9):
        eye = np.eye(n)
        Cs = np.stack([E.full_operator_matrix(lambda a, i=i: E.clifford_c(eye[i], a), n) for i in range(n)])
        Ts = np.stack([E.full_operator_matrix(lambda a, i=i: E.clifford_ct(eye[i], a), n) for i in range(n)])
        ident = np.eye(2**n)
        for i in range(n):
            for j in range(i, n):
                d = 1.0 if i == j else 0.0
                worst = max(worst, float(np.max(np.abs(Cs[i] @ Cs[j] + Cs[j] @ Cs[i] + 2 * d * ident))))
                worst = max(worst, float(np.max(np.abs(Ts[i] @ Ts[j] + Ts[j] @ Ts[i] - 2 * d * ident))))
                worst = max(worst, float(np.max(np.abs(Cs[i] @ Ts[j] + Ts[j] @ Cs[i]))))
        for _ in range(1000):
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            w = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            w /= np.linalg.norm(w)
            Cu = np.tensordot(u, Cs, axes=1)
            Cv = np.tensordot(v, Cs, axes=1)
            resid = Cu @ (Cv @ w) + Cv @ (Cu @ w) + 2.0 * float(u @ v) * w
            worst = max(worst, float(np.max(np.abs(resid))))
    _report(1, "clifford-relations", worst < 1e-12, f"max defect {worst:.2e}")


def test_criterion_02_weitzenboeck_double_path():
    """Index-formula operator equals the Clifford-trace operator to 1e-10
    on 100 random curvature tensors for n in {4, 6}."""
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for n in (4, 6):
        for _ in range(100):
            R = random_curvature(n, rng)
            M1 = C.weitzenboeck_on_two_forms(R).matrix
            M2 = C.weitzenboeck_clifford_trace(R)
            worst = max(worst, float(np.max(np.abs(M1 - M2))))
    _report(2, "weitzenboeck-double-path", worst < 1e-10, f"max disagreement {worst:.2e}")


def test_criterion_03_constant_curvature_sharpness():
    """(1/8) sigma g^g gives exactly ((n-2)/2) sigma Id on two-forms."""
    worst = 0.0
    for n in (4, 6, 8):
        sigma = 1.7
        R = C.kulkarni_nomizu(np.eye(n), np.eye(n)) * (sigma / 8.0)
        W = C.weitzenboeck_on_two_forms(R).matrix
        target = 0.5 * (n - 2) * sigma * np.eye(n * (n - 1) // 2)
        worst = max(worst, float(np.max(np.abs(W - target))))
    _report(3, "constant-curvature-sharpness", worst < 1e-10, f"max deviation {worst:.2e}")


def test_criterion_04_pic_frame_search():
    """Product tensor minimum 2.0 +- 1e-6 with the default 512 restarts,
    deterministic per seed; shift property to 1e-8 on 20 random tensors."""
    h = np.diag([1.0, 1.0, 1.0, 0.0])
    Rp = C.kulkarni_nomizu(h, h) * 0.5
    cfg = C.SearchConfig(seed=SEED + 2)  # default 512 restarts
    v1, _ = C.min_isotropic(Rp, cfg)
    v2, _ = C.min_isotropic(Rp, cfg)
    product_ok = abs(v1 - 2.0) < 1e-6 and v1 == v2

    rng = np.random.default_rng(SEED + 3)
    small = C.SearchConfig(restarts=64, seed=SEED + 4)
    shift_worst = 0.0
    for _ in range(20):
        R = random_curvature(4, rng)
        tau = float(rng.uniform(-2.0, 2.0))
        shift = C.kulkarni_nomizu(np.eye(4), np.eye(4)) * (tau / 8.0)
        base, _ = C.min_isotropic(R, small)
        moved, _ = C.min_isotropic(R + shift, small)
        shift_worst = max(shift_worst, abs(moved - base - tau))
    _report(
        4,
        "pic-frame-search",
        product_ok and shift_worst < 1e-8,
        f"product min {v1:.9f}, shift defect {shift_worst:.2e}",
    )


def test_criterion_05_comparison_barriers():
    """Umbilic equality cases match the ODE oracle to 1e-6 over 20 draws;
    the positive-boundary pole sits at artanh(sqrt(K)/Lambda)/sqrt(K) to
    1e-9; flat limits hit -2/r_f and -2(n-1)/r_f to 1e-9."""
    rng = np.random.default_rng(SEED + 5)
    eq_worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 8))
        K = float(rng.uniform(0.05, 4.0))
        lam = float(rng.uniform(0.0, 3.0))
        rho = float(rng.uniform(0.05, 2.0))
        res = CB.riccati_oracle(CB.RotSymModel(n=n, K=K, A0=-lam / (n - 1)), rho)
        barrier = CB.laplace_upper_negative_boundary(CB.ComparisonParams(n, K, lam, rho))
        eq_worst = max(eq_worst, abs(res.trace - barrier))

    pole_worst = 0.0
    for _ in range(10):
        K = float(rng.uniform(0.2, 3.0))
        lam = math.sqrt(K) * float(rng.uniform(1.1, 4.0))
        out = CB.laplace_upper_positive_boundary(CB.ComparisonParams(4, K, lam, 100.0))
        pole_worst = max(pole_worst, abs(out.rho_pole - math.atanh(math.sqrt(K) / lam) / math.sqrt(K)))

    flat_worst = 0.0
    for n, r_f in ((4, 3.0), (6, 1.7), (8, 11.0)):
        p = CB.ComparisonParams(n, 1e-12, 0.0, 0.0, r_f=r_f)
        flat_worst = max(flat_worst, abs(CB.hessian_lower_focal(p) + 2.0 / r_f))
        flat_worst = max(flat_worst, abs(CB.laplace_lower_focal(p) + 2.0 * (n - 1) / r_f))
    ok = eq_worst < 1e-6 and pole_worst < 1e-9 and flat_worst < 1e-9
    _report(
        5,
        "comparison-barriers",
        ok,
        f"equality {eq_worst:.2e}, pole {pole_worst:.2e}, flat limits {flat_worst:.2e}",
    )


def _sample_focal(rng):
    """Draw (params, r_f) from the stated boxes, rejecting combinations the
    parameter invariants exclude (lambda_bar must dominate 1/rho_lambda)."""
    n = int(rng.choice([4, 6, 8]))
    sigma = float(rng.uniform(0.5, 4.0))
    lo = n * math.sqrt(sigma)
    hi = 100.0 * lo
    while True:
        lam = float(rng.uniform(lo, hi))
        lam_bar = float(rng.uniform(lo, hi))
        try:
            params = P.FocalParams(n, sigma, lam, lam_bar)
        except ValueError:
            continue
        anchor = 9.0 * math.sqrt(n / sigma)
        r_f = float(rng.uniform(anchor, 20.0 / 9.0 * anchor))
        if r_f > anchor:
            return params, r_f


def test_criterion_06_focal_potential_suite():
    """100 draws: regularity, boundary and interior-inequality checks all
    PASS with positive region margins; middle identity residual <= 1e-9."""
    rng = np.random.default_rng(SEED + 6)
    worst_margin = math.inf
    worst_identity = 0.0
    all_ok = True
    for _ in range(100):
        params, r_f = _sample_focal(rng)
        rep_reg = P.check_focal_regularity(params, r_f)
        rep_bdy = P.check_focal_boundary(params)
        orientation = "N" if rng.random() < 0.5 else "D"
        rep_int = P.verify_focal_inequality(params, r_f, orientation=orientation)
        margins = [r.min_margin for r in rep_int.regions]
        worst_margin = min(worst_margin, min(margins))
        worst_identity = max(worst_identity, rep_int.details["middle_identity_residual"])
        all_ok &= rep_reg.passed and rep_bdy.passed and rep_int.passed and min(margins) > 0
    _report(
        6,
        "focal-potential-suite",
        all_ok and worst_identity <= 1e-9,
        f"min region margin {worst_margin:.3e}, identity residual {worst_identity:.2e}",
    )


def test_criterion_07_bandwidth_suite():
    """Constant chain 160/pi < 51 to 1e-9; 500 hypothesis-satisfying draws
    of the margin check PASS; cutoff properties hold on 10^4-point grids."""
    const_err = abs(P.check_L_chain(4, 1.0, 0.1).details["max_constant"] - 160.0 / math.pi)
    chain_ok = P.check_L_chain(4, 1.0, 0.1).passed and const_err < 1e-9 and 160.0 / math.pi < 51.0

    rng = np.random.default_rng(SEED + 7)
    margin_ok = True
    worst_mu = math.inf
    for _ in range(500):
        n = int(rng.choice([4, 6, 8]))
        sigma = float(rng.uniform(0.5, 4.0))
        Lam = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.01, 2.0))
        r_f = float(rng.uniform(0.5, 20.0))
        caps = [(n - 3) * sigma * r_f / (8.0 * (n + 1)), 0.5 * math.sqrt(sigma)]
        if Lam > 0:
            caps.append((n - 2) * sigma / (10.0 * (n - 1) * Lam))
        delta = float(rng.uniform(0.01, 0.99)) * min(caps)
        L = max(P.bandwidth_bound(sigma, delta) * (1.0 + float(rng.uniform(0.05, 3.0))), 0.1)
        rep = P.verify_bandwidth_margin(P.BandwidthParams(n, sigma, delta, Lam, r_f, L))
        worst_mu = min(worst_mu, rep.regions[0].min_margin)
        margin_ok &= rep.passed

    chi = P.ChiCutoff()
    xs = np.linspace(0.0, 2.0, 10_001)
    c, cp, cpp = chi.jet(xs)
    low = xs <= 0.5
    chi_ok = (
        float(np.max(np.abs(c[low] + xs[low]))) < 1e-14
        and 0.0 <= float(cpp.min())
        and float(cpp.max()) <= 4.0
        and -1.0 <= float(cp.min())
        and float(cp.max()) <= 0.0
        and float(np.max(np.abs(cp[xs >= chi.plateau_end]))) == 0.0
    )
    _report(
        7,
        "bandwidth-suite",
        chain_ok and margin_ok and chi_ok,
        f"constant err {const_err:.2e}, min mu {worst_mu:.4f}, chi ok {chi_ok}",
    )


def test_criterion_08_pointwise_form_inequalities():
    """10^4 precondition-satisfying draws per inequality family, n in {4, 6}:
    no margin below -1e-10."""
    rng = np.random.default_rng(SEED + 8)
    worst = math.inf
    for n in (4, 6):
        for _ in range(5000):
            r_f = float(rng.uniform(2.0, 20.0))
            lam = float(rng.uniform(0.5, 8.0))
            rho = float(rng.uniform(0.0, 3.0))
            Hm = sample_bounded_hessian(rng, n, r_f, lam, rho)
            om = random_form(n, 2, rng)
            rep = P.hessian_form_bounds(Hm, om, r_f, lam, rho)
            assert rep.details["hypotheses_met"]
            worst = min(worst, min(r.min_margin for r in rep.regions))
    worst_b = math.inf
    for n in (4, 6):
        keys_t = [k for k in E.degree_basis(n, 2) if n not in k]
        for _ in range(5000):
            A = rng.standard_normal((n - 1, n - 1))
            A = 0.5 * (A + A.T)
            om_t = E.FormElement(n, {k: complex(*rng.standard_normal(2)) for k in keys_t})
            rep_t = P.boundary_form_bounds(A, om_t, "two_convex")
            om_n = E.FormElement(n, {(i, n): complex(*rng.standard_normal(2)) for i in range(1, n)})
            rep_n = P.boundary_form_bounds(A, om_n, "n_minus_two_convex")
            worst_b = min(worst_b, rep_t.regions[0].min_margin, rep_n.regions[0].min_margin)
    ok = worst >= -1e-10 and worst_b >= -1e-10
    _report(
        8,
        "pointwise-form-inequalities",
        ok,
        f"hessian min margin {worst:.3e}, boundary min margin {worst_b:.3e}",
    )


def test_criterion_09_grid_identity_convergence():
    """Three residual families converge at order 2.0 +- 0.3 across
    N_r = 16, 32, 64 (n = 4)."""
    detail = []
    ok = True
    for kind in ("dirac", "laplace", "weitzenboeck"):
        _, _, orders = G.convergence_study(kind, (16, 32, 64), n=4, N_t=6, seed=0)
        ok &= all(abs(o - 2.0) <= 0.3 for o in orders)
        detail.append(f"{kind} orders {['%.2f' % o for o in orders]}")
    _report(9, "grid-identity-convergence", ok, "; ".join(detail))


def test_criterion_10_discrete_hodge():
    """Twisted harmonic dimensions match the exact-rank Betti targets on the
    bundled complexes for 50 random twists each; d_f d_f = 0 exactly."""
    rng = np.random.default_rng(SEED + 9)
    jobs = [
        ("annulus", "absolute", 1, 1),
        ("annulus", "relative", 1, 1),
        ("torus", "absolute", 1, 2),
        ("solid_torus", "absolute", 1, 1),
        ("solid_torus", "relative", 2, 1),
    ]
    ok = True
    composition_exact = True
    for name, cond, k, expect in jobs:
        K = H.load_bundled(name)
        target = H.betti_relative(K, k) if cond == "relative" else H.betti(K, k)
        ok &= target == expect
        for _ in range(50):
            f = rng.uniform(-5.0, 5.0, K.n_simplices(0))
            T = H.TwistedComplex(K, f, cond)
            ok &= H.harmonic_dimension(T, k) == expect
            for kk in range(K.dim - 1):
                composition_exact &= bool(np.all(H.twisted_composition_exact(T, kk) == 0.0))
    _report(
        10,
        "discrete-hodge",
        ok and composition_exact,
        f"dimension matches {ok}, d_f d_f exactly zero {composition_exact}",
    )


def test_criterion_11_counterexample_report():
    """(n, k, sigma, L) = (4, 2, 1, 3): curvature margin 1.0 +- 1e-6, width
    bound 2L - 2 = 4 > L, Betti arithmetic 2."""
    rep = BD.counterexample_report(BD.CounterexampleSpec(4, 2, 1.0, 3.0))
    by_name = {r.name: r.min_margin for r in rep.regions}
    margin_ok = abs(by_name["curvature_margin"] - 1.0) < 1e-6
    width_ok = rep.details["width_lower_bound"] == 4.0 and rep.details["width_lower_bound"] > 3.0
    betti_ok = rep.details["betti_total"] == 2
    _report(
        11,
        "counterexample-report",
        rep.passed and margin_ok and width_ok and betti_ok,
        f"curvature margin {by_name['curvature_margin']:.9f}, width bound "
        f"{rep.details['width_lower_bound']}, b_2 = {rep.details['betti_total']}",
    )
