import math

import numpy as np
import pytest

from picband import exterior as E
from picband import potentials as P
from tests.conftest import random_orthonormal, sample_bounded_hessian


@pytest.fixture
def params():
    return P.FocalParams(4, 1.0, 5.0, 100.0)


def test_derived_quantities(params):
    assert params.beta == 0.5
    assert abs(params.rho_sigma - 3.0 * math.sqrt(15.0) / 2.0) < 1e-14
    assert abs(params.rho_lambda - 2.0 * math.atan(1.0 / 21.0)) < 1e-14
    # cot(arctan(x)) = 1/x chain: slope at rho_sigma is -2 (beta + 2 lambda)
    pot = P.PiecewisePotential(params)
    assert abs(float(pot.deriv(params.rho_sigma)) + 2.0 * (params.beta + 2.0 * params.lam)) < 1e-10
    assert abs(float(pot.deriv(params.rho_sigma)) + 21.0) < 1e-10


def test_params_validation():
    with pytest.raises(ValueError):
        P.FocalParams(5, 1.0, 6.0, 100.0)  # odd n
    with pytest.raises(ValueError):
        P.FocalParams(4, 1.0, 3.9, 100.0)  # lambda below n sqrt(sigma)
    with pytest.raises(ValueError):
        P.FocalParams(4, 1.0, 5.0, 4.0)  # lambda_bar below n sqrt(sigma)
    with pytest.raises(ValueError, match="lambda_bar too small for this lambda"):
        P.FocalParams(4, 1.0, 5.0, 8.0)  # violates 1/lambda_bar <= rho_lambda


def test_potential_breakpoints_and_support(params):
    pot = P.PiecewisePotential(params)
    x1, x2 = pot.breakpoints
    assert abs(x1 - (params.rho_sigma - params.rho_lambda + 1.0 / params.lam_bar)) < 1e-14
    assert abs(x2 - (params.rho_sigma - params.rho_lambda + 0.5 * math.pi / params.beta)) < 1e-14
    assert float(pot.value(x2 + 0.5)) == 0.0
    assert float(pot.deriv(x2 + 0.5)) == 0.0


def test_potential_continuity(params):
    pot = P.PiecewisePotential(params)
    value_jump, slope_jump = pot.continuity_defects()
    assert value_jump <= 1e-10
    assert slope_jump <= 1e-10
    lim = pot.one_sided_limits()
    assert abs(lim["break1_left"][1] + params.slope_a) < 1e-12


def test_potential_orientations(params):
    potN = P.PiecewisePotential(params, "N")
    potD = P.PiecewisePotential(params, "D")
    rhos = np.linspace(0.0, 10.0, 999)
    assert np.max(np.abs(potD.value(rhos) + potN.value(rhos))) < 1e-12
    fp = potN.deriv(rhos)
    assert fp.min() >= -params.slope_a - 1e-9 and fp.max() <= 1e-12
    assert np.all(np.diff(fp) >= -1e-9 * params.slope_a)


def test_regularity_chain(params):
    rep = P.check_focal_regularity(params, 18.01)
    assert rep.passed
    assert abs(rep.details["rho_sigma_plus_halfpi_over_beta"] - 8.951067672900919) < 1e-9
    # boundary case r_f = 9 sqrt(n/sigma): strict inequality fails
    rep2 = P.check_focal_regularity(params, 18.0)
    assert not rep2.passed
    rep3 = P.check_focal_regularity(P.FocalParams(6, 2.0, 15.0, 200.0), 9.0 * math.sqrt(3.0) + 0.01)
    assert rep3.passed


def test_boundary_ratio():
    rep = P.boundary_slope_ratio(4, 1.0, 8.0)
    assert rep.passed
    y = 0.5 / 8.0
    assert abs(rep.details["two_y_cot_y"] - 2.0 * y / math.tan(y)) < 1e-15
    assert rep.details["two_y_cot_y"] >= 1.0
    with pytest.raises(ValueError):
        P.boundary_slope_ratio(4, 1.0, 3.0)


def test_boundary_ratio_small_y_limit():
    # 2 y cot y -> 2 as y -> 0
    rep = P.boundary_slope_ratio(4, 1e-8, 8.0)
    assert abs(rep.details["two_y_cot_y"] - 2.0) < 1e-9


def test_focal_inequality_regions(params):
    rep = P.verify_focal_inequality(params, 18.01)
    assert rep.passed
    by_name = {r.name: r.min_margin for r in rep.regions}
    assert abs(by_name["rho_above_half_rf"] - 0.5 * (params.n - 2) * params.sigma) < 1e-12
    assert all(m > 0 for m in by_name.values())
    assert rep.details["middle_identity_residual"] <= 1e-9
    assert rep.params["grid_points"] == P.FOCAL_GRID_POINTS == 10_001


def test_focal_inequality_middle_identity(params):
    pot = P.PiecewisePotential(params)
    x1, x2 = pot.breakpoints
    rhos = np.linspace(x1 + 1e-6, x2 - 1e-6, 1000)
    res = -pot.second(rhos) + 0.5 * pot.deriv(rhos) ** 2 + 0.25 * (params.n - 2) * params.sigma
    assert np.max(np.abs(res)) < 1e-9


def test_focal_inequality_orientation_d(params):
    rep = P.verify_focal_inequality(params, 18.01, orientation="D")
    assert rep.passed


def test_focal_inequality_precondition(params):
    with pytest.raises(ValueError):
        P.verify_focal_inequality(params, 17.0)


def test_chi_cutoff_properties():
    chi = P.ChiCutoff(0.9)
    xs = np.linspace(0.0, 2.0, 10_001)
    low = xs[xs <= 0.5]
    assert np.max(np.abs(chi.chi(low) + low)) < 1e-14
    assert chi.chipp(xs).min() >= 0.0 and chi.chipp(xs).max() <= 4.0
    assert chi.chip(xs).min() >= -1.0 and chi.chip(xs).max() <= 0.0
    tail = xs[xs >= 0.9]
    assert np.max(np.abs(chi.chi(tail) - chi.c_plateau)) < 1e-14
    assert np.max(np.abs(chi.chip(tail))) == 0.0
    assert -0.9 <= chi.c_plateau <= -0.5


def test_chi_cutoff_is_c2():
    chi = P.ChiCutoff(0.9)
    for b in chi.breakpoints:
        for fn in (chi.chi, chi.chip, chi.chipp):
            assert abs(float(fn(b - 1e-9)) - float(fn(b + 1e-9))) < 1e-7


def test_chi_feasibility_window():
    with pytest.raises(ValueError):
        P.ChiCutoff(0.75)
    with pytest.raises(ValueError):
        P.ChiCutoff(1.05)
    tight = P.ChiCutoff(0.76)
    xs = np.linspace(0.0, 1.5, 40_001)
    assert tight.chipp(xs).max() <= 4.0


def test_bandwidth_potential_scaling():
    chi = P.ChiCutoff(0.9)
    r, delta = 3.0, 0.2
    f, fp, fpp = P.bandwidth_potential(chi, r, delta)
    rhos = np.linspace(0.0, 4.0 * r, 20_001)
    assert np.max(np.abs(fp(rhos))) <= delta + 1e-15
    assert np.max(np.abs(fpp(rhos))) <= 4.0 * delta / r + 1e-15
    assert np.max(np.abs(fp(rhos[rhos >= 0.9 * r]))) == 0.0
    assert abs(float(f(0.1 * r)) + 0.1 * r * delta) < 1e-14  # f = -delta rho near the boundary


def test_bandwidth_margin_example():
    p = P.BandwidthParams(4, 1.0, 0.1, 0.2, 8.0, 8.0)
    rep = P.verify_bandwidth_margin(p)
    assert rep.passed
    mu = rep.regions[0].min_margin
    expect = 1.0 - 3.0 * 0.1 * 0.2 / math.tanh(0.8) - 0.1 - 0.02
    assert abs(mu - expect) < 1e-12


def test_bandwidth_margin_delta_zero():
    p = P.BandwidthParams(4, 1.0, 0.0, 0.5, 6.0, 6.0)
    rep = P.verify_bandwidth_margin(p)
    assert rep.passed
    assert abs(rep.regions[0].min_margin - 1.0) < 1e-12


def test_bandwidth_flat_limit_continuity():
    base = dict(n=4, sigma=1.0, delta=0.1, r_f=8.0, L=8.0)
    mu0 = P.verify_bandwidth_margin(P.BandwidthParams(Lambda=0.0, **base)).regions[0].min_margin
    mu1 = P.verify_bandwidth_margin(P.BandwidthParams(Lambda=1e-12, **base)).regions[0].min_margin
    assert abs(mu0 - mu1) < 1e-6


def test_bandwidth_hypothesis_failures_reported():
    p = P.BandwidthParams(4, 1.0, 0.45, 0.0, 8.0, 8.0)  # delta close to sqrt(sigma)/2
    rep = P.verify_bandwidth_margin(p)
    assert not rep.passed
    assert rep.details["hypotheses"]["delta_below_case_cap"] is False


def test_L_chain():
    rep = P.check_L_chain(4, 1.0, 0.3)
    assert rep.passed
    assert abs(rep.details["max_constant"] - 160.0 / math.pi) < 1e-9
    assert rep.details["max_constant"] < 51.0
    assert P.bandwidth_bound(1.0, 0.0) == 0.0
    flagged = P.check_L_chain(4, 1.0, 1.5)
    assert not flagged.passed and flagged.details["delta_over_sqrt_sigma_exceeds_1"]


def test_bandwidth_bound_monotone():
    vals = [P.bandwidth_bound(1.0, d) for d in (0.0, 0.1, 0.2, 0.4)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_hessian_form_bounds_zero_H(rng):
    n, r_f, lam, rho = 4, 10.0, 5.0, 1.0
    om = E.random_form(n, 2, rng)
    rep = P.hessian_form_bounds(np.zeros((n, n)), om, r_f, lam, rho)
    assert rep.passed
    cap = (n - 1) * lam / ((n - 1) + lam * rho)
    by_name = {r.name: r.min_margin for r in rep.regions}
    n2 = om.norm2()
    assert abs(by_name["wedge_contraction"] - (cap + 4.0 * (n - 2) / r_f) * n2) < 1e-10
    assert abs(by_name["interior_contraction"] - (cap + 8.0 / r_f) * n2) < 1e-10


def test_hessian_form_bounds_diagonal_extremal():
    # H = -(2/r_f) I saturates the eigenvalue floor
    n, r_f, lam, rho = 4, 10.0, 5.0, 0.5
    om = E.basis_form(n, 1, 2)
    H = -(2.0 / r_f) * np.eye(n)
    rep = P.hessian_form_bounds(H, om, r_f, lam, rho)
    assert rep.passed
    assert all(r.min_margin >= -1e-10 for r in rep.regions)


def test_hessian_form_bounds_random_certification(rng):
    for n in (4, 6):
        for _ in range(300):
            r_f = float(rng.uniform(2.0, 20.0))
            lam = float(rng.uniform(0.5, 8.0))
            rho = float(rng.uniform(0.0, 3.0))
            H = sample_bounded_hessian(rng, n, r_f, lam, rho)
            om = E.random_form(n, 2, rng)
            rep = P.hessian_form_bounds(H, om, r_f, lam, rho)
            assert rep.passed, (n, r_f, lam, rho)


def test_hessian_form_bounds_hypotheses_not_met():
    n = 4
    H = -np.eye(n)  # eigenvalues far below -2/r_f for r_f = 10
    rep = P.hessian_form_bounds(H, E.basis_form(n, 1, 2), 10.0, 5.0, 1.0)
    assert not rep.passed
    assert rep.details["hypotheses_met"] is False


def test_boundary_form_bounds_positive_definite():
    A = np.eye(3)
    om = E.FormElement(4, {(1, 2): 1.0, (1, 3): 1.0})
    rep = P.boundary_form_bounds(A, om, "two_convex")
    assert rep.passed and rep.params["lambda"] == 0.0
    assert abs(rep.details["value"] - 2.0 * om.norm2()) < 1e-12


def test_boundary_form_bounds_modes(rng):
    A = np.diag([-1.0, 3.0, 3.0])
    om_t = E.FormElement(4, {(1, 2): 1.0, (1, 3): 0.5j, (2, 3): -0.25})
    rep = P.boundary_form_bounds(A, om_t, "two_convex")
    assert rep.passed and rep.params["lambda"] == 0.0  # min pair sum = 2
    A2 = np.diag([-2.0, 1.0, 1.0])
    om_n = E.FormElement(4, {(1, 4): 1.0, (2, 4): 2.0j, (3, 4): -1.0})
    rep2 = P.boundary_form_bounds(A2, om_n, "n_minus_two_convex")
    assert rep2.passed and rep2.params["lambda"] == 1.0  # min pair sum of eigenvalues = -1


def test_boundary_form_bounds_wrong_type():
    A = np.eye(3)
    om_normal = E.FormElement(4, {(1, 4): 1.0})
    with pytest.raises(ValueError):
        P.boundary_form_bounds(A, om_normal, "two_convex")
    om_tan = E.FormElement(4, {(1, 2): 1.0})
    with pytest.raises(ValueError):
        P.boundary_form_bounds(A, om_tan, "n_minus_two_convex")
    with pytest.raises(ValueError, match="unknown mode"):
        P.boundary_form_bounds(A, om_tan, "three_convex")


def test_boundary_form_bounds_random_certification(rng):
    for n in (4, 6):
        for _ in range(300):
            A = rng.standard_normal((n - 1, n - 1))
            A = 0.5 * (A + A.T)
            # tangential two-form
            keys = [k for k in E.degree_basis(n, 2) if n not in k]
            om_t = E.FormElement(
                n, {k: complex(rng.standard_normal(), rng.standard_normal()) for k in keys}
            )
            assert P.boundary_form_bounds(A, om_t, "two_convex").passed
            om_n = E.FormElement(
                n,
                {(i, n): complex(rng.standard_normal(), rng.standard_normal()) for i in range(1, n)},
            )
            assert P.boundary_form_bounds(A, om_n, "n_minus_two_convex").passed


def test_focal_margin_rows(params):
    rows = P.focal_margin_rows(params, 18.01, points=64)
    assert len(rows) == 64
    for rho, lhs, rhs, margin in rows:
        assert abs(margin - (lhs - rhs)) < 1e-12
        assert margin > 0.0
