import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from picband import exterior as E
from picband import potentials as P
from tests.conftest import random_form, random_orthonormal, sample_bounded_hessian


@pytest.fixture
def params():
    return P.FocalParams(4, 1.0, 5.0, 100.0)


def test_derived_quantities(params):
    assert params.beta == 0.5
    assert abs(params.rho_sigma - 3.0 * math.sqrt(15.0) / 2.0) < 1e-14
    assert abs(params.rho_lambda - 2.0 * math.atan(1.0 / 21.0)) < 1e-14
    # cot(arctan(x)) = 1/x chain: slope at rho_sigma is -2 (beta + 2 lambda)
    pot = P.PiecewisePotential(params)
    fp = float(pot.jet(params.rho_sigma)[1])
    assert abs(fp + 2.0 * (params.beta + 2.0 * params.lam)) < 1e-10
    assert abs(fp + 21.0) < 1e-10


def test_params_validation():
    with pytest.raises(ValueError):
        P.FocalParams(5, 1.0, 6.0, 100.0)  # odd n
    with pytest.raises(ValueError):
        P.FocalParams(4, 1.0, 3.9, 100.0)  # lambda below n sqrt(sigma)
    with pytest.raises(ValueError):
        P.FocalParams(4, 1.0, 5.0, 4.0)  # lambda_bar below n sqrt(sigma)
    with pytest.raises(ValueError, match="lambda_bar too small for this lambda"):
        P.FocalParams(4, 1.0, 5.0, 8.0)  # violates 1/lambda_bar <= rho_lambda


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 32), st.floats(-6.0, 6.0), st.floats(-9.0, 6.0), st.floats(-9.0, 6.0))
def test_accepted_params_meet_the_two_derived_conditions(half_n, log_sigma, log_lam_over, log_lam_bar_over):
    """FocalParams does not check 1/lambda_bar < pi/(4 beta) or 0 < rho_lambda
    < rho_sigma: its docstring derives both from what it does check.  Every
    draw here is accepted and meets them: even n in 4..64, sigma log-uniform
    in [1e-6, 1e6], lambda = n sqrt(sigma) (1 + 10^s) and lambda_bar =
    (1 + 10^t) / rho_lambda, which is above n sqrt(sigma) too, for s, t
    uniform in [-9, 6]."""
    n, sigma = 2 * half_n, 10.0**log_sigma
    lam = n * math.sqrt(sigma) * (1.0 + 10.0**log_lam_over)
    beta = math.sqrt((n - 2) * sigma / 8.0)
    rho_lambda = math.atan(beta / (beta + 2.0 * lam)) / beta
    p = P.FocalParams(n, sigma, lam, (1.0 + 10.0**log_lam_bar_over) / rho_lambda)
    assert 1.0 / p.lam_bar < 0.25 * math.pi / p.beta
    assert 0.0 < p.rho_lambda < p.rho_sigma


def test_potential_breakpoints_and_support(params):
    pot = P.PiecewisePotential(params)
    x1, x2 = pot.breakpoints
    assert abs(x1 - (params.rho_sigma - params.rho_lambda + 1.0 / params.lam_bar)) < 1e-14
    assert abs(x2 - (params.rho_sigma - params.rho_lambda + 0.5 * math.pi / params.beta)) < 1e-14
    f, fp, _ = pot.jet(x2 + 0.5)
    assert float(f) == 0.0
    assert float(fp) == 0.0


def test_focal_jet_far_past_the_support_does_not_overflow(params):
    """Each piece is evaluated only on its own points, so the line is never
    evaluated far right of its breakpoint, where it would overflow (verify
    focal --rf 1e306 exits 0)."""
    pot = P.PiecewisePotential(params)
    with np.errstate(over="raise"):
        f, fp, fpp = pot.jet(np.array([0.0, 1e306]))
    assert f[1] == fp[1] == fpp[1] == 0.0
    shift = params.rho_lambda - params.rho_sigma - 1.0 / params.lam_bar
    assert f[0] == pytest.approx(params.offset_b - params.slope_a * shift)


def test_potential_continuity(params):
    pot = P.PiecewisePotential(params)
    value_jump, slope_jump = pot.continuity_defects()
    assert value_jump <= 1e-10
    assert slope_jump <= 1e-10
    lim = pot.pieces.limits()  # the N orientation's (left, right) (f, f', f'') at each breakpoint
    assert abs(lim[0, 0, 1] + params.slope_a) < 1e-12


def test_potential_orientations(params):
    potN = P.PiecewisePotential(params, "N")
    potD = P.PiecewisePotential(params, "D")
    rhos = np.linspace(0.0, 10.0, 999)
    f, fp, _ = potN.jet(rhos)
    assert np.max(np.abs(potD.jet(rhos)[0] + f)) < 1e-12
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


def test_boundary_ratio(params):
    rep = P.check_focal_boundary(params)
    assert rep.passed
    y = 0.5 / 100.0
    assert abs(rep.details["two_y_cot_y"] - 2.0 * y / math.tan(y)) < 1e-15
    assert rep.details["two_y_cot_y"] >= 1.0
    with pytest.raises(ValueError):
        P.check_focal_boundary(P.FocalParams(4, 1.0, 5.0, 3.0))


def test_boundary_ratio_small_y_limit():
    # 2 y cot y -> 2 as y -> 0
    rep = P.check_focal_boundary(P.FocalParams(4, 1e-8, 1.0, 8.0))
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
    _, fp, fpp = pot.jet(rhos)
    res = -fpp + 0.5 * fp**2 + 0.25 * (params.n - 2) * params.sigma
    assert np.max(np.abs(res)) < 1e-9


def test_focal_suite_checks_the_evaluated_jet(monkeypatch, tmp_path, capsys):
    """verify focal checks the middle identity on the jet its sweep
    evaluates: with the middle piece's f'' scaled by 0.9 every inequality
    margin stays positive, and the identity fails both orientations."""
    from picband import cli

    jet = P.PiecewisePotential.jet

    def bent(self, rho):
        f, fp, fpp = jet(self, rho)
        x1, x2 = self.breakpoints
        rho = np.asarray(rho, dtype=float)
        return f, fp, np.where((rho > x1) & (rho <= x2), 0.9 * fpp, fpp)

    monkeypatch.setattr(P.PiecewisePotential, "jet", bent)
    out = tmp_path / "r.json"
    assert cli.main(["verify", "focal", "--out", str(out)]) == 1
    assert "FAIL focal.inequality.N" in capsys.readouterr().out
    for rep in json.loads(out.read_text())["report"]["reports"][2:]:
        assert all(r["min_margin"] > 0 for r in rep["regions"])
        assert rep["details"]["middle_identity_residual"] > P.IDENTITY_TOL and not rep["pass"]


def test_focal_inequality_orientation_d(params):
    rep = P.verify_focal_inequality(params, 18.01, orientation="D")
    assert rep.passed


def test_focal_inequality_precondition(params):
    with pytest.raises(ValueError):
        P.verify_focal_inequality(params, 17.0)


def test_chi_cutoff_properties():
    chi = P.ChiCutoff()
    xs = np.linspace(0.0, 2.0, 10_001)
    c, cp, cpp = chi.jet(xs)
    low = xs <= 0.5
    assert np.max(np.abs(c[low] + xs[low])) < 1e-14
    assert cpp.min() >= 0.0 and cpp.max() <= 4.0
    assert cp.min() >= -1.0 and cp.max() <= 0.0
    tail = xs >= 0.9
    assert np.max(np.abs(c[tail] - chi.c_plateau)) < 1e-14
    assert np.max(np.abs(cp[tail])) == 0.0
    assert -0.9 <= chi.c_plateau <= -0.5


def test_chi_cutoff_is_c2():
    chi = P.ChiCutoff()
    for b in chi.breakpoints:
        for left, right in zip(chi.jet(b - 1e-9), chi.jet(b + 1e-9)):
            assert abs(float(left) - float(right)) < 1e-7


def test_chi_cutoff_check_reads_the_pieces():
    """The closed-form check passes, with breakpoint jumps far below its
    1e-12 and the headroom exactly 4 - h."""
    chi = P.ChiCutoff()
    rep = P.check_chi_cutoff(chi)
    assert rep.passed
    assert np.ptp(chi.pieces.limits(), axis=1).max() < 1e-15
    assert rep.regions[0].min_margin == 4.0 - chi.height


def test_chi_feasibility_window():
    """chi' rises from -1 to 0 over [1/2, plateau_end] with chi'' <= 4, so the
    plateau lies past 3/4, as the fixed 0.9 does; chi'' integrates to
    h e / 2 on each ramp plus h (x1 - x0) on the quadratic between, so to
    h (plateau_end - 1/2 - e) = 1 in all."""
    chi = P.ChiCutoff()
    assert 0.75 < chi.plateau_end <= 1.0
    assert chi.height * (chi.plateau_end - 0.5 - chi.ramp) == pytest.approx(1.0, abs=1e-15)
    assert chi.height <= 4.0


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
    assert [r.min_margin for r in rep.regions] == [51.0 - 160.0 / math.pi, 0.0]
    assert P.bandwidth_bound(1.0, 0.0) == 0.0
    flagged = P.check_L_chain(4, 1.0, 1.5)
    assert not flagged.passed and flagged.details["delta_over_sqrt_sigma_exceeds_1"]


def test_bandwidth_bound_monotone():
    vals = [P.bandwidth_bound(1.0, d) for d in (0.0, 0.1, 0.2, 0.4)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def _pairings(n: int, w: np.ndarray):
    """Gram matrices G1_ij = <theta^i ^ w, theta^j ^ w> and
    G2_ij = <i_i w, i_j w> for a two-form coefficient vector w: the
    independent route to the contractions of the Hessian form check."""
    U = E.wedge_stack(n, 2) @ w
    V = E.interior_stack(n, 2) @ w
    return U @ U.conj().T, V @ V.conj().T


def _gram_route(H, w, r_f, lam, rho):
    """(margins, passed, hypotheses) of the Hessian form check summed over
    the Gram matrices, as sum_ij H_ij G_ij."""
    n = H.shape[0]
    trace_cap = (n - 1) * lam / ((n - 1) + lam * rho)
    tr = float(np.trace(H))
    hypotheses = {
        "lambda_min_above_-2/r_f": bool(np.linalg.eigvalsh(H)[0] >= -2.0 / r_f - 1e-12),
        "trace_below_cap": bool(tr <= trace_cap + 1e-12),
    }
    G1, G2 = _pairings(n, w)
    norm2 = float(np.real(w.conj() @ w))
    t1 = float(np.real(np.sum(H * G1)))
    t2 = float(np.real(np.sum(H * G2)))
    margin1 = (trace_cap + 4.0 * (n - 2) / r_f) * norm2 - (tr * norm2 - 2.0 * t1)
    margin2 = (-tr * norm2 + 2.0 * t2) + (trace_cap + 8.0 / r_f) * norm2
    passed = all(hypotheses.values()) and margin1 >= -1e-10 and margin2 >= -1e-10
    return (margin1, margin2), passed, hypotheses


def test_contraction_trace_identity(rng):
    """The contraction operators of the form bounds obey P(H) + Q(H) =
    trace(H) I on Lambda^2 for symmetric H, since
    i_{e_i} (theta^j ^ .) + theta^j ^ i_{e_i} = delta_ij; so do the Gram
    matrices of the independent route: sum_ij H_ij (G1 + G2)_ij =
    trace(H) |w|^2, and H = I gives (n - 2) |w|^2 + 2 |w|^2 on a two-form."""
    for n in range(4, 9):
        P_blocks, Q_blocks = E.two_form_blocks(n)
        d = n * (n - 1) // 2
        for t in range(21):
            H = np.eye(n)
            if t:
                H = rng.standard_normal((n, n))
                H = 0.5 * (H + H.T)
            PQ = np.einsum("ij,ijab->ab", H, P_blocks + Q_blocks)
            assert np.abs(PQ - np.trace(H) * np.eye(d)).max() < 1e-12 * n * np.abs(H).max()
            w = E.form_to_vec(random_form(n, 2, rng), 2)
            G1, G2 = _pairings(n, w)
            norm2 = float(np.real(w.conj() @ w))
            assert abs(np.sum(H * (G1 + G2)) - np.trace(H) * norm2) < 1e-12 * max(1.0, norm2) * np.abs(H).max()
        G1, G2 = _pairings(n, np.zeros(d))
        assert not G1.any() and not G2.any()


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([4, 6, 8]),
    r_f=st.floats(2.0, 20.0),
    lam=st.floats(0.5, 8.0),
    rho=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_hessian_form_bounds_matches_gram_route(n, r_f, lam, rho, seed):
    """The block route's margins are the Gram route's to 1e-12 relative,
    with the same verdict and hypothesis flags, on complex forms and
    Hessians that meet the hypotheses."""
    rng = np.random.default_rng(seed)
    H = sample_bounded_hessian(rng, n, r_f, lam, rho)
    om = random_form(n, 2, rng)
    rep = P.hessian_form_bounds(H, om, r_f, lam, rho)
    margins, passed, hypotheses = _gram_route(H, E.form_to_vec(om, 2), r_f, lam, rho)
    assert rep.passed == passed and rep.details["hypotheses"] == hypotheses
    assert rep.details["hypotheses_met"] is all(hypotheses.values())
    for region, margin in zip(rep.regions, margins, strict=True):
        assert abs(region.min_margin - margin) <= 1e-12 * abs(margin)


def test_hessian_form_bounds_zero_H(rng):
    n, r_f, lam, rho = 4, 10.0, 5.0, 1.0
    om = random_form(n, 2, rng)
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
            om = random_form(n, 2, rng)
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


@pytest.mark.parametrize(
    "case",
    ["nan-omega", "inf-omega", "overflowing-norm", "inf-H", "nan-lambda", "nan-rho", "inf-r_f", "inf-lambda"],
)
def test_hessian_form_bounds_rejects_non_finite_input(case):
    """A non-finite input gave FAIL with NaN margins, "hypotheses not met"
    (lambda or rho NaN) or PASS (r_f = inf); each is now a ValueError."""
    r_f, lam, rho = 10.0, 5.0, 1.0
    H = sample_bounded_hessian(np.random.default_rng(3), 4, r_f, lam, rho)
    om = E.FormElement(4, {(1, 2): 1.0, (2, 4): 0.5j})
    if case == "nan-omega":
        om = E.FormElement(4, {(1, 2): math.nan})
    elif case == "inf-omega":
        om = E.FormElement(4, {(1, 3): complex(0.0, math.inf)})
    elif case == "overflowing-norm":
        om = E.FormElement(4, {(1, 2): 1e200})
    elif case == "inf-H":
        H[0, 0] = math.inf
    elif case == "nan-lambda":
        lam = math.nan
    elif case == "nan-rho":
        rho = math.nan
    elif case == "inf-r_f":
        r_f = math.inf
    else:
        lam = math.inf
    with pytest.raises(ValueError, match="finite"):
        P.hessian_form_bounds(H, om, r_f, lam, rho)


@pytest.mark.parametrize("case", ["nan-omega", "inf-omega", "overflowing-norm", "inf-A"])
def test_boundary_form_bounds_rejects_non_finite_input(case):
    """These gave FAIL with NaN margins; each is now a ValueError."""
    A = np.diag([1.0, 2.0, 3.0])
    coeffs = {(1, 2): 1.0, (2, 3): 0.5j}
    if case == "nan-omega":
        coeffs[(1, 3)] = math.nan
    elif case == "inf-omega":
        coeffs[(1, 3)] = -math.inf
    elif case == "overflowing-norm":
        coeffs[(1, 3)] = 1e200j
    else:
        A[1, 1] = math.inf
    with pytest.raises(ValueError, match="finite"):
        P.boundary_form_bounds(A, E.FormElement(4, coeffs), "two_convex")


# the entry pair (0, 1) differs by 1e-6: inside allclose's default rtol, far past 1e-12
NEAR_SYMMETRIC = np.array([[1.0, 1.0 + 1e-6, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_form_bounds_reject_a_matrix_that_is_not_symmetric():
    om = E.FormElement(4, {(1, 2): 1.0})
    with pytest.raises(ValueError, match="symmetric"):
        P.boundary_form_bounds(NEAR_SYMMETRIC, om, "two_convex")
    H = np.eye(4)
    H[:3, :3] = 0.1 * NEAR_SYMMETRIC
    with pytest.raises(ValueError, match="symmetric"):
        P.hessian_form_bounds(H, om, 10.0, 5.0, 1.0)


def test_form_bounds_accept_a_rotated_diagonal_as_built():
    """Q diag Q^T carries rounding asymmetry of its own scale; the rule is
    relative to max |M|, so it is accepted at any scale without symmetrising."""
    rng = np.random.default_rng(11)

    def rotated_diagonal(m, scale):
        while True:  # the first draw whose product is not symmetric to the bit
            Q = random_orthonormal(rng, m)
            M = Q @ np.diag(scale * rng.uniform(-1.0, 1.0, m)) @ Q.T
            if (M != M.T).any():
                return M

    for scale in (1e-3, 1.0, 1e6):
        A, H = rotated_diagonal(3, scale), rotated_diagonal(4, scale)
        P.boundary_form_bounds(A, E.FormElement(4, {(1, 2): 1.0}), "two_convex")
        P.hessian_form_bounds(H, E.FormElement(4, {(1, 2): 1.0}), 10.0, 5.0, 1.0)


def test_library_calls_no_allclose():
    """np.allclose adds a default rtol of 1e-5 to any atol, which let a 1e-6
    asymmetry through; the library's symmetry rule is comparison._symmetric."""
    src = Path(__file__).resolve().parents[1] / "src" / "picband"
    assert [path.name for path in sorted(src.glob("*.py")) if "allclose(" in path.read_text()] == []


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
