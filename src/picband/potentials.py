"""Bandwidth and focal-radius potential constructions with their verifiers.

Two families of radial potentials are built here.  The focal potential is
a three-piece function (linear, -2 log sin, zero) whose breakpoints and
slopes are pinned by the parameters

    beta       = sqrt((n-2) sigma / 8)
    rho_sigma  = (n-1) sqrt(15 / (n sigma))
    rho_lambda = arctan(1 / (1 + 2 lambda / beta)) / beta
    a          = 2 beta cot(beta / lambda_bar)
    b          = -2 log sin(beta / lambda_bar)

The bandwidth potential is r delta chi(rho / r) for a C^2 cutoff chi that
is -x on [0, 1/2], has chi'' in [0, 4], and is constant past the plateau.
Both are declared piece by piece (``bands._Piecewise``): each piece is
evaluated only on its own points, and the one-sided limits at the exact
ends of the pieces check continuity and the cutoff's claims in closed form.
The focal verifier sweeps its pointwise inequality region by region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bands, exterior
from .comparison import _symmetric
from .reporting import Region, Report

__all__ = [
    "FocalParams",
    "PiecewisePotential",
    "ChiCutoff",
    "check_chi_cutoff",
    "BandwidthParams",
    "check_focal_regularity",
    "check_focal_boundary",
    "verify_focal_inequality",
    "focal_margin_rows",
    "verify_bandwidth_margin",
    "bandwidth_bound",
    "check_L_chain",
    "hessian_form_bounds",
    "boundary_form_bounds",
]

CONTINUITY_TOL = 1e-10
FOCAL_GRID_POINTS = 10_001  # uniform samples of the focal sweep over [0, r_f]


@dataclass(frozen=True)
class FocalParams:
    """Parameters of the focal potential; lambda and lambda_bar must both
    exceed n sqrt(sigma), and 1/lambda_bar <= rho_lambda.

    Two more of the potential's conditions follow from these, so no input
    can fail them:

    - 1/lambda_bar < pi/(4 beta): pi/(4 beta) = (pi/sqrt 2) n/sqrt(n-2) /
      (n sqrt sigma), and n/sqrt(n-2) >= 2 sqrt 2 for n >= 4, so pi/(4 beta)
      >= 2 pi/(n sqrt sigma) > 6/lambda_bar;
    - 0 < rho_lambda < rho_sigma: atan x < x gives rho_lambda <
      1/(beta + 2 lambda) < 1/(2 n sqrt sigma), and rho_sigma (2 n sqrt sigma)
      = 2 sqrt(15 n) (n-1) > 46.  rho_lambda is 0 only by underflow, which
      1/lambda_bar <= rho_lambda refuses, as it refuses a NaN.
    """

    n: int
    sigma: float
    lam: float
    lam_bar: float

    def __post_init__(self):
        if self.n < 4 or self.n % 2:
            raise ValueError("n must be even and at least 4")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.beta == 0.0:
            raise ValueError(f"sigma = {self.sigma:g} underflows beta = sqrt((n - 2) sigma / 8)")
        floor = self.n * math.sqrt(self.sigma)
        if self.lam <= floor:
            raise ValueError(f"lambda must exceed n sqrt(sigma) = {floor:.6g}")
        if self.lam_bar <= floor:
            raise ValueError(f"lambda_bar must exceed n sqrt(sigma) = {floor:.6g}")
        if not math.isfinite(self.break2):
            raise ValueError(f"the potential's breakpoints overflow at sigma = {self.sigma:g}")
        if not 1.0 / self.lam_bar <= self.rho_lambda:
            raise ValueError(
                "lambda_bar too small for this lambda: need 1/lambda_bar <= rho_lambda"
            )

    @property
    def beta(self) -> float:
        return math.sqrt((self.n - 2) * self.sigma / 8.0)

    @property
    def rho_sigma(self) -> float:
        return (self.n - 1) * math.sqrt(15.0 / (self.n * self.sigma))

    @property
    def rho_lambda(self) -> float:
        return math.atan(1.0 / (1.0 + 2.0 * self.lam / self.beta)) / self.beta

    @property
    def slope_a(self) -> float:
        # cos/sin rather than 1/tan keeps the breakpoint continuity check
        # a genuine comparison of two float routes to the same number
        y = self.beta / self.lam_bar
        return 2.0 * self.beta * math.cos(y) / math.sin(y)

    @property
    def offset_b(self) -> float:
        y = self.beta / self.lam_bar
        return -math.log(math.sin(y) ** 2)

    @property
    def break1(self) -> float:
        return self.rho_sigma - self.rho_lambda + 1.0 / self.lam_bar

    @property
    def break2(self) -> float:
        return self.rho_sigma - self.rho_lambda + 0.5 * math.pi / self.beta


class PiecewisePotential:
    """Three-piece radial potential.  Orientation "N" is the potential with
    f' in [-a, 0] increasing; "D" is its pointwise negation.

    The pieces are the line in t = rho - break1, ending at t = 0; -2 log sin u
    in u = beta (rho - rho_sigma + rho_lambda), from u = beta / lambda_bar to
    pi/2; then zero.  Limits at those exact ends are honest: recovering u from
    the float breakpoint would add cancellation noise amplified by lambda_bar^2.
    """

    def __init__(self, params: FocalParams, orientation: str = "N"):
        if orientation not in ("N", "D"):
            raise ValueError("orientation must be 'N' or 'D'")
        self.params = p = params
        self.orientation = orientation
        self.sign = 1.0 if orientation == "N" else -1.0
        self.breakpoints = (p.break1, p.break2)
        self.pieces = bands._Piecewise(self.breakpoints, [
            bands._Piece(lambda t: (-p.slope_a * t + p.offset_b, -p.slope_a, 0.0), (-math.inf, 0.0),
                         lambda rho: rho - p.rho_sigma + p.rho_lambda - 1.0 / p.lam_bar),
            bands._Piece(lambda u: (-2.0 * np.log(np.sin(u)), -2.0 * p.beta / np.tan(u),
                                    2.0 * p.beta**2 / np.sin(u) ** 2),
                         (p.beta / p.lam_bar, 0.5 * math.pi), lambda rho: p.beta * (rho - p.rho_sigma + p.rho_lambda)),
            bands._Piece(lambda rho: (0.0, 0.0, 0.0), (p.break2, math.inf)),
        ])
        self._validate()

    def jet(self, rho):
        """(f, f', f'') at rho, vectorised; at a breakpoint each component is
        its left value."""
        return tuple(self.sign * part for part in self.pieces.jet(rho))

    def continuity_defects(self):
        """The largest jump of f and of f' over the breakpoints."""
        value_jump, slope_jump, _ = np.ptp(self.pieces.limits(), axis=1).max(axis=0)
        return float(value_jump), float(slope_jump)

    def _validate(self):
        """C^1, and f' in [-a, 0] increasing (N orientation): f' is -a on the
        line, -2 beta cot u increasing in u on the middle piece and 0 past it,
        so its one-sided values at the breakpoints decide."""
        value_jump, slope_jump = self.continuity_defects()
        if value_jump > CONTINUITY_TOL or slope_jump > CONTINUITY_TOL:
            raise ValueError(
                f"potential not C^1 at a breakpoint: jumps {value_jump:.2e}, {slope_jump:.2e}"
            )
        fp, tol = self.pieces.limits()[:, :, 1].ravel(), 1e-9 * max(1.0, self.params.slope_a)
        if fp.max() > 1e-12 or fp.min() < -self.params.slope_a - tol or np.any(np.diff(fp) < -tol):
            raise ValueError("slope leaves the interval [-a, 0] or fails to increase")


def check_focal_regularity(params: FocalParams, r_f: float) -> Report:
    """Support and smoothness check: the potential must vanish past r_f / 2,
    which needs rho_sigma + pi/(2 beta) < (9/2) sqrt(n/sigma) <= r_f / 2,
    and f, f' must be continuous across both breakpoints."""
    p = params
    anchor = 4.5 * math.sqrt(p.n / p.sigma)
    chain1 = anchor - (p.rho_sigma + 0.5 * math.pi / p.beta)  # strict
    chain2 = 0.5 * r_f - anchor  # r_f strictly above 9 sqrt(n/sigma)
    pot = PiecewisePotential(p, "N")
    value_jump, slope_jump = pot.continuity_defects()
    passed = chain1 > 0 and chain2 > 0 and value_jump <= CONTINUITY_TOL and slope_jump <= CONTINUITY_TOL
    return Report(
        check="focal.regularity",
        params={"n": p.n, "sigma": p.sigma, "lambda": p.lam, "lambda_bar": p.lam_bar, "r_f": r_f},
        passed=bool(passed),
        tolerance=CONTINUITY_TOL,
        regions=[
            Region("support_chain", chain1),
            Region("focal_radius_chain", chain2),
        ],
        details={
            "rho_sigma_plus_halfpi_over_beta": p.rho_sigma + 0.5 * math.pi / p.beta,
            "anchor_9half_sqrt_n_over_sigma": anchor,
            "value_jump": value_jump,
            "slope_jump": slope_jump,
        },
    )


def check_focal_boundary(params: FocalParams) -> Report:
    """Normal-derivative check at the boundary: -f'(0) / lambda_bar >= 1,
    through y = beta / lambda_bar <= 1/sqrt(8n) < 1 and 2 y cot y >= 1.
    The ratio does not involve the interior convexity parameter lambda."""
    p = params
    y = p.beta / p.lam_bar
    ratio = 2.0 * y / math.tan(y)  # equals -f'(0) / lambda_bar
    y_bound = 1.0 / math.sqrt(8.0 * p.n)
    passed = y <= y_bound and y < 1.0 and ratio >= 1.0
    return Report(
        check="focal.boundary",
        params={"n": p.n, "sigma": p.sigma, "lambda": p.lam, "lambda_bar": p.lam_bar},
        passed=bool(passed),
        tolerance=0.0,
        regions=[Region("normal_derivative_ratio", ratio - 1.0), Region("y_bound", y_bound - y)],
        details={"y": y, "two_y_cot_y": ratio},
    )


IDENTITY_TOL = 1e-9
IDENTITY_SAMPLES = 256
BREAKPOINT_EPS = 1e-9  # the focal sweep also samples each breakpoint this far to either side


def _middle_identity_residual(pot: PiecewisePotential, interval) -> float:
    """max |-s f'' + f'^2 / 2 + (n-2) sigma / 4| / (|f''| + f'^2 / 2 + (n-2) sigma / 4) over
    IDENTITY_SAMPLES points of the middle piece, on the jet the focal sweep evaluates; s is
    the orientation sign (orientation D negates f).

    Relative, because the terms grow like lambda_bar^2 near the first
    breakpoint, where the absolute residual is rounding of that size.
    """
    p = pot.params
    _, fp, fpp = pot.jet(np.linspace(interval[0], interval[1], IDENTITY_SAMPLES))
    target = (p.n - 2) * p.sigma / 4.0
    residual = np.abs(-pot.sign * fpp + 0.5 * fp**2 + target) / (np.abs(fpp) + 0.5 * fp**2 + target)
    return float(residual.max())


def _focal_margin(pot: PiecewisePotential, r_f: float, rho):
    p = pot.params
    rho = np.asarray(rho, dtype=float)
    _, fp, fpp = pot.jet(rho)
    drift = (p.n - 1) * p.lam / ((p.n - 1) + p.lam * rho)
    if pot.orientation == "N":
        c = drift + 4.0 * (p.n - 2) / r_f
        lhs = c * fp - fpp + fp**2
    else:
        c = drift + 8.0 / r_f
        lhs = -c * fp + fpp + fp**2
    rhs = -0.5 * (p.n - 2) * p.sigma
    return lhs, rhs, lhs - rhs


def _require_focal_radius(p: FocalParams, r_f: float):
    """The focal inequality's hypothesis r_f > 9 sqrt(n/sigma), for the
    verdict and the emitted curve alike."""
    if not r_f > 9.0 * math.sqrt(p.n / p.sigma):
        raise ValueError("focal radius must exceed 9 sqrt(n/sigma)")


def verify_focal_inequality(params: FocalParams, r_f: float, orientation: str = "N") -> Report:
    """Sweep the pointwise focal inequality over [0, r_f] and report the
    minimum margin in each of the three regions, plus the residual of the
    middle-piece identity -f'' + f'^2 / 2 = -(n-2) sigma / 4 (orientation D
    flips the sign of f'')."""
    p = params
    _require_focal_radius(p, r_f)
    pot = PiecewisePotential(p, orientation)
    x1, x2 = pot.breakpoints
    eps = BREAKPOINT_EPS
    rhos = np.unique(np.r_[np.linspace(0.0, r_f, FOCAL_GRID_POINTS), x1 - eps, x1 + eps, x2 - eps, x2 + eps])
    rhos = rhos[(rhos >= 0) & (rhos <= r_f)]
    _, _, margin = _focal_margin(pot, r_f, rhos)

    regions = [Region(name, float(margin[mask].min())) for name, mask in (
        ("rho_above_half_rf", rhos > 0.5 * r_f),
        ("rho_sigma_to_half_rf", (rhos >= p.rho_sigma) & (rhos <= 0.5 * r_f)),
        ("rho_below_rho_sigma", rhos <= p.rho_sigma),
    )]

    identity_residual = _middle_identity_residual(pot, (x1 + eps, x2 - eps))

    passed = all(r.min_margin > 0 for r in regions) and identity_residual <= IDENTITY_TOL
    return Report(
        check=f"focal.inequality.{orientation}",
        params={
            "n": p.n,
            "sigma": p.sigma,
            "lambda": p.lam,
            "lambda_bar": p.lam_bar,
            "r_f": r_f,
            "grid_points": FOCAL_GRID_POINTS,
        },
        passed=bool(passed),
        tolerance=IDENTITY_TOL,
        regions=regions,
        details={"middle_identity_residual": identity_residual},
    )


def focal_margin_rows(params: FocalParams, r_f: float, points: int):
    """(rho, lhs, rhs, margin) rows of the N-orientation focal inequality, for CSV."""
    _require_focal_radius(params, r_f)
    pot = PiecewisePotential(params, "N")
    rhos = np.linspace(0.0, r_f, points)
    lhs, rhs, margin = _focal_margin(pot, r_f, rhos)
    return [(float(r), float(l), float(rhs), float(m)) for r, l, m in zip(rhos, lhs, margin)]


# -- chi cutoff and the bandwidth margin --------------------------------


class ChiCutoff:
    """C^2 cutoff in five pieces: -x on [0, 1/2]; a cubic ramp on which chi''
    rises linearly to a height h <= 4; a quadratic with chi'' = h; a cubic
    ramp back to chi'' = 0; and c_plateau from plateau_end = 0.9 on.  The
    constants that make the pieces meet (_v_x0, _dp_x0, c_plateau) are read
    when a piece is evaluated, so :func:`check_chi_cutoff` judges the cutoff
    as it stands."""

    def __init__(self):
        self.plateau_end = p = 0.9
        ell = p - 0.5
        t = 0.5 * (1.0 - 0.25 / ell)  # half the feasibility slack
        self.ramp = e = t * ell
        self.height = h = 1.0 / (ell - e)  # below 4, which check_chi_cutoff confirms
        x0, x1 = 0.5 + e, p - e
        # accumulate continuity constants piece by piece
        self._dp_x0 = -1.0 + 0.5 * h * e
        self._v_x0 = -x0 + h * e * e / 6.0
        v_x1 = self._v_x0 + self._dp_x0 * (x1 - x0) + 0.5 * h * (x1 - x0) ** 2
        # chi'(x) = -h (p - x)^2 / (2 e) on the down-ramp, zero at p
        self.c_plateau = v_x1 - h * e * e / 6.0
        self.breakpoints = (0.5, x0, x1, p)
        # each piece in its offset from a breakpoint, which is exact on the
        # piece (Sterbenz), so -0.5 - s is -x there and the ends are exact
        self.pieces = bands._Piecewise(self.breakpoints, [
            bands._Piece(lambda x: (-x, -1.0, 0.0), (-math.inf, 0.5)),
            bands._Piece(lambda s: (-0.5 - s + h * s**3 / (6.0 * e), -1.0 + h * s**2 / (2.0 * e), h * s / e),
                         (0.0, e), lambda x: x - 0.5),
            bands._Piece(lambda d: (self._v_x0 + self._dp_x0 * d + 0.5 * h * d**2, self._dp_x0 + h * d, h),
                         (0.0, x1 - x0), lambda x: x - x0),
            bands._Piece(lambda q: (self.c_plateau + (h / (6.0 * e)) * q**3, -(h / (2.0 * e)) * q**2, h * q / e),
                         (e, 0.0), lambda x: p - x),
            bands._Piece(lambda x: (self.c_plateau, 0.0, 0.0), (p, math.inf)),
        ])

    def jet(self, x):
        """(chi, chi', chi'') at x, vectorised."""
        return self.pieces.jet(x)


def check_chi_cutoff(chi: ChiCutoff) -> Report:
    """The cutoff's claims in closed form, from its pieces: chi, chi' and
    chi'' jump by at most 1e-12 at each breakpoint; chi'' is in [0, 4], as
    it is linear on each piece and constant on the outer two, so its
    one-sided breakpoint values hold its extremes; chi' is in [-1, 0], as it
    is then nondecreasing; and chi = -x on [0, 1/2], as the first piece is a
    cubic whose value and slope at 0 and 1/2 are those of -x."""
    tol = 1e-12
    lim = chi.pieces.limits()
    _, slope, second = lim.transpose(2, 0, 1)
    ends = np.array([0.0, 0.5])
    c, cp, _ = chi.jet(ends)
    line_defect = max(abs(c + ends).max(), abs(cp + 1.0).max())
    passed = (np.ptp(lim, axis=1).max() <= tol and line_defect <= tol
              and 0.0 <= second.min() and second.max() <= 4.0 and -1.0 <= slope.min() and slope.max() <= 0.0)
    return Report(
        check="bandwidth.chi_cutoff",
        params={"plateau_end": chi.plateau_end},
        passed=bool(passed),
        tolerance=tol,
        regions=[Region("chi_second_deriv_headroom", 4.0 - float(second.max()))],
        details={"c_plateau": chi.c_plateau},
    )


@dataclass(frozen=True)
class BandwidthParams:
    """Inputs of the bandwidth margin check; r = min(L/2, r_f/2)."""

    n: int
    sigma: float
    delta: float
    Lambda: float
    r_f: float
    L: float

    def __post_init__(self):
        if self.n < 4 or self.n % 2:
            raise ValueError("n must be even and at least 4")
        if self.sigma <= 0 or self.delta < 0 or self.Lambda < 0 or self.r_f <= 0 or self.L <= 0:
            raise ValueError("parameter out of range")
        if self.r == 0.0:
            raise ValueError(f"r = min(L, r_f) / 2 underflows to 0 (L = {self.L:g}, r_f = {self.r_f:g})")

    @property
    def r(self) -> float:
        return min(0.5 * self.L, 0.5 * self.r_f)

    def delta_cap(self) -> float:
        caps = [
            (self.n - 3) * self.sigma * self.r_f / (8.0 * (self.n + 1)),
            0.5 * math.sqrt(self.sigma),
        ]
        if self.Lambda > 0:
            caps.append((self.n - 2) * self.sigma / (10.0 * (self.n - 1) * self.Lambda))
        return min(caps)


FLAT_LAMBDA_R = 1e-10


def bandwidth_bound(sigma: float, delta: float) -> float:
    """Width bound (51 / sqrt(sigma)) arctan(delta / sqrt(sigma))."""
    if sigma <= 0 or delta < 0:
        raise ValueError("need sigma > 0 and delta >= 0")
    return 51.0 / math.sqrt(sigma) * math.atan(delta / math.sqrt(sigma))


def verify_bandwidth_margin(p: BandwidthParams) -> Report:
    """Evaluate mu = (n-2) sigma / 2 - (n-1) delta Lambda / tanh(Lambda r)
    - 4 delta / r - 2 delta^2 and re-derive the two-case lower bounds."""
    n, sig, d, Lam, r = p.n, p.sigma, p.delta, p.Lambda, p.r
    hypotheses = {
        "delta_below_cap": d < p.delta_cap(),
        "delta_below_half_sqrt_sigma": d < 0.5 * math.sqrt(sig),
        "L_above_width_bound": p.L > bandwidth_bound(sig, d),
        "delta_below_case_cap": d < (n - 3) * sig * r / (4.0 * (n + 1)),
    }
    if Lam > 0:
        hypotheses["delta_below_ricci_cap"] = d < (n - 2) * sig / (10.0 * (n - 1) * Lam)

    if Lam * r < FLAT_LAMBDA_R:
        drift = (n - 1) * d / r
        case = "flat"
    else:
        drift = (n - 1) * d * Lam / math.tanh(Lam * r)
        case = "small_Lambda_r" if Lam * r <= 1.0 else "large_Lambda_r"
    mu = 0.5 * (n - 2) * sig - drift - 4.0 * d / r - 2.0 * d * d

    if Lam * r <= 1.0:
        lower = 0.5 * (n - 2) * sig - 2.0 * (n + 1) * d / r - 2.0 * d * d
    else:
        lower = 0.5 * (n - 2) * sig - 2.0 * (n - 1) * d * Lam - 4.0 * d / r - 2.0 * d * d
    case_ok = mu >= lower - 1e-12

    passed = mu > 0 and all(hypotheses.values()) and case_ok
    return Report(
        check="bandwidth.margin",
        params={"n": n, "sigma": sig, "delta": d, "Lambda": Lam, "r_f": p.r_f, "L": p.L, "r": r},
        passed=bool(passed),
        tolerance=0.0,
        regions=[Region("mu", mu), Region("case_lower_bound", lower)],
        details={"case": case, "hypotheses": hypotheses, "mu_above_case_bound": case_ok},
    )


def check_L_chain(n: int, sigma: float, delta: float) -> Report:
    """Constant chain behind the width bound, in closed form.

    32(m+1)/(pi(m-3)) = (32/pi)(1 + 4/(m-3)) decreases in m, so its maximum
    over m >= 4 is 160/pi < 51, at m = 4.  arctan is concave on [0, 1] and
    equals (pi/4) y at y = 0 and y = 1, so arctan y >= (pi/4) y on [0, 1],
    with equality at both ends: the margin is exactly 0.
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    max_constant = 160.0 / math.pi
    const_margin = 51.0 - max_constant
    ratio_flag = delta >= math.sqrt(sigma)
    return Report(
        check="bandwidth.L_chain",
        params={"n": n, "sigma": sigma, "delta": delta},
        passed=bool(const_margin > 0 and not ratio_flag),
        tolerance=1e-12,
        regions=[Region("constant_51_margin", const_margin), Region("arctan_margin", 0.0)],
        details={
            "max_constant": max_constant,
            "max_constant_at_n4": 160.0 / math.pi,
            "delta_over_sqrt_sigma_exceeds_1": ratio_flag,
        },
    )


# -- pointwise form inequalities ----------------------------------------


def _two_form_vector(omega) -> tuple[np.ndarray, float]:
    """omega's coefficient vector w on Lambda^2 and |w|^2; a non-finite coefficient, or a
    |w|^2 that overflows, is a ValueError."""
    w = exterior.form_to_vec(omega, 2)
    norm2 = float(np.vdot(w, w).real)
    if not math.isfinite(norm2):
        raise ValueError(f"omega must have finite coefficients and a finite |omega|^2, got {norm2}")
    return w, norm2


def hessian_form_bounds(H, omega, r_f: float, lam: float, rho: float) -> Report:
    """Check the two pointwise Hessian-contraction inequalities against a
    symmetric H with lambda_min(H) >= -2/r_f and
    trace(H) <= (n-1) lambda / ((n-1) + lambda rho).

    The contractions sum_ij H_ij <theta^i ^ w, theta^j ^ w> and
    sum_ij H_ij <i_{e_i} w, i_{e_j} w> are Re <Q(H) w, w> and Re <P(H) w, w>,
    because theta^i ^ and i_{e_i} are adjoint: P(H) = sum_ij H_ij P_ij and
    Q(H) = sum_ij H_ij Q_ij are read off the cached
    ``exterior.two_form_blocks(n)`` (P_ij = theta^i ^ i_{e_j},
    Q_ij = i_{e_i} theta^j ^) as one product each with H.  The eigenvalue
    hypothesis takes one eigvalsh of H; no Gram matrix is formed.  A
    non-finite entry of H, coefficient of omega or |omega|^2, or a
    non-finite r_f, lambda or rho is a ValueError.
    """
    H = np.asarray(H, dtype=float)
    n = H.shape[0]
    if H.shape != (n, n) or not _symmetric(H):
        raise ValueError("H must be a finite symmetric matrix")
    if n % 2 or n < 4:
        raise ValueError("n must be even and at least 4")
    if omega.n != n:
        raise ValueError("form dimension does not match H")
    if not (0.0 < r_f < math.inf and 0.0 < lam < math.inf and 0.0 <= rho < math.inf):
        raise ValueError("need finite r_f > 0, lambda > 0, rho >= 0")
    w, norm2 = _two_form_vector(omega)
    trace_cap = (n - 1) * lam / ((n - 1) + lam * rho)
    tr = float(H.trace())
    hypotheses = {
        "lambda_min_above_-2/r_f": bool(np.linalg.eigvalsh(H)[0] >= -2.0 / r_f - 1e-12),
        "trace_below_cap": bool(tr <= trace_cap + 1e-12),
    }
    params = {"n": n, "r_f": r_f, "lambda": lam, "rho": rho}
    if not all(hypotheses.values()):
        return Report(
            check="focal.hessian_form_bounds",
            params=params,
            passed=False,
            tolerance=1e-10,
            details={"hypotheses": hypotheses, "hypotheses_met": False},
        )
    P, Q = exterior.two_form_blocks(n)
    h, d = H.ravel(), len(w)
    t1 = float(np.vdot(w, (h @ Q.reshape(n * n, d * d)).reshape(d, d) @ w).real)
    t2 = float(np.vdot(w, (h @ P.reshape(n * n, d * d)).reshape(d, d) @ w).real)
    lhs1 = tr * norm2 - 2.0 * t1
    rhs1 = (trace_cap + 4.0 * (n - 2) / r_f) * norm2
    lhs2 = -tr * norm2 + 2.0 * t2
    rhs2 = -(trace_cap + 8.0 / r_f) * norm2
    margin1 = rhs1 - lhs1
    margin2 = lhs2 - rhs2
    passed = margin1 >= -1e-10 and margin2 >= -1e-10
    return Report(
        check="focal.hessian_form_bounds",
        params=params,
        passed=bool(passed),
        tolerance=1e-10,
        regions=[Region("wedge_contraction", margin1), Region("interior_contraction", margin2)],
        details={"hypotheses": hypotheses, "hypotheses_met": True, "form_norm2": norm2},
    )


def boundary_form_bounds(A, omega, mode: str) -> Report:
    """Check the boundary contraction inequality value >= -lambda |omega|^2
    for a tangential (two_convex) or normal (n_minus_two_convex) two-form,
    with lambda derived from the eigenvalues of A.  A non-finite entry of A,
    coefficient of omega or |omega|^2 is a ValueError."""
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    n = m + 1
    if A.shape != (m, m) or not _symmetric(A):
        raise ValueError("A must be a finite symmetric matrix on the boundary tangent space")
    if omega.n != n:
        raise ValueError(f"omega must live on R^{n} with e_{n} the normal direction")
    tangential = all(n not in key for key in omega.coeffs)
    normal = all(n in key for key in omega.coeffs)
    if mode not in ("two_convex", "n_minus_two_convex"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "two_convex" and not tangential:
        raise ValueError("two_convex mode needs a purely tangential form")
    if mode == "n_minus_two_convex" and not normal:
        raise ValueError("n_minus_two_convex mode needs a purely normal form")
    w, norm2 = _two_form_vector(omega)
    # least lambda >= 0 with every k-sum of eigenvalues of A >= -lambda
    lam = bands.k_convexity_defect(A, 2 if mode == "two_convex" else m - 1)
    # theta^i ^ i_{e_j} (two_convex) or i_{e_i} theta^j ^ on Lambda^2, i, j < n
    ops = exterior.two_form_blocks(n)[mode != "two_convex"][:m, :m]
    op = np.einsum("ij,ijab->ab", A, ops)
    value = float(np.vdot(w, op @ w).real)
    margin = value + lam * norm2
    return Report(
        check=f"boundary.{mode}",
        params={"n": n, "lambda": lam},
        passed=bool(margin >= -1e-10),
        tolerance=1e-10,
        regions=[Region("contraction_margin", margin)],
        details={"value": value, "form_norm2": norm2},
    )
