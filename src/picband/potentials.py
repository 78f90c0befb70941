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
Verifiers sweep the pointwise inequalities these potentials must satisfy
region by region and report minimum margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bands, exterior
from .reporting import Region, Report

__all__ = [
    "FocalParams",
    "PiecewisePotential",
    "ChiCutoff",
    "BandwidthParams",
    "check_focal_regularity",
    "check_focal_boundary",
    "boundary_slope_ratio",
    "verify_focal_inequality",
    "focal_margin_rows",
    "bandwidth_potential",
    "verify_bandwidth_margin",
    "bandwidth_bound",
    "check_L_chain",
    "hessian_form_bounds",
    "boundary_form_bounds",
]

CONTINUITY_TOL = 1e-10
FOCAL_GRID_POINTS = 10_001  # uniform samples of the focal sweep over [0, r_f]
L_CHAIN_POINTS = 10_001  # arctan samples of check_L_chain


@dataclass(frozen=True)
class FocalParams:
    """Parameters of the focal potential; lambda and lambda_bar must both
    exceed n sqrt(sigma)."""

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
        if not (0.0 < self.rho_lambda < self.rho_sigma):
            raise ValueError("rho_lambda must lie in (0, rho_sigma)")
        if not math.isfinite(self.break2):
            raise ValueError(f"the potential's breakpoints overflow at sigma = {self.sigma:g}")
        if not (1.0 / self.lam_bar < 0.25 * math.pi / self.beta):
            raise ValueError("lambda_bar too small: 1/lambda_bar must be below pi/(4 beta)")
        if 1.0 / self.lam_bar > self.rho_lambda:
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


def _safe_mid_arg(u):
    """Clamp the middle-piece argument into (0, pi); np.select evaluates all
    branches, so out-of-piece arguments must not hit the sin/tan poles."""
    return np.clip(u, 1e-9, math.pi - 1e-9)


class PiecewisePotential:
    """Three-piece radial potential.  Orientation "N" is the potential with
    f' in [-a, 0] increasing; "D" is its pointwise negation."""

    def __init__(self, params: FocalParams, orientation: str = "N"):
        if orientation not in ("N", "D"):
            raise ValueError("orientation must be 'N' or 'D'")
        self.params = params
        self.orientation = orientation
        self.sign = 1.0 if orientation == "N" else -1.0
        self.breakpoints = (params.break1, params.break2)
        self._validate()

    # vectorised closed forms; s = +1 gives the N orientation
    def value(self, rho):
        p, s = self.params, self.sign
        rho = np.asarray(rho, dtype=float)
        u = _safe_mid_arg(p.beta * (rho - p.rho_sigma + p.rho_lambda))
        lin = -p.slope_a * (rho - p.rho_sigma + p.rho_lambda - 1.0 / p.lam_bar) + p.offset_b
        mid = -2.0 * np.log(np.sin(u))
        out = np.select(
            [rho <= self.breakpoints[0], rho <= self.breakpoints[1]], [lin, mid], default=0.0
        )
        return s * out

    def deriv(self, rho):
        p, s = self.params, self.sign
        rho = np.asarray(rho, dtype=float)
        u = _safe_mid_arg(p.beta * (rho - p.rho_sigma + p.rho_lambda))
        mid = -2.0 * p.beta / np.tan(u)
        out = np.select(
            [rho <= self.breakpoints[0], rho <= self.breakpoints[1]],
            [np.full_like(rho, -p.slope_a), mid],
            default=0.0,
        )
        return s * out

    def second(self, rho):
        """f'' taken piecewise; at a breakpoint this is the left value, use
        rho +- eps to probe the one-sided limits."""
        p, s = self.params, self.sign
        rho = np.asarray(rho, dtype=float)
        u = _safe_mid_arg(p.beta * (rho - p.rho_sigma + p.rho_lambda))
        mid = 2.0 * p.beta**2 / np.sin(u) ** 2
        out = np.select(
            [rho <= self.breakpoints[0], rho <= self.breakpoints[1]],
            [np.zeros_like(rho), mid],
            default=0.0,
        )
        return s * out

    def one_sided_limits(self):
        """Exact one-sided (value, slope) limits at both breakpoints.

        The piece-local coordinate is substituted exactly (u = beta /
        lambda_bar at the first breakpoint, u = pi/2 at the second), which
        is the honest evaluation of the limit: recovering u from the float
        breakpoint would inject cancellation noise amplified by lambda_bar^2.
        """
        p, s = self.params, self.sign
        y = p.beta / p.lam_bar
        lim = {
            "break1_left": (s * p.offset_b, s * -p.slope_a),
            "break1_right": (s * -2.0 * math.log(math.sin(y)), s * -2.0 * p.beta / math.tan(y)),
            "break2_left": (
                s * -2.0 * math.log(math.sin(0.5 * math.pi)),
                s * -2.0 * p.beta / math.tan(0.5 * math.pi),
            ),
            "break2_right": (0.0, 0.0),
        }
        return lim

    def continuity_defects(self):
        lim = self.one_sided_limits()
        v1 = abs(lim["break1_left"][0] - lim["break1_right"][0])
        s1 = abs(lim["break1_left"][1] - lim["break1_right"][1])
        v2 = abs(lim["break2_left"][0] - lim["break2_right"][0])
        s2 = abs(lim["break2_left"][1] - lim["break2_right"][1])
        return max(v1, v2), max(s1, s2)

    def _validate(self):
        value_jump, slope_jump = self.continuity_defects()
        if value_jump > CONTINUITY_TOL or slope_jump > CONTINUITY_TOL:
            raise ValueError(
                f"potential not C^1 at a breakpoint: jumps {value_jump:.2e}, {slope_jump:.2e}"
            )
        x2 = self.breakpoints[1]
        rhos = np.linspace(0.0, x2 * 1.05, 512)
        fp = self.sign * self.deriv(rhos)  # N orientation view
        scale = max(1.0, self.params.slope_a)
        if fp.max() > 1e-12 or fp.min() < -self.params.slope_a - 1e-9 * scale:
            raise ValueError("slope leaves the interval [-a, 0]")
        if np.any(np.diff(fp) < -1e-9 * scale):
            raise ValueError("slope fails to be monotone increasing")


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


def boundary_slope_ratio(n: int, sigma: float, lam_bar: float) -> Report:
    """Normal-derivative check at the boundary: -f'(0) / lambda_bar >= 1,
    through y = beta / lambda_bar <= 1/sqrt(8n) < 1 and 2 y cot y >= 1.

    Takes (n, sigma, lambda_bar) directly; the ratio does not involve the
    interior convexity parameter lambda at all.
    """
    if n < 4 or n % 2:
        raise ValueError("n must be even and at least 4")
    if lam_bar < n * math.sqrt(sigma):
        raise ValueError(f"lambda_bar must be at least n sqrt(sigma) = {n * math.sqrt(sigma):.6g}")
    beta = math.sqrt((n - 2) * sigma / 8.0)
    y = beta / lam_bar
    ratio = 2.0 * y / math.tan(y)  # equals -f'(0) / lambda_bar
    y_bound = 1.0 / math.sqrt(8.0 * n)
    passed = y <= y_bound and y < 1.0 and ratio >= 1.0
    return Report(
        check="focal.boundary",
        params={"n": n, "sigma": sigma, "lambda_bar": lam_bar},
        passed=bool(passed),
        tolerance=0.0,
        regions=[Region("normal_derivative_ratio", ratio - 1.0), Region("y_bound", y_bound - y)],
        details={"y": y, "two_y_cot_y": ratio},
    )


def check_focal_boundary(params: FocalParams) -> Report:
    rep = boundary_slope_ratio(params.n, params.sigma, params.lam_bar)
    rep.params["lambda"] = params.lam
    return rep


IDENTITY_TOL = 1e-9
IDENTITY_SAMPLES = 256
BREAKPOINT_EPS = 1e-9  # the focal sweep also samples each breakpoint this far to either side


def _middle_identity_residual(p: FocalParams, interval) -> float:
    """max | -f'' + f'^2 / 2 + (n-2) sigma / 4 | at IDENTITY_SAMPLES points of the middle piece.

    cot^2 - csc^2 cancels catastrophically in double precision when
    lambda_bar is large (absolute error ~ 4 lambda_bar^2 eps), so the
    closed forms are evaluated in extended precision; the residual then
    reflects the identity itself, not evaluation rounding.  Orientation
    does not matter: both signs give the same combination.
    """
    from mpmath import mp

    old = mp.dps
    mp.dps = 40
    try:
        beta = (mp.mpf(p.n) - 2) * mp.mpf(p.sigma) / 8
        beta = mp.sqrt(beta)
        shift = mp.mpf(p.rho_sigma) - mp.mpf(p.rho_lambda)
        a, b = mp.mpf(interval[0]), mp.mpf(interval[1])
        target = (mp.mpf(p.n) - 2) * mp.mpf(p.sigma) / 4
        worst = mp.mpf(0)
        for i in range(IDENTITY_SAMPLES):
            rho = a + (b - a) * i / (IDENTITY_SAMPLES - 1)
            u = beta * (rho - shift)
            fp = -2 * beta * mp.cot(u)
            fpp = 2 * beta**2 * mp.csc(u) ** 2
            worst = max(worst, abs(-fpp + fp**2 / 2 + target))
        return float(worst)
    finally:
        mp.dps = old


def _focal_margin(pot: PiecewisePotential, r_f: float, rho):
    p = pot.params
    rho = np.asarray(rho, dtype=float)
    fp = pot.deriv(rho)
    fpp = pot.second(rho)
    drift = (p.n - 1) * p.lam / ((p.n - 1) + p.lam * rho)
    if pot.orientation == "N":
        c = drift + 4.0 * (p.n - 2) / r_f
        lhs = c * fp - fpp + fp**2
    else:
        c = drift + 8.0 / r_f
        lhs = -c * fp + fpp + fp**2
    rhs = -0.5 * (p.n - 2) * p.sigma
    return lhs, rhs, lhs - rhs


def verify_focal_inequality(params: FocalParams, r_f: float, orientation: str = "N") -> Report:
    """Sweep the pointwise focal inequality over [0, r_f] and report the
    minimum margin in each of the three regions, plus the residual of the
    middle-piece identity -f'' + f'^2 / 2 = -(n-2) sigma / 4 (orientation D
    flips the sign of f'')."""
    p = params
    if r_f <= 9.0 * math.sqrt(p.n / p.sigma):
        raise ValueError("focal radius must exceed 9 sqrt(n/sigma)")
    pot = PiecewisePotential(p, orientation)
    x1, x2 = pot.breakpoints
    eps = BREAKPOINT_EPS
    rhos = np.unique(
        np.concatenate(
            [
                np.linspace(0.0, r_f, FOCAL_GRID_POINTS),
                np.array([x1 - eps, x1 + eps, x2 - eps, x2 + eps]),
            ]
        )
    )
    rhos = rhos[(rhos >= 0) & (rhos <= r_f)]
    _, _, margin = _focal_margin(pot, r_f, rhos)

    regions = []
    for name, mask in (
        ("rho_above_half_rf", rhos > 0.5 * r_f),
        ("rho_sigma_to_half_rf", (rhos >= p.rho_sigma) & (rhos <= 0.5 * r_f)),
        ("rho_below_rho_sigma", rhos <= p.rho_sigma),
    ):
        regions.append(Region(name, float(margin[mask].min())))

    identity_residual = _middle_identity_residual(p, (x1 + eps, x2 - eps))

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


def focal_margin_rows(params: FocalParams, r_f: float, points: int = 512):
    """(rho, lhs, rhs, margin) rows of the N-orientation focal inequality, for CSV."""
    if not r_f > 0:
        raise ValueError("focal radius must be positive")
    pot = PiecewisePotential(params, "N")
    rhos = np.linspace(0.0, r_f, points)
    lhs, rhs, margin = _focal_margin(pot, r_f, rhos)
    return [(float(r), float(l), float(rhs), float(m)) for r, l, m in zip(rhos, lhs, margin)]


# -- chi cutoff and the bandwidth margin --------------------------------


class ChiCutoff:
    """C^2 piecewise-polynomial cutoff: identity times -1 on [0, 1/2], a
    convex transition with chi'' in [0, 4], then constant c_plateau."""

    def __init__(self, plateau_end: float = 0.9):
        if not (0.75 < plateau_end <= 1.0):
            raise ValueError(
                "plateau_end must lie in (3/4, 1]: chi'' <= 4 forces the plateau past 1/2 + 1/4"
            )
        self.plateau_end = plateau_end
        ell = plateau_end - 0.5
        t = 0.5 * (1.0 - 0.25 / ell)  # half the feasibility slack
        self.ramp = t * ell
        self.height = 1.0 / (ell - self.ramp)
        if self.height > 4.0 + 1e-12:
            raise ValueError("internal: chi'' height exceeds 4")
        x0 = 0.5 + self.ramp
        x1 = plateau_end - self.ramp
        self._x0, self._x1 = x0, x1
        h, e = self.height, self.ramp
        # accumulate continuity constants piece by piece
        self._dp_x0 = -1.0 + 0.5 * h * e
        self._v_x0 = -x0 + h * e * e / 6.0
        self._dp_x1 = self._dp_x0 + h * (x1 - x0)
        self._v_x1 = self._v_x0 + self._dp_x0 * (x1 - x0) + 0.5 * h * (x1 - x0) ** 2
        # chi'(x) = -h (p - x)^2 / (2 e) on the down-ramp, zero at p
        self.c_plateau = self._v_x1 - h * e * e / 6.0
        self.breakpoints = (0.5, x0, x1, plateau_end)

    def chi(self, x):
        x = np.asarray(x, dtype=float)
        h, e, p = self.height, self.ramp, self.plateau_end
        x0, x1 = self._x0, self._x1
        ramp_up = -x + h * (x - 0.5) ** 3 / (6.0 * e)
        mid = self._v_x0 + self._dp_x0 * (x - x0) + 0.5 * h * (x - x0) ** 2
        down = self.c_plateau + (h / (6.0 * e)) * (p - x) ** 3
        return np.select(
            [x <= 0.5, x <= x0, x <= x1, x <= p],
            [-x, ramp_up, mid, down],
            default=self.c_plateau,
        )

    def chip(self, x):
        x = np.asarray(x, dtype=float)
        h, e, p = self.height, self.ramp, self.plateau_end
        x0, x1 = self._x0, self._x1
        return np.select(
            [x <= 0.5, x <= x0, x <= x1, x <= p],
            [
                np.full_like(x, -1.0),
                -1.0 + h * (x - 0.5) ** 2 / (2.0 * e),
                self._dp_x0 + h * (x - x0),
                -(h / (2.0 * e)) * (p - x) ** 2,
            ],
            default=0.0,
        )

    def chipp(self, x):
        x = np.asarray(x, dtype=float)
        h, e, p = self.height, self.ramp, self.plateau_end
        x0, x1 = self._x0, self._x1
        return np.select(
            [x <= 0.5, x <= x0, x <= x1, x <= p],
            [np.zeros_like(x), h * (x - 0.5) / e, np.full_like(x, h), h * (p - x) / e],
            default=0.0,
        )


def bandwidth_potential(chi: ChiCutoff, r: float, delta: float):
    """f(rho) = r delta chi(rho / r); returns (f, f', f'') callables."""
    if r <= 0 or delta < 0:
        raise ValueError("need r > 0 and delta >= 0")

    def f(rho):
        return r * delta * chi.chi(np.asarray(rho) / r)

    def fp(rho):
        return delta * chi.chip(np.asarray(rho) / r)

    def fpp(rho):
        return (delta / r) * chi.chipp(np.asarray(rho) / r)

    return f, fp, fpp


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
    """Constant chain behind the width bound: 32(n+1)/(pi(n-3)) peaks at
    160/pi < 51 over n >= 4, and arctan(y) >= (pi/4) y on [0, 1] (L_CHAIN_POINTS samples)."""
    if n < 4:
        raise ValueError("n must be at least 4")
    consts = [32.0 * (m + 1) / (math.pi * (m - 3)) for m in range(4, max(n, 40) + 1)]
    const_margin = 51.0 - max(consts)
    ys = np.linspace(0.0, 1.0, L_CHAIN_POINTS)
    arctan_margin = float(np.min(np.arctan(ys) - 0.25 * math.pi * ys))
    ratio_flag = delta >= math.sqrt(sigma)
    passed = const_margin > 0 and arctan_margin >= -1e-12 and not ratio_flag
    return Report(
        check="bandwidth.L_chain",
        params={"n": n, "sigma": sigma, "delta": delta},
        passed=bool(passed),
        tolerance=1e-12,
        regions=[Region("constant_51_margin", const_margin), Region("arctan_margin", arctan_margin)],
        details={
            "max_constant": max(consts),
            "max_constant_at_n4": 160.0 / math.pi,
            "delta_over_sqrt_sigma_exceeds_1": ratio_flag,
        },
    )


# -- pointwise form inequalities ----------------------------------------


def _pairings(n: int, w: np.ndarray):
    """Gram matrices G1_ij = <theta^i ^ w, theta^j ^ w> and
    G2_ij = <i_i w, i_j w> for a two-form coefficient vector w."""
    U = exterior.wedge_stack(n, 2) @ w
    V = exterior.interior_stack(n, 2) @ w
    return U @ U.conj().T, V @ V.conj().T


def hessian_form_bounds(H, omega, r_f: float, lam: float, rho: float) -> Report:
    """Check the two pointwise Hessian-contraction inequalities against a
    symmetric H with lambda_min(H) >= -2/r_f and
    trace(H) <= (n-1) lambda / ((n-1) + lambda rho)."""
    H = np.asarray(H, dtype=float)
    n = H.shape[0]
    if H.shape != (n, n) or not np.allclose(H, H.T, atol=1e-12):
        raise ValueError("H must be a symmetric matrix")
    if n % 2 or n < 4:
        raise ValueError("n must be even and at least 4")
    if omega.n != n:
        raise ValueError("form dimension does not match H")
    if r_f <= 0 or lam <= 0 or rho < 0:
        raise ValueError("need r_f > 0, lambda > 0, rho >= 0")
    trace_cap = (n - 1) * lam / ((n - 1) + lam * rho)
    eigs = np.linalg.eigvalsh(H)
    hypotheses = {
        "lambda_min_above_-2/r_f": bool(eigs[0] >= -2.0 / r_f - 1e-12),
        "trace_below_cap": bool(np.trace(H) <= trace_cap + 1e-12),
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
    w = exterior.form_to_vec(omega, 2)
    G1, G2 = _pairings(n, w)
    norm2 = float(np.real(w.conj() @ w))
    tr = float(np.trace(H))
    t1 = float(np.real(np.sum(H * G1)))
    t2 = float(np.real(np.sum(H * G2)))
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
    with lambda derived from the eigenvalues of A."""
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    n = m + 1
    if A.shape != (m, m) or not np.allclose(A, A.T, atol=1e-12):
        raise ValueError("A must be a symmetric matrix on the boundary tangent space")
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
    # least lambda >= 0 with every k-sum of eigenvalues of A >= -lambda
    lam = bands.k_convexity_defect(A, 2 if mode == "two_convex" else m - 1)
    # theta^i ^ i_{e_j} (two_convex) or i_{e_i} theta^j ^ on Lambda^2, i, j < n
    ops = exterior.two_form_blocks(n)[mode != "two_convex"][:m, :m]
    w = exterior.form_to_vec(omega, 2)
    op = np.einsum("ij,ijab->ab", A, ops)
    value = float(np.real(np.conj(w) @ (op @ w)))
    norm2 = float(np.real(np.conj(w) @ w))
    margin = value + lam * norm2
    return Report(
        check=f"boundary.{mode}",
        params={"n": n, "lambda": lam},
        passed=bool(margin >= -1e-10),
        tolerance=1e-10,
        regions=[Region("contraction_margin", margin)],
        details={"value": value, "form_norm2": norm2},
    )
