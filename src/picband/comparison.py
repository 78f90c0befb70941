"""Closed-form Hessian/Laplace comparison barriers and a Riccati ODE oracle.

The barriers bound the Hessian and Laplacian of the distance function from
a hypersurface under lower curvature bounds ``Sec >= -K`` or
``Ric >= -(n-1)K`` and boundary convexity bounds.  The oracle integrates
the scalar Riccati equation satisfied by the level-set Hessian along inward
normal geodesics and is the independent ground truth for the barriers.

Boundary-form convention. ``A0`` is the second fundamental form of the
start hypersurface with respect to the *outward* unit normal, positive on
the boundary sphere of a convex ball.  The level-set Hessian of the inward
distance function then starts at ``W(0) = -A0`` and evolves by
``W' = -W^2 - K_rad(rho)`` where ``K_rad`` is the radial sectional
curvature (``-K`` in the constant-curvature model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComparisonParams",
    "PoleBeyond",
    "RotSymModel",
    "RiccatiResult",
    "laplace_upper_negative_boundary",
    "hessian_upper_negative_boundary",
    "laplace_upper_positive_boundary",
    "hessian_lower_focal",
    "laplace_lower_focal",
    "riccati_oracle",
    "index_form",
    "optimal_index_profile",
    "barrier_curve_rows",
]

K_FLAT_EPS = 1e-10  # below this the explicit K -> 0 limit formulas are used
BLOWUP_THRESHOLD = 1e8
RICCATI_STEP = 1e-4  # RK4 step of the Riccati oracle per unit of max(1, rho)
SIMPSON_PANELS = 10_000  # even: composite Simpson panels of the index form


@dataclass(frozen=True)
class ComparisonParams:
    """Inputs of the comparison barriers.

    K >= 0 scales the curvature lower bound, Lambda >= 0 the boundary
    bound, rho >= 0 the distance, r_f > 0 the focal radius.
    """

    n: int
    K: float = 0.0
    Lambda: float = 0.0
    rho: float = 0.0
    r_f: float = 1.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        if self.K < 0 or self.Lambda < 0 or self.rho < 0:
            raise ValueError("K, Lambda and rho must be nonnegative")
        if self.r_f <= 0:
            raise ValueError("focal radius must be positive")


def laplace_upper_negative_boundary(p: ComparisonParams) -> float:
    """Upper barrier for the Laplacian of the boundary distance under
    Ric >= -(n-1)K and mean curvature >= -Lambda."""
    m, L, rho = p.n - 1, p.Lambda, p.rho
    if p.K < K_FLAT_EPS:
        return m * L / (m + L * rho)
    s = math.sqrt(p.K)
    t = math.tanh(s * rho)
    return m * s * (L + m * s * t) / (m * s + L * t)


def hessian_upper_negative_boundary(p: ComparisonParams) -> float:
    """Upper barrier for the Hessian of the boundary distance under
    Sec >= -K and second fundamental form >= -Lambda."""
    L, rho = p.Lambda, p.rho
    if p.K < K_FLAT_EPS:
        return L / (1.0 + L * rho)
    s = math.sqrt(p.K)
    t = math.tanh(s * rho)
    return s * (L + s * t) / (s + L * t)


@dataclass(frozen=True)
class PoleBeyond:
    """Marker for the positive-boundary barrier past its finite-distance pole.

    ``rho_pole`` is artanh(sqrt(K)/Lambda)/sqrt(K); the barrier diverges to
    -infinity there, which is exactly the focal-radius mechanism.
    """

    rho_pole: float


def laplace_upper_positive_boundary(p: ComparisonParams):
    """Upper barrier for the Laplacian under Sec >= -K and a *positive*
    boundary convexity lower bound A >= Lambda.  Returns the value while
    the denominator stays positive, else a :class:`PoleBeyond`."""
    if p.K <= 0:
        raise ValueError("the positive-boundary barrier needs K > 0")
    m, L = p.n - 1, p.Lambda
    s = math.sqrt(p.K)
    t = math.tanh(s * p.rho)
    den = s - L * t
    if den <= 0:
        return PoleBeyond(math.atanh(s / L) / s)
    return m * s * (s * t - L) / den


def hessian_lower_focal(p: ComparisonParams) -> float:
    """Constant lower barrier for the Hessian of the distance function,
    valid for rho <= r_f / 2 (the caller owns the validity region)."""
    if p.K < K_FLAT_EPS:
        return -2.0 / p.r_f
    s = math.sqrt(p.K)
    return -s / math.tanh(0.5 * p.r_f * s)


def laplace_lower_focal(p: ComparisonParams) -> float:
    """Constant lower barrier for the Laplacian, valid for rho <= r_f / 2."""
    return (p.n - 1) * hessian_lower_focal(p)


# -- Riccati oracle -----------------------------------------------------


@dataclass(frozen=True)
class RotSymModel:
    """Rotationally symmetric comparison model for the oracle.

    ``K`` gives constant radial sectional curvature ``-K``; pass a callable
    ``radial_curvature(rho)`` instead for a warped profile (its value is
    the actual sectional curvature of radial planes, +1 on the sphere).
    ``A0`` is the boundary second fundamental form in the outward-normal
    convention: a scalar (umbilic) or a vector/matrix of principal values.
    """

    n: int
    K: float = 0.0
    A0: object = 0.0
    radial_curvature: object = None

    def curvature_fn(self):
        if self.radial_curvature is not None:
            return self.radial_curvature
        K = self.K
        return lambda rho: -K

    def initial_hessian_eigs(self) -> np.ndarray:
        A = np.asarray(self.A0, dtype=float)
        m = self.n - 1
        if A.ndim == 0:
            eigs = np.full(m, float(A))
        elif A.ndim == 1:
            if A.shape != (m,):
                raise ValueError(f"expected {m} principal values, got {A.shape}")
            eigs = A
        elif A.ndim == 2:
            if A.shape != (m, m):
                raise ValueError(f"expected a {m} x {m} form, got {A.shape}")
            if not np.allclose(A, A.T, atol=1e-12):
                raise ValueError("boundary form must be symmetric")
            eigs = np.linalg.eigvalsh(A)
        else:
            raise ValueError("A0 must be a scalar, vector or matrix")
        return -eigs  # W(0) = -A0


@dataclass
class RiccatiResult:
    """Either the Laplacian value trace(W)(rho) or a focal crossing location."""

    rho: float
    trace: float | None
    crossing: float | None

    @property
    def crossed(self) -> bool:
        return self.crossing is not None


def _rk4(f, y, x, h):
    k1 = f(x, y)
    k2 = f(x + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(x + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(x + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_U_SWITCH = 0.1  # |w| >= 1/_U_SWITCH is integrated in the inverse variable


def _integrate_scalar(w0: float, kfn, rho: float, step: float):
    """Integrate w' = -w^2 - K_rad(rho) from w(0) = w0.

    Returns (w(rho), None), or (None, crossing) when w reaches -infinity
    inside [0, rho].  Whenever |w| >= 10 the inverse variable u = 1/w is
    integrated instead (u' = 1 + K_rad u^2, smooth through the pole u = 0),
    so the pole location is resolved by bisection to ~1e-9; w -> +infinity
    cannot occur forward in rho since w' < 0 for large positive w.
    """
    f = lambda x, w: -w * w - kfn(x)
    fu = lambda x, u: 1.0 + kfn(x) * u * u
    steps = max(1, int(math.ceil(rho / step)))
    h = rho / steps
    x = 0.0
    in_u = abs(w0) >= 1.0 / _U_SWITCH
    y = 1.0 / w0 if in_u else w0
    for _ in range(steps):
        if in_u:
            y_new = _rk4(fu, y, x, h)
            if y < 0.0 <= y_new:  # pole of w: u rises through zero
                a, b, ua = x, x + h, y
                while b - a > 1e-12:
                    mid = 0.5 * (a + b)
                    um = _rk4(fu, ua, a, mid - a)
                    if um >= 0.0:
                        b = mid
                    else:
                        a, ua = mid, um
                return None, 0.5 * (a + b)
            if abs(y_new) > _U_SWITCH:
                y_new, in_u = 1.0 / y_new, False
        else:
            y_new = _rk4(f, y, x, h)
            if abs(y_new) >= 1.0 / _U_SWITCH:
                y_new, in_u = 1.0 / y_new, True
        y, x = y_new, x + h
    w = 1.0 / y if in_u else y
    if abs(w) > BLOWUP_THRESHOLD:
        # pole sits just beyond rho; u' ~ 1 gives its first-order location
        return None, rho - (y if in_u else 1.0 / y)
    return w, None


def riccati_oracle(model: RotSymModel, rho: float) -> RiccatiResult:
    """Integrate the level-set Hessian Riccati flow up to distance rho.

    The state diagonalises in the eigenbasis of A0 and is integrated per
    eigenvalue with fixed-step RK4, the step at most RICCATI_STEP max(1, rho).
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if rho == 0:
        eigs = model.initial_hessian_eigs()
        return RiccatiResult(0.0, float(np.sum(eigs)), None)
    h = RICCATI_STEP * max(1.0, rho)
    kfn = model.curvature_fn()
    eigs = model.initial_hessian_eigs()
    total = 0.0
    earliest = None
    for w0 in eigs:
        w, crossing = _integrate_scalar(float(w0), kfn, rho, h)
        if crossing is not None:
            earliest = crossing if earliest is None else min(earliest, crossing)
        else:
            total += w
    if earliest is not None:
        return RiccatiResult(rho, None, earliest)
    return RiccatiResult(rho, total, None)


# -- reduced index form -------------------------------------------------


def index_form(profile, p: ComparisonParams, derivative=None) -> float:
    """Composite-Simpson value (SIMPSON_PANELS panels) of the reduced second-variation functional

        int_0^1 ((n-1) f'^2 + (n-1) K rho^2 f^2) dt + f(0)^2 Lambda rho

    over profiles with f(1) = 1.  ``derivative`` may be supplied; a central
    difference is used otherwise.
    """
    f = profile
    if abs(f(1.0) - 1.0) > 1e-9:
        raise ValueError(f"profile must satisfy f(1) = 1, got {f(1.0)}")
    if derivative is None:
        eps = 1e-6

        def derivative(t):
            a, b = max(0.0, t - eps), min(1.0, t + eps)
            return (f(b) - f(a)) / (b - a)

    m = p.n - 1
    ts = np.linspace(0.0, 1.0, SIMPSON_PANELS + 1)
    fv = np.array([f(t) for t in ts])
    dv = np.array([derivative(t) for t in ts])
    integrand = m * dv**2 + m * p.K * p.rho**2 * fv**2
    wts = np.ones(SIMPSON_PANELS + 1)
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    integral = (1.0 / SIMPSON_PANELS) / 3.0 * float(wts @ integrand)
    return integral + fv[0] ** 2 * p.Lambda * p.rho


def optimal_index_profile(p: ComparisonParams):
    """The sinh/cosh minimiser of the reduced functional; returns (f, f')."""
    lam = math.sqrt(p.K) * p.rho
    if p.K < K_FLAT_EPS:
        # flat limit: linear profile (Lambda rho t + (n-1)) / (Lambda rho + (n-1))
        m = p.n - 1
        den = p.Lambda * p.rho + m

        def f(t):
            return (p.Lambda * p.rho * t + m) / den

        def fp(t):
            return p.Lambda * p.rho / den

        return f, fp
    if p.Lambda == 0:

        def f(t):
            return math.cosh(lam * t) / math.cosh(lam)

        def fp(t):
            return lam * math.sinh(lam * t) / math.cosh(lam)

        return f, fp
    mu = (p.n - 1) * math.sqrt(p.K) / p.Lambda
    den = math.sinh(lam) + mu * math.cosh(lam)

    def f(t):
        return (math.sinh(lam * t) + mu * math.cosh(lam * t)) / den

    def fp(t):
        return lam * (math.cosh(lam * t) + mu * math.sinh(lam * t)) / den

    return f, fp


def barrier_curve_rows(p: ComparisonParams, rhos) -> list[tuple[float, float, float, float]]:
    """(rho, barrier, oracle, margin) rows for CSV emission.

    The oracle is run in the umbilic model with A0 = -Lambda/(n-1), whose
    mean curvature matches the barrier hypothesis H >= -Lambda.
    """
    model = RotSymModel(n=p.n, K=p.K, A0=-p.Lambda / (p.n - 1))
    rows = []
    for rho in rhos:
        q = ComparisonParams(p.n, p.K, p.Lambda, float(rho), p.r_f)
        barrier = laplace_upper_negative_boundary(q)
        res = riccati_oracle(model, float(rho))
        oracle = res.trace if res.trace is not None else float("-inf")
        rows.append((float(rho), barrier, oracle, barrier - oracle))
    return rows
