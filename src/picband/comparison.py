"""Closed-form Hessian/Laplace comparison barriers and a Riccati ODE oracle.

The barriers bound the Hessian and Laplacian of the distance function from
a hypersurface under lower curvature bounds ``Sec >= -K`` or
``Ric >= -(n-1)K`` and boundary convexity bounds.  The oracle integrates
the Riccati equation satisfied by the level-set Hessian along inward normal
geodesics and is the independent ground truth for the barriers.  In a
rotationally symmetric model that matrix equation diagonalises in the
eigenbasis of ``A0``, so the oracle integrates one scalar equation per
distinct principal value, with fixed-step RK4, as the Jacobi field
J'' = -K_rad J whose ratio J'/J is the principal value and whose zero is
the focal point.  For a constant K_rad = -K <= 0 a segment of N steps is
the N-th power of one RK4 step matrix, formed by binary powering in
O(log N) operations; a warped ``radial_curvature`` (and a constant K < 0)
takes the N steps one by one.  `verify comparison --draws 40` takes about
4 ms in process this way, against 96 ms step by step (best of 7, 2-core
Xeon, Python 3.11).  A non-finite ``A0`` is a ValueError, and so is a curvature
past the RK4 step limit, constant or warped.

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
    "laplace_upper_positive_boundary",
    "hessian_lower_focal",
    "laplace_lower_focal",
    "riccati_curve",
    "riccati_oracle",
    "barrier_curve_rows",
]

K_FLAT_EPS = 1e-10  # below this the explicit K -> 0 limit formulas are used
BLOWUP_THRESHOLD = 1e8
RICCATI_STEP = 1e-4  # RK4 step of the Riccati oracle per unit of max(1, rho)


@dataclass(frozen=True)
class ComparisonParams:
    """Inputs of the comparison barriers.

    K >= 0 scales the curvature lower bound, Lambda >= 0 the boundary
    bound, rho >= 0 the distance, each finite, and r_f > 0 is the focal
    radius.  Each test is written so that a NaN fails it.
    """

    n: int
    K: float = 0.0
    Lambda: float = 0.0
    rho: float = 0.0
    r_f: float = 1.0

    def __post_init__(self):
        if not self.n >= 2:
            raise ValueError("dimension must be at least 2")
        if not all(0 <= x < math.inf for x in (self.K, self.Lambda, self.rho)):
            raise ValueError("K, Lambda and rho must be finite and nonnegative")
        if not self.r_f > 0:
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


def _symmetric(M: np.ndarray) -> bool:
    """Whether the square matrix M is finite with max |M - M^T| <= 1e-12 max(1, max |M|): the
    symmetry rule of every matrix input that an eigvalsh reads, which sees only one triangle."""
    big = np.maximum.reduce(np.abs(M), axis=None)  # NaN if any entry is
    return bool(big < math.inf and np.maximum.reduce(np.abs(M - M.T), axis=None) <= 1e-12 * max(1.0, big))


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
        """K_rad for the oracle: the warped profile's callable, or the
        constant -K as a number, which at K >= 0 takes the powered route."""
        if self.radial_curvature is not None:
            return self.radial_curvature
        return float(-self.K)

    def initial_hessian_eigs(self) -> np.ndarray:
        A = np.asarray(self.A0, dtype=float)
        m = self.n - 1
        if not np.isfinite(A).all():
            # W(0) = -inf is a focal point at 0, where no Jacobi field
            # (1, w0) starts, and a NaN has no flow at all
            raise ValueError(f"A0 must be finite, got {self.A0!r}")
        if A.ndim == 0:
            eigs = np.full(m, float(A))
        elif A.ndim == 1:
            if A.shape != (m,):
                raise ValueError(f"expected {m} principal values, got {A.shape}")
            eigs = A
        elif A.ndim == 2:
            if A.shape != (m, m):
                raise ValueError(f"expected a {m} x {m} form, got {A.shape}")
            if not _symmetric(A):
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


def _check_step_limit(h: float, rho: float, k) -> None:
    """Raise ValueError when a finite K_rad value k, read at rho, breaks the RK4 step limit
    h^2 |K_rad| <= 1; a K_rad that is not finite drives the flow to NaN, which the
    integration reports at the next distance."""
    if abs(k) < math.inf and h * h * abs(k) > 1.0:
        raise ValueError(
            f"K_rad = {k:g} at rho = {rho:g} is past the oracle's RK4 step limit h^2 |K_rad| <= 1 at step h = {h:g}"
        )


def _scaled(a: float, b: float):
    """(a, b) times the power of two that puts max(|a|, |b|) in [1/2, 1): exact, and the
    flow reads only the ratio v/u and the sign of u, so nothing it reports moves."""
    e = math.frexp(max(abs(a), abs(b)))[1]
    return math.ldexp(a, -e), math.ldexp(b, -e)


def _rk4_step(u, v, h, ka, kb, kc):
    """One classical RK4 step of h for (u, v)' = (v, -K_rad u); ka, kb, kc are K_rad at
    x, x + h/2 and x + h.  The operations are a generic RK4 step's on the pair."""
    hh, h6 = 0.5 * h, h / 6.0
    a1 = -ka * u
    u2, v2 = u + hh * v, v + hh * a1
    a2 = -kb * u2
    u3, v3 = u + hh * v2, v + hh * a2
    a3 = -kb * u3
    u4, v4 = u + h * v3, v + h * a3
    return u + h6 * (v + 2.0 * v2 + 2.0 * v3 + v4), v + h6 * (a1 + 2.0 * a2 + 2.0 * a3 - kc * u4)


def _stepped(u, v, kfn, x, h, steps):
    """The per-step route: up to ``steps`` RK4 steps of h from x, with K_rad the callable
    kfn read at each stage, within the step limit.  Returns (k, x_k, u_k, v_k) for the
    first k whose next step takes u to a finite value <= 0, else for k = steps."""
    h2, kc = h * h, kfn(x)
    _check_step_limit(h, x, kc)
    for k in range(steps):
        # x + h is the next step's x, so its K_rad is reused there
        ka, kb, kc = kc, kfn(x + 0.5 * h), kfn(x + h)
        if h2 * abs(kb) > 1.0 or h2 * abs(kc) > 1.0:
            _check_step_limit(h, x + 0.5 * h, kb)
            _check_step_limit(h, x + h, kc)
        u_new, v_new = _rk4_step(u, v, h, ka, kb, kc)
        if u_new <= 0.0 and math.isfinite(u_new) and math.isfinite(v_new):
            return k, x, u, v
        u, v, x = u_new, v_new, x + h
        # within the step limit a step scales the pair by at most about e
        if not 2.0 ** -500 < abs(u) + abs(v) < 2.0 ** 500:
            u, v = _scaled(u, v)
    return steps, x, u, v


def _taylor(c: float, h: float):
    """(p, q) of the RK4 step T = pI + qA of (u, v)' = A(u, v), A = [[0, 1], [-c, 0]]: as
    A^2 = -cI, the degree-4 Taylor polynomial of e^{hA}, which RK4 is on a linear system."""
    hc = c * h * h
    return 1.0 - 0.5 * hc + hc * hc / 24.0, h - hc * h / 6.0


def _apply(c: float, t, u, v):
    """t = (p, q), that is pI + qA, applied to the state (u, v), scaled by a power of two."""
    return _scaled(t[0] * u + t[1] * v, t[0] * v - c * t[1] * u)


def _powered(u, v, c, x, h, steps):
    """The route of a constant K_rad = c <= 0, with :func:`_stepped`'s return value, in
    O(log steps) operations.  T's eigenvalues p +- q sqrt(-c) are the degree-4 Taylor
    polynomials of e^{+-h sqrt(-c)}, positive for every real argument, so u_k = a l+^k +
    b l-^k (u + khv at c = 0) changes sign at most once: a binary search over the powers
    T^(2^j), each the last one squared and scaled, finds the last k <= steps with u_k > 0."""
    powers = [_taylor(c, h)]
    while 2 ** len(powers) <= steps:
        p, q = powers[-1]
        powers.append(_scaled(p * p - c * q * q, 2.0 * p * q))
    k = 0
    for j in reversed(range(len(powers))):
        if k + 2 ** j <= steps:
            u_j, v_j = _apply(c, powers[j], u, v)
            if u_j > 0.0:
                k, u, v = k + 2 ** j, u_j, v_j
    return k, x + k * h, u, v


def _integrate_scalar(w0: float, krad, rhos, step: float):
    """Integrate w' = -w^2 - K_rad(rho) from w(0) = w0 out to each of the non-decreasing
    radii rhos, in one pass, as w = v/u for the Jacobi field (u, v)' = (v, -K_rad u) from
    (1, w0); a focal point is a zero of u.  ``krad`` is K_rad as a callable of rho, or as a
    number when it is constant: a constant <= 0 takes :func:`_powered`, any other K_rad
    :func:`_stepped`.  Each segment between consecutive radii (the first from 0) takes the
    fewest equal RK4 steps of at most ``step``, none at length 0, and a bisection of the
    first step that takes u to <= 0 locates the crossing to 1e-12.  Returns (w(rho), None)
    or (None, crossing) per radius; a |w| past BLOWUP_THRESHOLD reports the pole at
    rho - u/v, just beyond rho, and every radius past a pole reports it.  A state that is
    not finite at a radius (a K_rad that is not finite) is a ValueError."""
    if callable(krad) or not krad <= 0.0:
        kfn = krad if callable(krad) else (lambda _: krad)
        route, k_rad, sub = _stepped, kfn, lambda u, v, a, g: _rk4_step(u, v, g, kfn(a), kfn(a + 0.5 * g), kfn(a + g))
    else:
        route, k_rad, sub = _powered, krad, lambda u, v, a, g: _apply(krad, _taylor(krad, g), u, v)
    out = []
    u, v, start, pole = 1.0, w0, 0.0, None
    for rho in rhos:
        if pole is None and rho > start:
            steps = int(math.ceil((rho - start) / step))
            h = (rho - start) / steps
            k, a, u, v = route(u, v, k_rad, start, h, steps)
            if k < steps:
                b = a + h
                # past 8192 adjacent floats are more than 1e-12 apart
                while b - a > 1e-12 and a < 0.5 * (a + b) < b:
                    mid = 0.5 * (a + b)
                    um, vm = sub(u, v, a, mid - a)
                    if um <= 0.0:
                        b = mid
                    else:
                        a, u, v = mid, um, vm
                pole = 0.5 * (a + b)
            start = rho
        if pole is not None:
            out.append((None, pole))
        elif not (abs(u) < math.inf and abs(v) < math.inf):
            raise ValueError(f"the Riccati flow is NaN at rho = {rho:g}: K_rad is not finite or past the step limit")
        elif abs(v / u) > BLOWUP_THRESHOLD:
            out.append((None, rho - u / v))
        else:
            out.append((v / u, None))
    return out


def riccati_curve(model: RotSymModel, rhos) -> list[RiccatiResult]:
    """The level-set Hessian Riccati flow read off at each of the
    non-decreasing distances rhos: one RiccatiResult per distance.

    The matrix flow diagonalises in the eigenbasis of A0, so it is one
    scalar Riccati equation per principal value, integrated with
    fixed-step RK4, the step h at most RICCATI_STEP max(1, max(rhos)).  A
    constant-curvature model with K >= 0 passes its K_rad = -K to the
    integration as a number, and each segment between distances costs
    O(log(segment / h)) operations; a warped ``radial_curvature`` is called
    twice per step.  Each distinct principal value is integrated once, in a
    single trajectory through every distance, however many distances are
    asked for; a distance's trace still adds one value per eigenvalue in
    eigenvalue order, so it is the sum a per-eigenvalue loop would give,
    to the last bit.  A distance of 0 gives trace(W(0)) = -trace(A0).

    RK4 at a fixed step is stable and accurate only while h sqrt|K_rad|
    stays small.  A constant-curvature model with h sqrt|K| > 1 (about
    |K| > 1e8 for distances up to 1) raises ValueError instead of
    returning numbers that are not a solution, and so does a warped
    ``radial_curvature`` at the first finite value a step reads with
    h^2 |K_rad| > 1; the error names that value and its radius.
    A negative or decreasing distance is a ValueError too, and so are a
    non-finite A0 and a warped ``radial_curvature`` that drives the flow to
    NaN or infinity (checked at each distance).
    """
    rhos = [float(rho) for rho in rhos]
    if rhos and not rhos[0] >= 0:
        raise ValueError("rho must be nonnegative")
    if not all(a <= b for a, b in zip(rhos, rhos[1:])):
        raise ValueError("distances must be non-decreasing")
    h = RICCATI_STEP * max(1.0, max(rhos, default=0.0))
    if model.radial_curvature is None and not h * math.sqrt(abs(model.K)) <= 1.0:
        raise ValueError(
            f"K = {model.K:g} is past the oracle's RK4 step limit h sqrt|K| <= 1 at step h = {h:g}"
        )
    eigs = model.initial_hessian_eigs()
    krad = model.curvature_fn()
    w0s = eigs.tolist()
    by_value = {}
    for w0 in w0s:
        if w0 not in by_value:
            by_value[w0] = _integrate_scalar(w0, krad, rhos, h)
    results = []
    for i, rho in enumerate(rhos):
        if rho == 0:
            results.append(RiccatiResult(0.0, float(np.sum(eigs)), None))
            continue
        total = 0.0
        earliest = None
        for w0 in w0s:
            w, crossing = by_value[w0][i]
            if crossing is not None:
                earliest = crossing if earliest is None else min(earliest, crossing)
            else:
                total += w
        if earliest is not None:
            results.append(RiccatiResult(rho, None, earliest))
        else:
            results.append(RiccatiResult(rho, total, None))
    return results


def riccati_oracle(model: RotSymModel, rho: float) -> RiccatiResult:
    """Integrate the level-set Hessian Riccati flow up to distance rho:
    the one-distance :func:`riccati_curve`, with its step h = RICCATI_STEP
    max(1, rho), its step limit and its error for a negative rho."""
    return riccati_curve(model, [rho])[0]


def barrier_curve_rows(p: ComparisonParams, rhos) -> list[tuple[float, float, float, float]]:
    """(rho, barrier, oracle, margin) rows for CSV emission, at
    non-decreasing rhos.

    The oracle is run in the umbilic model with A0 = -Lambda/(n-1), whose
    mean curvature matches the barrier hypothesis H >= -Lambda; it is one
    :func:`riccati_curve` through every rho, so the whole curve costs one
    trajectory at the step of its largest rho.
    """
    model = RotSymModel(n=p.n, K=p.K, A0=-p.Lambda / (p.n - 1))
    rhos = [float(rho) for rho in rhos]
    rows = []
    for rho, res in zip(rhos, riccati_curve(model, rhos)):
        barrier = laplace_upper_negative_boundary(ComparisonParams(p.n, p.K, p.Lambda, rho, p.r_f))
        oracle = res.trace if res.trace is not None else float("-inf")
        rows.append((rho, barrier, oracle, barrier - oracle))
    return rows
