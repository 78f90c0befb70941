"""Closed-form Hessian/Laplace comparison barriers and a Riccati ODE oracle.

The barriers bound the Hessian and Laplacian of the distance function from
a hypersurface under lower curvature bounds ``Sec >= -K`` or
``Ric >= -(n-1)K`` and boundary convexity bounds.  The oracle integrates
the Riccati equation satisfied by the level-set Hessian along inward normal
geodesics and is the independent ground truth for the barriers.  In a
rotationally symmetric model that matrix equation diagonalises in the
eigenbasis of ``A0``, so the oracle integrates one scalar equation per
distinct principal value, with fixed-step RK4.  A constant-curvature
model's steps make no per-step calls; a non-finite ``A0`` is a ValueError,
and so is a curvature past the RK4 step limit, constant or warped.

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
        constant -K as a number, whose RK4 steps then call nothing."""
        if self.radial_curvature is not None:
            return self.radial_curvature
        return float(-self.K)

    def initial_hessian_eigs(self) -> np.ndarray:
        A = np.asarray(self.A0, dtype=float)
        m = self.n - 1
        if not np.isfinite(A).all():
            # W(0) = -inf is a focal point at 0 that the inverse variable
            # (u = -0.0) would miss, and a NaN has no flow at all
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


_U_SWITCH = 0.1  # |w| >= 1/_U_SWITCH is integrated in the inverse variable


def _u_step(u, h, ka, kb, kc):
    """One classical RK4 step of u' = 1 + K_rad u^2 for u = 1/w; ka, kb, kc
    are K_rad at x, x + h/2 and x + h.  The step of :func:`_integrate_scalar`
    in the inverse variable and of its pole bisection."""
    k1 = 1.0 + ka * u * u
    u2 = u + (0.5 * h) * k1
    k2 = 1.0 + kb * u2 * u2
    u3 = u + (0.5 * h) * k2
    k3 = 1.0 + kb * u3 * u3
    u4 = u + h * k3
    k4 = 1.0 + kc * u4 * u4
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_step_limit(h: float, rho: float, k) -> None:
    """Raise ValueError when a finite K_rad value k, read at rho, breaks the RK4 step limit
    h^2 |K_rad| <= 1; a K_rad that is not finite drives the flow to NaN, which the
    integration reports at the next distance."""
    if abs(k) < math.inf and h * h * abs(k) > 1.0:
        raise ValueError(
            f"K_rad = {k:g} at rho = {rho:g} is past the oracle's RK4 step limit h^2 |K_rad| <= 1 at step h = {h:g}"
        )


def _switch(y: float) -> float:
    """The other variable, 1/y, at a switch between w and u = 1/w.  An
    infinite y (a K_rad that is not finite) gives NaN, which the readout
    reports, where 1/y would pass on a finite 0."""
    return 1.0 / y if abs(y) < math.inf else math.nan


def _integrate_scalar(w0: float, krad, rhos, step: float):
    """Integrate w' = -w^2 - K_rad(rho) from w(0) = w0 out to each of the
    non-decreasing radii rhos, in one pass.

    ``krad`` is K_rad as a callable of rho, or as a number when it is
    constant; a constant's steps call nothing.  Returns one (w(rho), None)
    or (None, crossing) per radius; a radius whose |w| exceeds
    BLOWUP_THRESHOLD reports the first-order location of the pole just
    beyond it, and once a pole is found every later radius reports it.
    Each segment between consecutive radii (the first from 0) takes the
    fewest equal steps of at most ``step``; a segment of length 0 takes
    none.  Whenever |w| >= 10 the inverse variable u = 1/w is integrated
    instead (u' = 1 + K_rad u^2, smooth through the pole u = 0), so the
    pole location is resolved by bisection to ~1e-9; w -> +infinity cannot
    occur forward in rho since w' < 0 for large positive w.  A state that
    is NaN at a radius (a K_rad that is not finite) is a ValueError, and so
    is one that was infinite at a switch of variable, and so
    is a finite K_rad value that a step of a callable reads past the step
    limit h^2 |K_rad| <= 1.

    Each step is classical RK4 in the variable in use, with the operations
    in the order of a generic RK4 step on each right-hand side, so the
    result is that step's to the last bit: :func:`_u_step` in u, and the
    same arithmetic written out in w, where most steps are taken.
    """
    varying = callable(krad)
    kfn = krad if varying else (lambda _: krad)  # the bisection's K_rad
    ka = kb = kc = krad  # a constant's K_rad at every stage; a callable's is read per step
    w_max, u_max = 1.0 / _U_SWITCH, _U_SWITCH
    out = []
    start, pole = 0.0, None
    in_u = abs(w0) >= w_max
    y = 1.0 / w0 if in_u else w0
    for rho in rhos:
        if pole is None and rho > start:
            steps = int(math.ceil((rho - start) / step))
            h = (rho - start) / steps
            hh, h6 = 0.5 * h, h / 6.0
            x = start
            if varying:
                h2, kc = h * h, krad(x)
                _check_step_limit(h, x, kc)
            for _ in range(steps):
                if varying:
                    # x + h is the next step's x, so its K_rad is reused there
                    ka, kb, kc = kc, krad(x + hh), krad(x + h)
                    if h2 * abs(kb) > 1.0 or h2 * abs(kc) > 1.0:
                        _check_step_limit(h, x + hh, kb)
                        _check_step_limit(h, x + h, kc)
                if in_u:
                    y_new = _u_step(y, h, ka, kb, kc)
                    # pole of w: u rises through zero to a finite value; a u that
                    # jumps to +inf read an infinite K_rad and falls through to
                    # the switch, whose NaN the readout reports
                    if y < 0.0 <= y_new < math.inf:
                        a, b, ua = x, x + h, y
                        while b - a > 1e-12:
                            mid = 0.5 * (a + b)
                            g = mid - a
                            um = _u_step(ua, g, kfn(a), kfn(a + 0.5 * g), kfn(a + g))
                            if um >= 0.0:
                                b = mid
                            else:
                                a, ua = mid, um
                        pole = 0.5 * (a + b)
                        break
                    if abs(y_new) > u_max:
                        y_new, in_u = _switch(y_new), False
                else:
                    # w' = -w^2 - K_rad
                    k1 = -y * y - ka
                    t = y + hh * k1
                    k2 = -t * t - kb
                    t = y + hh * k2
                    k3 = -t * t - kb
                    t = y + h * k3
                    y_new = y + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + (-t * t - kc))
                    if abs(y_new) >= w_max:
                        y_new, in_u = _switch(y_new), True
                y, x = y_new, x + h
            start = rho
        if pole is not None:
            out.append((None, pole))
            continue
        w = 1.0 / y if in_u else y
        if w != w:
            raise ValueError(f"the Riccati flow is NaN at rho = {rho:g}: K_rad is not finite or past the step limit")
        if abs(w) > BLOWUP_THRESHOLD:
            # pole sits just beyond rho; u' ~ 1 gives its first-order location
            out.append((None, rho - (y if in_u else 1.0 / y)))
        else:
            out.append((w, None))
    return out


def riccati_curve(model: RotSymModel, rhos) -> list[RiccatiResult]:
    """The level-set Hessian Riccati flow read off at each of the
    non-decreasing distances rhos: one RiccatiResult per distance.

    The matrix flow diagonalises in the eigenbasis of A0, so it is one
    scalar Riccati equation per principal value, integrated with
    fixed-step RK4, the step h at most RICCATI_STEP max(1, max(rhos)).  A
    constant-curvature model passes its K_rad = -K to the integration as a
    number, so its RK4 steps make no per-step calls; a warped
    ``radial_curvature`` is called twice per step.  Each distinct
    principal value is integrated once, in a
    single trajectory through every distance (an umbilic A0 costs one
    integration of about max(rhos) / h steps, however many distances are
    asked for); a distance's trace still adds one value per eigenvalue in
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
