"""Finite-difference verification of integral identities on flat bands.

The band is [0, L] x T^{n-1}: one radial axis with second-order one-sided
stencils at the two torus leaves, and periodic transverse axes where the
centred stencil makes discrete summation by parts *exact*.  On the flat
metric every operator acts componentwise on the coefficient functions, so
d, d*, the Dirac operator and their twisted versions are short compositions
of axis derivatives with the pointwise exterior/Clifford index operations.
d, d*, the Clifford multiplications and the Weitzenboeck contractions all
run through one key action, ``_key_action``.

A field component is stored at the broadcast shape of the axes it varies
on: a trig-field term has size 1 on every axis it has no factor on, and
numpy broadcasting carries that through the operators.  The radial
derivative materialises a size-1 radial axis (its one-sided stencil does
not cancel exactly in floats); only the integrals materialise the full
grid, so their summation order does not depend on the storage.

The Laplacian is deliberately the square of the first-derivative stencil,
not the compact 3-point one: this keeps the discrete Green identities exact
in the periodic directions, leaving pure O(h^2) radial residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import exterior
from .exterior import FormElement, _checked_key

__all__ = [
    "FlatBandGrid",
    "FormField",
    "d_grid",
    "dstar_grid",
    "laplacian_grid",
    "dirac_grid",
    "D_f_grid",
    "green_residual_dirac",
    "green_residual_laplace",
    "twisted_weitzenboeck_residual",
    "conjugation_residual",
    "chi_eigenform_boundary_identity",
    "contraction_trace_identity",
    "trig_field",
    "random_field",
    "convergence_order",
    "paired_test_fields",
    "load_grid_config",
]

WEITZ_EDGE_NODES = 2  # radial nodes left out at each end (one-sided stencils)
STUDY_L = 2.0  # band width of the convergence studies
STUDY_DRAWS = 6  # field draws averaged per refinement


def _full(data: np.ndarray, shape) -> np.ndarray:
    """data broadcast to shape as a contiguous array: a reduction over it
    sums in the same order whatever shape data is stored at."""
    return np.ascontiguousarray(np.broadcast_to(data, shape))


@dataclass(frozen=True)
class FlatBandGrid:
    """Uniform grid on [0, L] x T^{n-1} (unit transverse circles)."""

    n: int
    L: float
    N_r: int
    N_t: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("band dimension must be at least 2")
        if self.N_r < 8:
            raise ValueError("need at least 8 radial points")
        if self.N_t < 4:
            raise ValueError("need at least 4 transverse points")
        if self.L <= 0:
            raise ValueError("band length must be positive")

    @property
    def h(self) -> float:
        return self.L / (self.N_r - 1)

    @property
    def ht(self) -> float:
        return 1.0 / self.N_t

    @property
    def shape(self):
        return (self.N_r,) + (self.N_t,) * (self.n - 1)

    def axes(self):
        xs = [np.linspace(0.0, self.L, self.N_r)]
        xs += [np.arange(self.N_t) * self.ht for _ in range(self.n - 1)]
        return np.meshgrid(*xs, indexing="ij")

    def deriv(self, data: np.ndarray, axis: int) -> np.ndarray:
        """Second-order first derivative along an axis; axis 0 is radial
        (one-sided at the ends), the rest are periodic.  A size-1 periodic
        axis stays size 1 (its difference is 0, or NaN for a non-finite
        value); a size-1 radial axis is materialised first."""
        if axis == 0:
            h = self.h
            data = np.broadcast_to(data, (self.N_r,) + data.shape[1:])
            out = np.empty(data.shape, dtype=data.dtype)
            out[1:-1] = (data[2:] - data[:-2]) / (2 * h)
            out[0] = (-3 * data[0] + 4 * data[1] - data[2]) / (2 * h)
            out[-1] = (3 * data[-1] - 4 * data[-2] + data[-3]) / (2 * h)
            return out
        return (np.roll(data, -1, axis=axis) - np.roll(data, 1, axis=axis)) / (2 * self.ht)

    def integrate(self, data: np.ndarray) -> complex:
        """Trapezoid radially, exact periodic sums transversally."""
        w = np.ones(self.N_r)
        w[0] = w[-1] = 0.5
        radial = np.tensordot(w, _full(data, self.shape), axes=(0, 0)) * self.h
        return complex(radial.sum() * self.ht ** (self.n - 1))

    def integrate_boundary(self, data0: np.ndarray, data1: np.ndarray) -> complex:
        """Sum of both torus-leaf integrals (radial slices 0 and -1)."""
        leaf = self.shape[1:]
        return complex((_full(data0, leaf).sum() + _full(data1, leaf).sum()) * self.ht ** (self.n - 1))


class FormField:
    """A form-valued field: one complex array per multi-index.  Keys given
    out of order are normalised like :class:`FormElement` keys, and like
    them must hold indices in 1..n.  A component has n axes, each of the
    grid's size or of size 1 (constant along that axis)."""

    __slots__ = ("grid", "data")

    def __init__(self, grid: FlatBandGrid, data=None):
        self.grid = grid
        self.data = {}
        if data:
            for key, arr in data.items():
                arr = np.asarray(arr, dtype=complex)
                if arr.ndim != grid.n or any(a not in (1, m) for a, m in zip(arr.shape, grid.shape)):
                    raise ValueError(f"component {key} has shape {arr.shape}, expected {grid.shape} or 1 per axis")
                hit = exterior.wedge_keys(_checked_key(grid.n, tuple(key)))
                if hit is not None:
                    self._acc(hit[0], hit[1] * arr)

    def copy(self) -> "FormField":
        out = FormField(self.grid)
        out.data = {k: v.copy() for k, v in self.data.items()}
        return out

    def _acc(self, key, arr):
        if key in self.data:
            self.data[key] = self.data[key] + arr
        else:
            self.data[key] = arr

    def __add__(self, other: "FormField") -> "FormField":
        out = self.copy()
        for k, v in other.data.items():
            out._acc(k, v)
        return out

    def __sub__(self, other: "FormField") -> "FormField":
        out = self.copy()
        for k, v in other.data.items():
            out._acc(k, -v)
        return out

    def __mul__(self, s) -> "FormField":
        out = FormField(self.grid)
        out.data = {k: v * s for k, v in self.data.items()}
        return out

    __rmul__ = __mul__

    def pointwise_inner(self, other: "FormField") -> np.ndarray:
        """<self, other> at every node (Hermitian, linear in self)."""
        out = _zeros(self.grid)
        for k, v in self.data.items():
            w = other.data.get(k)
            if w is not None:
                out = out + v * np.conj(w)
        return out

    def sup_norm(self) -> float:
        if not self.data:
            return 0.0
        return max(float(np.max(np.abs(v))) for v in self.data.values())


def _zeros(g: FlatBandGrid) -> np.ndarray:
    """A complex zero that broadcasts against every component."""
    return np.zeros((1,) * g.n, dtype=complex)


def _key_action(F: FormField, ops, coef) -> FormField:
    """sum over (key_op, sign) in ops and j = 1..n of sign * key_op(j, .)
    applied to coef(j, component), walking the components of F in order
    and j inside each.  coef runs only on a hit; it returns None for an
    absent term."""
    g = F.grid
    out = FormField(g)
    for key, arr in F.data.items():
        for j in range(1, g.n + 1):
            for key_op, sign in ops:
                hit = key_op(j, key)
                if hit is None:
                    continue
                term = coef(j, arr)
                if term is not None:
                    out._acc(hit[0], sign * hit[1] * term)
    return out


def d_grid(F: FormField) -> FormField:
    """Exterior derivative: sum_j theta^j ^ d_j F."""
    return _key_action(F, ((exterior.wedge_key, 1),), lambda j, arr: F.grid.deriv(arr, j - 1))


def dstar_grid(F: FormField) -> FormField:
    """Codifferential on the flat band: -sum_j i_{e_j} d_j F."""
    return _key_action(F, ((exterior.interior_key, -1),), lambda j, arr: F.grid.deriv(arr, j - 1))


def laplacian_grid(F: FormField) -> FormField:
    """Componentwise flat Laplacian, built as the derivative stencil applied
    twice per axis (exact summation by parts transversally)."""
    g = F.grid
    out = FormField(g)
    for key, arr in F.data.items():
        total = _zeros(g)
        for axis in range(g.n):
            total = total + g.deriv(g.deriv(arr, axis), axis)
        out._acc(key, total)
    return out


def dirac_grid(F: FormField) -> FormField:
    """D = d + d* (equivalently sum_j c(e_j) d_j)."""
    return d_grid(F) + dstar_grid(F)


def _clifford_field(vec_components, F: FormField, sign: int) -> FormField:
    """Pointwise c (sign=-1) or ct (sign=+1) by a vector field given as a
    list of n scalars or arrays, None for a zero component."""

    def coef(j, arr):
        comp = vec_components[j - 1]
        return None if comp is None else comp * arr

    return _key_action(F, ((exterior.wedge_key, 1), (exterior.interior_key, sign)), coef)


def gradient_components(g: FlatBandGrid, f: np.ndarray):
    return [g.deriv(f, axis) for axis in range(g.n)]


def D_f_grid(F: FormField, f: np.ndarray) -> FormField:
    """Twisted Dirac operator D + ct(grad f) with f sampled on the grid."""
    grads = gradient_components(F.grid, np.asarray(f, dtype=complex))
    return dirac_grid(F) + _clifford_field(grads, F, +1)


def _boundary_term_dirac(alpha: FormField, beta: FormField) -> complex:
    """Integral of <c(nu) alpha, beta> over both leaves; nu = -e_1 at rho=0
    and +e_1 at rho=L."""
    g = alpha.grid
    e1 = [None] * g.n
    e1[0] = 1.0
    c_alpha = _clifford_field(e1, alpha, -1)
    inner = c_alpha.pointwise_inner(beta)
    return g.integrate_boundary(-inner[0], inner[-1])


def green_residual_dirac(alpha: FormField, beta: FormField, f: np.ndarray | None = None) -> float:
    """| int <D_f a, b> - int <a, D_f b> - oint <c(nu) a, b> |."""
    g = alpha.grid
    if f is None:
        f = _zeros(g)
    lhs = g.integrate(D_f_grid(alpha, f).pointwise_inner(beta))
    mid = g.integrate(alpha.pointwise_inner(D_f_grid(beta, f)))
    bdry = _boundary_term_dirac(alpha, beta)
    return abs(lhs - mid - bdry)


def green_residual_laplace(alpha: FormField, beta: FormField) -> float:
    """| -int <Lap a, b> - int <grad a, grad b> + oint <d_nu a, b> |."""
    g = alpha.grid
    lhs = -g.integrate(laplacian_grid(alpha).pointwise_inner(beta))
    grad_pair = _zeros(g)
    for axis in range(g.n):
        for key, arr in alpha.data.items():
            w = beta.data.get(key)
            if w is not None:
                grad_pair = grad_pair + g.deriv(arr, axis) * np.conj(g.deriv(w, axis))
    mid = g.integrate(grad_pair)
    normal_inner = _zeros(g)
    for key, arr in alpha.data.items():
        w = beta.data.get(key)
        if w is not None:
            normal_inner = normal_inner + g.deriv(arr, 0) * np.conj(w)
    bdry = g.integrate_boundary(-normal_inner[0], normal_inner[-1])
    return abs(lhs - mid + bdry)


def twisted_weitzenboeck_residual(omega: FormField, f: np.ndarray) -> float:
    """Sup-norm over interior nodes (all but WEITZ_EDGE_NODES at each radial
    end) of the pointwise defect of

        <D_f^2 w, w> = -<Lap w, w> + (|grad f|^2 - Lap f) |w|^2
                       + 2 sum_ij (Hess f)_ij <i_i w, i_j w>

    (the curvature term vanishes on the flat band)."""
    g = omega.grid
    f = np.asarray(f, dtype=float)
    lhs = D_f_grid(D_f_grid(omega, f), f).pointwise_inner(omega)
    rhs = -laplacian_grid(omega).pointwise_inner(omega)
    grads = gradient_components(g, f)
    hess = [[g.deriv(gr, j) for j in range(g.n)] for gr in grads]
    grad2 = sum(np.abs(gr) ** 2 for gr in grads)
    lapf = sum(hess[i][i] for i in range(g.n))
    norm2 = omega.pointwise_inner(omega).real
    rhs = rhs + (grad2 - lapf) * norm2
    # contr[i - 1] = i_{e_i} omega: the key action keeps only j = i
    contr = [
        _key_action(omega, ((exterior.interior_key, 1),), lambda j, arr: arr if j == i else None)
        for i in range(1, g.n + 1)
    ]
    for i in range(g.n):
        for j in range(g.n):
            rhs = rhs + 2.0 * hess[i][j] * contr[i].pointwise_inner(contr[j])
    defect = np.abs(lhs - rhs)
    return float(np.max(defect[WEITZ_EDGE_NODES:-WEITZ_EDGE_NODES]))


def conjugation_residual(omega: FormField, f: np.ndarray) -> float:
    """Sup-norm defect of D_f = e^{-f} d e^{f} + e^{f} d* e^{-f} on the grid."""
    f = np.asarray(f, dtype=float)
    ef, emf = np.exp(f), np.exp(-f)
    direct = D_f_grid(omega, f)
    conj = d_grid(omega * ef) * emf + dstar_grid(omega * emf) * ef
    return (direct - conj).sup_norm()


# -- pointwise boundary/trace identities --------------------------------


def chi_eigenform_boundary_identity(omega_boundary: FormElement, gradf, nu, sign: int) -> float:
    """Residual of <ct(grad f) c(nu) w, w> = sign (grad f . nu) |w|^2 for a
    chi-eigenform w with chi w = sign w."""
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    chi_w = exterior.chi_involution(nu, omega_boundary)
    defect = (chi_w - omega_boundary * float(sign)).norm()
    if defect > 1e-10 * max(1.0, omega_boundary.norm()):
        raise ValueError(f"form is not a chi-eigenform for sign {sign}: defect {defect:.2e}")
    lhs = exterior.inner(
        exterior.clifford_ct(gradf, exterior.clifford_c(nu, omega_boundary)), omega_boundary
    )
    rhs = sign * float(np.dot(np.asarray(gradf), np.asarray(nu))) * omega_boundary.norm2()
    return abs(lhs - rhs)


def contraction_trace_identity(H, omega: FormElement) -> float:
    """Residual of sum_ij H_ij (<i_i w, i_j w> + <theta^i ^ w, theta^j ^ w>)
    = trace(H) |w|^2; exact linear algebra, any degree."""
    H = np.asarray(H, dtype=float)
    n = omega.n
    if H.shape != (n, n):
        raise ValueError(f"H must be {n} x {n}")
    eye = np.eye(n)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if H[i, j] == 0:
                continue
            ii = exterior.inner(exterior.interior(eye[i], omega), exterior.interior(eye[j], omega))
            ww = exterior.inner(
                exterior.wedge(exterior.basis_form(n, i + 1), omega),
                exterior.wedge(exterior.basis_form(n, j + 1), omega),
            )
            total += H[i, j] * (ii + ww)
    return abs(total - np.trace(H) * omega.norm2())


# -- field constructors --------------------------------------------------


def trig_field(grid: FlatBandGrid, spec) -> FormField:
    """Build a form field from a trig-polynomial spec.

    spec: list of terms {"index": [..], "coef": [re, im], "factors":
    [{"axis": a, "kind": "sin"|"cos"|"const", "freq": k, "phase": p}, ...]}.
    Radial factors (axis 0) use frequency k as sin/cos(pi k x / L + phase);
    transverse axes use sin/cos(2 pi k y + phase) with integer k.  An index
    list in any order means theta^{i_1} ^ ... ^ theta^{i_k}, stored under
    its increasing key with the permutation's sign (zero if one repeats).
    A term is stored with size 1 on every axis it has no sin/cos factor on.
    An index outside 1..n, an axis outside 0..n-1 or a coef that is not
    [re] or [re, im] is a ValueError.
    """
    radial = np.linspace(0.0, grid.L, grid.N_r)
    transverse = np.arange(grid.N_t) * grid.ht
    out = FormField(grid)
    for term in spec:
        coef = term.get("coef", [1.0, 0.0])
        if len(coef) not in (1, 2):
            raise ValueError(f"coef must be [re] or [re, im], got {coef!r}")
        val = complex(coef[0], coef[1] if len(coef) > 1 else 0.0) * np.ones((1,) * grid.n, dtype=complex)
        for fac in term.get("factors", []):
            axis = int(fac["axis"])
            if not 0 <= axis < grid.n:
                raise ValueError(f"factor axis {axis} out of range 0..{grid.n - 1}")
            kind = fac.get("kind", "sin")
            freq = float(fac.get("freq", 1))
            phase = float(fac.get("phase", 0.0))
            if kind == "const":
                continue
            if kind not in ("sin", "cos"):
                raise ValueError(f"unknown factor kind {kind!r}")
            if axis == 0:
                arg = math.pi * freq * radial / grid.L + phase
            else:
                arg = 2.0 * math.pi * freq * transverse + phase
            # the factor on its own axis: the term keeps size 1 on the others
            val = val * (np.sin(arg) if kind == "sin" else np.cos(arg)).reshape(
                [-1 if a == axis else 1 for a in range(grid.n)]
            )
        hit = exterior.wedge_keys(_checked_key(grid.n, tuple(term["index"])))
        if hit is not None:
            key, sign = hit
            out._acc(key, sign * val)
    return out


def random_field(grid: FlatBandGrid, degree: int, rng, radial: bool = True) -> FormField:
    """Random smooth trig field of the given degree, two terms per component."""
    spec = []
    for key in combinations(range(1, grid.n + 1), degree):
        for _ in range(2):
            factors = []
            if radial:
                factors.append(
                    {"axis": 0, "kind": rng.choice(["sin", "cos"]), "freq": int(rng.integers(1, 3)),
                     "phase": float(rng.uniform(0, 2 * math.pi))}
                )
            for axis in range(1, grid.n):
                if rng.random() < 0.5:
                    factors.append(
                        {"axis": axis, "kind": rng.choice(["sin", "cos"]),
                         "freq": int(rng.integers(1, 3)), "phase": float(rng.uniform(0, 2 * math.pi))}
                    )
            spec.append(
                {"index": list(key),
                 "coef": [float(rng.standard_normal()), float(rng.standard_normal())],
                 "factors": factors}
            )
    return trig_field(grid, spec)


def _paired_field(g: FlatBandGrid, rng, *degrees: int) -> FormField:
    """One term per component of each degree: a random radial sine times
    the transverse factor all study fields share."""
    spec = []
    for degree in degrees:
        for key in combinations(range(1, g.n + 1), degree):
            spec.append(
                {"index": list(key),
                 "coef": [float(rng.standard_normal()), float(rng.standard_normal())],
                 "factors": [{"axis": 0, "kind": "sin", "freq": float(rng.uniform(0.5, 2.0)),
                              "phase": float(rng.uniform(0, 2 * math.pi))},
                             {"axis": 1, "kind": "cos", "freq": 1, "phase": 0.3}]}
            )
    return trig_field(g, spec)


def _radial_twist(g: FlatBandGrid) -> np.ndarray:
    x = np.linspace(0.0, g.L, g.N_r).reshape((-1,) + (1,) * (g.n - 1))
    return 0.4 * np.sin(math.pi * x / g.L) + 0.2 * (x / g.L) ** 2


def _study(kind: str):
    """(fields, residual) of a study kind.  The table is built per call, so
    the residual is whatever the module binds under its name at that time."""
    studies = {
        "dirac": (lambda g, rng: (_paired_field(g, rng, 2), _paired_field(g, rng, 1, 3)),
                  green_residual_dirac),
        "laplace": (lambda g, rng: (_paired_field(g, rng, 2), _paired_field(g, rng, 2)),
                    green_residual_laplace),
        "weitzenboeck": (lambda g, rng: (_paired_field(g, rng, 2), _radial_twist(g)),
                         twisted_weitzenboeck_residual),
    }
    if kind not in studies:
        raise ValueError(f"unknown study kind {kind!r}")
    return studies[kind]


def paired_test_fields(grid: FlatBandGrid, rng, kind: str):
    """Field pairs for the convergence studies.

    Components share one transverse factor so the pairings do not integrate
    to zero over the torus directions, and the paired degrees are adjacent
    for the Dirac identity (equal for the Laplace one).  Twists are radial:
    a transversally varying twist would leave an O(h_t^2) floor under pure
    radial refinement.
    """
    return _study(kind)[0](grid, rng)


def convergence_order(residuals, hs) -> list[float]:
    """Observed orders log(r_i/r_{i+1}) / log(h_i/h_{i+1})."""
    out = []
    for (r1, h1), (r2, h2) in zip(zip(residuals, hs), zip(residuals[1:], hs[1:])):
        out.append(math.log(r1 / r2) / math.log(h1 / h2))
    return out


def convergence_study(kind: str, N_rs, n: int = 4, N_t: int = 6, seed: int = 0):
    """Residuals of one identity across radial refinements, aggregated over
    STUDY_DRAWS field draws (a single draw's h^2 coefficient can be small
    enough to bias the measured order).  Returns (residuals, hs, orders)."""
    residual = _study(kind)[1]
    residuals, hs = [], []
    for N in N_rs:
        grid = FlatBandGrid(n, STUDY_L, int(N), N_t)
        total = 0.0
        for s in range(STUDY_DRAWS):
            fields = paired_test_fields(grid, np.random.default_rng(seed + 101 * s), kind)
            total += residual(*fields)
        residuals.append(total / STUDY_DRAWS)
        hs.append(grid.h)
    return residuals, hs, convergence_order(residuals, hs)


def load_grid_config(doc) -> tuple[FlatBandGrid, list[FormField]]:
    """Grid config JSON: {"n", "L", "N_r", "N_t", "fields": [spec, ...]}."""
    grid = FlatBandGrid(int(doc["n"]), float(doc["L"]), int(doc["N_r"]), int(doc["N_t"]))
    specs = doc.get("fields", [])
    if not isinstance(specs, list) or not all(isinstance(term, dict) for spec in specs for term in spec):
        raise ValueError("fields must be a list of fields, each a list of term objects")
    return grid, [trig_field(grid, spec) for spec in specs]
