"""Finite-difference verification of integral identities on flat bands.

The band is [0, L] x T^{n-1}: one radial axis with second-order one-sided
stencils at the two torus leaves, and periodic transverse axes where the
centred stencil makes discrete summation by parts *exact*.  On the flat
metric every operator acts componentwise on the coefficient functions, so
d, d* and the twisted Dirac operator D_f = d + d* + ct(grad f) are short
compositions of axis derivatives with the pointwise exterior/Clifford index
operations (the untwisted D is D_f at f = 0).
d, d*, the Clifford multiplications and the Weitzenboeck contractions all
run through one key action, ``_key_action``.

A field component is stored at the broadcast shape of the axes it varies
on: a trig-field term has size 1 on every axis it has no factor on, and
numpy broadcasting carries that through the operators.  The radial
derivative materialises a size-1 radial axis (its one-sided stencil does
not cancel exactly in floats); only the integrals materialise the full
grid, so their summation order does not depend on the storage.

The operators act on the trailing n axes of a component, so a component
may carry leading axes too: a convergence study puts its STUDY_DRAWS field
draws on one leading draw axis and evaluates every draw in one residual
call.  The integrals, the leaf slices and the Weitzenboeck sup-norm reduce
per draw, and each draw is integrated on its own over the full grid, in
the summation order of a single field.  The periodic derivative is
the difference of two precomputed index gathers; on a size-1 axis it is
(data - data) / (2 ht), an exact 0 (NaN for a non-finite value).

The Laplacian is deliberately the square of the first-derivative stencil,
not the compact 3-point one: this keeps the discrete Green identities exact
in the periodic directions, leaving pure O(h^2) radial residuals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from . import exterior
from .curvature import _json_int, _json_keys, _json_number
from .exterior import _checked_key

__all__ = [
    "FlatBandGrid",
    "FormField",
    "d_grid",
    "dstar_grid",
    "laplacian_grid",
    "gradient_components",
    "D_f_grid",
    "green_residual_dirac",
    "green_residual_laplace",
    "twisted_weitzenboeck_residual",
    "trig_field",
    "paired_test_fields",
    "convergence_order",
    "convergence_study",
    "load_grid_config",
]

WEITZ_EDGE_NODES = 2  # radial nodes left out at each end (one-sided stencils)
STUDY_L = 2.0  # band width of the convergence studies
STUDY_DRAWS = 6  # field draws averaged per refinement
# N_r N_t^(n-1) nodes at most: 17x the largest study in use (n = 5,
# N_r = 96, N_t = 6 is 124,416 nodes); one full complex array is 32 MiB here
MAX_GRID_NODES = 1 << 21


def _full(data: np.ndarray, shape) -> np.ndarray:
    """data broadcast to shape as a contiguous array: a reduction over it
    sums in the same order whatever shape data is stored at."""
    return np.ascontiguousarray(np.broadcast_to(data, shape))


def _per_draw(lead, reduce):
    """reduce(i) for each leading (draw) index i in lead: a scalar when
    there are no leading axes, else an array of that shape."""
    if not lead:
        return reduce(())
    return np.array([reduce(i) for i in np.ndindex(lead)]).reshape(lead)


def _residual(z):
    """abs(z) as a float, or an array of one per leading (draw) index:
    Python's abs of each value, which np.abs of a complex can miss by an ulp."""
    z = np.asarray(z)
    return _per_draw(z.shape, lambda i: abs(z[i].item()))


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
        if not self.h > 0:
            raise ValueError(f"radial spacing h = L / (N_r - 1) = {self.h!r} is not positive "
                             f"(L = {self.L!r}, N_r = {self.N_r})")
        if self.n > sys.float_info.max:
            # the cell volume ht^(n-1) is a float power: the OverflowError
            # ("not finite") that every command gives such a dimension
            raise OverflowError("band dimension is past the float range")
        # integer products, stopped at the first past the limit: a huge N_t
        # or n costs a few multiplications, never an allocation
        nodes = self.N_r
        for _ in range(self.n - 1):
            if nodes > MAX_GRID_NODES:
                break
            nodes *= self.N_t
        if nodes > MAX_GRID_NODES:
            raise ValueError(
                f"a {self.N_r} x {self.N_t}^{self.n - 1} grid has more than "
                f"MAX_GRID_NODES = {MAX_GRID_NODES} nodes"
            )

    @property
    def h(self) -> float:
        return self.L / (self.N_r - 1)

    @property
    def ht(self) -> float:
        return 1.0 / self.N_t

    @property
    def shape(self):
        return (self.N_r,) + (self.N_t,) * (self.n - 1)

    def _radial(self, index) -> tuple:
        """Subscript that takes index on the radial axis of a component,
        whatever leading axes it carries."""
        return (Ellipsis, index) + (slice(None),) * (self.n - 1)

    @cached_property
    def _periodic_neighbours(self):
        nodes = np.arange(self.N_t)
        return (nodes + 1) % self.N_t, (nodes - 1) % self.N_t

    def deriv(self, data: np.ndarray, axis: int) -> np.ndarray:
        """Second-order first derivative along grid axis ``axis`` of the
        trailing n axes; axis 0 is radial (one-sided at the ends), the rest
        are periodic.  A size-1 periodic axis stays size 1 (its difference
        is 0, or NaN for a non-finite value); a size-1 radial axis is
        materialised first."""
        at = axis - self.n
        if axis == 0:
            h, r = self.h, self._radial
            data = np.broadcast_to(data, data.shape[:at] + (self.N_r,) + data.shape[at + 1:])
            out = np.empty(data.shape, dtype=data.dtype)
            out[r(slice(1, -1))] = (data[r(slice(2, None))] - data[r(slice(None, -2))]) / (2 * h)
            out[r(0)] = (-3 * data[r(0)] + 4 * data[r(1)] - data[r(2)]) / (2 * h)
            out[r(-1)] = (3 * data[r(-1)] - 4 * data[r(-2)] + data[r(-3)]) / (2 * h)
            return out
        if data.shape[at] == 1:
            return (data - data) / (2 * self.ht)
        nxt, prv = self._periodic_neighbours
        return (data.take(nxt, axis=at) - data.take(prv, axis=at)) / (2 * self.ht)

    def integrate(self, data: np.ndarray) -> complex | np.ndarray:
        """Trapezoid radially, exact periodic sums transversally; one complex
        per leading (draw) index, each summed as a single field is."""
        w = np.ones(self.N_r)
        w[0] = w[-1] = 0.5

        def one(i):
            radial = np.tensordot(w, _full(data[i], self.shape), axes=(0, 0)) * self.h
            return complex(radial.sum() * self.ht ** (self.n - 1))

        return _per_draw(data.shape[:-self.n], one)

    def integrate_boundary(self, data0: np.ndarray, data1: np.ndarray) -> complex | np.ndarray:
        """Sum of both torus-leaf integrals (radial slices 0 and -1), per
        leading (draw) index."""
        leaf = self.shape[1:]
        return _per_draw(
            data0.shape[:1 - self.n],
            lambda i: complex((_full(data0[i], leaf).sum() + _full(data1[i], leaf).sum()) * self.ht ** (self.n - 1)),
        )


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

    def _acc(self, key, arr):
        if key in self.data:
            self.data[key] = self.data[key] + arr
        else:
            self.data[key] = arr

    def _shared(self) -> "FormField":
        """A field on the same component arrays: no operation writes a
        component in place, so a sum may start from its first term's."""
        out = FormField(self.grid)
        out.data = dict(self.data)
        return out

    def __add__(self, other: "FormField") -> "FormField":
        out = self._shared()
        for k, v in other.data.items():
            out._acc(k, v)
        return out

    def __sub__(self, other: "FormField") -> "FormField":
        out = self._shared()
        for k, v in other.data.items():
            out._acc(k, -v)
        return out

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


def _key_action(F: FormField, key_ops, coef) -> FormField:
    """sum over (key_op, sign) in key_ops and j = 1..n of sign * key_op(j, .)
    applied to coef(j, component), walking the components of F in order and
    j inside each.  coef runs only on a hit; it returns None for an absent
    term."""
    out = FormField(F.grid)
    for key, arr in F.data.items():
        for j in range(1, F.grid.n + 1):
            for key_op, sign in key_ops:
                hit = key_op(j, key)
                if hit is not None:
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


def _clifford_field(vec_components, F: FormField, sign: int) -> FormField:
    """Pointwise c (sign=-1) or ct (sign=+1) of F by a vector field given as
    a list of n scalars or arrays, None for a zero component."""

    def coef(j, arr):
        comp = vec_components[j - 1]
        return None if comp is None else comp * arr

    return _key_action(F, ((exterior.wedge_key, 1), (exterior.interior_key, sign)), coef)


def gradient_components(g: FlatBandGrid, f: np.ndarray):
    return [g.deriv(f, axis) for axis in range(g.n)]


def D_f_grid(F: FormField, f: np.ndarray) -> FormField:
    """Twisted Dirac operator D + ct(grad f) with f sampled on the grid."""
    grads = gradient_components(F.grid, np.asarray(f, dtype=complex))
    return d_grid(F) + dstar_grid(F) + _clifford_field(grads, F, +1)


def _boundary_term_dirac(alpha: FormField, beta: FormField) -> complex:
    """Integral of <c(nu) alpha, beta> over both leaves; nu = -e_1 at rho=0
    and +e_1 at rho=L."""
    g = alpha.grid
    e1 = [None] * g.n
    e1[0] = 1.0
    c_alpha = _clifford_field(e1, alpha, -1)
    inner = c_alpha.pointwise_inner(beta)
    return g.integrate_boundary(-inner[g._radial(0)], inner[g._radial(-1)])


def green_residual_dirac(alpha: FormField, beta: FormField, f: np.ndarray | None = None) -> float | np.ndarray:
    """| int <D_f a, b> - int <a, D_f b> - oint <c(nu) a, b> |."""
    g = alpha.grid
    if f is None:
        f = _zeros(g)
    lhs = g.integrate(D_f_grid(alpha, f).pointwise_inner(beta))
    mid = g.integrate(alpha.pointwise_inner(D_f_grid(beta, f)))
    bdry = _boundary_term_dirac(alpha, beta)
    return _residual(lhs - mid - bdry)


def green_residual_laplace(alpha: FormField, beta: FormField) -> float | np.ndarray:
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
    bdry = g.integrate_boundary(-normal_inner[g._radial(0)], normal_inner[g._radial(-1)])
    return _residual(lhs - mid + bdry)


def twisted_weitzenboeck_residual(omega: FormField, f: np.ndarray) -> float | np.ndarray:
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
    defect = np.abs(lhs - rhs)[g._radial(slice(WEITZ_EDGE_NODES, -WEITZ_EDGE_NODES))]
    return _residual(np.max(defect, axis=tuple(range(-g.n, 0))))


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
    An index outside 1..n, an axis outside 0..n-1, a coef that is not
    [re] or [re, im], a number that is not a JSON number and a key that is
    not read are ValueErrors.
    """
    radial = np.linspace(0.0, grid.L, grid.N_r)
    transverse = np.arange(grid.N_t) * grid.ht
    out = FormField(grid)
    for term in spec:
        _json_keys(term, ("index", "coef", "factors"), "a field term")
        coef = [_json_number(c, "coef") for c in term.get("coef", [1.0, 0.0])]
        if len(coef) not in (1, 2):
            raise ValueError(f"coef must be [re] or [re, im], got {coef!r}")
        val = complex(coef[0], coef[1] if len(coef) > 1 else 0.0) * np.ones((1,) * grid.n, dtype=complex)
        for fac in term.get("factors", []):
            _json_keys(fac, ("axis", "kind", "freq", "phase"), "a term factor")
            axis = _json_int(fac["axis"], "axis")
            if not 0 <= axis < grid.n:
                raise ValueError(f"factor axis {axis} out of range 0..{grid.n - 1}")
            kind = fac.get("kind", "sin")
            freq = _json_number(fac.get("freq", 1), "freq")
            phase = _json_number(fac.get("phase", 0.0), "phase")
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
        hit = exterior.wedge_keys(_checked_key(grid.n, tuple(_json_int(i, "index") for i in term["index"])))
        if hit is not None:
            key, sign = hit
            out._acc(key, sign * val)
    return out


def _paired_field(g: FlatBandGrid, rngs, *degrees: int) -> FormField:
    """One term per component of each degree: a random radial sine times
    the transverse factor all study fields share; one draw per generator
    of the list rngs, on a leading draw axis."""
    x = np.linspace(0.0, g.L, g.N_r).reshape((-1,) + (1,) * (g.n - 1))
    shared = np.cos(2.0 * math.pi * (np.arange(g.N_t) * g.ht) + 0.3).reshape((1, -1) + (1,) * (g.n - 2))
    out = FormField(g)
    for degree in degrees:
        for key in combinations(range(1, g.n + 1), degree):
            # per generator: coef re, im, then the radial sine's freq, phase
            draws = np.array([(rng.standard_normal(), rng.standard_normal(),
                               rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi)) for rng in rngs])
            re, im, freq, phase = draws.T.reshape((4, len(rngs)) + (1,) * g.n)
            out.data[key] = (re + 1j * im) * np.sin(math.pi * freq * x / g.L + phase) * shared
    return out


def _radial_twist(g: FlatBandGrid) -> np.ndarray:
    x = np.linspace(0.0, g.L, g.N_r).reshape((-1,) + (1,) * (g.n - 1))
    return 0.4 * np.sin(math.pi * x / g.L) + 0.2 * (x / g.L) ** 2


def _study(kind: str):
    """(fields, residual) of a study kind.  The table is built per call, so
    the residual is whatever the module binds under its name at that time."""
    studies = {
        "dirac": (lambda g, rngs: (_paired_field(g, rngs, 2), _paired_field(g, rngs, 1, 3)),
                  green_residual_dirac),
        "laplace": (lambda g, rngs: (_paired_field(g, rngs, 2), _paired_field(g, rngs, 2)),
                    green_residual_laplace),
        "weitzenboeck": (lambda g, rngs: (_paired_field(g, rngs, 2), _radial_twist(g)),
                         twisted_weitzenboeck_residual),
    }
    if kind not in studies:
        raise ValueError(f"unknown study kind {kind!r}")
    return studies[kind]


def paired_test_fields(grid: FlatBandGrid, rngs, kind: str):
    """Field pairs for the convergence studies, one draw per generator of
    the list rngs, on a leading draw axis.

    Components share one transverse factor so the pairings do not integrate
    to zero over the torus directions, and the paired degrees are adjacent
    for the Dirac identity (equal for the Laplace one).  Twists are radial:
    a transversally varying twist would leave an O(h_t^2) floor under pure
    radial refinement.
    """
    return _study(kind)[0](grid, rngs)


def convergence_order(residuals, hs) -> list[float]:
    """Observed orders log(r_i/r_{i+1}) / log(h_i/h_{i+1})."""
    out = []
    for (r1, h1), (r2, h2) in zip(zip(residuals, hs), zip(residuals[1:], hs[1:])):
        out.append(math.log(r1 / r2) / math.log(h1 / h2))
    return out


def convergence_study(kind: str, N_rs, n: int = 4, N_t: int = 6, seed: int = 0):
    """Residuals of one identity across radial refinements, aggregated over
    STUDY_DRAWS field draws (a single draw's h^2 coefficient can be small
    enough to bias the measured order), all evaluated in one residual call
    on a leading draw axis.  Returns (residuals, hs, orders)."""
    residual = _study(kind)[1]
    residuals, hs = [], []
    for N in N_rs:
        grid = FlatBandGrid(n, STUDY_L, int(N), N_t)
        rngs = [np.random.default_rng(seed + 101 * s) for s in range(STUDY_DRAWS)]
        total = 0.0
        for r in residual(*paired_test_fields(grid, rngs, kind)).tolist():
            total += r
        residuals.append(total / STUDY_DRAWS)
        hs.append(grid.h)
    return residuals, hs, convergence_order(residuals, hs)


def load_grid_config(doc) -> tuple[FlatBandGrid, list[FormField]]:
    """Grid config JSON: {"n", "L", "N_r", "N_t", "fields": [spec, ...]};
    a key that is not read is an error, not dropped."""
    _json_keys(doc, ("n", "L", "N_r", "N_t", "fields"), "a grid config")
    grid = FlatBandGrid(_json_int(doc["n"], "n"), _json_number(doc["L"], "L"), _json_int(doc["N_r"], "N_r"),
                        _json_int(doc["N_t"], "N_t"))
    specs = doc.get("fields", [])
    if not isinstance(specs, list) or not all(isinstance(term, dict) for spec in specs for term in spec):
        raise ValueError("fields must be a list of fields, each a list of term objects")
    return grid, [trig_field(grid, spec) for spec in specs]
