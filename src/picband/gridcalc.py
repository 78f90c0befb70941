"""Finite-difference verification of integral identities on flat bands.

The band is [0, L] x T^{n-1}: one radial axis with second-order one-sided
stencils at the two torus leaves, and periodic transverse axes where the
centred stencil makes discrete summation by parts *exact*.  On the flat
metric every operator acts componentwise on the coefficient functions, so
d, d* and the twisted Dirac operator D_f = d + d* + ct(grad f) are short
compositions of axis derivatives with the pointwise exterior/Clifford index
operations (the untwisted D is d + d*).
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
the difference of two precomputed index gathers.

The derivative of finite data along a periodic axis where it is stored at
size 1 is an exact 0, and the operators never form it: they mark it with
``_ZERO`` and leave out every term it multiplies into an exact zero (the
derivative itself, ct of a zero gradient component on finite data, a zero
Hessian entry on bounded contractions).  A marked term still registers its
output key where it would have been added, so every later sum runs in the
same order, and adding an exact zero changes no value of a sum.  Non-finite
data still takes the stencil, whose (data - data) / (2 ht) is NaN, so NaN
still reaches the residuals.  (A component that no longer broadcasts to a
zero's larger shape is stored smaller; a full-size product of 256 KiB or
more may then round differently, see numpy's temporary elision.)

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
from .exterior import _checked_key
from .reporting import check_input

__all__ = [
    "FlatBandGrid",
    "FormField",
    "d_grid",
    "dstar_grid",
    "laplacian_grid",
    "D_f_grid",
    "green_residual_dirac",
    "green_residual_laplace",
    "twisted_weitzenboeck_residual",
    "trig_field",
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
    def _radial_stencil(self):
        """Subscripts of the radial stencil: interior, its upper and lower
        neighbours, then the nodes 0, 1, 2 and -1, -2, -3 of the ends."""
        return tuple(self._radial(i) for i in (slice(1, -1), slice(2, None), slice(None, -2), 0, 1, 2, -1, -2, -3))

    @cached_property
    def _periodic_neighbours(self):
        nodes = np.arange(self.N_t)
        return (nodes + 1) % self.N_t, (nodes - 1) % self.N_t

    def deriv(self, data: np.ndarray, axis: int) -> np.ndarray:
        """Second-order first derivative along grid axis ``axis`` of the
        trailing n axes; axis 0 is radial (one-sided at the ends), the rest
        are periodic.  A size-1 periodic axis stays size 1 (its difference
        is 0, or NaN for a non-finite value; the operators do not form it
        on finite data, see ``_deriv``); a size-1 radial axis is
        materialised first."""
        at = axis - self.n
        if axis == 0:
            mid, hi, lo, a0, a1, a2, b0, b1, b2 = self._radial_stencil
            h2 = 2 * self.h
            if data.shape[at] != self.N_r:
                data = np.broadcast_to(data, data.shape[:at] + (self.N_r,) + data.shape[at + 1:])
            out = np.empty(data.shape, dtype=np.result_type(data, 1.0))
            interior = out[mid]
            np.subtract(data[hi], data[lo], out=interior)
            interior /= h2
            out[a0] = (-3 * data[a0] + 4 * data[a1] - data[a2]) / h2
            out[b0] = (3 * data[b0] - 4 * data[b1] + data[b2]) / h2
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
        cur = self.data.get(key, _ZERO)
        self.data[key] = arr if cur is _ZERO else cur + arr

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


def _zeros(g: FlatBandGrid, dtype=complex) -> np.ndarray:
    """A zero that broadcasts against every component."""
    return np.zeros((1,) * g.n, dtype=dtype)


# An exact zero that is not formed (see the module docstring); private to
# the operators below, which never leave it in a field they return.
_ZERO = object()


def _finite(*arrays) -> bool:
    """Whether every value is finite, read off one sum: a non-finite value
    makes it non-finite, and an overflow that reads False for finite data
    only forms zeros that could have been left out."""
    return math.isfinite(abs(sum(a.sum() for a in arrays)))


def _deriv(g: FlatBandGrid, data, axis: int, finite: bool | None = None):
    """g.deriv(data, axis), or _ZERO where that is an exact 0: data is
    _ZERO, or stored at size 1 on periodic axis ``axis`` and finite (as
    ``finite`` says, when the caller has taken it)."""
    if data is _ZERO:
        return _ZERO
    if axis and data.shape[axis - g.n] == 1 and (_finite(data) if finite is None else finite):
        return _ZERO
    return g.deriv(data, axis)


def _derivative(F: FormField):
    """coef(j, component) = _deriv along axis j - 1, with the finiteness
    of the whole of F, taken once."""
    g, finite = F.grid, _finite(*F.data.values())
    return lambda j, arr: _deriv(g, arr, j - 1, finite)


def _first_derivatives(F: FormField, keys) -> dict:
    """{key: [the derivatives of F's component along each axis]} over
    keys, _ZERO where not formed (see ``_derivative``)."""
    coef = _derivative(F)
    return {key: [coef(j, F.data[key]) for j in range(1, F.grid.n + 1)] for key in keys}


def _key_action(F: FormField, key_ops, coef) -> FormField:
    """sum over (key_op, sign) in key_ops and j = 1..n of sign * key_op(j, .)
    applied to coef(j, component), walking the components of F in order and
    j inside each.  coef runs only on a hit; it returns None for an absent
    term and _ZERO for an exact zero, which registers its key in walk order
    and adds nothing (a key that gets nothing else holds a size-1 zero)."""
    out = FormField(F.grid)
    for key, arr in F.data.items():
        for j in range(1, F.grid.n + 1):
            for key_op, sign in key_ops:
                hit = key_op(j, key)
                if hit is not None:
                    term = coef(j, arr)
                    if term is _ZERO:
                        out.data.setdefault(hit[0], _ZERO)
                    elif term is not None:
                        out._acc(hit[0], sign * hit[1] * term)
    for key, arr in out.data.items():
        if arr is _ZERO:
            out.data[key] = _zeros(F.grid)
    return out


def d_grid(F: FormField) -> FormField:
    """Exterior derivative: sum_j theta^j ^ d_j F."""
    return _key_action(F, ((exterior.wedge_key, 1),), _derivative(F))


def dstar_grid(F: FormField) -> FormField:
    """Codifferential on the flat band: -sum_j i_{e_j} d_j F."""
    return _key_action(F, ((exterior.interior_key, -1),), _derivative(F))


def _laplacian(F: FormField):
    """(laplacian_grid(F), the first derivatives it took, as
    ``_first_derivatives`` gives them)."""
    g = F.grid
    firsts = _first_derivatives(F, F.data)
    out = FormField(g)
    for key, row in firsts.items():
        total = _zeros(g)
        for axis, first in enumerate(row):
            if first is not _ZERO:
                total = total + g.deriv(first, axis)
        out._acc(key, total)
    return out, firsts


def laplacian_grid(F: FormField) -> FormField:
    """Componentwise flat Laplacian, built as the derivative stencil applied
    twice per axis (exact summation by parts transversally)."""
    return _laplacian(F)[0]


def _clifford_field(vec_components, F: FormField, sign: int) -> FormField:
    """Pointwise c (sign=-1) or ct (sign=+1) of F by a vector field given as
    a list of n scalars or arrays, None for an absent component and _ZERO
    for an exact zero one."""
    if any(c is _ZERO for c in vec_components) and not _finite(*F.data.values()):
        # 0 * inf is NaN: a zero component's products are formed
        vec_components = [_zeros(F.grid) if c is _ZERO else c for c in vec_components]

    def coef(j, arr):
        comp = vec_components[j - 1]
        return comp if comp is None or comp is _ZERO else comp * arr

    return _key_action(F, ((exterior.wedge_key, 1), (exterior.interior_key, sign)), coef)


def D_f_grid(F: FormField, f: np.ndarray) -> FormField:
    """Twisted Dirac operator D + ct(grad f) with f sampled on the grid.
    A component of grad f along a periodic axis where finite f is stored
    at size 1 is an exact 0: it is not formed, nor are its ct terms on
    finite components of F."""
    g = F.grid
    f = np.asarray(f, dtype=complex)
    grads = [_deriv(g, f, axis) for axis in range(g.n)]
    return d_grid(F) + dstar_grid(F) + _clifford_field(grads, F, +1)


def _boundary_term_dirac(alpha: FormField, beta: FormField) -> complex:
    """Integral of <c(nu) alpha, beta> over both leaves; nu = -e_1 at rho=0
    and +e_1 at rho=L.  Formed on the two leaves only: each component is cut
    to its radial nodes 0 and -1 first (one stored at radial size 1 is kept),
    and the products are pointwise, so every value is the one the full
    fields give there."""
    g = alpha.grid
    ends = g._radial(slice(0, None, g.N_r - 1))  # nodes 0 and -1, as a view

    def leaves(F: FormField) -> FormField:
        out = FormField(g)
        out.data = {key: arr if arr.shape[-g.n] == 1 else arr[ends] for key, arr in F.data.items()}
        return out

    e1 = [None] * g.n
    e1[0] = 1.0
    inner = _clifford_field(e1, leaves(alpha), -1).pointwise_inner(leaves(beta))
    return g.integrate_boundary(-inner[g._radial(0)], inner[g._radial(-1)])


def green_residual_dirac(alpha: FormField, beta: FormField) -> float | np.ndarray:
    """| int <D a, b> - int <a, D b> - oint <c(nu) a, b> |, D = d + d*."""
    g = alpha.grid
    lhs = g.integrate((d_grid(alpha) + dstar_grid(alpha)).pointwise_inner(beta))
    mid = g.integrate(alpha.pointwise_inner(d_grid(beta) + dstar_grid(beta)))
    bdry = _boundary_term_dirac(alpha, beta)
    return _residual(lhs - mid - bdry)


def _dense(g: FlatBandGrid, x, dtype=complex):
    """x, with a size-1 zero for _ZERO."""
    return _zeros(g, dtype) if x is _ZERO else x


def green_residual_laplace(alpha: FormField, beta: FormField) -> float | np.ndarray:
    """| -int <Lap a, b> - int <grad a, grad b> + oint <d_nu a, b> |; the
    first derivatives of a are those its Laplacian took."""
    g = alpha.grid
    lap, da = _laplacian(alpha)
    lhs = -g.integrate(lap.pointwise_inner(beta))
    shared = [key for key in alpha.data if key in beta.data]
    db = _first_derivatives(beta, shared)
    grad_pair = _zeros(g)
    for axis in range(g.n):
        for key in shared:
            a, b = da[key][axis], db[key][axis]
            if a is not _ZERO or b is not _ZERO:
                grad_pair = grad_pair + _dense(g, a) * np.conj(_dense(g, b))
    mid = g.integrate(grad_pair)
    normal_inner = _zeros(g)
    for key in shared:
        normal_inner = normal_inner + da[key][0] * np.conj(beta.data[key])
    bdry = g.integrate_boundary(-normal_inner[g._radial(0)], normal_inner[g._radial(-1)])
    return _residual(lhs - mid + bdry)


def twisted_weitzenboeck_residual(omega: FormField, f: np.ndarray) -> float | np.ndarray:
    """Sup-norm over interior nodes (all but WEITZ_EDGE_NODES at each radial
    end) of the pointwise defect of

        <D_f^2 w, w> = -<Lap w, w> + (|grad f|^2 - Lap f) |w|^2
                       + 2 sum_ij (Hess f)_ij <i_i w, i_j w>

    (the curvature term vanishes on the flat band).  A Hessian entry that
    is an exact 0 is not formed, nor is its term while <i_i w, i_j w>
    cannot overflow: its components are +-w_K, so it is bounded by
    2 (number of keys) sup|w|^2."""
    g = omega.grid
    f = np.asarray(f, dtype=float)
    lhs = D_f_grid(D_f_grid(omega, f), f).pointwise_inner(omega)
    rhs = -laplacian_grid(omega).pointwise_inner(omega)
    grads = [_deriv(g, f, axis) for axis in range(g.n)]
    hess = [[_deriv(g, gr, j) for j in range(g.n)] for gr in grads]
    grad2 = sum(np.abs(gr) ** 2 for gr in grads if gr is not _ZERO)
    lapf = sum(hess[i][i] for i in range(g.n) if hess[i][i] is not _ZERO)
    norm2 = omega.pointwise_inner(omega).real
    rhs = rhs + (grad2 - lapf) * norm2
    sup = omega.sup_norm()
    bounded = 4.0 * len(omega.data) * sup * sup < sys.float_info.max
    terms = [(i, j) for i in range(g.n) for j in range(g.n) if not (hess[i][j] is _ZERO and bounded)]
    # contr[i] = i_{e_{i+1}} omega: the key action keeps only that j
    contr = {i: _key_action(omega, ((exterior.interior_key, 1),), lambda j, arr: arr if j == i + 1 else None)
             for i in sorted({i for term in terms for i in term})}
    for i, j in terms:
        rhs = rhs + 2.0 * _dense(g, hess[i][j], float) * contr[i].pointwise_inner(contr[j])
    defect = np.abs(lhs - rhs)[g._radial(slice(WEITZ_EDGE_NODES, -WEITZ_EDGE_NODES))]
    return _residual(np.max(defect, axis=tuple(range(-g.n, 0))))


# -- field constructors --------------------------------------------------


_TERM = {"index": [int], "coef?": [float], "factors?": [{"axis": int, "kind?": str, "freq?": float, "phase?": float}]}


def trig_field(grid: FlatBandGrid, spec, where: str = "") -> FormField:
    """Build a form field from a trig-polynomial spec.

    spec: list of terms {"index": [..], "coef": [re, im], "factors":
    [{"axis": a, "kind": "sin"|"cos"|"const", "freq": k, "phase": p}, ...]}.
    Radial factors (axis 0) use frequency k as sin/cos(pi k x / L + phase);
    transverse axes use sin/cos(2 pi k y + phase) with integer k.  An index
    list in any order means theta^{i_1} ^ ... ^ theta^{i_k}, stored under
    its increasing key with the permutation's sign (zero if one repeats).
    A term is stored with size 1 on every axis it has no sin/cos factor on.
    The spec is checked against its schema; an index outside 1..n, an axis
    outside 0..n-1, an unknown factor kind and a coef that is not [re] or
    [re, im] are ValueErrors that name their key path: ``where``, the
    spec's own path in its document, then the path in the spec, as in
    "fields[1][0].factors[1].axis must lie in 0..3, got 7"."""
    radial = np.linspace(0.0, grid.L, grid.N_r)
    transverse = np.arange(grid.N_t) * grid.ht
    out = FormField(grid)
    for j, term in enumerate(check_input(spec, [_TERM], "a field")):
        at = f"{where}[{j}]"
        coef = term.get("coef", [1.0, 0.0])
        if len(coef) not in (1, 2):
            raise ValueError(f"{at}.coef must be [re] or [re, im], got {coef!r}")
        index = term["index"]
        if index and (min(index) < 1 or max(index) > grid.n):
            raise ValueError(f"{at}.index must lie in 1..{grid.n}, got {index}")
        val = complex(coef[0], coef[1] if len(coef) > 1 else 0.0) * np.ones((1,) * grid.n, dtype=complex)
        for k, fac in enumerate(term.get("factors", [])):
            axis = fac["axis"]
            if not 0 <= axis < grid.n:
                raise ValueError(f"{at}.factors[{k}].axis must lie in 0..{grid.n - 1}, got {axis}")
            kind, freq, phase = fac.get("kind", "sin"), fac.get("freq", 1.0), fac.get("phase", 0.0)
            if kind == "const":
                continue
            if kind not in ("sin", "cos"):
                raise ValueError(f"{at}.factors[{k}].kind must be one of ('sin', 'cos', 'const'), got {kind!r}")
            if axis == 0:
                arg = math.pi * freq * radial / grid.L + phase
            else:
                arg = 2.0 * math.pi * freq * transverse + phase
            # the factor on its own axis: the term keeps size 1 on the others
            val = val * (np.sin(arg) if kind == "sin" else np.cos(arg)).reshape(
                [-1 if a == axis else 1 for a in range(grid.n)]
            )
        hit = exterior.wedge_keys(index)
        if hit is not None:
            key, sign = hit
            out._acc(key, sign * val)
    return out


def _radial_twist(g: FlatBandGrid) -> np.ndarray:
    x = np.linspace(0.0, g.L, g.N_r).reshape((-1,) + (1,) * (g.n - 1))
    return 0.4 * np.sin(math.pi * x / g.L) + 0.2 * (x / g.L) ** 2


def _study(kind: str):
    """(field degrees, residual) of a study kind: per study field, the
    degrees of its components, or None for the radial twist.  The table is
    built per call, so the residual is whatever the module binds under its
    name at that time."""
    studies = {
        "dirac": (((2,), (1, 3)), green_residual_dirac),
        "laplace": (((2,), (2,)), green_residual_laplace),
        "weitzenboeck": (((2,), None), twisted_weitzenboeck_residual),
    }
    if kind not in studies:
        raise ValueError(f"unknown study kind {kind!r}")
    return studies[kind]


def _study_draws(rngs, n: int, kind: str):
    """The coefficients of a study's fields, None for the twist.  The
    paired degrees are adjacent for the Dirac identity and equal for the
    Laplace one.  A field has one term per component of each of its
    degrees, drawn per component in key order: for each generator of the
    list rngs, coef re, im, then the radial sine's freq and phase.  A
    field's table is [(key, coef, pi freq, phase)], each value on a leading
    draw axis; a grid does not enter, so a study draws once for all its
    grids."""
    fields = []
    for degrees in _study(kind)[0]:
        table = None if degrees is None else []
        for degree in degrees or ():
            for key in combinations(range(1, n + 1), degree):
                draws = np.array([(rng.standard_normal(), rng.standard_normal(),
                                   rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi)) for rng in rngs])
                re, im, freq, phase = draws.T.reshape((4, len(rngs)) + (1,) * n)
                table.append((key, re + 1j * im, math.pi * freq, phase))
        fields.append(table)
    return fields


def _study_fields(g: FlatBandGrid, draws):
    """The study fields of draws on grid g: each term a radial sine times
    the transverse factor all study fields share, so that the pairings do
    not integrate to zero over the torus directions.  The twist is radial:
    a transversally varying twist would leave an O(h_t^2) floor under pure
    radial refinement."""
    x = np.linspace(0.0, g.L, g.N_r).reshape((-1,) + (1,) * (g.n - 1))
    shared = np.cos(2.0 * math.pi * (np.arange(g.N_t) * g.ht) + 0.3).reshape((1, -1) + (1,) * (g.n - 2))
    fields = []
    for table in draws:
        if table is None:
            fields.append(_radial_twist(g))
            continue
        field = FormField(g)
        for key, coef, pi_freq, phase in table:
            field.data[key] = coef * np.sin(pi_freq * x / g.L + phase) * shared
        fields.append(field)
    return tuple(fields)


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
    on a leading draw axis; each generator draws once per study, the
    fields of every refinement from the same coefficients.  Returns
    (residuals, hs, orders)."""
    residual = _study(kind)[1]
    grids = [FlatBandGrid(n, STUDY_L, int(N), N_t) for N in N_rs]
    draws = _study_draws([np.random.default_rng(seed + 101 * s) for s in range(STUDY_DRAWS)], n, kind)
    residuals, hs = [], []
    for grid in grids:
        total = 0.0
        for r in residual(*_study_fields(grid, draws)).tolist():
            total += r
        residuals.append(total / STUDY_DRAWS)
        hs.append(grid.h)
    return residuals, hs, convergence_order(residuals, hs)


_GRID = {"n": int, "L": float, "N_r": int, "N_t": int, "fields?": [[_TERM]]}


def load_grid_config(doc) -> tuple[FlatBandGrid, list[FormField]]:
    """Grid config JSON: {"n", "L", "N_r", "N_t", "fields": [spec, ...]},
    checked against its schema."""
    doc = check_input(doc, _GRID, "a grid config")
    grid = FlatBandGrid(doc["n"], doc["L"], doc["N_r"], doc["N_t"])
    return grid, [trig_field(grid, spec, f"fields[{i}]") for i, spec in enumerate(doc.get("fields", []))]
