"""Complexified exterior algebra over R^n with its two Clifford actions.

Everything here is exact basis combinatorics on sparse coefficient tables:
a form is a map from strictly increasing multi-indices (1-based) to complex
coefficients, the fiber metric is the one making that basis orthonormal.
The two Clifford multiplications are wedge-minus-contraction and
wedge-plus-contraction; the boundary involution is their composition with
the unit normal plugged into both slots.

The sign rule.  For a strictly increasing multi-index K and a frame index j,

    theta^j ^ theta^K = (-1)^s theta^(K with j inserted)   if j is not in K,
    i_{e_j} theta^K   = (-1)^s theta^(K with j removed)    if j is in K,

with s = #{t in K : t < j}; both vanish otherwise.  :func:`wedge_key` and
:func:`interior_key` are the only code that applies it.  Key normalisation
in :class:`FormElement`, :func:`wedge`, the vector actions and the cached
matrices :func:`wedge_stack`, :func:`interior_stack` and
:func:`two_form_blocks` are built from them, and so are the grid operators
of ``gridcalc``, the Clifford-trace route of ``curvature`` and the form
bounds of ``potentials``.  The index formula ``curvature.weitzenboeck_on_two_forms``
keeps its own signs on purpose: it is the independent path the trace route
is checked against.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import combinations

import numpy as np

__all__ = [
    "FormElement",
    "wedge",
    "interior",
    "clifford_c",
    "clifford_ct",
    "chi_involution",
    "boundary_split",
    "inner",
    "basis_form",
    "form_to_vec",
    "vec_to_form",
    "operator_matrix",
    "full_operator_matrix",
    "full_basis",
    "random_form",
    "wedge_key",
    "wedge_keys",
    "interior_key",
    "wedge_stack",
    "interior_stack",
    "two_form_blocks",
]

def wedge_key(j: int, key: tuple):
    """theta^j ^ theta^key as (key, sign), or None when j is in key."""
    if j in key:
        return None
    pos = bisect_left(key, j)
    return key[:pos] + (j,) + key[pos:], (-1) ** pos


def interior_key(j: int, key: tuple):
    """i_{e_j} theta^key as (key, sign), or None when j is not in key."""
    if j not in key:
        return None
    pos = key.index(j)
    return key[:pos] + key[pos + 1:], (-1) ** pos


def _checked_key(n: int, key: tuple) -> tuple:
    """Return key; raise ValueError if an index lies outside 1..n."""
    if key and (min(key) < 1 or max(key) > n):
        raise ValueError(f"index out of range 1..{n}: {key}")
    return key


def wedge_keys(indices, key: tuple = ()):
    """theta^{i_1} ^ ... ^ theta^{i_k} ^ theta^key as (key, sign), or None
    when an index repeats: wedge_key folded from the right."""
    sign = 1
    for j in reversed(indices):
        hit = wedge_key(j, key)
        if hit is None:
            return None
        key, s = hit
        sign *= s
    return key, sign


class FormElement:
    """Element of the complexified exterior algebra Lambda(R^n).

    Coefficients are stored sparsely, keyed by the strictly increasing
    multi-index (1-based).  Mixed degree is allowed; most geometric
    operations below preserve or shift pure degree.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        if n < 1:
            raise ValueError(f"ambient dimension must be positive, got {n}")
        self.n = n
        table = {}
        if coeffs:
            for key, val in coeffs.items():
                key = _checked_key(n, tuple(key))
                hit = wedge_keys(key)
                if hit is None:
                    continue
                skey, sign = hit
                val = complex(val) * sign
                if val != 0:
                    table[skey] = table.get(skey, 0.0) + val
        self.coeffs = {k: v for k, v in table.items() if v != 0}

    # -- basic algebra -------------------------------------------------

    def copy(self) -> "FormElement":
        out = FormElement(self.n)
        out.coeffs = dict(self.coeffs)
        return out

    def degrees(self):
        return sorted({len(k) for k in self.coeffs})

    def degree(self) -> int:
        """Degree of a pure-degree form (0 for the zero form)."""
        degs = self.degrees()
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError(f"form has mixed degrees {degs}")
        return degs[0]

    def __add__(self, other: "FormElement") -> "FormElement":
        self._check(other)
        out = self.copy()
        for k, v in other.coeffs.items():
            out.coeffs[k] = out.coeffs.get(k, 0.0) + v
            if out.coeffs[k] == 0:
                del out.coeffs[k]
        return out

    def __sub__(self, other: "FormElement") -> "FormElement":
        return self + (other * -1.0)

    def __mul__(self, scalar) -> "FormElement":
        out = FormElement(self.n)
        if scalar != 0:
            out.coeffs = {k: v * scalar for k, v in self.coeffs.items()}
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "FormElement":
        return self * -1.0

    def norm2(self) -> float:
        return float(sum((v * v.conjugate()).real for v in self.coeffs.values()))

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def _check(self, other: "FormElement"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __repr__(self):
        terms = ", ".join(f"{k}: {v:.4g}" for k, v in sorted(self.coeffs.items()))
        return f"FormElement(n={self.n}, {{{terms}}})"


def basis_form(n: int, *indices) -> FormElement:
    """theta^{i_1} ^ ... ^ theta^{i_k} with coefficient 1 (indices 1-based)."""
    return FormElement(n, {tuple(indices): 1.0})


def inner(a: FormElement, b: FormElement) -> complex:
    """Hermitian inner product, linear in the first slot."""
    a._check(b)
    small, big = (a.coeffs, b.coeffs) if len(a.coeffs) < len(b.coeffs) else (b.coeffs, a.coeffs)
    total = 0.0
    if small is a.coeffs:
        for k, v in small.items():
            w = big.get(k)
            if w is not None:
                total += v * w.conjugate()
    else:
        for k, w in small.items():
            v = big.get(k)
            if v is not None:
                total += v * w.conjugate()
    return complex(total)


def wedge(a: FormElement, b: FormElement) -> FormElement:
    """Exterior product."""
    a._check(b)
    out = FormElement(a.n)
    acc = out.coeffs
    for ka, va in a.coeffs.items():
        for kb, vb in b.coeffs.items():
            hit = wedge_keys(ka, kb)
            if hit is None:
                continue
            key, sign = hit
            acc[key] = acc.get(key, 0.0) + va * vb * sign
    out.coeffs = {k: v for k, v in acc.items() if v != 0}
    return out


def _vector_components(v, n: int):
    v = np.asarray(v)
    if v.shape != (n,):
        raise ValueError(f"vector has shape {v.shape}, expected ({n},)")
    return v


def _vector_action(key_op, v, a: FormElement) -> FormElement:
    """sum_j v_j op_j a, with op_j given on basis keys by key_op(j, key)."""
    v = _vector_components(v, a.n)
    acc = {}
    for j in range(a.n):
        c = v[j]
        if c == 0:
            continue
        for k, val in a.coeffs.items():
            hit = key_op(j + 1, k)
            if hit is not None:
                key, sign = hit
                acc[key] = acc.get(key, 0.0) + c * (val * sign)
    out = FormElement(a.n)
    out.coeffs = {k: v2 for k, v2 in acc.items() if v2 != 0}
    return out


def interior(v, a: FormElement) -> FormElement:
    """Contraction i_v a; antiderivation of degree -1, adjoint to wedge by v-flat."""
    return _vector_action(interior_key, v, a)


def wedge_vector(v, a: FormElement) -> FormElement:
    """v-flat ^ a for a frame-component vector v."""
    return _vector_action(wedge_key, v, a)


def clifford_c(v, a: FormElement) -> FormElement:
    """c(v) a = v-flat ^ a - i_v a.  Anti-self-adjoint for real v."""
    return wedge_vector(v, a) - interior(v, a)


def clifford_ct(v, a: FormElement) -> FormElement:
    """ct(v) a = v-flat ^ a + i_v a.  Self-adjoint for real v."""
    return wedge_vector(v, a) + interior(v, a)


UNIT_TOL = 1e-12  # accepted | |nu| - 1 | of a boundary normal


def _check_unit(nu, n: int):
    nu = _vector_components(nu, n)
    nrm = float(np.linalg.norm(nu))
    if abs(nrm - 1.0) > UNIT_TOL:
        raise ValueError(f"normal vector must be unit length, |nu| = {nrm}")
    return nu


def chi_involution(nu, a: FormElement) -> FormElement:
    """Boundary involution ct(nu) c(nu); +1 on tangential forms, -1 on normal ones."""
    nu = _check_unit(nu, a.n)
    return clifford_ct(nu, clifford_c(nu, a))


def boundary_split(nu, a: FormElement):
    """Split a = tangential + normal with respect to the unit normal nu."""
    nu = _check_unit(nu, a.n)
    chi_a = chi_involution(nu, a)
    tangential = (a + chi_a) * 0.5
    normal = (a - chi_a) * 0.5
    return tangential, normal


# -- fixed-degree linear algebra views --------------------------------


@lru_cache(maxsize=None)
def degree_basis(n: int, k: int):
    """Ordered basis of degree-k multi-indices (lexicographic); empty for k < 0."""
    return tuple(combinations(range(1, n + 1), k)) if k >= 0 else ()


def form_to_vec(a: FormElement, k: int) -> np.ndarray:
    basis = degree_basis(a.n, k)
    pos = {key: i for i, key in enumerate(basis)}
    out = np.zeros(len(basis), dtype=complex)
    for key, val in a.coeffs.items():
        if len(key) != k:
            raise ValueError(f"form has a degree-{len(key)} component, expected pure degree {k}")
        out[pos[key]] = val
    return out


def vec_to_form(vec, n: int, k: int) -> FormElement:
    basis = degree_basis(n, k)
    vec = np.asarray(vec)
    if vec.shape != (len(basis),):
        raise ValueError(f"coefficient vector has shape {vec.shape}, expected ({len(basis)},)")
    return FormElement(n, {key: vec[i] for i, key in enumerate(basis) if vec[i] != 0})


@lru_cache(maxsize=None)
def full_basis(n: int):
    """All multi-indices, grouped by degree then lexicographic (size 2^n)."""
    out = []
    for k in range(n + 1):
        out.extend(degree_basis(n, k))
    return tuple(out)


def full_operator_matrix(op, n: int) -> np.ndarray:
    """Dense matrix of a linear map on the whole exterior algebra."""
    basis = full_basis(n)
    pos = {key: i for i, key in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for col, key in enumerate(basis):
        image = op(FormElement(n, {key: 1.0}))
        for k, v in image.coeffs.items():
            mat[pos[k], col] = v
    return mat


def operator_matrix(op, n: int, k_in: int, k_out: int) -> np.ndarray:
    """Dense matrix of a linear map on forms in the fixed degree bases."""
    basis_in = degree_basis(n, k_in)
    dim_out = len(degree_basis(n, k_out))
    mat = np.zeros((dim_out, len(basis_in)), dtype=complex)
    for col, key in enumerate(basis_in):
        image = op(FormElement(n, {key: 1.0}))
        mat[:, col] = form_to_vec(image, k_out)
    return mat


def _key_stack(key_op, n: int, k_in: int, k_out: int) -> np.ndarray:
    """Read-only stack over j = 1..n of the matrices of key_op(j, .) from
    the degree-k_in basis to the degree-k_out basis."""
    basis = degree_basis(n, k_in)
    row = {key: r for r, key in enumerate(degree_basis(n, k_out))}
    out = np.zeros((n, len(row), len(basis)))
    for j in range(1, n + 1):
        for col, key in enumerate(basis):
            hit = key_op(j, key)
            if hit is not None:
                out[j - 1, row[hit[0]], col] = hit[1]
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def wedge_stack(n: int, k: int) -> np.ndarray:
    """W[j-1] = matrix of theta^j ^ (.) : Lambda^k -> Lambda^{k+1}."""
    return _key_stack(wedge_key, n, k, k + 1)


@lru_cache(maxsize=None)
def interior_stack(n: int, k: int) -> np.ndarray:
    """I[j-1] = matrix of i_{e_j} : Lambda^k -> Lambda^{k-1}."""
    return _key_stack(interior_key, n, k, k - 1)


@lru_cache(maxsize=None)
def two_form_blocks(n: int):
    """(P, Q) on Lambda^2: P[i-1, j-1] is the matrix of theta^i ^ i_{e_j}(.)
    and Q[i-1, j-1] that of i_{e_i}(theta^j ^ (.)); read-only."""
    P = np.einsum("iab,jbc->ijac", wedge_stack(n, 1), interior_stack(n, 2))
    Q = np.einsum("iab,jbc->ijac", interior_stack(n, 3), wedge_stack(n, 2))
    P.flags.writeable = Q.flags.writeable = False
    return P, Q


def random_form(n: int, k: int, rng) -> FormElement:
    """Degree-k form with standard complex normal coefficients."""
    basis = degree_basis(n, k)
    vec = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    return vec_to_form(vec, n, k)
