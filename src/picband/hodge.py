"""Simplicial cochain complexes with twisted differentials and absolute or
relative boundary conditions.

Cohomology ranks are computed over exact rationals on the integer
coboundary matrices (``exact_rank``); they are the authoritative Betti
numbers.  The twisted differential conjugates the coboundary by positive
per-simplex weights w(s) = exp(mean of a vertex function over s), so its
rank, and hence the twisted harmonic dimension n_k - rank d_{f,k} -
rank d_{f,k-1}, never depends on the twist: that invariance is what the
floating-point kernel computation is tested against.  Each twisted rank is
counted from its own coboundary's singular values, which the conjugation
bounds below by the integer ones times a ratio of weights: that certifies
the float count, and where the bound is too small to, the exact rank decides.

The cochain space and the integer data are defined once per complex: a
``SimplicialComplex`` builds its read-only boundary matrices and the
indices of the simplices off its boundary subcomplex at construction, and
one restriction (``_coboundary``) gives the absolute or relative
coboundary to the Betti numbers, the twisted complexes and the exact
fallback alike.  A twist only adds its weights.  The exact rank of each
coboundary, and the float floor read at its index, are computed once per
degree and condition and cached on the complex; each twisted rank once per
degree, on its twisted complex.

A block of twists is a vertex function of shape (B, V): its weights, its
twisted coboundaries and its ranks carry the leading axis, so one batched
SVD (the per-matrix singular values, bit for bit) serves each degree of
the block, and its uncertified twists reach the exact rank together.

Every bundled product is one construction, ``product_complex(A, B)``: the
staircase triangulation of |A| x |B|, one simplex per monotone lattice
path over each pair of top simplices."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .reporting import check_input

__all__ = [
    "SimplicialComplex",
    "TwistedComplex",
    "betti",
    "betti_relative",
    "twisted_coboundary",
    "twisted_composition_exact",
    "harmonic_dimension",
    "exact_rank",
    "load_complex",
    "load_bundled",
    "interval_complex",
    "disk_complex",
    "moebius_complex",
    "sphere_complex",
    "product_complex",
]

# Entries of the dense integer boundary matrices, sum over k of n_{k-1} n_k, accepted in one
# complex.  On a 2-core Xeon, verify hodge --complex --twists 1 on a 1-D cycle of m vertices
# (m^2 entries) took 1.0 s at 69 MB peak RSS for m = 1,000 and 2.7 s at 102 MB for m = 1,448,
# growing as m^2.7-2.9 through the dense SVDs; 10 twists at m = 1,000 took 4.6 s
MAX_BOUNDARY_ENTRIES = 1 << 20


class SimplicialComplex:
    """Oriented simplicial complex; simplices are sorted vertex tuples.

    Vertex labels are any distinct integers; a vertex is addressed by its
    position among the sorted labels, so a vertex function is a sequence
    in that order.  Every face of every simplex must be present (closure);
    the integer boundary matrices then satisfy del o del = 0 exactly, which
    is checked at construction.  They are built once, stored read-only, and
    shared by every twist, together with the vertex positions of the
    simplices of each degree and the indices of the simplices off the
    boundary subcomplex.  A complex whose boundary matrices would hold more
    than MAX_BOUNDARY_ENTRIES entries is refused before any is built.
    """

    def __init__(self, simplices_by_dim: dict):
        self.simplices = {}
        for d, items in simplices_by_dim.items():
            d = int(d)
            if d < 0:
                raise ValueError(f"negative dimension {d}")
            seen = []
            for s in items:
                if any(isinstance(v, bool) or int(v) != v or not -2**63 <= v < 2**63 for v in s):  # int64 labels
                    raise ValueError(f"vertex labels of {s} must be integers in [-2^63, 2^63)")
                t = tuple(sorted(int(v) for v in s))
                if len(set(t)) != len(t):
                    raise ValueError(f"degenerate simplex {s}")
                if len(t) != d + 1:
                    raise ValueError(f"simplex {s} listed under dimension {d}")
                seen.append(t)
            if len(set(seen)) != len(seen):
                raise ValueError(f"duplicate simplices in dimension {d}")
            self.simplices[d] = sorted(set(seen))
        if not self.simplices.get(0):
            raise ValueError("complex has no vertices")
        self.dim = max(self.simplices)
        counts = [len(self.simplices.get(d, [])) for d in range(self.dim + 1)]
        entries = sum(a * b for a, b in zip(counts, counts[1:]))
        if entries > MAX_BOUNDARY_ENTRIES:
            raise ValueError(f"simplex counts {counts} need {entries} dense boundary matrix entries, "
                             f"more than MAX_BOUNDARY_ENTRIES = {MAX_BOUNDARY_ENTRIES}")
        self._index = {
            d: {s: i for i, s in enumerate(self.simplices[d])} for d in self.simplices
        }
        self._validate_closure()
        self._boundary = {k: self._build_boundary(k) for k in range(self.dim + 2)}
        for k in range(2, self.dim + 1):  # in float64 through BLAS, exact: integer sums of at most 2^20 terms +-1
            if np.any(self._boundary[k - 1].astype(float) @ self._boundary[k].astype(float)):
                raise ValueError(f"boundary of boundary is nonzero in dimension {k}")
        labels = np.array([s[0] for s in self.simplices.get(0, [])], dtype=np.int64)
        self._vertices = {  # positions in labels, which closure makes complete and sorting ordered
            d: np.searchsorted(labels, np.array(self.simplices.get(d, []), dtype=np.int64).reshape(-1, d + 1))
            for d in range(self.dim + 1)
        }
        self._ranks = {}  # (degree, relative) -> exact rank of d_j, see _rank
        self._floors = {}  # (degree, relative) -> sigma+_min of d_j, see _twisted_floor
        bnd = {d: set(v) for d, v in self.boundary_subcomplex().items()}
        self._interior = {
            d: [i for i, s in enumerate(self.simplices.get(d, [])) if s not in bnd.get(d, ())]
            for d in range(self.dim + 1)
        }

    def _validate_closure(self):
        for d in range(1, self.dim + 1):
            lower = self._index.get(d - 1, {})
            for s in self.simplices.get(d, []):
                for face in combinations(s, d):
                    if face not in lower:
                        raise ValueError(f"face {face} of {s} missing: complex not closed")

    def _build_boundary(self, k: int) -> np.ndarray:
        B = np.zeros((self.n_simplices(k - 1), self.n_simplices(k)), dtype=np.int64)
        idx = self._index.get(k - 1, {})
        for j, s in enumerate(self.simplices.get(k, []) if k >= 1 else []):
            for t in range(k + 1):
                B[idx[s[:t] + s[t + 1:]], j] = (-1) ** t
        B.flags.writeable = False
        return B

    def n_simplices(self, k: int) -> int:
        return len(self.simplices.get(k, []))

    def boundary_matrix(self, k: int) -> np.ndarray:
        """Integer matrix of del_k : C_k -> C_{k-1} (columns = k-simplices); read-only."""
        return self._boundary.get(k, _NO_CHAINS)

    def coboundary_matrix(self, k: int) -> np.ndarray:
        """Integer matrix of d_k : C^k -> C^{k+1}; read-only."""
        return self.boundary_matrix(k + 1).T

    def boundary_subcomplex(self):
        """Simplices of the (dim-1)-faces lying in exactly one top simplex,
        closed under faces; assumes a pure complex."""
        top = self.dim
        counts = {}
        for s in self.simplices.get(top, []) if top else []:
            for face in combinations(s, top):
                counts[face] = counts.get(face, 0) + 1
        boundary = {d: set() for d in range(top)}
        for face, c in counts.items():
            if c == 1:
                for d in range(top):
                    boundary[d].update(combinations(face, d + 1))
        return {d: sorted(v) for d, v in boundary.items() if v}


_NO_CHAINS = np.zeros((0, 0), dtype=np.int64)  # del_k outside k = 0..dim+1
_NO_CHAINS.flags.writeable = False


def exact_rank(M: np.ndarray) -> int:
    """Rank over the rationals by sparse fraction-free elimination on
    Python ints.  The rows are kept as {column: nonzero entry}.  Each step
    takes a shortest remaining row as the pivot row, with pivot p at its
    first column, and updates only the rows r whose entry a in that column
    is nonzero: r <- p * r - a * pivot_row, divided by the gcd of its
    entries.  Every step multiplies a row by a nonzero integer and adds a
    multiple of another row, so the row space over Q is unchanged and no
    fraction is ever formed; the pivot row leaves with the only nonzero
    entry left in its column, so the rank is the number of steps."""
    rows = [{j: int(x) for j, x in enumerate(row) if x} for row in np.asarray(M).tolist()]
    rows = [row for row in rows if row]
    rank = 0
    while rows:
        prow = rows.pop(min(range(len(rows)), key=lambda i: len(rows[i])))
        col, p = next(iter(prow.items()))
        rank += 1
        for i, row in enumerate(rows):
            a = row.get(col)
            if a is None:
                continue
            new = {j: p * x for j, x in row.items()}
            for j, y in prow.items():
                v = new.get(j, 0) - a * y
                if v:
                    new[j] = v
                else:
                    del new[j]
            g = math.gcd(*new.values()) if new else 1
            rows[i] = {j: v // g for j, v in new.items()} if g > 1 else new
        rows = [row for row in rows if row]
    return rank


def _coboundary(K: SimplicialComplex, k: int, relative: bool) -> np.ndarray:
    """Integer d_k on the absolute cochains, or, when relative, on the
    cochains vanishing on the boundary subcomplex (rows and columns of the
    simplices off it)."""
    D = K.coboundary_matrix(k)
    return D[np.ix_(K._interior.get(k + 1, []), K._interior.get(k, []))] if relative else D


def _rank(K: SimplicialComplex, j: int, relative: bool) -> int:
    """Exact rank of the integer d_j, computed once per degree and condition."""
    key = (j, relative)
    if key not in K._ranks:
        K._ranks[key] = exact_rank(_coboundary(K, j, relative))
    return K._ranks[key]


def _betti(K: SimplicialComplex, k: int, relative: bool) -> int:
    if not (0 <= k <= K.dim):
        raise ValueError(f"k = {k} out of range for a {K.dim}-complex")
    return _coboundary(K, k, relative).shape[1] - _rank(K, k, relative) - _rank(K, k - 1, relative)


def betti(K: SimplicialComplex, k: int) -> int:
    """dim H^k(K; Q) by exact ranks."""
    return _betti(K, k, relative=False)


def betti_relative(K: SimplicialComplex, k: int) -> int:
    """dim H^k(K, boundary; Q): cochains vanishing on the boundary subcomplex."""
    return _betti(K, k, relative=True)


class TwistedComplex:
    """Cochain complex twisted by positive weights exp(mean f over vertices);
    ``f`` lists the vertex values in increasing label order, shape (V,) for
    one twist or (B, V) for a block of B twists.

    boundary_condition "absolute" keeps all cochains, "relative" restricts
    to cochains supported off the boundary subcomplex; ``weights[d]`` holds
    the weights of the simplices spanning the chosen d-cochains, with the
    block's leading axis.
    """

    def __init__(self, base: SimplicialComplex, f, boundary_condition: str = "absolute"):
        if boundary_condition not in ("absolute", "relative"):
            raise ValueError("boundary_condition must be 'absolute' or 'relative'")
        self.base = base
        self.boundary_condition = boundary_condition
        nverts = base.n_simplices(0)
        f = np.asarray(f, dtype=float)
        if f.ndim not in (1, 2) or f.shape[-1] != nverts:
            raise ValueError(f"vertex function must have {nverts} entries, or be a block of such rows")
        self.f = f
        with np.errstate(over="ignore"):  # an overflow is rejected just below
            weights = {d: np.exp(f[..., v].mean(axis=-1)) for d, v in base._vertices.items()}
        # a NaN or infinite f, or one whose exponential over- or underflows
        if not all(np.all(np.isfinite(w) & (w > 0)) for w in weights.values()):
            raise ValueError("twisting weights must be finite and positive")
        self._relative = boundary_condition == "relative"
        self.weights = {d: w[..., base._interior[d]] if self._relative else w for d, w in weights.items()}
        # degree j -> rank of d_{f,j} per twist (_twisted_rank); d_{-1} and d_dim are 0
        self._ranks = dict.fromkeys((-1, base.dim), np.zeros(f.shape[:-1], dtype=np.int64))

    def weight_vector(self, k: int) -> np.ndarray:
        """Weights of the k-cochain basis, shape (n_k,) or (B, n_k); empty
        outside degrees 0..dim."""
        return self.weights[k] if k in self.weights else np.zeros(self.f.shape[:-1] + (0,))


_EPS = float(np.finfo(float).eps)


def twisted_coboundary(T: TwistedComplex, k: int) -> np.ndarray:
    """Float matrix of d_f = W_{k+1}^{-1} D_k W_k on the chosen cochain
    space; a block of twists gives one matrix per twist on a leading axis."""
    if not (0 <= k <= T.base.dim):
        raise ValueError(f"k = {k} out of range")
    D = _coboundary(T.base, k, T._relative)
    return (D * T.weight_vector(k)[..., None, :]) / T.weight_vector(k + 1)[..., :, None]


def twisted_composition_exact(T: TwistedComplex, k: int) -> np.ndarray:
    """d_f o d_f computed through the factored form W^{-1} (D_{k+1} D_k) W.

    The diagonal weight factors cancel exactly by associativity, so this is
    the zero matrix whenever the integer product D_{k+1} D_k is zero; it is
    the exact value of the float composition's underlying linear map.
    """
    P = _coboundary(T.base, k + 1, T._relative) @ _coboundary(T.base, k, T._relative)  # integer arithmetic
    return (P * T.weight_vector(k)[..., None, :]) / T.weight_vector(k + 2)[..., :, None]


def _svd_error(s: np.ndarray, shape):
    """Backward error c dim eps ||M||, c = 10, of the float singular values
    ``s`` (descending on the last axis) of matrices of this shape; one per
    matrix of a block."""
    return 10.0 * max(shape[-2:]) * _EPS * (s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1]))


def _twisted_floor(T: TwistedComplex, j: int):
    """Lower bound sigma+_min(D_j) min w_j / max w_{j+1} on the nonzero
    singular values of d_{f,j} = W_{j+1}^{-1} D_j W_j, one per twist; inf
    when D_j = 0.  sigma+_min(D_j) is kept per degree and condition: the
    float singular value of the integer D_j at the index of its exact rank,
    less the backward error, which bounds the smallest nonzero one below."""
    K, key = T.base, (j, T._relative)
    if key not in K._floors:
        D = _coboundary(K, j, T._relative).astype(float)
        s, rank = np.linalg.svd(D, compute_uv=False), _rank(K, j, T._relative)
        K._floors[key] = float(s[rank - 1] - _svd_error(s, D.shape)) if rank else np.inf
    floor = K._floors[key]
    if floor == np.inf:
        return floor
    return floor * T.weight_vector(j).min(axis=-1) / T.weight_vector(j + 1).max(axis=-1)


def _twisted_rank(T: TwistedComplex, j: int):
    """Rank of d_{f,j} per twist, cached on ``T``.  Its nonzero singular
    values are at least ``_twisted_floor``: where that exceeds twice the
    SVD's backward error, exactly those compute above half of it and the
    count is proved; for every other twist of the block the exact rank of
    D_j decides.  A wide block (n_{j+1} < n_j) is decomposed as its
    transpose, which has the same singular values and is faster."""
    if j not in T._ranks:
        A = twisted_coboundary(T, j)
        s = np.linalg.svd(A.swapaxes(-1, -2) if A.shape[-2] < A.shape[-1] else A, compute_uv=False)
        floor = _twisted_floor(T, j)
        rank = np.sum(s > 0.5 * np.asarray(floor)[..., None], axis=-1)
        certified = floor > 2.0 * _svd_error(s, A.shape)
        T._ranks[j] = rank if np.all(certified) else np.where(certified, rank, _rank(T.base, j, T._relative))
    return T._ranks[j]


def harmonic_dimension(T: TwistedComplex, k: int):
    """Kernel dimension of the twisted Laplacian, n_k - rank d_{f,k} -
    rank d_{f,k-1}, exact as d_{f,k} d_{f,k-1} = 0: an int for one twist,
    an int array of shape (B,) for a block.  Asked for every degree, ``T``
    SVDs each d_{f,j} once, never squaring its condition number."""
    if not (0 <= k <= T.base.dim):
        raise ValueError(f"k = {k} out of range")
    count = T.weight_vector(k).shape[-1] - _twisted_rank(T, k) - _twisted_rank(T, k - 1)
    return int(count) if T.f.ndim == 1 else count


# -- complex constructors ------------------------------------------------


def _close_down(top_simplices, dim: int) -> dict:
    by_dim = {d: set() for d in range(dim + 1)}
    for s in top_simplices:
        s = tuple(sorted(s))
        by_dim[dim].add(s)
        for d in range(dim):
            for face in combinations(s, d + 1):
                by_dim[d].add(face)
    return {d: sorted(v) for d, v in by_dim.items()}


def interval_complex() -> SimplicialComplex:
    return SimplicialComplex(_close_down([(0, 1)], 1))


def disk_complex() -> SimplicialComplex:
    return SimplicialComplex(_close_down([(0, 1, 2)], 2))


def moebius_complex() -> SimplicialComplex:
    tris = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]
    return SimplicialComplex(_close_down(tris, 2))


def sphere_complex(dim: int) -> SimplicialComplex:
    """Boundary of the (dim+1)-simplex."""
    verts = range(dim + 2)
    return SimplicialComplex(_close_down(list(combinations(verts, dim + 1)), dim))


def product_complex(A: SimplicialComplex, B: SimplicialComplex) -> SimplicialComplex:
    """Staircase triangulation of |A| x |B|, for pure complexes A and B.

    Vertex (a, b) is numbered b * V_A + a, a and b the positions of the
    factors' vertices among their sorted labels.  Over top simplices
    a_0 < ... < a_p of A and b_0 < ... < b_q of B the prism is cut into one
    (p+q)-simplex per monotone lattice path from (0, 0) to (p, q), with the
    vertices (a_i, b_j) along the path; the cut of each shared face depends
    only on the vertex orders, so neighbouring prisms match.
    """
    p, q, V = A.dim, B.dim, A.n_simplices(0)
    tops = []
    for s in A._vertices[p].tolist():
        for t in B._vertices[q].tolist():
            for steps in combinations(range(p + q), p):  # the path's steps along A
                i = [sum(x < k for x in steps) for k in range(p + q + 1)]
                tops.append([t[k - i_k] * V + s[i_k] for k, i_k in enumerate(i)])
    return SimplicialComplex(_close_down(tops, p + q))


BUNDLED = {  # name -> constructor of the complexes shipped by name
    "interval": interval_complex,
    "circle": lambda: sphere_complex(1),
    "disk": disk_complex,
    "annulus": lambda: product_complex(sphere_complex(1), interval_complex()),
    "moebius": moebius_complex,
    "torus": lambda: product_complex(sphere_complex(1), sphere_complex(1)),
    "solid_torus": lambda: product_complex(disk_complex(), sphere_complex(1)),
    "s2xs1": lambda: product_complex(sphere_complex(2), sphere_complex(1)),
}


# -- loading ------------------------------------------------------------


_COMPLEX = {"dim?": int, "simplices": {int: [tuple]}}  # a simplex is a tuple of integer labels


def load_complex(doc) -> SimplicialComplex:
    """Complex file format: {"dim": d, "simplices": {"0": [...], ...}},
    checked against its schema; the constructor validates dimensions,
    vertices and closure."""
    doc = check_input(doc, _COMPLEX, "a complex file")
    K = SimplicialComplex(doc["simplices"])
    if K.dim != doc.get("dim", K.dim):
        raise ValueError("declared dimension does not match the simplex lists")
    return K


@lru_cache(maxsize=None)
def load_bundled(name: str) -> SimplicialComplex:
    if name not in BUNDLED:
        raise ValueError(f"unknown bundled complex {name!r}; have {tuple(BUNDLED)}")
    return BUNDLED[name]()
