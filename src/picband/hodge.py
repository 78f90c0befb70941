"""Simplicial cochain complexes with twisted differentials and absolute or
relative boundary conditions.

Cohomology ranks are computed over exact rationals on the integer
coboundary matrices; they are the authoritative Betti numbers.  The twisted
differential conjugates the coboundary by positive per-simplex weights
w(s) = exp(mean of a vertex function over s), so its rank, and hence the
twisted harmonic dimension, never depends on the twist: that invariance is
what the floating-point kernel computation is tested against.  The
conjugation also bounds the twisted differential's nonzero singular values
below by the integer one's times a ratio of weights, which certifies the
float count; where the bound is too small to, the exact ranks decide.

The cochain space and the integer data are defined once per complex: a
``SimplicialComplex`` builds its read-only boundary matrices and the
indices of the simplices off its boundary subcomplex at construction, and
one restriction (``_coboundary``) gives the absolute or relative
coboundary to the Betti numbers, the twisted complexes and the exact
fallback of ``harmonic_dimension`` alike.  A twist only adds its weights."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

__all__ = [
    "SimplicialComplex",
    "TwistedComplex",
    "betti",
    "betti_relative",
    "twisted_coboundary",
    "twisted_laplacian",
    "harmonic_dimension",
    "exact_rank",
    "load_complex",
    "load_bundled",
    "interval_complex",
    "circle_complex",
    "disk_complex",
    "moebius_complex",
    "prism_product",
]


class SimplicialComplex:
    """Oriented simplicial complex; simplices are sorted vertex tuples.

    Vertex labels are any distinct integers; a vertex is addressed by its
    position among the sorted labels, so a vertex function is a sequence
    in that order.  Every face of every simplex must be present (closure);
    the integer boundary matrices then satisfy del o del = 0 exactly, which
    is checked at construction.  They are built once, stored read-only, and
    shared by every twist, together with the vertex positions of the
    simplices of each degree and the indices of the simplices off the
    boundary subcomplex.
    """

    def __init__(self, simplices_by_dim: dict):
        self.simplices = {}
        for d, items in simplices_by_dim.items():
            d = int(d)
            if d < 0:
                raise ValueError(f"negative dimension {d}")
            seen = []
            for s in items:
                if any(isinstance(v, bool) or int(v) != v for v in s):
                    raise ValueError(f"vertex labels of {s} must be integers")
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
        self._index = {
            d: {s: i for i, s in enumerate(self.simplices[d])} for d in self.simplices
        }
        self._validate_closure()
        self._boundary = {k: self._build_boundary(k) for k in range(self.dim + 2)}
        for k in range(2, self.dim + 1):
            if np.any(self._boundary[k - 1] @ self._boundary[k]):
                raise ValueError(f"boundary of boundary is nonzero in dimension {k}")
        labels = np.array([s[0] for s in self.simplices.get(0, [])], dtype=np.int64)
        self._vertices = {  # positions in labels, which closure makes complete and sorting ordered
            d: np.searchsorted(labels, np.array(self.simplices.get(d, []), dtype=np.int64).reshape(-1, d + 1))
            for d in range(self.dim + 1)
        }
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
    """Rank over the rationals by fraction-free (Bareiss) elimination on
    Python ints.  Each step replaces a row below the pivot by
    (p * row - a * pivot_row) / p_prev, p the pivot, a the row's entry in
    the pivot column and p_prev the previous pivot (1 at the first step);
    the entries are then minors of M, so the division is exact and no
    fraction is ever formed."""
    rows = [[int(x) for x in row] for row in np.asarray(M)]
    rank, prev = 0, 1
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for r in range(rank + 1, len(rows)):
            a = rows[r][col]
            rows[r] = [(p * x - a * y) // prev for x, y in zip(rows[r], prow)]
        prev = p
        rank += 1
        if rank == len(rows):
            break
    return rank


def _coboundary(K: SimplicialComplex, k: int, relative: bool) -> np.ndarray:
    """Integer d_k on the absolute cochains, or, when relative, on the
    cochains vanishing on the boundary subcomplex (rows and columns of the
    simplices off it)."""
    D = K.coboundary_matrix(k)
    return D[np.ix_(K._interior.get(k + 1, []), K._interior.get(k, []))] if relative else D


def _betti(K: SimplicialComplex, k: int, relative: bool) -> int:
    if not (0 <= k <= K.dim):
        raise ValueError(f"k = {k} out of range for a {K.dim}-complex")
    Dk = _coboundary(K, k, relative)
    return Dk.shape[1] - exact_rank(Dk) - exact_rank(_coboundary(K, k - 1, relative))


def betti(K: SimplicialComplex, k: int) -> int:
    """dim H^k(K; Q) by exact ranks."""
    return _betti(K, k, relative=False)


def betti_relative(K: SimplicialComplex, k: int) -> int:
    """dim H^k(K, boundary; Q): cochains vanishing on the boundary subcomplex."""
    return _betti(K, k, relative=True)


class TwistedComplex:
    """Cochain complex twisted by positive weights exp(mean f over vertices);
    ``f`` lists the vertex values in increasing label order.

    boundary_condition "absolute" keeps all cochains, "relative" restricts
    to cochains supported off the boundary subcomplex; ``weights[d]`` holds
    the weights of the simplices spanning the chosen d-cochains.
    """

    def __init__(self, base: SimplicialComplex, f, boundary_condition: str = "absolute"):
        if boundary_condition not in ("absolute", "relative"):
            raise ValueError("boundary_condition must be 'absolute' or 'relative'")
        self.base = base
        self.boundary_condition = boundary_condition
        nverts = base.n_simplices(0)
        f = np.asarray(f, dtype=float)
        if f.shape != (nverts,):
            raise ValueError(f"vertex function must have {nverts} entries")
        self.f = f
        with np.errstate(over="ignore"):  # an overflow is rejected just below
            weights = {d: np.exp(f[v].mean(axis=1)) for d, v in base._vertices.items()}
        # a NaN or infinite f, or one whose exponential over- or underflows
        if not all(np.all(np.isfinite(w) & (w > 0)) for w in weights.values()):
            raise ValueError("twisting weights must be finite and positive")
        self._relative = boundary_condition == "relative"
        self.weights = {d: w[base._interior[d]] if self._relative else w for d, w in weights.items()}

    def weight_vector(self, k: int) -> np.ndarray:
        """Weights of the k-cochain basis; empty outside degrees 0..dim."""
        return self.weights.get(k, _NO_WEIGHTS)


_NO_WEIGHTS = np.zeros(0)
_EPS = float(np.finfo(float).eps)


def twisted_coboundary(T: TwistedComplex, k: int) -> np.ndarray:
    """Float matrix of d_f = W_{k+1}^{-1} D_k W_k on the chosen cochain space."""
    if not (0 <= k <= T.base.dim):
        raise ValueError(f"k = {k} out of range")
    D = _coboundary(T.base, k, T._relative)
    return (D * T.weight_vector(k)[None, :]) / T.weight_vector(k + 1)[:, None]


def twisted_composition_exact(T: TwistedComplex, k: int) -> np.ndarray:
    """d_f o d_f computed through the factored form W^{-1} (D_{k+1} D_k) W.

    The diagonal weight factors cancel exactly by associativity, so this is
    the zero matrix whenever the integer product D_{k+1} D_k is zero; it is
    the exact value of the float composition's underlying linear map.
    """
    P = _coboundary(T.base, k + 1, T._relative) @ _coboundary(T.base, k, T._relative)  # integer arithmetic
    return (P * T.weight_vector(k)[None, :]) / T.weight_vector(k + 2)[:, None]


def twisted_laplacian(T: TwistedComplex, k: int) -> np.ndarray:
    """Delta^f_k = d_f^T d_f + d_{f,k-1} d_{f,k-1}^T on k-cochains."""
    A = twisted_coboundary(T, k)
    out = A.T @ A
    if k >= 1:
        B = twisted_coboundary(T, k - 1)
        out = out + B @ B.T
    return out


def _svd_error(s: np.ndarray, shape) -> float:
    """Backward error c dim eps ||M||, c = 10, of the float singular values
    ``s`` (descending) of a matrix of this shape."""
    return 10.0 * max(shape) * _EPS * (float(s[0]) if s.size else 0.0)


def _twisted_floor(T: TwistedComplex, j: int) -> float:
    """Lower bound sigma+_min(D_j) min w_j / max w_{j+1} on the nonzero
    singular values of d_{f,j} = W_{j+1}^{-1} D_j W_j; inf when D_j = 0.
    sigma+_min(D_j) is kept per degree and condition: the smallest float
    singular value of the integer D_j above the backward error, where an
    exact zero lands, less that error."""
    K, key = T.base, (j, T._relative)
    if key not in K._floors:
        D = _coboundary(K, j, T._relative).astype(float)
        s = np.linalg.svd(D, compute_uv=False)
        nonzero = s[s > _svd_error(s, D.shape)]
        K._floors[key] = float(nonzero[-1]) - _svd_error(s, D.shape) if nonzero.size else np.inf
    floor = K._floors[key]
    return floor if floor == np.inf else floor * T.weight_vector(j).min() / T.weight_vector(j + 1).max()


def harmonic_dimension(T: TwistedComplex, k: int) -> int:
    """Kernel dimension of the twisted Laplacian, certified or exact.

    Delta_f is the Gram matrix of M = [d_f ; d_{f,k-1}^T], so the kernel is
    read from M's singular values without squaring the condition number.
    As d_f d_{f,k-1} = 0, each nonzero one is one of d_f or d_{f,k-1}, so at
    least the smaller ``_twisted_floor``.  When that bound exceeds twice the
    SVD's backward error, exactly the nonzero ones compute above half of
    it: the count is proved.  Otherwise the exact ranks decide.
    """
    A = twisted_coboundary(T, k)
    M = np.vstack([A, twisted_coboundary(T, k - 1).T]) if k >= 1 else A
    s = np.linalg.svd(M, compute_uv=False)
    bound = min(_twisted_floor(T, j) for j in range(max(k - 1, 0), k + 1))
    if bound > 2.0 * _svd_error(s, M.shape):
        return M.shape[1] - int(np.sum(s > 0.5 * bound))
    return _betti(T.base, k, T._relative)


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


def circle_complex(m: int = 3) -> SimplicialComplex:
    edges = [(i, (i + 1) % m) for i in range(m)]
    return SimplicialComplex(_close_down(edges, 1))


def disk_complex() -> SimplicialComplex:
    return SimplicialComplex(_close_down([(0, 1, 2)], 2))


def moebius_complex() -> SimplicialComplex:
    tris = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]
    return SimplicialComplex(_close_down(tris, 2))


def prism_product(base: SimplicialComplex, layers: int, cyclic: bool) -> SimplicialComplex:
    """Staircase triangulation of base x interval (or base x circle).

    Vertices (v, layer) are numbered layer * V + v, v the position of a base
    vertex among the sorted labels.  Over a base p-simplex with ordered
    vertices v_0 < ... < v_p the prism between layers l, l+1
    is cut into the (p+1)-simplices {bottom v_0..v_j, top v_j..v_p}; the
    induced quad diagonals depend only on the global vertex order, so
    neighbouring prisms match.  Cyclic products need at least 3 layers.
    """
    if cyclic and layers < 3:
        raise ValueError("cyclic products need at least 3 layers")
    if not cyclic and layers < 1:
        raise ValueError("need at least one layer")
    V = base.n_simplices(0)
    p = base.dim
    nlay = layers if cyclic else layers + 1

    def node(v, layer):
        return (layer % nlay) * V + v

    tops = []
    for l in range(layers):
        for s in base._vertices[p].tolist():
            for j in range(p + 1):
                bottom = [node(v, l) for v in s[: j + 1]]
                top = [node(v, l + 1) for v in s[j:]]
                tops.append(tuple(bottom + top))
    return SimplicialComplex(_close_down(tops, p + 1))


def sphere_complex(dim: int) -> SimplicialComplex:
    """Boundary of the (dim+1)-simplex."""
    verts = range(dim + 2)
    return SimplicialComplex(_close_down(list(combinations(verts, dim + 1)), dim))


BUNDLED = {  # name -> constructor of the complexes shipped by name
    "interval": interval_complex,
    "circle": circle_complex,
    "disk": disk_complex,
    "annulus": lambda: prism_product(circle_complex(), 1, cyclic=False),
    "moebius": moebius_complex,
    "torus": lambda: prism_product(circle_complex(), 3, cyclic=True),
    "solid_torus": lambda: prism_product(disk_complex(), 3, cyclic=True),
    "s2xs1": lambda: prism_product(sphere_complex(2), 3, cyclic=True),
}


# -- serialisation -------------------------------------------------------


def complex_to_json(K: SimplicialComplex) -> dict:
    return {
        "dim": K.dim,
        "simplices": {str(d): [list(s) for s in K.simplices[d]] for d in sorted(K.simplices)},
    }


def load_complex(doc) -> SimplicialComplex:
    """Complex file format: {"dim": d, "simplices": {"0": [...], ...}}; the
    constructor validates labels, dimensions, vertices and closure."""
    simplices = {int(d): [tuple(s) for s in items] for d, items in doc["simplices"].items()}
    K = SimplicialComplex(simplices)
    if K.dim != int(doc.get("dim", K.dim)):
        raise ValueError("declared dimension does not match the simplex lists")
    return K


@lru_cache(maxsize=None)
def load_bundled(name: str) -> SimplicialComplex:
    if name not in BUNDLED:
        raise ValueError(f"unknown bundled complex {name!r}; have {tuple(BUNDLED)}")
    return BUNDLED[name]()
