"""Simplicial cochain complexes with twisted differentials and absolute or
relative boundary conditions.

Cohomology ranks are computed over exact rationals on the integer
coboundary matrices; they are the authoritative Betti numbers.  The twisted
differential conjugates the coboundary by positive per-simplex weights
w(s) = exp(mean of a vertex function over s), so its rank, and hence the
twisted harmonic dimension, never depends on the twist: that invariance is
what the floating-point kernel computation is tested against.
"""

from __future__ import annotations

from fractions import Fraction
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

BUNDLED = ("interval", "circle", "disk", "annulus", "moebius", "torus", "solid_torus", "s2xs1")
GAP_RATIO = 1e3  # spectral room harmonic_dimension needs to trust the float kernel


class SimplicialComplex:
    """Oriented simplicial complex; simplices are sorted vertex tuples.

    Every face of every simplex must be present (closure); the integer
    boundary matrices then satisfy del o del = 0 exactly, which is checked
    at construction.
    """

    def __init__(self, simplices_by_dim: dict):
        self.simplices = {}
        for d, items in simplices_by_dim.items():
            d = int(d)
            seen = []
            for s in items:
                t = tuple(sorted(int(v) for v in s))
                if len(set(t)) != len(t):
                    raise ValueError(f"degenerate simplex {s}")
                if len(t) != d + 1:
                    raise ValueError(f"simplex {s} listed under dimension {d}")
                seen.append(t)
            if len(set(seen)) != len(seen):
                raise ValueError(f"duplicate simplices in dimension {d}")
            self.simplices[d] = sorted(set(seen))
        self.dim = max(self.simplices) if self.simplices else 0
        self._index = {
            d: {s: i for i, s in enumerate(self.simplices[d])} for d in self.simplices
        }
        self._validate_closure()
        for k in range(2, self.dim + 1):
            B1 = self.boundary_matrix(k)
            B2 = self.boundary_matrix(k - 1)
            if np.any(B2 @ B1):
                raise ValueError(f"boundary of boundary is nonzero in dimension {k}")

    def _validate_closure(self):
        for d in range(1, self.dim + 1):
            lower = self._index.get(d - 1, {})
            for s in self.simplices.get(d, []):
                for face in combinations(s, d):
                    if face not in lower:
                        raise ValueError(f"face {face} of {s} missing: complex not closed")

    def n_simplices(self, k: int) -> int:
        return len(self.simplices.get(k, []))

    def boundary_matrix(self, k: int) -> np.ndarray:
        """Integer matrix of del_k : C_k -> C_{k-1} (columns = k-simplices)."""
        rows = self.n_simplices(k - 1)
        cols = self.n_simplices(k)
        B = np.zeros((rows, cols), dtype=np.int64)
        idx = self._index.get(k - 1, {})
        for j, s in enumerate(self.simplices.get(k, [])):
            for t, v in enumerate(s):
                face = s[:t] + s[t + 1:]
                B[idx[face], j] = (-1) ** t
        return B

    def coboundary_matrix(self, k: int) -> np.ndarray:
        """Integer matrix of d_k : C^k -> C^{k+1}."""
        return self.boundary_matrix(k + 1).T

    def boundary_subcomplex(self):
        """Simplices of the (dim-1)-faces lying in exactly one top simplex,
        closed under faces; assumes a pure complex."""
        top = self.dim
        counts = {}
        for s in self.simplices.get(top, []):
            for face in combinations(s, top):
                counts[face] = counts.get(face, 0) + 1
        boundary = {d: set() for d in range(top)}
        for face, c in counts.items():
            if c == 1:
                boundary[top - 1].add(face)
                for d in range(top - 1):
                    for sub in combinations(face, d + 1):
                        boundary[d].add(sub)
        return {d: sorted(v) for d, v in boundary.items() if v}

    def interior_indices(self, k: int):
        """Indices of k-simplices not contained in the boundary subcomplex."""
        bnd = set(self.boundary_subcomplex().get(k, []))
        return [i for i, s in enumerate(self.simplices.get(k, [])) if s not in bnd]


def exact_rank(M: np.ndarray) -> int:
    """Rank over the rationals by fraction-free Gaussian elimination."""
    rows = [[Fraction(int(x)) for x in row] for row in np.asarray(M)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = Fraction(1, 1) / prow[col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] * inv
            if factor != 0:
                rows[r] = [a - factor * b for a, b in zip(rows[r], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _restricted(M: np.ndarray, row_keep, col_keep) -> np.ndarray:
    return M[np.ix_(row_keep, col_keep)] if M.size else M.reshape(len(row_keep), len(col_keep))


def _cochain_matrices(K: SimplicialComplex, k: int, relative: bool):
    """(d_k, d_{k-1}, dim C^k) on the absolute or relative cochain space."""
    Dk = K.coboundary_matrix(k)
    Dkm1 = K.coboundary_matrix(k - 1) if k >= 1 else np.zeros((K.n_simplices(0), 0), dtype=np.int64)
    if not relative:
        return Dk, Dkm1, K.n_simplices(k)
    keep_k = K.interior_indices(k)
    keep_kp1 = K.interior_indices(k + 1)
    keep_km1 = K.interior_indices(k - 1) if k >= 1 else []
    Dk = _restricted(Dk, keep_kp1, keep_k)
    Dkm1 = _restricted(Dkm1, keep_k, keep_km1)
    return Dk, Dkm1, len(keep_k)


def betti(K: SimplicialComplex, k: int) -> int:
    """dim H^k(K; Q) by exact ranks."""
    if not (0 <= k <= K.dim):
        raise ValueError(f"k = {k} out of range for a {K.dim}-complex")
    Dk, Dkm1, nk = _cochain_matrices(K, k, relative=False)
    return nk - exact_rank(Dk) - exact_rank(Dkm1)


def betti_relative(K: SimplicialComplex, k: int) -> int:
    """dim H^k(K, boundary; Q): cochains vanishing on the boundary subcomplex."""
    if not (0 <= k <= K.dim):
        raise ValueError(f"k = {k} out of range for a {K.dim}-complex")
    Dk, Dkm1, nk = _cochain_matrices(K, k, relative=True)
    return nk - exact_rank(Dk) - exact_rank(Dkm1)


class TwistedComplex:
    """Cochain complex twisted by positive weights exp(mean f over vertices).

    boundary_condition "absolute" keeps all cochains, "relative" restricts
    to cochains supported off the boundary subcomplex.
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
        self.weights = {
            d: np.exp(np.array([np.mean([f[v] for v in s]) for s in base.simplices[d]]))
            for d in base.simplices
        }
        if any(np.any(w <= 0) for w in self.weights.values()):
            raise ValueError("twisting weights must be positive")

    @property
    def relative(self) -> bool:
        return self.boundary_condition == "relative"

    def _keep(self, k: int):
        if not self.relative:
            return list(range(self.base.n_simplices(k)))
        return self.base.interior_indices(k)

    def weight_vector(self, k: int) -> np.ndarray:
        w = self.weights.get(k, np.zeros(0))
        return w[self._keep(k)] if len(w) else w

    def integer_coboundary(self, k: int) -> np.ndarray:
        D = self.base.coboundary_matrix(k)
        if self.relative:
            D = _restricted(D, self.base.interior_indices(k + 1), self.base.interior_indices(k))
        return D


def twisted_coboundary(T: TwistedComplex, k: int) -> np.ndarray:
    """Float matrix of d_f = W_{k+1}^{-1} D_k W_k on the chosen cochain space."""
    if not (0 <= k <= T.base.dim):
        raise ValueError(f"k = {k} out of range")
    D = T.integer_coboundary(k)
    wk = T.weight_vector(k)
    wk1 = T.weight_vector(k + 1) if k + 1 <= T.base.dim else np.ones(D.shape[0])
    return (D * wk[None, :]) / wk1[:, None]


def twisted_composition_exact(T: TwistedComplex, k: int) -> np.ndarray:
    """d_f o d_f computed through the factored form W^{-1} (D_{k+1} D_k) W.

    The diagonal weight factors cancel exactly by associativity, so this is
    the zero matrix whenever the integer product D_{k+1} D_k is zero; it is
    the exact value of the float composition's underlying linear map.
    """
    D1 = T.integer_coboundary(k + 1)
    D0 = T.integer_coboundary(k)
    P = D1 @ D0  # integer arithmetic
    wk = T.weight_vector(k)
    wk2 = T.weight_vector(k + 2) if k + 2 <= T.base.dim else np.ones(D1.shape[0])
    return (P * wk[None, :]) / wk2[:, None]


def twisted_laplacian(T: TwistedComplex, k: int, mass: str = "identity") -> np.ndarray:
    """Delta^f_k = d_f^* d_f + d_{f,k-1} d_{f,k-1}^* on k-cochains.

    mass "identity" uses the plain transpose adjoint; "weights" takes the
    adjoint in the inner products with diagonal mass diag(w_k^2).  The
    kernel dimension is the same either way (positive diagonal congruence),
    which is itself one of the tested invariances.
    """
    if mass not in ("identity", "weights"):
        raise ValueError("mass must be 'identity' or 'weights'")
    A = twisted_coboundary(T, k)
    if mass == "identity":
        out = A.T @ A
        if k >= 1:
            B = twisted_coboundary(T, k - 1)
            out = out + B @ B.T
        return out
    wk2 = T.weight_vector(k) ** 2
    wk1 = (T.weight_vector(k + 1) ** 2) if k + 1 <= T.base.dim else np.ones(A.shape[0])
    out = (A.T * wk1[None, :]) @ A / wk2[:, None]
    if k >= 1:
        B = twisted_coboundary(T, k - 1)
        wkm1 = T.weight_vector(k - 1) ** 2
        out = out + B @ ((B.T * wk2[None, :]) / wkm1[:, None])
    return out


def harmonic_dimension(T: TwistedComplex, k: int, mass: str = "identity") -> int:
    """Kernel dimension of the twisted Laplacian.

    Floating eigendecomposition with the relative threshold 1e-10 of the
    largest eigenvalue; when the ratio of the smallest kept to the largest
    discarded eigenvalue is below the fixed GAP_RATIO = 1e3, or the largest
    discarded one lies within a factor GAP_RATIO under the threshold, the
    exact integer-rank route decides instead (the twisted rank equals the
    untwisted one: conjugation by positive diagonals).
    """
    L = twisted_laplacian(T, k, mass=mass)
    if L.shape[0] == 0:
        return 0
    if mass == "weights":
        # self-adjoint in the weighted product; conjugate to a symmetric form
        w = T.weight_vector(k)
        L = (L * w[:, None]) / w[None, :]
    evals = np.linalg.eigvalsh(0.5 * (L + L.T))
    scale = max(float(evals[-1]), 1e-300)
    cut = 1e-10 * scale
    m = int(np.sum(evals < cut))
    ambiguous = 0 < m < len(evals) and (
        evals[m - 1] * GAP_RATIO > cut or evals[m] < GAP_RATIO * max(float(evals[m - 1]), scale * 1e-16)
    )
    if ambiguous:
        return _exact_harmonic_dimension(T, k)
    return m


def _exact_harmonic_dimension(T: TwistedComplex, k: int) -> int:
    Dk = T.integer_coboundary(k)
    nk = Dk.shape[1]
    rk = exact_rank(Dk)
    rkm1 = exact_rank(T.integer_coboundary(k - 1)) if k >= 1 else 0
    return nk - rk - rkm1


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

    Vertices (v, layer) are numbered layer * V + v.  Over a base p-simplex
    with ordered vertices v_0 < ... < v_p the prism between layers l, l+1
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
        for s in base.simplices[p]:
            for j in range(p + 1):
                bottom = [node(v, l) for v in s[: j + 1]]
                top = [node(v, l + 1) for v in s[j:]]
                tops.append(tuple(bottom + top))
    return SimplicialComplex(_close_down(tops, p + 1))


def sphere_complex(dim: int) -> SimplicialComplex:
    """Boundary of the (dim+1)-simplex."""
    verts = range(dim + 2)
    return SimplicialComplex(_close_down(list(combinations(verts, dim + 1)), dim))


def build_bundled(name: str) -> SimplicialComplex:
    if name == "interval":
        return interval_complex()
    if name == "circle":
        return circle_complex(3)
    if name == "disk":
        return disk_complex()
    if name == "annulus":
        return prism_product(circle_complex(3), 1, cyclic=False)
    if name == "moebius":
        return moebius_complex()
    if name == "torus":
        return prism_product(circle_complex(3), 3, cyclic=True)
    if name == "solid_torus":
        return prism_product(disk_complex(), 3, cyclic=True)
    if name == "s2xs1":
        return prism_product(sphere_complex(2), 3, cyclic=True)
    raise ValueError(f"unknown complex {name!r}")


# -- serialisation -------------------------------------------------------


def complex_to_json(K: SimplicialComplex) -> dict:
    return {
        "dim": K.dim,
        "simplices": {str(d): [list(s) for s in K.simplices[d]] for d in sorted(K.simplices)},
    }


def load_complex(doc) -> SimplicialComplex:
    """Complex file format: {"dim": d, "simplices": {"0": [...], ...}};
    closure under faces is validated by the constructor."""
    simplices = {int(d): [tuple(s) for s in items] for d, items in doc["simplices"].items()}
    K = SimplicialComplex(simplices)
    if K.dim != int(doc.get("dim", K.dim)):
        raise ValueError("declared dimension does not match the simplex lists")
    return K


@lru_cache(maxsize=None)
def load_bundled(name: str) -> SimplicialComplex:
    if name not in BUNDLED:
        raise ValueError(f"unknown bundled complex {name!r}; have {BUNDLED}")
    return build_bundled(name)
