import numpy as np
import pytest

from picband import curvature as C
from picband import exterior as E


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def random_orthonormal(rng, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def sample_bounded_hessian(rng, n: int, r_f: float, lam: float, rho: float) -> np.ndarray:
    """Symmetric H with lambda_min >= -2/r_f and trace <= the drift cap."""
    cap = (n - 1) * lam / ((n - 1) + lam * rho)
    shifted_budget = cap + 2.0 * n / r_f
    s = rng.uniform(0.0, 1.0, n)
    s = s * (rng.uniform(0.0, 1.0) * shifted_budget / s.sum())
    eigs = s - 2.0 / r_f
    Q = random_orthonormal(rng, n)
    H = Q @ np.diag(eigs) @ Q.T
    return 0.5 * (H + H.T)


def random_form(n: int, k: int, rng) -> E.FormElement:
    """Degree-k form with standard complex normal coefficients."""
    basis = E.degree_basis(n, k)
    vec = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    return E.FormElement(n, dict(zip(basis, vec)))


def constant_curvature(n: int, kappa: float = 1.0) -> C.CurvTensor:
    """Sectional curvature kappa everywhere: (kappa/2) g o^ g."""
    return C.kulkarni_nomizu(np.eye(n), np.eye(n)) * (0.5 * kappa)


def random_curvature(n: int, rng) -> C.CurvTensor:
    """Random algebraic curvature tensor as the mean of six signed Kulkarni-Nomizu
    squares of random symmetric matrices (these span the curvature space)."""
    total = np.zeros((n, n, n, n))
    for _ in range(6):
        A = rng.standard_normal((n, n))
        h = 0.5 * (A + A.T)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        total += sign * C.kulkarni_nomizu(h, h).R
    return C.CurvTensor(total * (1.0 / 6))


def curvature_to_json(R: C.CurvTensor) -> dict:
    """Serialise the generating set {i<j, k<l, (i,j) <= (k,l)} of a tensor."""
    comps = []
    n = R.n
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for l in range(k + 1, n):
                    if (k, l) < (i, j):
                        continue
                    v = R.R[i, j, k, l]
                    if v != 0:
                        comps.append({"i": i + 1, "j": j + 1, "k": k + 1, "l": l + 1, "v": float(v)})
    return {"n": n, "components": comps}


def complex_to_json(K) -> dict:
    """The complex file format that hodge.load_complex reads."""
    return {
        "dim": K.dim,
        "simplices": {str(d): [list(s) for s in K.simplices[d]] for d in sorted(K.simplices)},
    }
