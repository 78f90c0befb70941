from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from picband import exterior as E


def test_wedge_basis_case():
    a = E.basis_form(4, 1)
    b = E.basis_form(4, 2)
    assert E.wedge(a, b).coeffs == {(1, 2): 1.0 + 0j}


def test_wedge_antisymmetry():
    a = E.basis_form(4, 1)
    assert E.wedge(a, a).coeffs == {}


def test_wedge_linearity():
    a = E.basis_form(4, 1) + E.basis_form(4, 2)
    b = E.basis_form(4, 2)
    out = E.wedge(a, b)
    assert out.coeffs == {(1, 2): 1.0 + 0j}


def test_wedge_unsorted_input_sign():
    assert E.FormElement(4, {(2, 1): 1.0}).coeffs == {(1, 2): -1.0 + 0j}


def test_interior_basis_contraction():
    a = E.basis_form(4, 1, 2)
    e1 = np.eye(4)[0]
    assert E.interior(e1, a).coeffs == {(2,): 1.0 + 0j}
    e3 = np.eye(4)[2]
    assert E.interior(e3, a).coeffs == {}


@pytest.mark.parametrize("n", range(4, 9))
def test_interior_wedge_adjoint(n, rng):
    for _ in range(1000):
        v = rng.standard_normal(n)
        k = int(rng.integers(1, n + 1))
        a = E.random_form(n, k, rng)
        b = E.random_form(n, k - 1, rng)
        lhs = E.inner(E.interior(v, a), b)
        rhs = E.inner(a, E.wedge_vector(v, b))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, a.norm() * b.norm())


def test_clifford_square_signs(rng):
    n = 4
    e1 = np.eye(n)[0]
    w = E.random_form(n, 2, rng)
    assert (E.clifford_c(e1, E.clifford_c(e1, w)) + w).norm() < 1e-13
    assert (E.clifford_ct(e1, E.clifford_ct(e1, w)) - w).norm() < 1e-13


def test_clifford_mixed_anticommute(rng):
    n = 4
    e1, e2 = np.eye(n)[0], np.eye(n)[1]
    w = E.random_form(n, 3, rng)
    out = E.clifford_c(e1, E.clifford_ct(e2, w)) + E.clifford_ct(e2, E.clifford_c(e1, w))
    assert out.norm() < 1e-13


@pytest.mark.parametrize("n", range(4, 9))
def test_clifford_relations_all_basis_pairs(n):
    eye = np.eye(n)
    for key in E.degree_basis(n, min(2, n)):
        a = E.FormElement(n, {key: 1.0})
        for i in range(n):
            for j in range(n):
                delta = 1.0 if i == j else 0.0
                r1 = (
                    E.clifford_c(eye[i], E.clifford_c(eye[j], a))
                    + E.clifford_c(eye[j], E.clifford_c(eye[i], a))
                    + 2.0 * delta * a
                )
                r2 = (
                    E.clifford_ct(eye[i], E.clifford_ct(eye[j], a))
                    + E.clifford_ct(eye[j], E.clifford_ct(eye[i], a))
                    - 2.0 * delta * a
                )
                r3 = E.clifford_c(eye[i], E.clifford_ct(eye[j], a)) + E.clifford_ct(
                    eye[j], E.clifford_c(eye[i], a)
                )
                assert r1.norm() == 0.0
                assert r2.norm() == 0.0
                assert r3.norm() == 0.0


def test_c_antiadjoint_ct_adjoint(rng):
    n = 6
    v = rng.standard_normal(n)
    a = E.random_form(n, 3, rng)
    b = E.random_form(n, 2, rng)
    assert abs(E.inner(E.clifford_c(v, a), b) + E.inner(a, E.clifford_c(v, b))) < 1e-12
    assert abs(E.inner(E.clifford_ct(v, a), b) - E.inner(a, E.clifford_ct(v, b))) < 1e-12


def test_chi_tangential_and_normal():
    nu = np.eye(4)[3]
    tang = E.basis_form(4, 1, 2)
    norm = E.wedge(E.basis_form(4, 1), E.basis_form(4, 4))
    assert (E.chi_involution(nu, tang) - tang).norm() == 0.0
    assert (E.chi_involution(nu, norm) + norm).norm() == 0.0


def test_chi_requires_unit_normal():
    with pytest.raises(ValueError):
        E.chi_involution(np.array([0.0, 0.0, 0.0, 2.0]), E.basis_form(4, 1))


def test_chi_involution_squares_to_identity(rng):
    n = 5
    nu = rng.standard_normal(n)
    nu /= np.linalg.norm(nu)
    a = E.random_form(n, 2, rng) + E.random_form(n, 3, rng)
    assert (E.chi_involution(nu, E.chi_involution(nu, a)) - a).norm() < 1e-12


def test_ct_of_unit_anticommutes_with_c_of_unit(rng):
    # used as ct(grad f) c(nu) = -c(nu) ct(grad f) in the boundary identities
    n = 5
    v = rng.standard_normal(n)
    nu = rng.standard_normal(n)
    a = E.random_form(n, 2, rng)
    lhs = E.clifford_ct(v, E.clifford_c(nu, a))
    rhs = E.clifford_c(nu, E.clifford_ct(v, a))
    assert (lhs + rhs).norm() < 1e-12


def test_boundary_split_direct_sum():
    nu = np.eye(4)[3]
    a = E.basis_form(4, 1, 2) + E.basis_form(4, 1, 4)
    t, n_ = E.boundary_split(nu, a)
    assert t.coeffs == {(1, 2): 1.0 + 0j}
    assert n_.coeffs == {(1, 4): 1.0 + 0j}


def test_boundary_split_tangential_passthrough():
    nu = np.eye(4)[3]
    a = E.basis_form(4, 1, 3)
    t, n_ = E.boundary_split(nu, a)
    assert (t - a).norm() == 0.0 and n_.norm() == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_boundary_split_norm_additivity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 7))
    nu = rng.standard_normal(n)
    nu /= np.linalg.norm(nu)
    a = E.random_form(n, int(rng.integers(1, n)), rng)
    t, m = E.boundary_split(nu, a)
    assert abs(a.norm2() - t.norm2() - m.norm2()) < 1e-10 * max(1.0, a.norm2())
    assert abs(E.inner(t, m)) < 1e-10 * max(1.0, a.norm2())
    # idempotent and chi-eigen
    t2, m2 = E.boundary_split(nu, t)
    assert (t2 - t).norm() < 1e-12 and m2.norm() < 1e-12


def test_operator_matrix_roundtrip(rng):
    n = 4
    e2 = np.eye(n)[1]
    M = E.operator_matrix(lambda a: E.interior(e2, a), n, 2, 1)
    w = E.random_form(n, 2, rng)
    direct = E.form_to_vec(E.interior(e2, w), 1)
    assert np.allclose(M @ E.form_to_vec(w, 2), direct)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        E.wedge(E.basis_form(3, 1), E.basis_form(4, 1))
    with pytest.raises(ValueError):
        E.interior(np.ones(3), E.basis_form(4, 1))


def _parity(perm) -> int:
    inversions = sum(perm[a] > perm[b] for a, b in combinations(range(len(perm)), 2))
    return -1 if inversions % 2 else 1


@pytest.mark.parametrize("n", range(1, 7))
def test_key_sign_is_permutation_parity(n):
    for k in range(n + 1):
        for key in combinations(range(1, n + 1), k):
            for perm in permutations(key):
                assert E.FormElement(n, {perm: 1.0}).coeffs == {key: complex(_parity(perm))}


@pytest.mark.parametrize("n", range(2, 9))
def test_stacks_anticommute(n):
    # i_{e_j} (theta^i ^ w) + theta^i ^ (i_{e_j} w) = delta_ij w in every degree
    for k in range(n + 1):
        lhs = (np.einsum("jab,ibc->ijac", E.interior_stack(n, k + 1), E.wedge_stack(n, k))
               + np.einsum("iab,jbc->ijac", E.wedge_stack(n, k - 1), E.interior_stack(n, k)))
        dim = len(E.degree_basis(n, k))
        assert np.array_equal(lhs, np.einsum("ij,ac->ijac", np.eye(n), np.eye(dim)))


@pytest.mark.parametrize("n", range(1, 7))
def test_stacks_match_form_operators(n):
    eye = np.eye(n)
    for k in range(n + 1):
        for j in range(1, n + 1):
            W = E.operator_matrix(lambda a: E.wedge(E.basis_form(n, j), a), n, k, k + 1)
            I = E.operator_matrix(lambda a: E.interior(eye[j - 1], a), n, k, k - 1)
            assert np.array_equal(E.wedge_stack(n, k)[j - 1], W)
            assert np.array_equal(E.interior_stack(n, k)[j - 1], I)


@pytest.mark.parametrize("n", [4, 5])
def test_two_form_blocks_are_the_composed_operators(n):
    P, Q = E.two_form_blocks(n)
    eye = np.eye(n)
    for i in range(n):
        for j in range(n):
            wi = E.operator_matrix(lambda a: E.wedge(E.basis_form(n, i + 1), E.interior(eye[j], a)), n, 2, 2)
            iw = E.operator_matrix(lambda a: E.interior(eye[i], E.wedge(E.basis_form(n, j + 1), a)), n, 2, 2)
            assert np.array_equal(P[i, j], wi) and np.array_equal(Q[i, j], iw)
    assert not P.flags.writeable and not Q.flags.writeable
