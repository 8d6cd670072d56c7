import numpy as np
import pytest
import scipy.sparse as sp

from polympe.solvers import SingularMatrixError, factorize


def test_identity():
    f = factorize(sp.identity(5, format="csr"))
    b = np.arange(5.0)
    assert np.allclose(f.solve(b), b)


def test_permuted_diagonal():
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    f = factorize(A)
    assert np.allclose(f.solve(np.array([2.0, 3.0])), [3.0, 2.0])


def test_complex_matrix_solves_complex_rhs():
    # the harmonic responses solve G(i omega) X = F through factorize
    A = sp.csr_matrix(np.array([[2.0 + 1.0j, 1.0], [0.0, 1.0 - 3.0j]]))
    b = np.array([1.0 + 2.0j, -1.0j])
    x = factorize(A).solve(b)
    assert x.dtype == np.complex128
    assert np.allclose(A @ x, b, rtol=0, atol=1e-14)


def test_singular_reported():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        factorize(A)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        factorize(sp.csr_matrix((3, 4)))


def test_dimension_mismatch():
    f = factorize(sp.identity(4, format="csc"))
    with pytest.raises(ValueError):
        f.solve(np.ones(5))


def test_solve_multiply_roundtrip():
    rng = np.random.default_rng(2)
    A = sp.random(60, 60, density=0.1, random_state=3, format="csr") + 10 * sp.identity(60)
    f = factorize(A)
    for _ in range(5):
        b = rng.standard_normal(60)
        x = f.solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_steady_system_residual(steady, mesh80):
    from polympe import forms
    from polympe.families import VERIFICATION_DIRICHLET
    from polympe.system import build_global, build_system

    sysm = build_system(mesh80, 2, steady.params, VERIFICATION_DIRICHLET)
    loads = forms.assemble_loads(sysm.space, steady.params, sysm.faces, steady, 0.0)
    matrix = build_global(sysm)
    x = factorize(matrix).solve(loads)
    assert np.linalg.norm(matrix @ x - loads) <= 1e-10 * np.linalg.norm(loads)
