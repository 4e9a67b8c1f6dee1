import numpy as np
import pytest

from corostab import tensor3 as t3
from corostab.errors import DomainError, InvalidInputError

from conftest import random_spd, random_rotation
from oracles import expm_sym, inner, logm_spd, norm, vec6


def test_eig_diagonal_is_sorted():
    es = t3.eig_sym(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(es.values, [3.0, 2.0, 1.0])
    # frame must be a signed permutation of the axes
    assert np.allclose(np.abs(es.frame), np.eye(3)[:, [0, 2, 1]])


def test_eig_identity_degenerate():
    es = t3.eig_sym(np.eye(3))
    np.testing.assert_allclose(es.values, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(es.frame @ es.frame.T, np.eye(3), atol=1e-12)


def test_eig_round_trip_random_rotation():
    rng = np.random.default_rng(7)
    d_true = np.array([5.0, 2.0, 1.0])
    for _ in range(50):
        Q = random_rotation(rng)
        A = (Q * d_true) @ Q.T
        es = t3.eig_sym(A)
        np.testing.assert_allclose(es.values, d_true, atol=1e-10)
        recon = (es.frame * es.values) @ es.frame.T
        assert np.max(np.abs(recon - A)) <= 1e-10 * max(1.0, norm(A))
        assert np.max(np.abs(es.frame.T @ es.frame - np.eye(3))) <= 1e-12


def test_eig_near_degenerate_reconstruction():
    rng = np.random.default_rng(8)
    for gap in (1e-13, 1e-14, 0.0):
        Q = random_rotation(rng)
        A = (Q * np.array([2.0, 2.0 + gap, 1.0])) @ Q.T
        es = t3.eig_sym(A)
        recon = (es.frame * es.values) @ es.frame.T
        assert np.max(np.abs(recon - A)) <= 1e-10 * max(1.0, norm(A))


def test_eig_rejects_non_finite():
    A = np.eye(3)
    A[0, 1] = A[1, 0] = np.nan
    with pytest.raises(InvalidInputError):
        t3.eig_sym(A)


def test_basis6_orthonormal():
    E = t3.basis6()
    for i in range(6):
        for j in range(6):
            assert abs(inner(E[i], E[j]) - (i == j)) <= 1e-15


# --- the test-side references in oracles.py: the matrix log and the
# six-component view that the tangent and two-point tests are checked with


def test_log_of_diagonal():
    out = logm_spd(np.diag([np.e, 1.0, 1.0]))
    np.testing.assert_allclose(out, np.diag([1.0, 0.0, 0.0]), atol=1e-14)


def test_log_V_is_half_log_B():
    V = np.diag([2.0, 3.0, 0.5])
    B = V @ V
    np.testing.assert_allclose(logm_spd(V), 0.5 * logm_spd(B), atol=1e-13)
    # and in a rotated frame
    Q = random_rotation(np.random.default_rng(3))
    np.testing.assert_allclose(
        logm_spd(Q @ V @ Q.T), 0.5 * logm_spd(Q @ B @ Q.T), atol=1e-13
    )


def test_exp_log_round_trip():
    Q = random_rotation(np.random.default_rng(4))
    A = (Q * np.array([4.0, 2.0, 1.0])) @ Q.T
    back = expm_sym(logm_spd(A))
    assert np.max(np.abs(back - A)) <= 1e-10 * norm(A)


def test_exp_log_round_trip_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        A = random_spd(rng, scale=2.0)
        back = expm_sym(logm_spd(A))
        assert np.max(np.abs(back - A)) <= 1e-10 * max(1.0, norm(A))


def test_log_rejects_non_spd():
    with pytest.raises(DomainError):
        logm_spd(np.diag([1.0, -1.0, 2.0]))
    with pytest.raises(DomainError):
        logm_spd(np.diag([0.0, 1.0, 1.0]))


def test_logm_degenerate_independence():
    # log acting on a degenerate subspace must not depend on the frame choice
    A = np.diag([2.0, 2.0, 1.0])
    out = logm_spd(A)
    np.testing.assert_allclose(out, np.diag(np.log([2.0, 2.0, 1.0])), atol=1e-14)
    # eigh picks an arbitrary frame in the double eigenspace of a rotated A
    Q = random_rotation(np.random.default_rng(13))
    out = logm_spd(Q @ A @ Q.T)
    np.testing.assert_allclose(out, Q @ np.diag(np.log([2.0, 2.0, 1.0])) @ Q.T, atol=1e-14)


def test_matrix_log_monotonicity():
    rng = np.random.default_rng(6)
    for _ in range(200):
        B1 = random_spd(rng, scale=1.5)
        B2 = random_spd(rng, scale=1.5)
        val = inner(B1 - B2, logm_spd(B1) - logm_spd(B2))
        assert val >= 0.0
        if norm(B1 - B2) > 1e-8:
            assert val > 0.0


def test_matrix_log_monotonicity_worked_pair():
    B1, B2 = np.diag([4.0, 1.0, 1.0]), np.eye(3)
    val = inner(B1 - B2, logm_spd(B1) - logm_spd(B2))
    assert abs(val - 3.0 * np.log(4.0)) <= 1e-12


def test_vec6_identity():
    np.testing.assert_allclose(vec6(np.eye(3)), [1, 1, 1, 0, 0, 0])


def test_vec6_offdiagonal_isometry_by_hand():
    A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    v = vec6(A)
    np.testing.assert_allclose(v, [0, 0, 0, np.sqrt(2.0), 0, 0], rtol=1e-15)
    assert np.dot(v, v) == pytest.approx(2.0)  # == |A|_F^2


def test_vec6_isometry_random():
    rng = np.random.default_rng(9)
    for _ in range(300):
        A = t3.sym(rng.standard_normal((3, 3)))
        B = t3.sym(rng.standard_normal((3, 3)))
        lhs = inner(A, B)
        rhs = np.dot(vec6(A), vec6(B))
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, norm(A) * norm(B))
        # the components are the coordinates in basis6
        back = sum(c * E for c, E in zip(vec6(A), t3.basis6()))
        np.testing.assert_allclose(back, A, atol=1e-15)


def test_batched_spectral_ops():
    rng = np.random.default_rng(12)
    As = np.stack([random_spd(rng) for _ in range(17)])
    logs = logm_spd(As)
    singles = np.stack([logm_spd(A) for A in As])
    np.testing.assert_allclose(logs, singles, atol=1e-12)
