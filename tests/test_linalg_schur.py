"""Tests for Schur complement kernels and the blocked inverse."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.linalg import blocked_inverse, d_type_schur, m_type_schur
from repro.linalg.schur import d_type_back_substitute


def random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def build_arrow_system(p, q, seed=0):
    """SPD system [[diag(u), W^T], [W, V]] like the SLAM linear system."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(1.0, 3.0, size=p)
    w = rng.normal(size=(q, p))
    v = random_spd(q, seed=seed + 1) + (w @ np.diag(1.0 / u) @ w.T)
    full = np.block([[np.diag(u), w.T], [w, v]])
    rhs = rng.normal(size=p + q)
    return u, w, v, full, rhs


class TestDTypeSchur:
    def test_matches_dense_elimination(self):
        u, w, v, full, rhs = build_arrow_system(12, 5, seed=1)
        reduced, reduced_rhs = d_type_schur(v, w, u, b_x=rhs[:12], b_y=rhs[12:])
        x_full = np.linalg.solve(full, rhs)
        dy = np.linalg.solve(reduced, reduced_rhs)
        assert np.allclose(dy, x_full[12:], atol=1e-8)

    def test_back_substitution_recovers_eliminated(self):
        u, w, v, full, rhs = build_arrow_system(10, 4, seed=2)
        reduced, reduced_rhs = d_type_schur(v, w, u, b_x=rhs[:10], b_y=rhs[10:])
        dy = np.linalg.solve(reduced, reduced_rhs)
        dx = d_type_back_substitute(w, u, rhs[:10], dy)
        x_full = np.linalg.solve(full, rhs)
        assert np.allclose(dx, x_full[:10], atol=1e-8)

    def test_zero_diagonal_raises(self):
        with pytest.raises(SolverError):
            d_type_schur(np.eye(2), np.zeros((2, 3)), np.array([1.0, 0.0, 2.0]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            d_type_schur(np.eye(2), np.zeros((3, 4)), np.ones(4))

    def test_no_rhs_returns_none(self):
        u, w, v, _, _ = build_arrow_system(6, 3, seed=3)
        reduced, reduced_rhs = d_type_schur(v, w, u)
        assert reduced_rhs is None
        assert reduced.shape == (3, 3)


class TestBlockedInverse:
    @pytest.mark.parametrize("split", [1, 3, 7])
    def test_matches_numpy_inverse(self, split):
        matrix = random_spd(8, seed=split)
        inverse = blocked_inverse(matrix, split)
        assert np.allclose(inverse, np.linalg.inv(matrix), atol=1e-8)

    def test_diagonal_fast_path(self):
        rng = np.random.default_rng(4)
        p, q = 6, 4
        diag = rng.uniform(1.0, 2.0, size=p)
        coupling = rng.normal(size=(p, q)) * 0.1
        lower = random_spd(q, seed=5)
        matrix = np.block([[np.diag(diag), coupling], [coupling.T, lower]])
        inverse = blocked_inverse(matrix, p, diagonal_11=True)
        assert np.allclose(inverse, np.linalg.inv(matrix), atol=1e-8)

    def test_diagonal_claim_checked(self):
        matrix = random_spd(6, seed=6)  # dense M11
        with pytest.raises(SolverError):
            blocked_inverse(matrix, 3, diagonal_11=True)

    def test_invalid_split_raises(self):
        with pytest.raises(ValueError):
            blocked_inverse(np.eye(4), 0)
        with pytest.raises(ValueError):
            blocked_inverse(np.eye(4), 4)


class TestMTypeSchur:
    def _build(self, r, m, seed=0):
        rng = np.random.default_rng(seed)
        big = random_spd(r + m, seed=seed)
        h = big  # information matrix blocked as [[M, Lambda^T], [Lambda, A]]
        m_block = h[:m, :m]
        lam = h[m:, :m]
        a_block = h[m:, m:]
        b = rng.normal(size=r + m)
        return a_block, lam, m_block, b[:m], b[m:], h, b

    def test_prior_matches_dense_marginalization(self):
        a_block, lam, m_block, b_m, b_r, h, b = self._build(5, 7, seed=7)
        hp, rp = m_type_schur(a_block, lam, m_block, b_m, b_r)
        # Dense reference: marginalize the first block of the joint
        # Gaussian; the conditional information is the Schur complement.
        expected_h = a_block - lam @ np.linalg.inv(m_block) @ lam.T
        expected_r = b_r - lam @ np.linalg.inv(m_block) @ b_m
        assert np.allclose(hp, expected_h, atol=1e-8)
        assert np.allclose(rp, expected_r, atol=1e-8)

    def test_prior_is_symmetric(self):
        a_block, lam, m_block, b_m, b_r, _, _ = self._build(4, 6, seed=8)
        hp, _ = m_type_schur(a_block, lam, m_block, b_m, b_r)
        assert np.allclose(hp, hp.T)

    def test_blocked_split_path_agrees(self):
        rng = np.random.default_rng(9)
        m, r, split = 8, 4, 5
        diag = rng.uniform(1.0, 2.0, size=split)
        m22 = random_spd(m - split, seed=10)
        m12 = rng.normal(size=(split, m - split)) * 0.1
        m_block = np.block([[np.diag(diag), m12], [m12.T, m22]])
        lam = rng.normal(size=(r, m))
        a_block = random_spd(r, seed=11) + lam @ np.linalg.inv(m_block) @ lam.T
        b_m, b_r = rng.normal(size=m), rng.normal(size=r)
        hp1, rp1 = m_type_schur(a_block, lam, m_block, b_m, b_r)
        hp2, rp2 = m_type_schur(a_block, lam, m_block, b_m, b_r, m_diagonal_split=split)
        assert np.allclose(hp1, hp2, atol=1e-8)
        assert np.allclose(rp1, rp2, atol=1e-8)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            m_type_schur(np.eye(3), np.zeros((2, 4)), np.eye(4), np.zeros(4), np.zeros(3))
