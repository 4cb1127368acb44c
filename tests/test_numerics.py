import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.linalg import lu_factor, lu_solve

from fbmimo.errors import DomainError, SingularMatrixError
from fbmimo.numerics import (RngStream, angle_sin2, beta_fn, haar_unitary, invert,
                             ln_gamma, sample_complex_gaussian, sample_isotropic_unit)


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = RngStream(42, 7).generator().standard_normal(64)
        b = RngStream(42, 7).generator().standard_normal(64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0).generator().standard_normal(64)
        b = RngStream(42, 1).generator().standard_normal(64)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = RngStream(1, 0).generator().standard_normal(64)
        b = RngStream(2, 0).generator().standard_normal(64)
        assert not np.array_equal(a, b)

    @given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=25, deadline=None)
    def test_keying_is_deterministic(self, seed, stream):
        a = RngStream(seed, stream).generator().random(8)
        b = RngStream(seed, stream).generator().random(8)
        assert np.array_equal(a, b)


class TestComplexGaussian:
    def test_moments(self):
        g = sample_complex_gaussian(4, RngStream(1, 0).generator(), size=50_000).ravel()
        # CN(0,1): zero mean, unit power, circular (vanishing pseudo-variance)
        assert abs(g.mean()) < 0.01
        assert abs(np.mean(np.abs(g) ** 2) - 1.0) < 0.02
        assert abs(np.mean(g ** 2)) < 0.01
        assert abs(g.real.var() - 0.5) < 0.02
        assert abs(g.imag.var() - 0.5) < 0.02

    def test_shapes(self):
        rng = RngStream(0, 0).generator()
        assert sample_complex_gaussian(3, rng).shape == (3,)
        assert sample_complex_gaussian(3, rng, size=5).shape == (5, 3)

    def test_bad_dim(self):
        with pytest.raises(DomainError):
            sample_complex_gaussian(0, RngStream(0, 0).generator())


class TestIsotropicUnit:
    def test_unit_norm(self):
        v = sample_isotropic_unit(6, RngStream(2, 0).generator(), size=1000)
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)

    def test_projection_is_beta(self):
        # |u^H w|^2 for independent isotropic u, w follows Beta(1, M-1)
        M = 4
        rng = RngStream(3, 0).generator()
        u = sample_isotropic_unit(M, rng, size=50_000)
        w = sample_isotropic_unit(M, rng, size=50_000)
        cos2 = np.abs(np.einsum("nm,nm->n", u.conj(), w)) ** 2
        assert stats.kstest(cos2, stats.beta(1, M - 1).cdf).pvalue > 0.01

    def test_unitary_invariance(self):
        # Qu has the same distribution as u for any fixed unitary Q
        M = 5
        q = haar_unitary(M, RngStream(4, 0).generator())
        u = sample_isotropic_unit(M, RngStream(4, 1).generator(), size=50_000)
        rotated = u @ q.T
        cos2 = np.abs(rotated[:, 0]) ** 2
        assert stats.kstest(cos2, stats.beta(1, M - 1).cdf).pvalue > 0.01


class TestHaarUnitary:
    def test_unitarity(self):
        q = haar_unitary(6, RngStream(5, 0).generator())
        np.testing.assert_allclose(q @ q.conj().T, np.eye(6), atol=1e-12)


class TestInvert:
    def test_identity(self):
        np.testing.assert_allclose(invert(np.eye(3, dtype=complex)), np.eye(3), atol=1e-14)

    def test_hand_case(self):
        a = np.array([[1.0, 0.0], [1.0, 2.0]], dtype=complex)
        np.testing.assert_allclose(invert(a), np.array([[1.0, 0.0], [-0.5, 0.5]]), atol=1e-14)

    def test_random_residual(self):
        rng = RngStream(6, 0).generator()
        for _ in range(20):
            a = sample_complex_gaussian(5, rng, size=5)
            np.testing.assert_allclose(a @ invert(a), np.eye(5), atol=1e-10)

    def test_bitwise_equal_to_lu_solve(self):
        # reference: solving A X = I on scipy's LU factors
        rng = RngStream(9, 0).generator()
        for M in range(2, 9):
            for _ in range(50):
                a = sample_complex_gaussian(M, rng, size=M)
                ref = lu_solve(lu_factor(a), np.eye(M, dtype=complex))
                np.testing.assert_array_equal(invert(a), ref)

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(SingularMatrixError):
            invert(a)

    def test_near_singular_raises(self):
        a = np.array([[1.0, 0.0], [1.0, 1e-14]], dtype=complex)
        with pytest.raises(SingularMatrixError):
            invert(a)

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            invert(np.zeros((2, 2), dtype=complex))

    def test_non_square_raises(self):
        with pytest.raises(DomainError):
            invert(np.ones((2, 3), dtype=complex))


class TestSpecialFunctions:
    def test_ln_gamma_known_values(self):
        assert ln_gamma(1.0) == 0.0
        assert ln_gamma(2.0) == 0.0
        np.testing.assert_allclose(ln_gamma(0.5), math.log(math.sqrt(math.pi)), rtol=1e-14)
        np.testing.assert_allclose(ln_gamma(6.0), math.log(120.0), rtol=1e-14)

    def test_ln_gamma_wide_range(self):
        # factorial recursion ln G(x+1) = ln G(x) + ln x holds across the domain
        for x in (1e-3, 0.1, 1.5, 10.0, 1e4, 1e9):
            np.testing.assert_allclose(ln_gamma(x + 1.0), ln_gamma(x) + math.log(x),
                                       rtol=1e-12, atol=1e-13)

    def test_ln_gamma_domain(self):
        with pytest.raises(DomainError):
            ln_gamma(0.0)
        with pytest.raises(DomainError):
            ln_gamma(-1.5)

    def test_beta_fn_against_quadrature(self):
        for x, y in [(1.0, 1.0), (2.5, 3.5), (256.0, 4.0 / 3.0)]:
            oracle, _ = integrate.quad(lambda t: t ** (x - 1) * (1 - t) ** (y - 1), 0.0, 1.0)
            np.testing.assert_allclose(beta_fn(x, y), oracle, rtol=1e-8)

    def test_beta_fn_large_args_finite(self):
        v = beta_fn(2.0 ** 30, 1.25)
        assert 0.0 < v < 1.0

    def test_beta_fn_domain(self):
        with pytest.raises(DomainError):
            beta_fn(0.0, 1.0)
        with pytest.raises(DomainError):
            beta_fn(1.0, -2.0)


class TestAngleSin2:
    def test_hand_values(self):
        e1 = np.array([1.0, 0.0])
        np.testing.assert_allclose(angle_sin2(e1, np.array([1.0, 1.0]) / math.sqrt(2)), 0.5,
                                   rtol=1e-12)
        assert angle_sin2(e1, e1) == 0.0
        assert angle_sin2(e1, np.array([0.0, 1.0])) == 1.0

    def test_clamped_to_unit_interval(self):
        v = np.array([1.0 + 1e-16j, 1e-8])
        assert 0.0 <= angle_sin2(v, v) <= 1.0

    def test_zero_vector_raises(self):
        with pytest.raises(DomainError):
            angle_sin2(np.zeros(2), np.array([1.0, 0.0]))

    @given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, re, im, mag):
        scale = mag * complex(re, im)
        if abs(scale) < 1e-6:
            return
        rng = RngStream(8, 0).generator()
        a = sample_complex_gaussian(3, rng)
        b = sample_complex_gaussian(3, rng)
        np.testing.assert_allclose(angle_sin2(scale * a, b), angle_sin2(a, b), atol=1e-9)
        np.testing.assert_allclose(angle_sin2(a, scale * b), angle_sin2(a, b), atol=1e-9)
