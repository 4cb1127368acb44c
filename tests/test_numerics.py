import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.linalg import lu_factor, lu_solve

from fbmimo.errors import DomainError, SingularMatrixError
from fbmimo.numerics import (RngStream, haar_unitary, invert, sample_complex_gaussian,
                             sample_isotropic_unit)
from fbmimo.quantizer import expected_error
from helpers import angle_sin2


def beta_fn(x: float, y: float) -> float:
    """Oracle: the beta function in log space, finite for large arguments."""
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def lu_factor_flags(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: scipy's smallest LU pivot per matrix and its flag under the
    rule min |U_kk| <= 1e-12 * ||A||_F."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on exact zero pivots
        lu, _ = lu_factor(a, check_finite=False)
    pivots = np.abs(np.diagonal(lu, axis1=-2, axis2=-1)).min(axis=-1)
    return pivots, pivots <= 1e-12 * np.linalg.norm(a, axis=(-2, -1))


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

    @pytest.mark.parametrize("seed, stream", [(0, 0), (2**64 - 1, 2**64 - 1), (-5, 3),
                                              (42, -1), (7, 2**64 + 9), (1234, 17)])
    def test_stream_is_philox_keyed_seed_then_stream(self, seed, stream):
        # the RNG contract every golden value rests on: Philox with the
        # 128-bit key seed * 2**64 + stream (each mod 2**64), counter zero
        gen = RngStream(seed, stream).generator()
        ref = np.random.Generator(np.random.Philox(key=(seed % 2**64) * 2**64 + stream % 2**64))
        assert np.array_equal(gen.standard_normal(33), ref.standard_normal(33))
        assert np.array_equal(gen.random(17), ref.random(17))
        assert np.array_equal(gen.gamma(4.0, 1.0, size=9), ref.gamma(4.0, 1.0, size=9))
        out, out_ref = np.empty((3, 5)), np.empty((3, 5))
        gen.standard_normal(out=out)
        ref.standard_normal(out=out_ref)
        assert np.array_equal(out, out_ref)

    def test_each_call_is_a_fresh_independent_generator(self):
        stream = RngStream(9, 4)
        a, b = stream.generator(), stream.generator()
        assert a is not b and a.bit_generator is not b.bit_generator
        first = a.standard_normal(10)
        assert np.array_equal(b.standard_normal(10), first)  # a's draws left b at the start
        assert not np.array_equal(a.standard_normal(10), first)

    def test_generator_survives_pickling(self):
        gen = RngStream(11, 3).generator()
        gen.random(5)
        clone = pickle.loads(pickle.dumps(gen))
        assert np.array_equal(clone.standard_normal(20), gen.standard_normal(20))

    @pytest.mark.parametrize("n_words, dtype", [(2, np.uint32), (4, np.uint32), (1, np.uint64),
                                                (4, np.uint64), (2, np.int64)])
    def test_key_serves_only_two_uint64_words(self, n_words, dtype):
        key = RngStream(1, 2).generator().bit_generator.seed_seq
        assert np.array_equal(key.generate_state(2, np.uint64), [2, 1])
        with pytest.raises(ValueError, match="2 uint64 words"):
            key.generate_state(n_words, dtype)


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


class TestNearSingular:
    """invert's near-singular flags.  They are no looser than the pivot
    rule of lu_factor_flags, stay off on Gaussian stacks, and name every
    bad matrix of a stack in one raise."""

    def _gaussian(self, rng, shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def _flags(self, a):
        try:
            invert(a)
        except SingularMatrixError as err:
            return err.rows
        return np.zeros(a.shape[:-2], dtype=bool)

    @pytest.mark.parametrize("M", range(2, 9))
    def test_flags_match_lu_factor_on_random_stacks(self, M):
        rng = np.random.default_rng(100 + M)
        a = self._gaussian(rng, (400, M, M))
        a[::4] *= 1e-9  # scale must not matter: the rule is relative
        a[1::4, :, M - 1] = 0.5j * a[1::4, :, 0]  # exactly dependent up to rounding
        _, want = lu_factor_flags(a)
        np.testing.assert_array_equal(self._flags(a), want)
        np.testing.assert_array_equal(want, np.arange(400) % 4 == 1)

    @pytest.mark.parametrize("M", range(2, 9))
    def test_flags_match_lu_factor_across_the_threshold(self, M):
        # column M-1 a multiple of column 0 plus noise of 1e-14..1e-10: the
        # smallest pivot lands on both sides of 1e-12 * ||A||_F.  invert
        # flags every matrix lu_factor's rule flags.  It may also flag one
        # whose smallest pivot is up to 10 times the threshold, since
        # kappa_F and the pivot are related only up to factors of M; it
        # flagged 12-19% more here, at pivots of 1.0-8.5 times the threshold.
        rng = np.random.default_rng(200 + M)
        noise = np.repeat(np.logspace(-14, -10, 20), 100)
        a = self._gaussian(rng, (len(noise), M, M))
        a[:, :, M - 1] = self._gaussian(rng, (len(noise), 1)) * a[:, :, 0]
        a += noise[:, None, None] * self._gaussian(rng, a.shape)
        pivots, want = lu_factor_flags(a)
        got = self._flags(a)
        clear = pivots >= 10 * 1e-12 * np.linalg.norm(a, axis=(-2, -1))
        assert np.all(got[want])
        np.testing.assert_array_equal(got[clear], want[clear])
        assert 0.2 < want.mean() < got.mean() < 0.8

    @pytest.mark.parametrize("M", range(2, 9))
    def test_gaussian_stacks_are_not_flagged(self, M):
        a = self._gaussian(np.random.default_rng(300 + M), (5000, M, M))
        np.testing.assert_allclose(a @ invert(a), np.broadcast_to(np.eye(M), a.shape),
                                   atol=1e-8)

    @pytest.mark.parametrize("a", [
        np.zeros((3, 3)),
        np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [1.0, 2.0, 3.0]]),  # repeated row
        np.array([[0.0, 1.0, 2.0], [0.0, 3.0, 4.0], [0.0, 5.0, 7.0]]),  # zero first column
        np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]),
    ])
    def test_exact_and_near_zero_pivots_flagged(self, a):
        for x in (a, a.astype(complex)):
            with np.errstate(all="raise"), pytest.raises(SingularMatrixError) as err:
                invert(x)  # no division by a zero pivot, no overflow, no NaN
            assert err.value.rows is None

    def test_stack_shapes(self):
        rng = np.random.default_rng(7)
        a = self._gaussian(rng, (2, 3, 4, 4))
        a[1, 2] = 0.0  # an exact zero pivot: np.linalg.inv rejects the whole stack
        a[0, 1, :, 3] = 1e-15 * a[0, 1, :, 2] + 2.0 * a[0, 1, :, 0]  # near-singular
        want = [[False, True, False], [False, False, True]]
        assert self._flags(a).tolist() == want
        np.testing.assert_array_equal(self._flags(a.reshape(6, 4, 4)), np.ravel(want))
        with pytest.raises(SingularMatrixError) as err:
            invert(a[1, 2])
        assert err.value.rows is None
        np.testing.assert_array_equal(invert(a[0, 0]), np.linalg.inv(a[0, 0]))


class TestSpecialFunctions:
    def test_beta_fn_against_quadrature(self):
        for x, y in [(1.0, 1.0), (2.5, 3.5), (256.0, 4.0 / 3.0)]:
            oracle, _ = integrate.quad(lambda t: t ** (x - 1) * (1 - t) ** (y - 1), 0.0, 1.0)
            np.testing.assert_allclose(beta_fn(x, y), oracle, rtol=1e-8)

    def test_beta_fn_large_args_finite(self):
        v = beta_fn(2.0 ** 30, 1.25)
        assert 0.0 < v < 1.0

    def test_expected_error_is_a_scaled_beta(self):
        # E[Z] = 2^B beta(2^B, M/(M-1)); the oracle differences log-gammas of
        # size 2^B B, so it loses about log10(2^B B) digits
        for M in (2, 3, 4, 8):
            for B in (0, 1, 5, 10, 15):
                n = 2.0 ** B
                np.testing.assert_allclose(expected_error(M, B), n * beta_fn(n, M / (M - 1.0)),
                                           rtol=1e-9)


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
