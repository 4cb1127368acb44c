import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from fbmimo.errors import CapacityError, DomainError
from fbmimo.numerics import LOG2E, RngStream, sample_complex_gaussian, sample_isotropic_unit
from fbmimo.quantizer import (MAX_CODEBOOK_ENTRIES, Codebook, _digamma, _enumerable_bits,
                              error_ccdf, error_upper_bound, expected_error,
                              expected_neg_log2_error, expected_optimal_error,
                              generate_codebook, neg_log2_error_bounds, optimal_error_cdf,
                              quantize, sample_error, sample_quantized_pair)
from helpers import angle_sin2


class TestCodebook:
    def test_shape_and_norms(self):
        cb = generate_codebook(4, 6, RngStream(0, 0).generator())
        assert cb.words.shape == (64, 4)
        np.testing.assert_allclose(np.linalg.norm(cb.words, axis=1), 1.0, atol=1e-12)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            generate_codebook(2, 31, RngStream(0, 0).generator())

    def test_zero_bits_allowed(self):
        cb = generate_codebook(3, 0, RngStream(0, 0).generator())
        assert cb.words.shape == (1, 3)

    def test_bad_args(self):
        rng = RngStream(0, 0).generator()
        with pytest.raises(DomainError):
            generate_codebook(1, 4, rng)
        with pytest.raises(DomainError):
            generate_codebook(3, -1, rng)


class TestQuantize:
    def test_hand_case(self):
        cb = Codebook(M=2, B=1, words=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))
        out = quantize(np.array([0.8, 0.6]), cb)
        assert out.index == 0
        np.testing.assert_allclose(out.error_z, 0.36, rtol=1e-12)

    def test_tie_resolves_to_lowest_index(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        cb = Codebook(M=2, B=1, words=w)
        out = quantize(np.array([1.0, 1.0]) / math.sqrt(2), cb)
        assert out.index == 0

    def test_matches_exhaustive_angle_search(self):
        rng = RngStream(1, 0).generator()
        for _ in range(25):
            cb = generate_codebook(3, 5, rng)
            h = sample_isotropic_unit(3, rng)
            out = quantize(h, cb)
            errors = [angle_sin2(h, w) for w in cb.words]
            assert out.index == int(np.argmin(errors))
            np.testing.assert_allclose(out.error_z, min(errors), atol=1e-12)

    def test_matches_matrix_product_search(self):
        # reference: the BLAS matrix-vector product over the whole codebook
        rng = RngStream(4, 0).generator()
        for M in range(2, 9):
            for _ in range(30):
                cb = generate_codebook(M, 10, rng)
                h = sample_complex_gaussian(M, rng)
                cos2 = np.abs(cb.words @ h.conj()) ** 2 / np.real(np.vdot(h, h))
                out = quantize(h, cb)
                assert out.index == int(np.argmax(cos2))
                assert abs(out.error_z - (1.0 - cos2.max())) <= 1e-15

    def test_scale_invariant(self):
        rng = RngStream(2, 0).generator()
        cb = generate_codebook(4, 4, rng)
        h = sample_isotropic_unit(4, rng)
        a = quantize(h, cb)
        b = quantize(h * (3.0 - 2.0j), cb)
        assert a.index == b.index
        np.testing.assert_allclose(a.error_z, b.error_z, atol=1e-12)

    def test_zero_vector_raises(self):
        cb = generate_codebook(2, 1, RngStream(0, 0).generator())
        with pytest.raises(DomainError):
            quantize(np.zeros(2, dtype=complex), cb)


class TestErrorCcdf:
    def test_direct_evaluation(self):
        # (1 - 0.2^3)^256 computed through an independent formulation
        oracle = math.exp(256.0 * math.log1p(-(0.2 ** 3)))
        np.testing.assert_allclose(error_ccdf(0.2, 4, 8), oracle, rtol=1e-12)

    def test_endpoints(self):
        assert error_ccdf(0.0, 3, 5) == 1.0
        assert error_ccdf(1.0, 3, 5) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            error_ccdf(-0.1, 3, 5)
        with pytest.raises(DomainError):
            error_ccdf(1.1, 3, 5)

    @given(st.integers(min_value=2, max_value=8),
           st.one_of(st.integers(min_value=0, max_value=20), st.sampled_from([1023, 1024, 2000])),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_is_a_valid_ccdf(self, M, B, z):
        v = error_ccdf(z, M, B)
        assert 0.0 <= v <= 1.0
        assert error_ccdf(min(z + 0.05, 1.0), M, B) <= v + 1e-15


class TestExpectedError:
    def test_two_antenna_closed_form(self):
        # E[Z] = 1/(2^B + 1) when M = 2
        for B in range(0, 61):
            np.testing.assert_allclose(expected_error(2, B), 1.0 / (2 ** B + 1), rtol=1e-12)

    def test_uniform_base_case(self):
        np.testing.assert_allclose(expected_error(2, 0), 0.5, rtol=1e-12)

    def test_against_quadrature(self):
        # E[Z] = integral of the CCDF over [0, 1]
        for M, B in [(3, 2), (4, 8), (5, 10), (6, 4)]:
            oracle, err = integrate.quad(lambda z: error_ccdf(z, M, B), 0.0, 1.0, limit=200)
            np.testing.assert_allclose(expected_error(M, B), oracle, rtol=1e-8)

    def test_decreasing_in_bits(self):
        for M in (2, 3, 5, 8):
            vals = [expected_error(M, B) for B in range(0, 25)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_below_upper_bound(self):
        for M in range(2, 9):
            for B in range(0, 61):
                assert expected_error(M, B) <= error_upper_bound(M, B) + 1e-15

    def test_real_valued_bits_accepted(self):
        lo, hi = expected_error(4, 7.0), expected_error(4, 8.0)
        mid = expected_error(4, 7.5)
        assert hi < mid < lo

    def test_huge_bits_underflow_branch(self):
        v = expected_error(4, 600.0)
        assert 0.0 <= v < 1e-55

    @given(st.integers(min_value=2, max_value=16), st.floats(min_value=0.0, max_value=1000.0),
           st.floats(min_value=0.0, max_value=1000.0))
    @settings(max_examples=300, deadline=None)
    def test_sandwiched_and_non_increasing_over_real_bits(self, M, b1, b2):
        lo, hi = sorted((b1, b2))
        e = expected_error(M, lo)
        assert expected_optimal_error(M, lo) <= e * (1.0 + 1e-12)
        assert e <= error_upper_bound(M, lo) * (1.0 + 1e-12)
        # at adjacent floats rounding alone moves the value by ~1e-14
        assert expected_error(M, hi) <= e * (1.0 + 1e-12)


    @given(st.floats(min_value=0.0, max_value=1000.0))
    @settings(max_examples=300, deadline=None)
    def test_two_antenna_identity_over_real_bits(self, B):
        # 2^B beta(2^B, 2) = 1/(2^B + 1) holds for real B, not just integers
        np.testing.assert_allclose(expected_error(2, B), 1.0 / (2.0 ** B + 1.0), rtol=1e-12)


class TestNegLog2Error:
    def test_base_case(self):
        np.testing.assert_allclose(expected_neg_log2_error(2, 0), LOG2E, rtol=1e-12)

    def test_harmonic_sum_small_b(self):
        # direct harmonic summation oracle for enumerable codebooks
        for M, B in [(2, 3), (3, 4), (5, 6)]:
            harmonic = sum(1.0 / k for k in range(1, 2 ** B + 1))
            np.testing.assert_allclose(expected_neg_log2_error(M, B),
                                       LOG2E * harmonic / (M - 1), rtol=1e-12)

    def test_sandwich_bounds(self):
        for M in (2, 3, 4, 6, 8):
            vals = []
            for B in (0, 1, 4, 10, 20, 30, 1023, 1024, 2000):
                lo, hi = neg_log2_error_bounds(M, B)
                v = expected_neg_log2_error(M, B)
                assert math.isfinite(v) and lo <= v <= hi
                vals.append(v)
            assert all(b > a for a, b in zip(vals, vals[1:]))

    @given(st.integers(min_value=2, max_value=16), st.floats(min_value=0.0, max_value=2000.0))
    @settings(max_examples=300, deadline=None)
    def test_sandwich_over_real_bits(self, M, B):
        # at B = 0 the upper bound is attained, so allow rounding there
        lo, hi = neg_log2_error_bounds(M, B)
        v = expected_neg_log2_error(M, B)
        assert lo * (1.0 - 1e-12) <= v <= hi * (1.0 + 1e-12)

    def test_digamma_matches_scipy(self):
        # Bound fixed before the first run: within 1e-14 of scipy's
        # digamma, relative to max(1, |psi|), on both sides of the switch
        # to the asymptotic series at 10 and at every 2^B + 1 the
        # closed form evaluates up to B = 500.
        xs = np.concatenate([np.linspace(0.01, 30.0, 3001), np.geomspace(1e-6, 1e300, 600),
                             2.0 ** np.linspace(0.0, 500.0, 1001) + 1.0])
        got = np.array([_digamma(float(x)) for x in xs])
        want = special.digamma(xs)
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))

    def test_matches_the_scipy_digamma_form(self):
        # the closed form's former evaluation, H(2^B) = digamma(2^B + 1) + gamma
        for M in (2, 4, 7):
            for B in np.linspace(0.0, 500.0, 401):
                want = LOG2E * (special.digamma(2.0 ** B + 1.0) + np.euler_gamma) / (M - 1)
                np.testing.assert_allclose(expected_neg_log2_error(M, B), want, rtol=1e-14)

    def test_example_value(self):
        v = expected_neg_log2_error(3, 4)
        harmonic_16 = sum(1.0 / k for k in range(1, 17))
        np.testing.assert_allclose(v, LOG2E / 2.0 * harmonic_16, rtol=1e-12)
        assert 2.0 <= v <= (4.0 + LOG2E) / 2.0


class TestSampleError:
    def test_matches_ccdf(self):
        z = sample_error(4, 6, RngStream(3, 0).generator(), size=100_000)
        res = stats.kstest(z, lambda t: 1.0 - error_ccdf(t, 4, 6))
        assert res.pvalue > 0.01

    def test_large_bits_still_accurate(self):
        # mean of the direct sampler tracks the closed form far beyond
        # enumerable codebook sizes
        z = sample_error(5, 40.0, RngStream(4, 0).generator(), size=200_000)
        mean, se = z.mean(), z.std(ddof=1) / math.sqrt(len(z))
        assert abs(mean - expected_error(5, 40.0)) < 4.0 * se

    def test_deterministic(self):
        a = sample_error(3, 5, RngStream(5, 9).generator(), size=16)
        b = sample_error(3, 5, RngStream(5, 9).generator(), size=16)
        assert np.array_equal(a, b)

    def test_in_unit_interval(self):
        z = sample_error(2, 0, RngStream(6, 0).generator(), size=1000)
        assert np.all((z >= 0.0) & (z <= 1.0))

    @pytest.mark.parametrize("M", [3, 4, 8])
    @pytest.mark.parametrize("B", [901.0, 1100.0, 2000.0])
    def test_no_underflow_past_b_900(self, M, B):
        z = sample_error(M, B, RngStream(14, M).generator(), size=100_000)
        assert np.all((z > 0.0) & np.isfinite(z))
        ratio = z / expected_error(M, B)
        assert abs(ratio.mean() - 1.0) < 4.0 * ratio.std(ddof=1) / math.sqrt(len(z))

    @pytest.mark.parametrize("B", [6.0, 1100.0])
    def test_zero_uniform_draw_gives_one(self, B):
        class ZeroUniform:
            def random(self, size):
                return np.zeros(size)

        assert np.all(sample_error(4, B, ZeroUniform(), size=3) == 1.0)


class TestSampleQuantizedPair:
    def test_geometry(self):
        h_dir, h_hat, z = sample_quantized_pair(5, 8, RngStream(7, 0).generator(), size=2000)
        np.testing.assert_allclose(np.linalg.norm(h_dir, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(h_hat, axis=1), 1.0, atol=1e-12)
        cos2 = np.abs(np.einsum("nm,nm->n", h_dir.conj(), h_hat)) ** 2
        np.testing.assert_allclose(1.0 - cos2, z, atol=1e-10)

    def test_single_draw(self):
        h_dir, h_hat, z = sample_quantized_pair(3, 4, RngStream(8, 0).generator())
        assert h_dir.shape == (3,) and h_hat.shape == (3,)
        np.testing.assert_allclose(angle_sin2(h_dir, h_hat), z, atol=1e-10)

    def test_two_antenna_orthogonal_residual(self):
        # at M=2 the residual direction is the unique orthogonal one
        h_dir, h_hat, z = sample_quantized_pair(2, 3, RngStream(9, 0).generator(), size=500)
        resid = h_dir - np.einsum("nm,nm->n", h_hat.conj(), h_dir)[:, None] * h_hat
        inner = np.abs(np.einsum("nm,nm->n", h_hat.conj(), resid))
        np.testing.assert_allclose(inner, 0.0, atol=1e-12)

    def test_error_marginal_matches_law(self):
        _, _, z = sample_quantized_pair(4, 6, RngStream(10, 0).generator(), size=50_000)
        res = stats.kstest(z, lambda t: 1.0 - error_ccdf(t, 4, 6))
        assert res.pvalue > 0.01

    def test_direction_isotropic_given_codeword(self):
        # projection onto a fixed direction stays Beta(1, M-1) distributed
        h_dir, _, _ = sample_quantized_pair(4, 5, RngStream(11, 0).generator(), size=50_000)
        cos2 = np.abs(h_dir[:, 2]) ** 2
        assert stats.kstest(cos2, stats.beta(1, 3).cdf).pvalue > 0.01


class TestBruteForceSampler:
    @pytest.mark.parametrize("B, error", [(-1, DomainError), (4.5, DomainError),
                                          (31, CapacityError), (31.0, CapacityError)])
    def test_rejects_the_bits_generate_codebook_rejects(self, B, error):
        rng = RngStream(0, 0).generator()
        with pytest.raises(error):
            generate_codebook(3, B, rng)
        assert generate_codebook(3, 4.0, rng).B == 4

    # the first size over M * 2^B <= 2^24 at each M; nothing is drawn, since
    # the check comes before the codebook's memory is asked for
    @pytest.mark.parametrize("M, B", [(2, 24), (4, 23), (8, 22)])
    def test_codebook_entry_cap(self, M, B):
        rng = RngStream(0, 0).generator()
        assert M << B == 2 * MAX_CODEBOOK_ENTRIES
        with pytest.raises(CapacityError):
            generate_codebook(M, B, rng)
        assert _enumerable_bits(M, B - 1) == B - 1


class TestOptimalQuantizer:
    def test_cdf_shape(self):
        np.testing.assert_allclose(optimal_error_cdf(0.5, 2, 1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(optimal_error_cdf(0.25, 2, 1), 0.5, rtol=1e-12)
        assert optimal_error_cdf(0.0, 4, 8) == 0.0
        assert optimal_error_cdf(1.0, 4, 8) == 1.0

    def test_expected_value_example(self):
        np.testing.assert_allclose(expected_optimal_error(5, 10), 0.8 * 2.0 ** (-2.5), rtol=1e-12)
        np.testing.assert_allclose(expected_optimal_error(2, 0), 0.5, rtol=1e-12)

    def test_expected_matches_cdf_quadrature(self):
        # E[Z] = integral of (1 - CDF) over [0, 1]
        for M, B in [(3, 4), (5, 10), (4, 0)]:
            oracle, _ = integrate.quad(lambda z: 1.0 - optimal_error_cdf(z, M, B), 0.0, 1.0,
                                       limit=200)
            np.testing.assert_allclose(expected_optimal_error(M, B), oracle, rtol=1e-8)

    def test_stochastic_dominance_over_random_codebooks(self):
        # the idealized quantizer's CDF lies above the random-codebook CDF
        for M in (2, 3, 4, 6):
            for B in (0, 2, 8, 12):
                z = np.linspace(0.0, 1.0, 101)
                assert np.all(optimal_error_cdf(z, M, B) >= (1.0 - error_ccdf(z, M, B)) - 1e-12)

    def test_optimal_mean_below_random_mean(self):
        for M in (2, 3, 5, 8):
            for B in (0, 1, 4, 10, 16):
                assert expected_optimal_error(M, B) <= expected_error(M, B) + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            optimal_error_cdf(-0.2, 3, 4)
