import math

import numpy as np
import pytest
from scipy import stats

from fbmimo.errors import DomainError, SingularMatrixError
from fbmimo.numerics import RngStream, sample_complex_gaussian
from fbmimo.precoder import rzf_beamformers, zf_beamformers
from fbmimo.quantizer import sample_error
from fbmimo.simulate import collect_zf_statistics
from helpers import angle_sin2


def sinr(h: np.ndarray, beams: np.ndarray, i: int, P: float) -> float:
    """Oracle: SINR of user i under equal per-stream power P/M across all
    beams (the columns of ``beams``)."""
    gains = np.abs(np.asarray(h).conj() @ beams) ** 2
    per_stream = P / beams.shape[1]
    signal = per_stream * gains[i]
    interference = per_stream * (gains.sum() - gains[i])
    return float(signal / (1.0 + interference))


class TestZfBeamformers:
    def test_hand_case(self):
        g = np.array([[1.0, 0.0], [1.0 / math.sqrt(2), 1.0 / math.sqrt(2)]], dtype=complex)
        beams = zf_beamformers(g)
        np.testing.assert_allclose(beams[:, 0], np.array([1.0, -1.0]) / math.sqrt(2),
                                   atol=1e-12)
        np.testing.assert_allclose(beams[:, 1], np.array([0.0, 1.0]), atol=1e-12)

    def test_cross_gains_vanish(self):
        rng = RngStream(1, 0).generator()
        for _ in range(10):
            g = sample_complex_gaussian(4, rng, size=4)
            beams = zf_beamformers(g)
            cross = g @ beams
            off_diag = cross - np.diag(np.diagonal(cross))
            assert np.max(np.abs(off_diag)) < 1e-10

    def test_unit_columns(self):
        g = sample_complex_gaussian(5, RngStream(2, 0).generator(), size=5)
        beams = zf_beamformers(g)
        np.testing.assert_allclose(np.linalg.norm(beams, axis=0), 1.0, atol=1e-12)

    def test_singular_raises(self):
        g = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        with pytest.raises(SingularMatrixError):
            zf_beamformers(g)


class TestRzfBeamformers:
    def test_unit_columns_and_finiteness_on_ill_conditioned_input(self):
        g = np.array([[1.0, 0.0], [1.0, 1e-9]], dtype=complex)
        beams = rzf_beamformers(g, P=10.0)
        assert np.all(np.isfinite(beams))
        np.testing.assert_allclose(np.linalg.norm(beams, axis=0), 1.0, atol=1e-12)

    def test_converges_to_zf_directions(self):
        g = sample_complex_gaussian(4, RngStream(3, 0).generator(), size=4)
        zf = zf_beamformers(g)
        worst = []
        for p in (1e1, 1e3, 1e5, 1e8):
            rz = rzf_beamformers(g, P=p)
            worst.append(max(angle_sin2(rz[:, j], zf[:, j]) for j in range(4)))
        assert all(b <= a + 1e-12 for a, b in zip(worst, worst[1:]))
        assert worst[-1] < 1e-10

    def test_bad_power_raises(self):
        g = np.eye(2, dtype=complex)
        with pytest.raises(DomainError):
            rzf_beamformers(g, P=0.0)


class TestSinr:
    def test_hand_case(self):
        beams = np.array([[1.0, math.sin(0.1)], [0.0, math.cos(0.1)]], dtype=complex)
        h = np.array([1.0, 0.0], dtype=complex)
        got = sinr(h, beams, 0, P=10.0)
        want = 5.0 / (1.0 + 5.0 * math.sin(0.1) ** 2)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_zero_power(self):
        beams = np.eye(2, dtype=complex)
        assert sinr(np.array([1.0, 0.0], dtype=complex), beams, 0, P=0.0) == 0.0

    def test_perfect_zf_denominator_is_unity(self):
        rng = RngStream(4, 0).generator()
        h_rows = sample_complex_gaussian(3, rng, size=3)
        beams = zf_beamformers(h_rows.conj())
        for i in range(3):
            full = sinr(h_rows[i], beams, i, P=100.0)
            gain = abs(np.vdot(h_rows[i], beams[:, i])) ** 2
            np.testing.assert_allclose(full, (100.0 / 3.0) * gain, rtol=1e-9)


class TestPerfectCsitRates:
    def test_effective_gain_is_unit_exponential(self):
        # square perfect-CSIT ZF: |h_i^H v_i|^2 is Exp(1) distributed, the
        # law behind bounds.zf_perfect_sum_rate
        gains = []
        rng = RngStream(5, 0).generator()
        for _ in range(4000):
            h = sample_complex_gaussian(3, rng, size=3)
            beams = zf_beamformers(h.conj())
            gains.extend(np.abs(np.einsum("ij,ji->i", h.conj(), beams)) ** 2)
        assert stats.kstest(np.asarray(gains), stats.expon.cdf).pvalue > 0.01


class TestQuantizedZfLaws:
    """Distributional checks on the full quantized-feedback pipeline."""

    def test_signal_gain_beta_law(self):
        out = collect_zf_statistics(4, 6, 20_000, seed=11, path="fast_decomposition")
        assert stats.kstest(out["signal"], stats.beta(1, 3).cdf).pvalue > 0.01

    def test_interference_product_law_fast(self):
        out = collect_zf_statistics(4, 6, 20_000, seed=12, path="fast_decomposition")
        gen = RngStream(13, 0).generator()
        reference = sample_error(4, 6, gen, size=20_000) * gen.beta(1.0, 2.0, size=20_000)
        assert stats.ks_2samp(out["interference"], reference).pvalue > 0.01

    def test_interference_bounded_by_error(self):
        for path in ("brute_force", "fast_decomposition"):
            out = collect_zf_statistics(4, 5, 4000, seed=14, path=path)
            assert np.all(out["interference"] <= out["error_z"] + 1e-12)

    def test_two_antenna_interference_equals_error(self):
        out = collect_zf_statistics(2, 4, 4000, seed=15, path="fast_decomposition")
        np.testing.assert_allclose(out["interference"], out["error_z"], atol=1e-10)

    def test_brute_and_fast_agree(self):
        a = collect_zf_statistics(3, 5, 10_000, seed=16, path="brute_force")
        b = collect_zf_statistics(3, 5, 10_000, seed=17, path="fast_decomposition")
        assert stats.ks_2samp(a["interference"], b["interference"]).pvalue > 0.01
        assert stats.ks_2samp(a["signal"], b["signal"]).pvalue > 0.01
