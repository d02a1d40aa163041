import numpy as np
import pytest

from bladesense import GaussianReduced, fuse
from bladesense.errors import ValidationError
from bladesense.fusion import innovation_covariance

from conftest import random_spd


class TestGaussianReduced:
    def test_symmetrizes_small_asymmetry(self):
        cov = np.array([[1.0, 0.2], [0.2 + 1e-14, 1.0]])
        g = GaussianReduced(np.zeros(2), cov)
        assert np.array_equal(g.covariance, g.covariance.T)

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError, match="PSD"):
            GaussianReduced(np.zeros(2), np.diag([1.0, -0.5]))

    def test_clips_tiny_negative_eigenvalues(self):
        cov = np.diag([1.0, -1e-12])
        g = GaussianReduced(np.zeros(2), cov)
        assert np.linalg.eigvalsh(g.covariance).min() >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            GaussianReduced(np.zeros(3), np.eye(2))


class TestFuse:
    def test_scalar_symmetric_case(self):
        prior = GaussianReduced([0.0], [[1.0]])
        meas = GaussianReduced([2.0], [[1.0]])
        fused, gain = fuse(prior, meas)
        assert gain[0, 0] == pytest.approx(0.5)
        assert fused.mean[0] == pytest.approx(1.0)
        assert fused.covariance[0, 0] == pytest.approx(0.5)

    def test_perfect_measurement_dominates(self):
        prior = GaussianReduced([1.0, -1.0], np.diag([2.0, 3.0]))
        meas = GaussianReduced([5.0, 4.0], np.zeros((2, 2)))
        fused, gain = fuse(prior, meas)
        assert np.allclose(gain, np.eye(2))
        assert np.allclose(fused.mean, meas.mean)

    def test_perfect_prior_dominates(self):
        prior = GaussianReduced([1.0, -1.0], np.zeros((2, 2)))
        meas = GaussianReduced([5.0, 4.0], np.diag([2.0, 3.0]))
        fused, gain = fuse(prior, meas)
        assert np.allclose(gain, 0.0)
        assert np.allclose(fused.mean, prior.mean)
        assert np.allclose(fused.covariance, 0.0)

    def test_trace_never_exceeds_either_source(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            prior = GaussianReduced(rng.standard_normal(4), random_spd(rng, 4))
            meas = GaussianReduced(rng.standard_normal(4), random_spd(rng, 4))
            fused, _ = fuse(prior, meas)
            assert np.trace(fused.covariance) <= min(
                np.trace(prior.covariance), np.trace(meas.covariance)) + 1e-12

    def test_fused_mean_symmetric_under_role_swap(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g1 = GaussianReduced(rng.standard_normal(3), random_spd(rng, 3))
            g2 = GaussianReduced(rng.standard_normal(3), random_spd(rng, 3))
            f12, _ = fuse(g1, g2)
            f21, _ = fuse(g2, g1)
            assert np.allclose(f12.mean, f21.mean, atol=1e-10)

    def test_self_fusion_halves_scalar_variance(self):
        g = GaussianReduced([1.5], [[0.8]])
        fused, _ = fuse(g, g)
        assert fused.covariance[0, 0] == pytest.approx(0.4, abs=1e-15)
        assert fused.mean[0] == pytest.approx(1.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            fuse(GaussianReduced(np.zeros(2), np.eye(2)),
                 GaussianReduced(np.zeros(3), np.eye(3)))

    def test_regularization_counted(self):
        prior = GaussianReduced([0.0, 0.0], np.diag([1.0, 0.0]))
        meas = GaussianReduced([1.0, 1.0], np.diag([1.0, 0.0]))
        fused, _ = fuse(prior, meas)
        # the flag the pipeline counts comes from the covariance pair
        assert innovation_covariance(prior.covariance, meas.covariance)[1]
        assert np.all(np.isfinite(fused.mean))

    def test_both_fully_certain_keeps_prior(self):
        prior = GaussianReduced([1.0], [[0.0]])
        meas = GaussianReduced([2.0], [[0.0]])
        fused, gain = fuse(prior, meas)
        assert fused.mean[0] == 1.0
        assert np.all(gain == 0.0)


class TestInnovationCovariance:
    def test_well_conditioned_sum_returned_as_it_is(self):
        rng = np.random.default_rng(2)
        p, r = random_spd(rng, 4), random_spd(rng, 4, 0.1)
        s_cov, regularized = innovation_covariance(p, r)
        assert not regularized
        assert np.array_equal(s_cov, p + r)

    def test_nearly_singular_sum_regularized(self):
        p, r = np.diag([2.0, 1e-15]), np.zeros((2, 2))
        s_cov, regularized = innovation_covariance(p, r)
        tr = 2.0 + 1e-15
        assert regularized
        assert np.array_equal(s_cov, np.diag([2.0 + 1e-12 * tr,
                                              1e-15 + 1e-12 * tr]))
        # fuse inverts the same matrix
        _, gain = fuse(GaussianReduced([0.0, 0.0], p),
                       GaussianReduced([1.0, 1.0], r))
        assert np.allclose(gain, np.linalg.solve(s_cov, p).T, rtol=1e-12)

    def test_zero_sum_not_regularized(self):
        s_cov, regularized = innovation_covariance(np.zeros((2, 2)),
                                                   np.zeros((2, 2)))
        assert not regularized and not s_cov.any()
