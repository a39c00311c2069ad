import numpy as np
import pytest

from graspmc import linalg
from graspmc.errors import DecompositionFailure, GraspMCError, NonSymmetricCovariance


def random_psd(rng, d, rank=None):
    rank = d if rank is None else rank
    a = rng.standard_normal((d, rank))
    return a @ a.T


class TestSampleGaussian:
    def test_zero_covariance_returns_mean_exactly(self):
        rng = np.random.default_rng(0)
        out = linalg.sample_gaussian(np.array([0.0, 0.0]), np.zeros((2, 2)), rng)
        assert out[0] == 0.0 and out[1] == 0.0

    def test_null_directions_are_deterministic(self):
        rng = np.random.default_rng(1)
        mean = np.array([1.0, 2.0, 3.0])
        cov = np.diag([4.0, 0.0, 0.0])
        for _ in range(20):
            out = linalg.sample_gaussian(mean, cov, rng)
            assert out[1] == 2.0 and out[2] == 3.0

    def test_law_of_large_numbers(self):
        # 1e5 iid draws: mean within 0.02 of (5,5), covariance within 0.05 of I
        rng = np.random.default_rng(42)
        mean = np.array([5.0, 5.0])
        cov = np.eye(2)
        draws = np.array([linalg.sample_gaussian(mean, cov, rng) for _ in range(100_000)])
        assert np.max(np.abs(draws.mean(axis=0) - mean)) < 0.02
        sample_cov = np.cov(draws.T)
        assert np.linalg.norm(sample_cov - cov, "fro") < 0.05

    def test_rejects_asymmetric(self):
        rng = np.random.default_rng(2)
        with pytest.raises(NonSymmetricCovariance):
            linalg.sample_gaussian(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]), rng)

    def test_seeded_determinism(self):
        cov = random_psd(np.random.default_rng(9), 5)
        a = linalg.sample_gaussian(np.zeros(5), cov, np.random.default_rng(123))
        b = linalg.sample_gaussian(np.zeros(5), cov, np.random.default_rng(123))
        assert np.array_equal(a, b)


class TestSvdSymmetric:
    def test_identity(self):
        u, lam = linalg.svd_symmetric(np.eye(3))
        np.testing.assert_allclose(lam, [1, 1, 1])
        np.testing.assert_allclose(u @ u.T, np.eye(3), atol=1e-12)

    def test_diagonal_input(self):
        u, lam = linalg.svd_symmetric(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(lam, [4.0, 1.0])
        np.testing.assert_allclose(np.abs(u), np.eye(2), atol=1e-12)

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(100)
        for d in (2, 5, 7, 10):
            a = random_psd(rng, d)
            u, lam = linalg.svd_symmetric(a)
            np.testing.assert_allclose(u.T @ u, np.eye(d), atol=1e-8)
            recon = u @ np.diag(lam) @ u.T
            assert np.linalg.norm(recon - a, "fro") < 1e-8 * max(1.0, np.linalg.norm(a, "fro"))
            assert np.all(np.diff(lam) <= 1e-12)
            assert np.all(lam >= 0.0)

    def test_rank_deficient_clamps(self):
        rng = np.random.default_rng(8)
        a = random_psd(rng, 7, rank=3)
        _, lam = linalg.svd_symmetric(a)
        assert np.all(lam >= 0.0)
        assert np.sum(lam > 1e-10) == 3

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetricCovariance):
            linalg.svd_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestGaussianLogpdf:
    def test_matches_univariate_formula(self):
        x, mu, var = 0.3, -0.2, 2.5
        expected = -0.5 * (np.log(2 * np.pi * var) + (x - mu) ** 2 / var)
        got = linalg.gaussian_logpdf(np.array([x]), np.array([mu]), np.array([[var]]))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_integrates_to_one_on_grid(self):
        # 1D grid oracle: exp(log q) integrates to 1 within 1e-3
        var = 0.7
        grid = np.linspace(-8 * np.sqrt(var), 8 * np.sqrt(var), 20_001)
        vals = np.exp([linalg.gaussian_logpdf(np.array([g]), np.array([0.0]), np.array([[var]])) for g in grid])
        integral = np.trapezoid(vals, grid)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_repeat_evaluation_identical(self):
        rng = np.random.default_rng(17)
        cov = random_psd(rng, 4) + 0.1 * np.eye(4)
        x, mu = rng.standard_normal(4), rng.standard_normal(4)
        assert linalg.gaussian_logpdf(x, mu, cov) == linalg.gaussian_logpdf(x, mu, cov)

    @pytest.mark.parametrize(
        "covariance",
        [np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros((2, 2))],
        ids=["indefinite", "singular", "zero"],
    )
    def test_non_positive_definite_raises_decomposition_failure(self, covariance):
        with pytest.raises(DecompositionFailure) as caught:
            linalg.gaussian_logpdf(np.zeros(2), np.zeros(2), covariance)
        assert isinstance(caught.value, GraspMCError)


class TestFactoredCovariance:
    def test_positive_definite_is_cholesky_with_its_log_det(self):
        cov = random_psd(np.random.default_rng(3), 5) + 0.1 * np.eye(5)
        factored = linalg.factor_covariance(cov)
        chol = np.linalg.cholesky(cov)
        assert factored.factor.tobytes() == chol.tobytes()
        assert factored.log_det == 2.0 * float(np.sum(np.log(np.diag(chol))))
        assert factored.log_det == pytest.approx(np.linalg.slogdet(cov)[1], rel=1e-12)

    @pytest.mark.parametrize("rank", [0, 1, 3])
    def test_singular_takes_the_eigh_factor_without_log_det(self, rank):
        cov = random_psd(np.random.default_rng(4), 4, rank=rank)
        factored = linalg.factor_covariance(cov)
        assert factored.log_det is None
        assert factored.factor.tobytes() == linalg.psd_sqrt(cov).tobytes()
        np.testing.assert_allclose(factored.factor @ factored.factor.T, cov, atol=1e-10)
        with pytest.raises(DecompositionFailure):
            linalg.factored_logpdf(np.zeros(4), np.ones(4), factored)

    def test_wrappers_are_the_factored_forms(self):
        rng = np.random.default_rng(5)
        for cov in (random_psd(rng, 3) + 0.05 * np.eye(3), random_psd(rng, 3, rank=2)):
            factored = linalg.factor_covariance(cov)
            mean, x = rng.standard_normal(3), rng.standard_normal(3)
            a = linalg.sample_gaussian(mean, cov, np.random.default_rng(8))
            b = linalg.draw_gaussian(mean, factored, np.random.default_rng(8))
            assert a.tobytes() == b.tobytes()
            if factored.log_det is not None:
                assert linalg.gaussian_logpdf(x, mean, cov) == linalg.factored_logpdf(x, mean, factored)

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetricCovariance):
            linalg.factor_covariance(np.array([[1.0, 0.5], [0.0, 1.0]]))
