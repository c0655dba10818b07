"""Tests for SEM ground truth and flow-based causal queries."""

import os

import numpy as np
import pytest
import scipy.stats

from strnn import causal, cli, flow
from strnn.errors import DimMismatchError, InvalidDimError, InvalidPairError, NonFiniteInputError


def chain_sem(w10=0.8, w21=-1.7):
    W = np.zeros((3, 3))
    W[1, 0] = w10
    W[2, 1] = w21
    return causal.LinearSEM(W)


class TestLinearSEM:
    def test_rejects_non_lower_weights(self):
        W = np.zeros((3, 3))
        W[0, 2] = 1.0
        with pytest.raises(InvalidDimError):
            causal.LinearSEM(W)
        W2 = np.eye(3)
        with pytest.raises(InvalidDimError):
            causal.LinearSEM(W2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, value):
        W = np.zeros((3, 3))
        W[2, 0] = value
        with pytest.raises(NonFiniteInputError):
            causal.LinearSEM(W)

    def test_adjacency_pattern(self):
        sem = chain_sem()
        expected = np.zeros((3, 3), dtype=np.int64)
        expected[1, 0] = expected[2, 1] = 1
        np.testing.assert_array_equal(sem.adjacency(), expected)

    def test_gen_linear_sem_weight_band(self):
        """Surviving weights sit in the uniform tails beyond the cutoff."""
        sem = causal.gen_linear_sem(12, rng=0)
        w = sem.weights[sem.weights != 0]
        assert len(w) > 0
        assert np.all((np.abs(w) >= 1.5) & (np.abs(w) < 2.0))
        assert np.all(np.triu(sem.weights) == 0)

    def test_gen_linear_sem_deterministic(self):
        a = causal.gen_linear_sem(6, rng=42).weights
        b = causal.gen_linear_sem(6, rng=42).weights
        np.testing.assert_array_equal(a, b)

    def test_sample_moments_match_gaussian_algebra(self):
        """x = (I - W)^{-1} eps, so the covariance is its Gram matrix."""
        sem = chain_sem()
        xs = causal.sem_sample(sem, 200000, 1)
        Minv = np.linalg.inv(np.eye(3) - sem.weights)
        cov = Minv @ Minv.T
        np.testing.assert_allclose(xs.mean(axis=0), 0.0, atol=0.03)
        np.testing.assert_allclose(np.cov(xs.T), cov, atol=0.06)


class TestSemInterventions:
    def test_chain_closed_form(self):
        """do(x0 = a) pushes a * w10 * w21 into x2."""
        sem = chain_sem(0.8, -1.7)
        np.testing.assert_allclose(causal.sem_intervene_mean_vector(sem, 0, 2.0),
                                   [2.0, 2.0 * 0.8, 2.0 * 0.8 * -1.7])
        np.testing.assert_allclose(causal.sem_intervene_mean_vector(sem, 1, 3.0),
                                   [0.0, 3.0, 3.0 * -1.7])

    def test_mean_vector_matches_linear_solve(self):
        """Forward substitution equals solving the cut SEM's linear system."""
        rng = np.random.default_rng(5)
        for _ in range(10):
            sem = causal.gen_linear_sem(6, rng=rng)
            j = int(rng.integers(0, 6))
            alpha = float(rng.normal())
            W_cut = sem.weights.copy()
            W_cut[j, :] = 0.0
            b = np.zeros(6)
            b[j] = alpha
            expected = np.linalg.solve(np.eye(6) - W_cut, b)
            expected[:j] = 0.0
            np.testing.assert_allclose(
                causal.sem_intervene_mean_vector(sem, j, alpha), expected,
                atol=1e-12)

    def test_monte_carlo_agrees(self):
        sem = causal.gen_linear_sem(5, rng=9)
        xs = causal.sem_intervene_sample(sem, 1, 2.5, 400000, 3)
        np.testing.assert_allclose(xs[:, 1], 2.5)
        mu = causal.sem_intervene_mean_vector(sem, 1, 2.5)
        np.testing.assert_allclose(xs.mean(axis=0), mu, atol=0.1)

    def test_pair_validation(self):
        sem = chain_sem()
        for j in (-1, 3, 5):
            with pytest.raises(InvalidPairError):
                causal.sem_intervene_mean_vector(sem, j, 1.0)
            with pytest.raises(InvalidPairError):
                causal.sem_intervene_sample(sem, j, 1.0, 10, 0)


class TestSemCounterfactuals:
    def test_chain_by_hand(self):
        """Abducted noise is reused: the counterfactual shifts descendants by
        the weight times the intervention gap."""
        sem = chain_sem(0.5, 2.0)
        x_obs = np.array([1.0, 3.0, -2.0])
        cf = causal.sem_counterfactual(sem, x_obs, 0, 4.0)
        gap = 4.0 - 1.0
        np.testing.assert_allclose(cf, [4.0, 3.0 + 0.5 * gap,
                                        -2.0 + 2.0 * 0.5 * gap])

    def test_null_intervention_is_identity(self):
        sem = causal.gen_linear_sem(6, rng=2)
        x_obs = causal.sem_sample(sem, 20, 3)
        cf = causal.sem_counterfactual(sem, x_obs, 2, 0.0)
        cf2 = causal.sem_counterfactual(sem, x_obs, 2,
                                        0.0)  # deterministic
        np.testing.assert_array_equal(cf, cf2)
        null = np.array([causal.sem_counterfactual(sem, row, 2, row[2])
                         for row in x_obs])
        np.testing.assert_allclose(null, x_obs, atol=1e-10)

    def test_upstream_untouched(self):
        sem = causal.gen_linear_sem(5, rng=4)
        x_obs = causal.sem_sample(sem, 10, 5)
        cf = causal.sem_counterfactual(sem, x_obs, 3, 9.0)
        np.testing.assert_array_equal(cf[:, :3], x_obs[:, :3])
        np.testing.assert_allclose(cf[:, 3], 9.0)

    def test_only_descendants_move(self):
        """Coordinates that do not descend from j under the nonzero weights
        come back bitwise equal to x_obs; the descendants match re-propagating
        every coordinate from the abducted noise, within rounding."""
        sem = causal.gen_linear_sem(8, cutoff=1.0, rng=6)
        x_obs = causal.sem_sample(sem, 40, 7)
        for j in range(8):
            moved = flow._descendants(sem.weights != 0, j)
            cf = causal.sem_counterfactual(sem, x_obs, j, 2.5)
            assert cf[:, ~moved].tobytes() == x_obs[:, ~moved].tobytes()
            full = causal._ancestral(sem, x_obs - x_obs @ sem.weights.T, pin=(j, 2.5))
            np.testing.assert_allclose(cf, full, rtol=1e-12, atol=1e-12)
        assert 0 < flow._descendants(sem.weights != 0, 0).sum() < 8

    def test_input_validation(self):
        sem = chain_sem()
        with pytest.raises(DimMismatchError):
            causal.sem_counterfactual(sem, np.zeros(4), 0, 1.0)
        with pytest.raises(InvalidPairError):
            causal.sem_counterfactual(sem, np.zeros(3), 7, 1.0)
        with pytest.raises(InvalidPairError):
            causal.sem_counterfactual(sem, np.zeros((2, 3)), -1, 1.0)


class TestExactFlow:
    def test_to_noise_recovers_sem_residuals(self):
        sem = causal.gen_linear_sem(6, rng=11)
        fl = causal.flow_from_linear_sem(sem)
        x = causal.sem_sample(sem, 50, 12)
        z, log_det = flow.to_noise(fl, x)
        np.testing.assert_allclose(z, x - x @ sem.weights.T, atol=1e-12)
        np.testing.assert_allclose(log_det, 0.0, atol=1e-12)

    def test_nll_matches_multivariate_normal(self):
        sem = causal.gen_linear_sem(5, rng=13)
        fl = causal.flow_from_linear_sem(sem)
        x = causal.sem_sample(sem, 40, 14)
        Minv = np.linalg.inv(np.eye(5) - sem.weights)
        cov = Minv @ Minv.T
        expected = -scipy.stats.multivariate_normal(np.zeros(5), cov).logpdf(x)
        np.testing.assert_allclose(flow.nll(fl, x), expected, rtol=1e-9)

    def test_intervene_matches_sem_draw_for_draw(self):
        """Identical RNG seeds drive identical noise, so the exact flow and the
        SEM produce the same interventional samples."""
        sem = causal.gen_linear_sem(6, rng=15)
        fl = causal.flow_from_linear_sem(sem)
        for j, alpha in [(0, 2.0), (2, -1.5), (5, 4.0)]:
            a = causal.flow_intervene_sample(fl, j, alpha, 50, 77)
            b = causal.sem_intervene_sample(sem, j, alpha, 50, 77)
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_counterfactual_matches_sem(self):
        sem = causal.gen_linear_sem(6, rng=16)
        fl = causal.flow_from_linear_sem(sem)
        x_obs = causal.sem_sample(sem, 30, 17)
        for j, alpha in [(0, 1.0), (3, -2.0)]:
            a = causal.flow_counterfactual(fl, x_obs, j, alpha)
            b = causal.sem_counterfactual(sem, x_obs, j, alpha)
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_counterfactual_upstream_bitwise(self):
        sem = causal.gen_linear_sem(5, rng=18)
        fl = causal.flow_from_linear_sem(sem)
        x_obs = causal.sem_sample(sem, 8, 19)
        cf = causal.flow_counterfactual(fl, x_obs, 2, 5.0)
        np.testing.assert_array_equal(cf[:, :2], x_obs[:, :2])
        assert np.all(cf[:, 2] == 5.0)

    def test_total_cmse_is_machine_zero(self):
        """Both models refill only j's descendants, so every other target
        scores exactly 0.0."""
        sem = causal.gen_linear_sem(5, rng=20)
        fl = causal.flow_from_linear_sem(sem)
        total, breakdown = causal.cmse_report(fl, sem, value_count=4, n_obs=200, rng=21)
        assert total < 1e-20
        kept = 0
        for row in breakdown:
            moved = flow._descendants(sem.weights != 0, row["j"])
            for i, err in row["errors"].items():
                if not moved[i]:
                    assert err == 0.0
                    kept += 1
        assert kept > 0


class TestFlowInterventions:
    def test_pinned_coordinate_exact(self):
        sem = causal.gen_linear_sem(5, rng=30)
        fl = causal.flow_from_linear_sem(sem)
        xs = causal.flow_intervene_sample(fl, 2, 3.25, 40, 31)
        assert np.all(xs[:, 2] == 3.25)

    def test_index_validation(self):
        sem = causal.gen_linear_sem(4, rng=34)
        fl = causal.flow_from_linear_sem(sem)
        for j in (-1, 4):
            with pytest.raises(InvalidPairError):
                causal.flow_intervene_sample(fl, j, 0.0, 10, 0)
            with pytest.raises(InvalidPairError):
                causal.flow_counterfactual(fl, np.zeros((2, 4)), j, 0.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("j", [1, 3])
    def test_non_finite_value_rejected(self, j, alpha):
        """A non-finite intervention value is refused for every j, the last
        coordinate (which no later pass reads) included."""
        fl = causal.flow_from_linear_sem(causal.gen_linear_sem(4, cutoff=0.5, rng=34))
        with pytest.raises(NonFiniteInputError):
            causal.flow_intervene_sample(fl, j, alpha, 10, 0)
        with pytest.raises(NonFiniteInputError):
            causal.flow_counterfactual(fl, np.ones((2, 4)), j, alpha)

    def test_overflow_inside_the_inversion_raises(self):
        """Coordinate 2 reads 1e200 times coordinate 1, itself 1e200 times
        coordinate 0, so its value overflows to inf on the way to the data:
        sampling, interventions and counterfactuals refuse the answer, without
        a numpy warning (the test config turns RuntimeWarning into an error)."""
        W = np.zeros((4, 4))
        W[1, 0] = W[2, 1] = 1e200
        W[3, 2] = 0.5
        fl = causal.flow_from_linear_sem(causal.LinearSEM(W))
        for query in (lambda: flow.sample(fl, 5, 0),
                      lambda: causal.flow_intervene_sample(fl, 0, 1.0, 5, 0),
                      lambda: causal.flow_counterfactual(fl, np.ones((2, 4)), 0, 2.0)):
            with pytest.raises(NonFiniteInputError):
                query()


    @pytest.mark.parametrize("K", [1, 2])
    def test_overflow_inside_the_abduction_raises(self, K):
        """The same chain in each of K layers, on the finite row
        (1e200, 1, 1, 1): coordinate 1 overflows on its way to the noise.
        to_noise and the counterfactual's abduction raise NonFiniteInputError
        naming the data-to-noise pass, and nll returns the non-finite value,
        all without a numpy warning."""
        W = np.zeros((4, 4))
        W[1, 0] = W[2, 1] = 1e200
        W[3, 2] = 0.5
        sem = causal.LinearSEM(W)
        fl = flow.AffineFlow(sem.adjacency(),
                             [causal.flow_from_linear_sem(sem).layers[0] for _ in range(K)])
        x = np.array([[1e200, 1.0, 1.0, 1.0]])
        for query in (lambda: flow.to_noise(fl, x),
                      lambda: causal.flow_counterfactual(fl, x, 0, 2.0)):
            with pytest.raises(NonFiniteInputError, match="data-to-noise pass"):
                query()
        per = flow.nll(fl, x)
        assert per.shape == (1,) and not np.isfinite(per).any()
        assert not np.isfinite(flow.nll(fl, x[0]))

class TestInterventionValues:
    def test_default_eight(self):
        np.testing.assert_array_equal(
            causal.intervention_values(8),
            [-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0])

    def test_odd_count(self):
        np.testing.assert_array_equal(causal.intervention_values(5),
                                      [-3.0, -2.0, -1.0, 1.0, 2.0])

    def test_count_one(self):
        np.testing.assert_array_equal(causal.intervention_values(1), [-1.0])

    def test_rejects_bad_count(self):
        with pytest.raises(InvalidDimError):
            causal.intervention_values(0)


class TestMetricReports:
    def test_imse_total_matches_breakdown(self):
        sem = causal.gen_linear_sem(4, rng=40)
        fl = causal.flow_from_linear_sem(sem)
        total, breakdown = causal.imse_report(fl, sem, value_count=4,
                                              n_samples=100, rng=41)
        raw = sum(sum(row["errors"].values()) for row in breakdown)
        np.testing.assert_allclose(total, raw / (4 * 4 * 5 / 2))
        assert len(breakdown) == 4 * 4
        for row in breakdown:
            assert all(i > row["j"] for i in row["errors"])

    def test_imse_deterministic_given_rng(self):
        sem = causal.gen_linear_sem(4, rng=42)
        fl = causal.flow_from_linear_sem(sem)
        a = causal.imse_report(fl, sem, value_count=2, n_samples=50, rng=7)[0]
        b = causal.imse_report(fl, sem, value_count=2, n_samples=50, rng=7)[0]
        assert a == b

    def test_imse_exact_flow_shrinks_with_samples(self):
        """Only Monte-Carlo error remains for the exact flow, so more samples
        push the metric toward zero."""
        sem = causal.gen_linear_sem(4, rng=43)
        fl = causal.flow_from_linear_sem(sem)
        small = causal.imse_report(fl, sem, value_count=4, n_samples=50, rng=8)[0]
        big = causal.imse_report(fl, sem, value_count=4, n_samples=20000, rng=8)[0]
        assert big < small

    def test_imse_sampled_ground_truth_mode(self):
        sem = causal.gen_linear_sem(3, rng=44)
        fl = causal.flow_from_linear_sem(sem)
        val = causal.imse_report(fl, sem, value_count=2, n_samples=200, rng=9,
                                 ground_truth="sample")[0]
        assert np.isfinite(val) and val >= 0

    def test_cmse_breakdown_structure(self):
        sem = causal.gen_linear_sem(3, rng=45)
        fl = causal.flow_from_linear_sem(sem)
        total, breakdown = causal.cmse_report(fl, sem, value_count=2,
                                              n_obs=50, rng=10)
        assert len(breakdown) == 3 * 2
        assert total >= 0

    @pytest.mark.parametrize("n", [1000, 3000])
    def test_causal_eval_block_widths(self, monkeypatch, tmp_path, n):
        """``strnn causal-eval`` hands ``flow._reconstruct`` no batch wider
        than max(n, BLOCK_COLUMNS) columns, with n samples and observations
        per query: 2 of its 8 values at n = 1,000, one at n = 3,000."""
        widths, reconstruct = [], flow._reconstruct

        def recorded(plan, levels, *args, **kwargs):
            widths.append(levels[0].shape[1])
            return reconstruct(plan, levels, *args, **kwargs)

        monkeypatch.setattr(flow, "_reconstruct", recorded)
        monkeypatch.chdir(os.path.join(os.path.dirname(__file__), "data", "causal_eval"))
        assert cli.main(["causal-eval", "--flow", "flow.txt", "--sem", "sem.json",
                         "--out", str(tmp_path / "report.json"), "--value-count", "8",
                         "--samples", str(n), "--n-obs", str(n), "--seed", "3"]) == 0
        assert max(widths) <= max(n, causal.BLOCK_COLUMNS)
        assert set(widths) == {n * max(1, causal.BLOCK_COLUMNS // n)}

    def test_dim_mismatch_rejected(self):
        sem = causal.gen_linear_sem(4, rng=46)
        other = causal.gen_linear_sem(5, rng=47)
        fl = causal.flow_from_linear_sem(other)
        with pytest.raises(DimMismatchError):
            causal.imse_report(fl, sem, value_count=2, n_samples=10, rng=0)

    @pytest.mark.parametrize("n", [None, 1, 7, 8, 100, 1000])
    def test_errors_match_per_target_means(self, n):
        """``_report`` takes a query's errors from one mean over the rows of
        its (targets, n) gap: bitwise a mean per target, at every n.  With
        ``n`` None the answers are single rows, as imse_report gives them,
        whose squares the per-target mean takes by libm's pow: the draws,
        seeded 0, hold a gap where that differs from g * g."""
        d, value_count = 20, 8
        sem = causal.gen_linear_sem(d, rng=1)
        rng = np.random.default_rng(0 if n is None else n)
        drawn = []

        def answers(blocks):
            shape = (d,) if n is None else (n, d)
            for j, _, alphas in blocks:
                pairs = [(rng.normal(size=shape), 3.0 * rng.normal(size=shape))
                         for _ in alphas]
                drawn.append((j, pairs))
                yield pairs

        total, breakdown = causal._report(causal.flow_from_linear_sem(sem), sem, value_count,
                                          n or 1, answers)
        expected, raw = [], 0.0
        for j, pairs in drawn:
            for truth, model in pairs:
                expected.append({i: float(np.mean((truth[..., i] - model[..., i]) ** 2))
                                 for i in range(j + 1, d)})
                raw += sum(expected[-1].values())
        assert [row["errors"] for row in breakdown] == expected + [{}] * value_count
        assert total == raw / (value_count * d * (d + 1) / 2.0)
        if n is None:
            gaps = [g for j, pairs in drawn for truth, model in pairs
                    for g in (truth[j + 1:] - model[j + 1:]).tolist()]
            assert any(g ** 2 != g * g for g in gaps)
