"""Tests for structured affine flows: transforms, likelihoods, training."""

from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from strnn import adjacency, causal, datagen, factorizer, flow, neural
from strnn.errors import (ConfigError, DimMismatchError, NonFiniteInputError,
                          UpperTriangleNonZeroError)


def jitter_flow(fl, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    for net in fl.layers:
        for W, M in zip(net.weights, net.masks):
            W += scale * rng.normal(size=W.shape) * M
        for b in net.biases:
            b += scale * rng.normal(size=b.shape)
    return fl


class TestConstruction:
    def test_build_shares_masks_not_weights(self):
        A = adjacency.gen_random_sparse(5, 0.4, 0)
        fl = flow.AffineFlow.build(A, 3, [8], 0)
        assert len(fl.layers) == 3
        for net in fl.layers[1:]:
            for M0, M in zip(fl.layers[0].masks, net.masks):
                np.testing.assert_array_equal(M0, M)
        assert any(not np.array_equal(a, b)
                   for a, b in zip(fl.layers[0].weights, fl.layers[1].weights))

    def test_default_standardization_is_identity(self):
        A = adjacency.gen_prev_k(4, 1)
        fl = flow.AffineFlow.build(A, 2, [6], 1)
        np.testing.assert_array_equal(fl.mu, np.zeros(4))
        np.testing.assert_array_equal(fl.sigma, np.ones(4))

    def test_rejects_binary_head_conditioner(self):
        A = adjacency.gen_prev_k(3, 1)
        masks = factorizer.factor_multilayer(A, [4], "greedy")
        net = neural.MaskedMLP.from_masks(masks, "binary", 0)
        with pytest.raises(ConfigError):
            flow.AffineFlow(A, [net])

    def test_rejects_width_mismatch(self):
        A3 = adjacency.gen_prev_k(3, 1)
        A4 = adjacency.gen_prev_k(4, 1)
        masks = factorizer.factor_multilayer(A4, [5], "greedy")
        net = neural.MaskedMLP.from_masks(masks, "gaussian", 0)
        with pytest.raises(ConfigError):
            flow.AffineFlow(A3, [net])


class TestTransforms:
    def test_zeroed_conditioners_give_identity(self):
        """With all weights zero the flow is the standardization map."""
        A = adjacency.gen_random_sparse(4, 0.5, 2)
        fl = flow.AffineFlow.build(A, 3, [6], 2)
        for net in fl.layers:
            for W in net.weights:
                W[:] = 0.0
        fl.mu = np.array([1.0, -2.0, 0.5, 3.0])
        fl.sigma = np.array([2.0, 0.5, 1.0, 4.0])
        x = np.random.default_rng(0).normal(size=(10, 4))
        z, log_det = flow.to_noise(fl, x)
        np.testing.assert_allclose(z, (x - fl.mu) / fl.sigma)
        np.testing.assert_allclose(log_det,
                                   -np.sum(np.log(fl.sigma)) * np.ones(10))
        np.testing.assert_allclose(flow.from_noise(fl, z), x, atol=1e-12)

    def test_single_variable_affine_by_hand(self):
        """d=1: conditioner outputs are constants, so the flow is x = e^s z + t."""
        A = np.zeros((1, 1), dtype=np.int64)
        fl = flow.AffineFlow.build(A, 1, [3], 0)
        net = fl.layers[0]
        for W in net.weights:
            W[:] = 0.0
        net.biases[-1][:] = [0.7, -0.4]  # t, log-scale
        x = np.linspace(-2, 2, 9)[:, None]
        z, log_det = flow.to_noise(fl, x)
        np.testing.assert_allclose(z, (x - 0.7) * np.exp(0.4))
        np.testing.assert_allclose(log_det, 0.4 * np.ones(9))
        expected_nll = -scipy.stats.norm.logpdf(x[:, 0], loc=0.7,
                                                scale=np.exp(-0.4))
        np.testing.assert_allclose(flow.nll(fl, x), expected_nll, rtol=1e-10)

    def test_roundtrip_inversion(self):
        A = adjacency.gen_random_sparse(8, 0.4, 5)
        fl = jitter_flow(flow.AffineFlow.build(A, 3, [10], 5), 6)
        x = np.random.default_rng(7).normal(size=(200, 8))
        z, _ = flow.to_noise(fl, x)
        back = flow.from_noise(fl, z)
        assert np.max(np.abs(back - x)) < 1e-8
        z2, _ = flow.to_noise(fl, back)
        assert np.max(np.abs(z2 - z)) < 1e-8

    def test_log_det_matches_numerical_jacobian(self):
        A = adjacency.gen_random_sparse(4, 0.5, 9)
        fl = jitter_flow(flow.AffineFlow.build(A, 2, [6], 9), 10)
        fl.mu = np.array([0.3, -0.1, 0.0, 0.2])
        fl.sigma = np.array([1.5, 0.8, 1.0, 2.0])
        x0 = np.array([0.4, -0.7, 1.1, 0.2])
        eps = 1e-6
        J = np.zeros((4, 4))
        for j in range(4):
            hi = x0.copy()
            hi[j] += eps
            lo = x0.copy()
            lo[j] -= eps
            zh, _ = flow.to_noise(fl, hi)
            zl, _ = flow.to_noise(fl, lo)
            J[:, j] = (zh - zl) / (2 * eps)
        _, log_det = flow.to_noise(fl, x0)
        np.testing.assert_allclose(log_det,
                                   np.log(np.abs(np.linalg.det(J))),
                                   atol=1e-5)

    def test_keep_levels_structure(self):
        A = adjacency.gen_random_sparse(5, 0.5, 1)
        fl = jitter_flow(flow.AffineFlow.build(A, 3, [6], 1), 2)
        x = np.random.default_rng(3).normal(size=(4, 5))
        levels, log_det = flow._to_noise(fl, x, keep_levels=True)
        z, ref_log_det = flow.to_noise(fl, x)
        assert len(levels) == 4
        np.testing.assert_array_equal(levels[0], z)
        np.testing.assert_array_equal(log_det, ref_log_det)
        np.testing.assert_allclose(levels[-1], (x - fl.mu) / fl.sigma)

    def test_single_vector_squeeze(self):
        A = adjacency.gen_prev_k(3, 1)
        fl = flow.AffineFlow.build(A, 2, [4], 0)
        z, log_det = flow.to_noise(fl, np.zeros(3))
        assert z.shape == (3,) and np.isscalar(float(log_det))
        assert flow.from_noise(fl, np.zeros(3)).shape == (3,)

    def test_input_validation(self):
        A = adjacency.gen_prev_k(3, 1)
        fl = flow.AffineFlow.build(A, 1, [4], 0)
        with pytest.raises(DimMismatchError):
            flow.to_noise(fl, np.zeros(4))
        with pytest.raises(NonFiniteInputError):
            flow.to_noise(fl, np.array([0.0, np.inf, 0.0]))

    def test_sampling_statistics_of_identity_flow(self):
        A = adjacency.gen_prev_k(3, 1)
        fl = flow.AffineFlow.build(A, 2, [4], 0)
        for net in fl.layers:
            for W in net.weights:
                W[:] = 0.0
        fl.mu = np.array([1.0, 2.0, -1.0])
        fl.sigma = np.array([0.5, 1.0, 2.0])
        xs = flow.sample(fl, 40000, 11)
        np.testing.assert_allclose(xs.mean(axis=0), fl.mu, atol=0.03)
        np.testing.assert_allclose(xs.std(axis=0), fl.sigma, atol=0.03)


# The planned passes drop terms whose weight is exactly 0, multiply
# coordinate-major, W @ level, and add each bias inside its product, all of
# which change BLAS's order of summation: an inversion oracle of row-major
# full passes is matched to within INVERSION_RTOL of the largest magnitude in
# the oracle's levels and data.  Over 10,000 random flows (up to three
# layers, two hidden layers of up to 47 units, up to 1,000 samples) the
# largest gap was 4.7e-11, and 7.1e-11 with the bias added after each product.
INVERSION_RTOL = 1e-10


def assert_inversion_close(ours, ref):
    scale = max(np.abs(b).max(initial=0.0) for b in ref)
    for a, b in zip(ours, ref):
        assert a.shape == b.shape
        assert np.abs(a - b).max(initial=0.0) <= INVERSION_RTOL * scale


def reconstruct_per_coordinate(fl, levels, pin, start):
    """Reference inversion: one conditioner forward per coordinate per layer,
    in index order from ``start``, then de-standardization.
    ``flow._reconstruct`` must match it, levels and data, within
    ``assert_inversion_close``: from start 0 for a whole refill, from j for
    a counterfactual, whose refill skips the coordinates after j that do not
    descend from it and which the oracle recomputes to their abducted values
    up to rounding."""
    K = len(fl.layers)
    j, alpha = pin if pin else (None, None)
    for k in range(start, fl.dim):
        if k == j:
            levels[K][:, k] = (alpha - fl.mu[k]) / fl.sigma[k]
            for lvl in range(K, 0, -1):
                t, s = neural._split_gaussian(fl.layers[lvl - 1].forward(levels[lvl]))
                levels[lvl - 1][:, k] = (levels[lvl][:, k] - t[:, k]) * np.exp(-s[:, k])
        else:
            for lvl in range(1, K + 1):
                t, s = neural._split_gaussian(fl.layers[lvl - 1].forward(levels[lvl]))
                levels[lvl][:, k] = np.exp(s[:, k]) * levels[lvl - 1][:, k] + t[:, k]
    x = levels[K] * fl.sigma + fl.mu
    if pin:
        x[:, j] = alpha
    return x


def reconstruct_full_passes(fl, levels, dep, start=0, pin=None):
    """Oracle: the generation-by-generation inversion as it was before the
    inversion plan, with every conditioner pass a plain full forward, of
    coordinates start..d-1 (see ``reconstruct_per_coordinate``).  The
    planned ``flow._reconstruct`` must match it, levels and data, within
    ``assert_inversion_close``, and bitwise when every product and sum is
    exact."""
    j, alpha = (None, None) if pin is None else pin
    K = len(fl.layers)
    for gen in flow._generations(dep):
        gen = gen[gen >= start]
        at_pin = gen == j
        free, pinned = gen[~at_pin], gen[at_pin]
        down = []
        for lvl in range(1, K + 1):
            t, s = neural._split_gaussian(fl.layers[lvl - 1].forward(levels[lvl]))
            if free.size:
                levels[lvl][:, free] = np.exp(s[:, free]) * levels[lvl - 1][:, free] + t[:, free]
            if pinned.size:
                down.append((t[:, pinned], s[:, pinned]))
        if pinned.size:
            levels[K][:, j] = (alpha - fl.mu[j]) / fl.sigma[j]
            for lvl in range(K, 0, -1):
                t, s = down[lvl - 1]
                levels[lvl - 1][:, pinned] = (levels[lvl][:, pinned] - t) * np.exp(-s)
    x = levels[K] * fl.sigma + fl.mu
    if pin is not None:
        x[:, j] = alpha
    return x


def break_mask(net, reader, source):
    """Make output ``reader`` (shift and log-scale) read input ``source``
    through hidden unit 0 of every layer, whatever the mask says."""
    W, d = net.weights, net.dim
    W[0][0, :] = 0.0
    W[0][0, source] = 0.7
    for V in W[1:-1]:
        V[:, 0] = 0.0
        V[0, :] = 0.0
        V[0, 0] = 0.5
    W[-1][:, 0] = 0.0
    W[-1][reader, 0] = 0.4
    W[-1][d + reader, 0] = 0.3


def n_generations(A):
    depth = np.zeros(A.shape[0], dtype=np.int64)
    for k in range(A.shape[0]):
        parents = np.flatnonzero(A[k, :k])
        if parents.size:
            depth[k] = depth[parents].max() + 1
    return int(depth.max()) + 1


def count_passes(monkeypatch):
    """Record each conditioner pass: "forward" for a row-major
    ``MaskedMLP._layers`` pass, which ``forward`` also runs (the data-to-noise
    direction), "plan" for a ``_Plan.affine`` (the noise-to-data direction)."""
    calls = []
    forward, affine = neural.MaskedMLP._layers, flow._Plan.affine

    def counted_forward(net, x, *args, **kwargs):
        calls.append("forward")
        return forward(net, x, *args, **kwargs)

    def counted_affine(plan, *args):
        calls.append("plan")
        return affine(plan, *args)

    monkeypatch.setattr(neural.MaskedMLP, "_layers", counted_forward)
    monkeypatch.setattr(flow._Plan, "affine", counted_affine)
    return calls


def run_plan(plan, levels, pin=None, observed=None):
    """``flow._reconstruct`` on coordinate-major copies of the row-major
    ``levels``, each (d + 1, n) with a last row of ones, and on a copy of
    ``observed``: the levels it leaves, row-major again, then the data.  No
    pass writes the ones."""
    ours = [np.vstack([lv.T, np.ones(len(lv))]) for lv in levels]
    x = flow._reconstruct(plan, ours, pin, None if observed is None else observed.copy())
    assert all((lv[-1] == 1.0).all() for lv in ours)
    return [lv[:-1].T for lv in ours] + [x]


def draw_dag(data, d):
    """A d x d adjacency whose below-diagonal entries hypothesis draws."""
    A = np.zeros((d, d), dtype=np.int64)
    below = np.tril_indices(d, -1)
    A[below] = data.draw(st.lists(st.booleans(), min_size=len(below[0]),
                                  max_size=len(below[0])))
    return A


# The refills the inversion tests draw from (``refill_levels``).
REFILLS = ("noise", "abducted", "counterfactual")


def refill_levels(fl, x, kind):
    """The levels of one refill of ``kind``: "noise" reads ``x`` as the noise
    of a whole refill; "abducted" (a whole refill) and "counterfactual"
    abduct the levels from the data ``x``."""
    if kind == "noise":
        return [x] + [np.zeros_like(x) for _ in fl.layers]
    return flow._to_noise(fl, x, keep_levels=True)[0]


def assert_same_inversion(fl, levels, pin, observed=None):
    """The planned refill of ``levels``, whole or, given ``observed``, the
    counterfactual of ``pin``, matches ``reconstruct_per_coordinate``."""
    ref = [lv.copy() for lv in levels]
    ref.append(reconstruct_per_coordinate(fl, ref, pin, 0 if observed is None else pin[0]))
    assert_inversion_close(run_plan(flow._Plan(fl), levels, pin, observed), ref)


class TestGenerationInversion:
    @settings(max_examples=60)
    @given(data=st.data(), d=st.integers(1, 7), K=st.sampled_from([1, 2, 3]),
           seed=st.integers(0, 2**16), kind=st.sampled_from(REFILLS))
    def test_matches_per_coordinate_reference(self, data, d, K, seed, kind):
        """Whole refills of noise or abducted levels, with a pin or none, and
        counterfactual refills match the per-coordinate oracle."""
        A = draw_dag(data, d)
        fl = jitter_flow(flow.AffineFlow.build(A, K, [d + 2], seed), seed + 1)
        rng = np.random.default_rng(seed)
        fl.mu, fl.sigma = rng.normal(size=d), rng.uniform(0.5, 2.0, size=d)
        x = rng.normal(size=(30, d))
        pin = (data.draw(st.integers(0, d - 1)), data.draw(st.floats(-3, 3)))
        if kind == "counterfactual":
            assert_same_inversion(fl, refill_levels(fl, x, kind), pin, x)
        else:
            pin = data.draw(st.sampled_from([None, pin]))
            assert_same_inversion(fl, refill_levels(fl, x, kind), pin)

    @settings(max_examples=60)
    @given(data=st.data(), d=st.integers(1, 6), K=st.sampled_from([1, 2, 3]),
           hidden=st.lists(st.sampled_from([0, 8, 40]), min_size=1, max_size=2),
           seed=st.integers(0, 2**16), kind=st.sampled_from(REFILLS),
           ns=st.lists(st.sampled_from([1, 2, 7, 1000]), min_size=1, max_size=3),
           defect=st.sampled_from([None, "upper", "self"]))
    def test_plan_matches_full_passes(self, data, d, K, hidden, seed, kind, ns, defect):
        """One plan serves every row count in turn; each run, a whole or a
        counterfactual refill, matches the full pass inversion on the data
        and on every level it edits, within ``assert_inversion_close``.
        "upper" breaks the mask so that a coordinate reads a later one, and
        "self" so that the pinned coordinate reads itself: the plan refuses
        both, naming the pair."""
        A = draw_dag(data, d)
        # Width 0 stands for d + 1, the narrowest that carries every pattern.
        hidden = [w or d + 1 for w in hidden]
        fl = jitter_flow(flow.AffineFlow.build(A, K, hidden, seed), seed + 1)
        rng = np.random.default_rng(seed)
        fl.mu, fl.sigma = rng.normal(size=d), rng.uniform(0.5, 2.0, size=d)
        j = data.draw(st.integers(0, d - 1))
        net = fl.layers[data.draw(st.integers(0, K - 1))]
        pair = None
        if defect == "self":
            pair = (j, j)
        elif defect == "upper" and d > 1:
            reader = data.draw(st.integers(0, d - 2))
            pair = (reader, data.draw(st.integers(reader + 1, d - 1)))
        if pair is not None:
            break_mask(net, *pair)
            with pytest.raises(UpperTriangleNonZeroError) as refused:
                flow._Plan(fl)
            assert (refused.value.i, refused.value.j) == pair
            return
        pin = (j, data.draw(st.floats(-3, 3)))
        if kind != "counterfactual":
            pin = data.draw(st.sampled_from([None, pin]))
        plan = flow._Plan(fl)
        for n in ns:
            x = rng.normal(size=(n, d))
            levels = refill_levels(fl, x, kind)
            observed, start = (x, j) if kind == "counterfactual" else (None, 0)
            ref = [lv.copy() for lv in levels]
            ref.append(reconstruct_full_passes(fl, ref, plan.dep, start, pin))
            assert_inversion_close(run_plan(plan, levels, pin, observed), ref)

    @settings(max_examples=60)
    @given(data=st.data(), d=st.integers(1, 6), K=st.sampled_from([1, 2]),
           hidden=st.lists(st.sampled_from([1, 4, 16]), min_size=2, max_size=2),
           chain=st.booleans(), seed=st.integers(0, 2**16), kind=st.sampled_from(REFILLS),
           n=st.sampled_from([0, 1, 7]))
    def test_coordinate_major_matches_full_passes(self, data, d, K, hidden, chain, seed,
                                                  kind, n):
        """The plan's passes run coordinate-major, W @ level, where the oracle
        runs row-major full forwards, level @ W.T: BLAS sums the two in other
        orders, and the inversions still match within
        ``assert_inversion_close``.  The thin shapes where the orientations
        round differently most often: two hidden layers, n of 0, 1 or 7
        samples and, with ``chain``, one coordinate per generation, so every
        output layer keeps 2 rows.  Each root generation of a whole refill
        reads no hidden unit."""
        A = adjacency.gen_prev_k(d, 1) if chain else draw_dag(data, d)
        fl = jitter_flow(flow.AffineFlow.build(A, K, [d + w for w in hidden], seed), seed + 1)
        rng = np.random.default_rng(seed)
        fl.mu, fl.sigma = rng.normal(size=d), rng.uniform(0.5, 2.0, size=d)
        plan = flow._Plan(fl)
        if chain:
            assert all(len(gen) == 1 for gen in plan.generations())
        for k in range(K):
            layers = plan.step(k, plan.generations()[0], n)
            assert [W.shape[0] for W, _, _ in layers[:-1]] == [0, 0]
        j = data.draw(st.integers(0, d - 1))
        pin = (j, data.draw(st.floats(-3, 3)))
        if kind != "counterfactual":
            pin = data.draw(st.sampled_from([None, pin]))
        x = rng.normal(size=(n, d))
        levels = refill_levels(fl, x, kind)
        observed, start = (x, j) if kind == "counterfactual" else (None, 0)
        ref = [lv.copy() for lv in levels]
        ref.append(reconstruct_full_passes(fl, ref, plan.dep, start, pin))
        assert_inversion_close(run_plan(plan, levels, pin, observed), ref)

    @pytest.mark.parametrize("direction", ["lower", "upper", "self"])
    def test_weights_outside_adjacency(self, direction):
        """Conditioner weights may add an edge A lacks (the checkpoint loader
        keeps them so that verify can report them).  Below the diagonal
        ("lower"), the flow is inverted in an order its actual weights allow.  On or above it, "upper" (output 1 reads coordinate 4)
        or "self" (coordinate 2 reads itself), every noise-to-data entry
        point refuses the flow and names the pair."""
        d = 6
        A = np.zeros((d, d), dtype=np.int64)
        A[1, 0] = A[2, 1] = A[4, 3] = 1
        fl = jitter_flow(flow.AffineFlow.build(A, 2, [8], 3), 4)
        reader, source = {"lower": (5, 0), "upper": (1, 4), "self": (2, 2)}[direction]
        net = fl.layers[1]
        net.weights[0][0, :] = 0.0
        net.weights[0][0, source] = 0.7
        net.weights[1][:, 0] = 0.0
        net.weights[1][reader, 0] = 0.4
        net.weights[1][d + reader, 0] = 0.3
        if direction != "lower":
            sem, x = causal.gen_linear_sem(d, rng=0), np.zeros((3, d))
            for query in (lambda: flow.from_noise(fl, x),
                          lambda: flow.sample(fl, 3, 0),
                          lambda: causal.flow_intervene_sample(fl, 2, 0.5, 3, 0),
                          lambda: causal.flow_counterfactual(fl, x, 0, -1.0),
                          lambda: causal.imse_report(fl, sem, 2, 3, 0),
                          lambda: causal.cmse_report(fl, sem, 2, 3, 0)):
                with pytest.raises(UpperTriangleNonZeroError) as refused:
                    query()
                assert (refused.value.i, refused.value.j) == (reader, source)
            return
        expected = [[0, 3], [1, 4, 5], [2]]
        assert [g.tolist() for g in flow._generations(flow._dependencies(fl))] == expected
        rng = np.random.default_rng(5)
        z = rng.normal(size=(200, d))
        noise_side = [z] + [np.zeros_like(z) for _ in fl.layers]
        assert_same_inversion(fl, noise_side, None)
        assert_same_inversion(fl, noise_side, (2, 0.5))
        x_obs = rng.normal(size=(200, d))
        levels, _ = flow._to_noise(fl, x_obs, keep_levels=True)
        assert_same_inversion(fl, levels, (0, -1.0), x_obs)
        x = rng.normal(size=(200, d))
        back = flow.from_noise(fl, flow.to_noise(fl, x)[0])
        assert np.max(np.abs(back - x)) < 1e-8

    def test_non_finite_weight_counts_as_edge(self):
        A = np.zeros((3, 3), dtype=np.int64)
        fl = flow.AffineFlow.build(A, 1, [3], 0)
        fl.layers[0].weights[0][0, 0] = np.nan
        fl.layers[0].weights[1][2, 0] = np.inf
        assert [g.tolist() for g in flow._generations(flow._dependencies(fl))] == [[0, 1], [2]]

    @pytest.mark.parametrize("A", [adjacency.gen_prev_k(6, 1),
                                   adjacency.gen_random_sparse(9, 0.6, 2),
                                   np.zeros((4, 4), dtype=np.int64)])
    def test_one_forward_per_layer_per_generation(self, monkeypatch, A):
        K = 3
        fl = jitter_flow(flow.AffineFlow.build(A, K, [A.shape[0] + 2], 1), 2)
        calls = count_passes(monkeypatch)
        flow.from_noise(fl, np.random.default_rng(0).normal(size=(10, A.shape[0])))
        assert calls == ["plan"] * (n_generations(A) * K)

    def test_zero_rows(self):
        """A batch of no rows comes back as no rows of width d, also when the
        flow has more than one generation."""
        fl = jitter_flow(flow.AffineFlow.build(adjacency.gen_prev_k(6, 2), 2, [8], 0), 1)
        assert len(flow._generations(flow._dependencies(fl))) > 1
        assert flow.sample(fl, 0, 0).shape == (0, 6)
        assert causal.flow_intervene_sample(fl, 2, 1.0, 0, 0).shape == (0, 6)
        assert causal.flow_counterfactual(fl, np.zeros((0, 6)), 2, 1.0).shape == (0, 6)

    @pytest.mark.parametrize("report", ["imse", "cmse"])
    def test_reports_run_no_pass_for_unscored_queries(self, monkeypatch, report):
        """A query at j = d - 1 has no target i > j to score, so a report
        runs no conditioner pass for it.  The other queries go in blocks of
        one target's values, at most max(1, BLOCK_COLUMNS // n) of them:
        imse_report runs one pass per layer and generation for each block,
        cmse_report one per layer and generation of j's descendants, after
        one abduction.  With n = BLOCK_COLUMNS // 2 the 3 values of a target
        take two blocks, with n = 10 one."""
        sem = causal.gen_linear_sem(5, cutoff=0.5, rng=3)
        fl = jitter_flow(flow.AffineFlow.build(sem.adjacency(), 2, [8], 0), 1)
        dep = flow._dependencies(fl)
        value_count, K = 3, len(fl.layers)
        calls = count_passes(monkeypatch)
        for n, blocks in ((10, 1), (causal.BLOCK_COLUMNS // 2, 2)):
            calls.clear()
            if report == "imse":
                causal.imse_report(fl, sem, value_count=value_count, n_samples=n, rng=4)
                abduction, gens = 0, [flow._generations(dep)] * 4
            else:
                causal.cmse_report(fl, sem, value_count=value_count, n_obs=n, rng=4)
                abduction = K
                gens = [flow._generations(dep, j) for j in range(4)]
            passes = blocks * K * sum(len(g) for g in gens)
            assert calls == ["forward"] * abduction + ["plan"] * passes

    def test_from_noise_returns_independent_arrays(self, monkeypatch):
        A = adjacency.gen_random_sparse(6, 0.5, 3)
        fl = jitter_flow(flow.AffineFlow.build(A, 2, [8], 1), 2)
        plans = []
        Plan = flow._Plan
        monkeypatch.setattr(flow, "_Plan", lambda fl: plans.append(Plan(fl)) or plans[-1])
        z = np.random.default_rng(0).normal(size=(9, 6))
        a, b = flow.from_noise(fl, z), flow.from_noise(fl, z)
        assert a.tobytes() == b.tobytes() and not np.shares_memory(a, b)
        buffers = [buf for plan in plans for work in plan._buffers.values() for buf in work]
        assert len(plans) == 2 and buffers
        for x in (a, b):
            assert not any(np.shares_memory(x, buf) for buf in buffers)

    @pytest.mark.parametrize("query", ["from_noise", "intervene", "counterfactual"])
    def test_answers_are_fresh_row_major_batches(self, monkeypatch, query):
        """The inversion runs coordinate-major, and its callers still get a
        C-contiguous (n, d) batch that shares no memory with the plan's
        buffers."""
        A = adjacency.gen_random_sparse(6, 0.5, 3)
        fl = jitter_flow(flow.AffineFlow.build(A, 2, [8], 1), 2)
        plans = []
        Plan = flow._Plan
        monkeypatch.setattr(flow, "_Plan", lambda fl: plans.append(Plan(fl)) or plans[-1])
        x = np.random.default_rng(0).normal(size=(9, 6))
        run = {"from_noise": lambda: flow.from_noise(fl, x),
               "intervene": lambda: causal.flow_intervene_sample(fl, 2, 0.5, 9, 0),
               "counterfactual": lambda: causal.flow_counterfactual(fl, x, 1, 0.5)}[query]
        out = run()
        assert out.shape == (9, 6) and out.flags.c_contiguous and out.flags.owndata
        buffers = [buf for work in plans[0]._buffers.values() for buf in work]
        assert len(plans) == 1 and buffers
        assert not any(np.shares_memory(out, buf) for buf in buffers)

    def test_plain_forward_returns_a_fresh_array(self):
        net = flow.AffineFlow.build(adjacency.gen_prev_k(4, 1), 1, [5, 6], 0).layers[0]
        x = np.random.default_rng(1).normal(size=(3, 4))
        work = [np.empty((3, 5)), np.empty((3, 6)), np.empty((3, 8))]
        first, second = net.forward(x), net.forward(x)
        assert not np.shares_memory(first, second) and not np.shares_memory(first, x)
        assert net.forward(x, work=work) is work[-1]
        assert work[-1].tobytes() == first.tobytes()
        assert not any(np.shares_memory(net.forward(x), buf) for buf in work)

    def test_one_plan_serves_both_report_sizes(self):
        """One plan serves counterfactuals of 20 and 33 rows, each matching the
        full pass inversion within ``assert_inversion_close``, from one set of
        buffers per row count."""
        sem = causal.gen_linear_sem(5, cutoff=0.5, rng=3)
        fl = jitter_flow(flow.AffineFlow.build(sem.adjacency(), 2, [40], 0), 1)
        plan = flow._Plan(fl)
        rng = np.random.default_rng(2)
        for n, j in ((20, 0), (33, 2), (20, 1)):
            x_obs = causal.sem_sample(sem, n, rng)
            levels, _ = flow._to_noise(fl, x_obs, keep_levels=True)
            ours = run_plan(plan, levels, (j, 0.5), x_obs)[-1]
            ref = reconstruct_full_passes(fl, [lv.copy() for lv in levels], plan.dep, j,
                                          (j, 0.5))
            assert_inversion_close([ours], [ref])
        assert {key[1] for key in plan._buffers} == {20, 33}

    @pytest.mark.parametrize("drop_units", [False, True])
    def test_either_side_of_the_row_slice_fork(self, drop_units):
        """The planned passes slice each conditioner to the rows a generation
        reads and, walking back, to the hidden units with a nonzero weight into
        them.  With ``drop_units`` False only the masks zero a weight, so the
        hidden slices are what the masks allow; with True some allowed weights
        are 0 as well and some pass keeps fewer units.  Either way weights,
        biases and noise are small multiples of 1/4 and every log-scale is 0,
        so every product and sum is exact and no order of summation can round
        differently: the planned inversion gives the full passes' bits, in a
        whole refill with a pin or none and in a counterfactual."""
        d = 5
        A = np.zeros((d, d), dtype=np.int64)
        A[1, 0] = A[2, 0] = A[3, 1] = A[4, 1] = A[4, 2] = 1     # generations 0, 12, 34
        fl = flow.AffineFlow.build(A, 2, [6], 0)
        rng = np.random.default_rng(1)
        values = np.array([-2, -1, 0, 1, 2] if drop_units else [-2, -1, 1, 2]) / 4
        for net in fl.layers:
            for W, M in zip(net.weights, net.masks):
                W[...] = rng.choice(values, size=W.shape) * M
            for b in net.biases:
                b[...] = rng.integers(-2, 3, size=b.shape) / 4
            net.weights[-1][d:] = net.biases[-1][d:] = 0.0
        plan = flow._Plan(fl)
        narrower = False
        for j in (None, 2):
            for gen in plan.generations(j):
                for k, net in enumerate(fl.layers):
                    W = plan.step(k, gen, 1)[0][0]
                    allowed = (net.masks[-1][gen] != 0.0).any(axis=0)
                    narrower |= W.shape[0] < allowed.sum()
        assert narrower == drop_units
        z = rng.integers(-8, 9, size=(7, d)) / 4
        abducted, _ = flow._to_noise(fl, z, keep_levels=True)
        noise_side = [z] + [np.zeros_like(z) for _ in fl.layers]
        for levels, pin, observed in ((noise_side, None, None), (noise_side, (1, 0.75), None),
                                      (abducted, (2, -1.5), z)):
            ref = [lv.copy() for lv in levels]
            start = 0 if observed is None else pin[0]
            ref.append(reconstruct_full_passes(fl, ref, plan.dep, start, pin))
            for a, b in zip(run_plan(plan, levels, pin, observed), ref):
                assert a.tobytes() == b.tobytes()

    def test_each_pass_keeps_the_units_its_rows_read(self):
        """Each pass of conditioner k on a generation keeps output rows gen and
        d + gen, and in each hidden layer exactly the units with a nonzero
        weight into the units kept after it, as contiguous copies of the
        weights with their biases as one more column: last in layer 0, which
        reads a level's row of ones, first in each later layer.  Each layer
        writes a (width, n) array at the front of one of the plan's buffers;
        a hidden layer's sits under the buffer's row of ones, and the next
        layer reads both."""
        A = adjacency.gen_random_sparse(7, 0.5, 3)
        fl = jitter_flow(flow.AffineFlow.build(A, 2, [9, 8], 1), 2)
        plan = flow._Plan(fl)
        n = 6
        for j in (None, *range(7)):
            for gen in plan.generations(j):
                for k, net in enumerate(fl.layers):
                    layers = plan.step(k, gen, n)
                    keep, expected = np.concatenate([gen, gen + 7]), []
                    for layer in (2, 1, 0):
                        W, b = net.weights[layer][keep], net.biases[layer][keep, None]
                        read = (W != 0.0).any(axis=0) if layer else np.ones(7, dtype=bool)
                        expected.insert(0, np.hstack([b, W[:, read]] if layer else [W, b]))
                        keep = np.flatnonzero(read)
                    buffers = plan.buffers(net, n)
                    assert len(layers) == len(expected) == len(buffers)
                    for i, ((W, out, h), W_ref, buf) in enumerate(zip(layers, expected, buffers)):
                        assert W.flags.c_contiguous and W.shape == W_ref.shape
                        assert np.array_equal(W, W_ref)
                        assert out.flags.c_contiguous and out.shape == (len(W), n)
                        assert h.ctypes.data == buf.ctypes.data
                        if i < len(layers) - 1:
                            assert h.shape == (len(W) + 1, n) and (h[0] == 1.0).all()
                            assert out.ctypes.data == h[1:].ctypes.data
                        else:
                            assert out is h

    @settings(max_examples=40)
    @given(data=st.data(), d=st.integers(1, 7), K=st.sampled_from([1, 2]),
           hidden=st.lists(st.sampled_from([1, 4, 16]), min_size=1, max_size=2),
           seed=st.integers(0, 2**16), n=st.sampled_from([1, 7, 1000]))
    def test_generation_reading_no_hidden_unit_outputs_its_biases(self, data, d, K, hidden,
                                                                  seed, n):
        """A generation whose rows read no hidden unit, as the root
        generation of a whole refill does, outputs its biases times the row of
        ones: exactly its output biases, clamped, and bitwise the row-major
        full pass, whatever the level holds."""
        A = draw_dag(data, d)
        fl = jitter_flow(flow.AffineFlow.build(A, K, [d + w for w in hidden], seed), seed + 1)
        plan = flow._Plan(fl)
        x = 3.0 * np.random.default_rng(seed).normal(size=(n, d))
        level = np.vstack([x.T, np.ones(n)])
        gen = plan.generations()[0]
        for k, net in enumerate(fl.layers):
            assert all(W.shape[0] == 0 for W, _, _ in plan.step(k, gen, n)[:-1])
            t, s = plan.affine(k, gen, level)
            t_ref, s_ref = neural._split_gaussian(net.forward(x))
            assert t.tobytes() == np.ascontiguousarray(t_ref[:, gen].T).tobytes()
            assert s.tobytes() == np.ascontiguousarray(s_ref[:, gen].T).tobytes()
            b = net.biases[-1]
            assert (t == b[gen, None]).all()
            assert (s == b[d + gen, None].clip(-neural.LOG_SIGMA_CLAMP,
                                               neural.LOG_SIGMA_CLAMP)).all()

    def test_cmse_report_abducts_once(self, monkeypatch):
        sem = causal.gen_linear_sem(5, rng=3)
        fl = causal.flow_from_linear_sem(sem)
        calls = []
        to_noise = flow._to_noise

        def counted(*args, **kwargs):
            calls.append(1)
            return to_noise(*args, **kwargs)

        monkeypatch.setattr(flow, "_to_noise", counted)
        causal.cmse_report(fl, sem, value_count=2, n_obs=20, rng=4)
        assert len(calls) == 1

    def test_reports_build_the_schedule_once(self, monkeypatch):
        sem = causal.gen_linear_sem(5, rng=3)
        fl = causal.flow_from_linear_sem(sem)
        calls = []
        dependencies = flow._dependencies
        monkeypatch.setattr(flow, "_dependencies",
                            lambda fl: calls.append(1) or dependencies(fl))
        flow.sample(fl, 20, 1)
        causal.imse_report(fl, sem, value_count=2, n_samples=20, rng=4)
        causal.cmse_report(fl, sem, value_count=2, n_obs=20, rng=4)
        causal.flow_intervene_sample(fl, 1, 0.5, 20, 5)
        causal.flow_counterfactual(fl, np.zeros(5), 1, 0.5)
        assert len(calls) == 5


# With the OpenBLAS build the goldens pin (tests/data/README.md), only the
# last n mod BLAS_TILE columns of an n-column product round differently from
# the same columns of a wider product.  So a query of a multiple of
# BLAS_TILE samples keeps its bits inside a report's block, and another
# query's last samples may move by rounding.
BLAS_TILE = 8


def imse_per_query(fl, sem, value_count, n, rng, ground_truth):
    """Oracle: ``causal.imse_report`` as it ran before blocks, one
    ``flow._reconstruct`` call per query.  Returns (total, breakdown, the
    flow's data batches of the scored queries, in order)."""
    d = fl.dim
    streams = np.random.default_rng(rng).spawn(value_count * d)
    plan = flow._Plan(fl)
    total, breakdown, batches = 0.0, [], []
    queries = [(j, float(a)) for j in range(d) for a in causal.intervention_values(value_count)]
    for (j, alpha), stream in zip(queries, streams):
        errs = {}
        if j < d - 1:
            flow_rng, sem_rng = stream.spawn(2)
            z = flow_rng.standard_normal((n, d))
            batches.append(flow._reconstruct(plan, flow._noise_levels(fl, z), pin=(j, alpha)))
            if ground_truth == "exact":
                gt = causal.sem_intervene_mean_vector(sem, j, alpha)
            else:
                gt = causal.sem_intervene_sample(sem, j, alpha, causal.GT_SAMPLES,
                                                 sem_rng).mean(axis=0)
            model = batches[-1].mean(axis=0)
            errs = {i: float(np.mean((gt[i] - model[i]) ** 2)) for i in range(j + 1, d)}
        total += sum(errs.values())
        breakdown.append({"j": j, "alpha": alpha, "errors": errs})
    return total / (value_count * d * (d + 1) / 2.0), breakdown, batches


def report_with_fresh_blocks(fl, sem, report, value_count, n, rng):
    """Oracle: ``causal.imse_report`` (exact ground truth) or ``cmse_report``
    as they ran before a report reused its block buffers: each block's
    levels fresh from ``flow._noise_levels`` of the block's stacked noise, or
    from ``np.tile`` of the abducted levels and the observations, and the
    SEM's noise abducted per query (``causal.sem_counterfactual``)."""
    d, plan = fl.dim, flow._Plan(fl)

    def imse_answers(blocks):
        streams = np.random.default_rng(rng).spawn(value_count * d)
        for j, first, alphas in blocks:
            flow_rngs = [s.spawn(2)[0] for s in streams[first:first + len(alphas)]]
            z = np.concatenate([r.standard_normal((n, d)) for r in flow_rngs])
            xs = flow._reconstruct(plan, flow._noise_levels(fl, z), pin=(j, np.repeat(alphas, n)))
            yield [(causal.sem_intervene_mean_vector(sem, j, a), x.mean(axis=0))
                   for a, x in zip(alphas, np.split(xs, len(alphas)))]

    def cmse_answers(blocks):
        x_obs = causal.sem_sample(sem, n, rng)
        levels = flow._abduct(fl, x_obs)
        for j, _, alphas in blocks:
            copies = len(alphas)
            fc = flow._reconstruct(plan, [np.tile(lv, copies) for lv in levels],
                                   pin=(j, np.repeat(alphas, n)),
                                   observed=np.tile(x_obs, (copies, 1)))
            yield [(causal.sem_counterfactual(sem, x_obs, j, a), x)
                   for a, x in zip(alphas, np.split(fc, copies))]

    answers = imse_answers if report == "imse" else cmse_answers
    return causal._report(fl, sem, value_count, n, answers)


class TestReportBlocks:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), d=st.integers(2, 6), K=st.sampled_from([1, 2, 3]),
           n=st.sampled_from([1, 7, 8, 300]), value_count=st.sampled_from([1, 3, 8]),
           ground_truth=st.sampled_from(["exact", "sample"]), seed=st.integers(0, 2**16))
    def test_imse_blocks_match_per_query_calls(self, data, d, K, n, value_count,
                                               ground_truth, seed):
        """imse_report answers a target's values in blocks, one
        ``_reconstruct`` call each, with each query's noise in its own
        columns.  Each query's samples, and so the report, are bitwise what
        one call per query gives when n is a multiple of BLAS_TILE or a block
        holds one value; otherwise within ``assert_inversion_close`` (the
        report's errors within INVERSION_RTOL of the squared scale)."""
        A = draw_dag(data, d)
        fl = jitter_flow(flow.AffineFlow.build(A, K, [d + 2], seed), seed + 1)
        rng = np.random.default_rng(seed)
        fl.mu, fl.sigma = rng.normal(size=d), rng.uniform(0.5, 2.0, size=d)
        sem = causal.LinearSEM(np.tril(A * rng.uniform(-2.0, 2.0, size=(d, d)), -1))
        batches, reconstruct = [], flow._reconstruct

        def recorded(*args, **kwargs):
            batches.append(reconstruct(*args, **kwargs).copy())
            return batches[-1]

        with mock.patch.object(flow, "_reconstruct", recorded):
            total, breakdown = causal.imse_report(fl, sem, value_count, n, seed, ground_truth)
        ref_total, ref_breakdown, ref_batches = imse_per_query(fl, sem, value_count, n, seed,
                                                               ground_truth)
        assert len(batches) == (d - 1) * -(-value_count // max(1, causal.BLOCK_COLUMNS // n))
        ours, ref = np.concatenate(batches), np.concatenate(ref_batches)
        if n % BLAS_TILE == 0 or value_count == 1:
            assert ours.tobytes() == ref.tobytes()
            assert (total, breakdown) == (ref_total, ref_breakdown)
            return
        assert_inversion_close([ours], [ref])
        scale = max(np.abs(ref).max(), *(abs(a) for a in causal.intervention_values(value_count)))
        errors = [[e for row in rows for e in row["errors"].values()] + [t]
                  for rows, t in ((breakdown, total), (ref_breakdown, ref_total))]
        np.testing.assert_allclose(*errors, rtol=INVERSION_RTOL, atol=INVERSION_RTOL * scale ** 2)

    def test_imse_blocks_keep_every_bit_at_the_benchmark_shape(self):
        """At 1,000 samples and 8 values, the benchmark's causal-eval shape,
        blocks of 2 values give the per-query report bitwise."""
        sem = causal.gen_linear_sem(6, cutoff=0.5, rng=5)
        fl = jitter_flow(flow.AffineFlow.build(sem.adjacency(), 3, [12], 6), 7)
        assert causal.BLOCK_COLUMNS // 1000 == 2
        total, breakdown = causal.imse_report(fl, sem, 8, 1000, 8)
        assert (total, breakdown) == imse_per_query(fl, sem, 8, 1000, 8, "exact")[:2]

    @pytest.mark.parametrize("report", ["imse", "cmse"])
    @pytest.mark.parametrize("value_count, n", [(3, 10), (3, causal.BLOCK_COLUMNS // 2),
                                                (8, 1000), (5, 1000), (8, 300)])
    def test_reused_block_buffers_match_fresh_ones(self, report, value_count, n):
        """A report allocates its levels (and cmse_report its tiled
        observations) once, at its first block, which is the widest, and
        refills them block after block; a shorter block runs on their first
        columns.  Every block's data, and so the report, is bitwise what
        fresh buffers per block give: each target's values take blocks of
        2 and 1 at (3, BLOCK_COLUMNS // 2), of 2, 2 and 1 at (5, 1000) and
        of 6 and 2 at (8, 300), the short views reused from target to
        target."""
        sem = causal.gen_linear_sem(6, cutoff=0.5, rng=5)
        fl = jitter_flow(flow.AffineFlow.build(sem.adjacency(), 2, [12], 6), 7)
        run = causal.imse_report if report == "imse" else causal.cmse_report
        sides = []
        for compute in (lambda: run(fl, sem, value_count, n, 8),
                        lambda: report_with_fresh_blocks(fl, sem, report, value_count, n, 8)):
            batches, reconstruct = [], flow._reconstruct

            def recorded(*args, **kwargs):
                x = reconstruct(*args, **kwargs)
                batches.append(x.copy())
                return x

            with mock.patch.object(flow, "_reconstruct", recorded):
                sides.append((compute(), batches))
        (ours, ours_batches), (ref, ref_batches) = sides
        blocks = 5 * -(-value_count // max(1, causal.BLOCK_COLUMNS // n))
        assert len(ours_batches) == len(ref_batches) == blocks
        assert all(a.tobytes() == b.tobytes() for a, b in zip(ours_batches, ref_batches))
        assert ours == ref

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.integers(1, 7), K=st.sampled_from([1, 2, 3]),
           n=st.sampled_from([1, 7, 30]), seed=st.integers(0, 2**16))
    def test_counterfactual_refills_only_descendants(self, data, d, K, n, seed):
        """A counterfactual refills j and its descendants under the plan's
        dependencies, in the generations of those coordinates alone (j first,
        by itself): every other coordinate comes back bitwise equal to x_obs,
        and the descendants match a whole refill of the abducted levels
        within ``assert_inversion_close``."""
        A = draw_dag(data, d)
        fl = jitter_flow(flow.AffineFlow.build(A, K, [d + 2], seed), seed + 1)
        rng = np.random.default_rng(seed)
        fl.mu, fl.sigma = rng.normal(size=d), rng.uniform(0.5, 2.0, size=d)
        x_obs = fl.mu + fl.sigma * rng.normal(size=(n, d))
        j, alpha = data.draw(st.integers(0, d - 1)), data.draw(st.floats(-3, 3))
        plan = flow._Plan(fl)
        moved = flow._descendants(plan.dep, j)
        gens = plan.generations(j)
        assert gens[0].tolist() == [j]
        assert sorted(np.concatenate(gens).tolist()) == np.flatnonzero(moved).tolist()
        cf = causal.flow_counterfactual(fl, x_obs, j, alpha)
        assert cf[:, ~moved].tobytes() == x_obs[:, ~moved].tobytes()
        assert np.all(cf[:, j] == alpha)
        full = flow._reconstruct(plan, flow._abduct(fl, x_obs), pin=(j, alpha))
        assert_inversion_close([cf[:, moved]], [full[:, moved]])


def hidden_preacts(net, x):
    """The pre-activations of each hidden layer of ``net`` at ``x``."""
    preacts, h = [], x
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        preacts.append(h @ W.T + b)
        h = np.maximum(preacts[-1], 0.0)
    return preacts


def well_conditioned_flow(x, d, n_layers, hidden, margin=1e-3):
    """Search for a jittered flow whose ReLU kinks, scale clamp, and overall
    magnitudes leave finite differences trustworthy at x."""
    for seed in range(300):
        A = adjacency.gen_random_sparse(d, 0.5, seed)
        fl = jitter_flow(flow.AffineFlow.build(A, n_layers, hidden, seed),
                         seed + 1, scale=0.1)
        levels, _ = flow._to_noise(fl, x, keep_levels=True)
        if np.abs(levels[0]).max() > 10.0:
            continue
        ok = True
        for k, net in enumerate(fl.layers):
            if any(np.abs(p).min() <= margin for p in hidden_preacts(net, levels[k + 1])):
                ok = False
                break
            out = net.forward(levels[k + 1])
            if np.abs(out[:, d:]).max() >= neural.LOG_SIGMA_CLAMP - 0.1:
                ok = False
                break
        if ok:
            return fl
    raise AssertionError("no well-conditioned flow found")


class TestFlowGradients:
    def test_matches_finite_differences(self):
        x = np.random.default_rng(23).normal(size=(6, 4))
        fl = well_conditioned_flow(x, 4, 2, [5])
        analytic, _ = flow.gradients(fl, x, {})
        params = fl.params()
        eps = 1e-6
        for pi, p in enumerate(params):
            flat = p.ravel()
            numeric = np.zeros(flat.size)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + eps
                hi = flow.mean_nll(fl, x)
                flat[k] = orig - eps
                lo = flow.mean_nll(fl, x)
                flat[k] = orig
                numeric[k] = (hi - lo) / (2 * eps)
            scale = np.maximum(np.abs(numeric), 1.0)
            assert np.max(np.abs(analytic[pi].ravel() - numeric) / scale) < 1e-6


class TestFlowTraining:
    def make_dataset(self, seed, d=4, n=240):
        rng = np.random.default_rng(seed)
        A = adjacency.gen_prev_k(d, 2)
        gen = datagen.gen_gaussian(A, n, rng)
        return A, datagen.make_dataset(gen.x, "real", (0.6, 0.2, 0.2), rng)

    def test_nll_improves(self):
        A, ds = self.make_dataset(0)
        fl = flow.AffineFlow.build(A, 2, [8], 0)
        before = flow.mean_nll(fl, ds.train_x)
        cfg = neural.TrainConfig(learning_rate=5e-3, batch_size=32,
                                 max_epochs=30, seed=1)
        fl, history = flow.train_flow(fl, ds, cfg)
        assert history[-1][1] < before

    def test_standardization_frozen_from_train_split(self):
        A, ds = self.make_dataset(1)
        fl = flow.AffineFlow.build(A, 2, [8], 2)
        cfg = neural.TrainConfig(learning_rate=1e-3, batch_size=32,
                                 max_epochs=2, seed=3)
        fl, _ = flow.train_flow(fl, ds, cfg)
        np.testing.assert_allclose(fl.mu, ds.train_x.mean(axis=0))
        np.testing.assert_allclose(
            fl.sigma, np.maximum(ds.train_x.std(axis=0), 1e-8))

    def test_masks_hold_after_training(self):
        A, ds = self.make_dataset(2)
        fl = flow.AffineFlow.build(A, 2, [8], 4)
        cfg = neural.TrainConfig(learning_rate=1e-2, batch_size=32,
                                 max_epochs=5, seed=5)
        fl, _ = flow.train_flow(fl, ds, cfg)
        for net in fl.layers:
            for W, M in zip(net.weights, net.masks):
                assert not np.any(W * (1 - M))

    def test_rejects_invalid_config(self):
        A, ds = self.make_dataset(4)
        fl = flow.AffineFlow.build(A, 2, [8], 8)
        with pytest.raises(ConfigError, match="learning_rate"):
            flow.train_flow(fl, ds, neural.TrainConfig(learning_rate=-1.0))

    @pytest.mark.parametrize("K", [1, 2])
    def test_overflow_stops_the_run(self, K):
        """Each layer maps coordinate 2 through 1e200 times coordinate 1, itself
        1e200 times coordinate 0: on standardized data the NLL overflows, so
        the first epoch is non-finite and the run stops there, without a
        numpy warning (the test config turns RuntimeWarning into an error)."""
        W = np.zeros((4, 4))
        W[1, 0] = W[2, 1] = 1e200
        sem = causal.LinearSEM(W)
        fl = flow.AffineFlow(sem.adjacency(),
                             [causal.flow_from_linear_sem(sem).layers[0] for _ in range(K)])
        rng = np.random.default_rng(9)
        ds = datagen.make_dataset(rng.normal(size=(60, 4)), "real", (0.6, 0.2, 0.2), rng)
        cfg = neural.TrainConfig(batch_size=20, max_epochs=5, seed=1)
        fl, history = flow.train_flow(fl, ds, cfg)
        assert history.stop_reason == "non_finite" and len(history) == 1

    def test_deterministic(self):
        A, ds = self.make_dataset(3)
        cfg = neural.TrainConfig(learning_rate=1e-2, batch_size=32,
                                 max_epochs=4, seed=6)
        outs = []
        for _ in range(2):
            fl = flow.AffineFlow.build(A, 2, [8], 7)
            fl, history = flow.train_flow(fl, ds, cfg)
            outs.append((history, flow.mean_nll(fl, ds.test_x)))
        assert outs[0] == outs[1]


class TestFlowAudit:
    def test_clean_flow_passes(self):
        A = adjacency.gen_random_sparse(5, 0.4, 31)
        fl = jitter_flow(flow.AffineFlow.build(A, 3, [7], 31), 32)
        assert flow.audit_flow(fl) == []

    def test_detects_corrupt_conditioner(self):
        A = np.zeros((3, 3), dtype=np.int64)
        A[2, 0] = 1
        fl = flow.AffineFlow.build(A, 2, [4], 0)
        net = fl.layers[1]
        # Make shift output 1 read input 1, which A forbids.
        row = np.flatnonzero(net.masks[-1][1] == 0)
        net.weights[-1][1, :] = 0.0
        net.weights[0][:, 1] = 1.0
        net.weights[-1][1, 0] = 1.0
        found = flow.audit_flow(fl)
        assert found and all(item[0] == 1 for item in found)


class TestFlowCheckpoint:
    def test_bitwise_roundtrip(self, tmp_path):
        A = adjacency.gen_random_sparse(5, 0.5, 41)
        fl = jitter_flow(flow.AffineFlow.build(A, 2, [6], 41), 42)
        fl.mu = np.random.default_rng(0).normal(size=5)
        fl.sigma = np.abs(np.random.default_rng(1).normal(size=5)) + 0.1
        path = tmp_path / "flow.txt"
        flow.save_flow(fl, path)
        loaded = flow.load_flow(path)
        np.testing.assert_array_equal(loaded.adjacency, fl.adjacency)
        np.testing.assert_array_equal(loaded.mu, fl.mu)
        np.testing.assert_array_equal(loaded.sigma, fl.sigma)
        for a, b in zip(fl.params(), loaded.params()):
            np.testing.assert_array_equal(a, b)
        x = np.random.default_rng(2).normal(size=(4, 5))
        np.testing.assert_array_equal(flow.nll(fl, x), flow.nll(loaded, x))

    def test_header_marks_kind(self, tmp_path):
        A = adjacency.gen_prev_k(3, 1)
        fl = flow.AffineFlow.build(A, 1, [4], 0)
        path = tmp_path / "flow.txt"
        flow.save_flow(fl, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("strnn-checkpoint")
        assert lines[1] == "kind flow"
