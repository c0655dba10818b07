"""Tests for structured affine flows: transforms, likelihoods, training."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from strnn import adjacency, causal, datagen, factorizer, flow, neural
from strnn.errors import ConfigError, DimMismatchError, NonFiniteInputError


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
        z, log_det, levels = flow.to_noise(fl, x, keep_levels=True)
        assert len(levels) == 4
        np.testing.assert_array_equal(levels[0], z)
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


def reconstruct_per_coordinate(fl, levels, pins, start):
    """Reference inversion: one conditioner forward per coordinate per layer,
    in index order.  ``flow._reconstruct`` must match it bitwise."""
    K = len(fl.layers)
    for k in range(start, fl.dim):
        if k in pins:
            levels[K][:, k] = pins[k]
            for lvl in range(K, 0, -1):
                s, t = flow._shift_scale(fl.layers[lvl - 1], levels[lvl])
                levels[lvl - 1][:, k] = (levels[lvl][:, k] - t[:, k]) * np.exp(-s[:, k])
        else:
            for lvl in range(1, K + 1):
                s, t = flow._shift_scale(fl.layers[lvl - 1], levels[lvl])
                levels[lvl][:, k] = np.exp(s[:, k]) * levels[lvl - 1][:, k] + t[:, k]
    return levels


def n_generations(A):
    depth = np.zeros(A.shape[0], dtype=np.int64)
    for k in range(A.shape[0]):
        parents = np.flatnonzero(A[k, :k])
        if parents.size:
            depth[k] = depth[parents].max() + 1
    return int(depth.max()) + 1


def count_forwards(monkeypatch):
    calls = []
    forward = neural.MaskedMLP.forward

    def counted(net, x):
        calls.append(1)
        return forward(net, x)

    monkeypatch.setattr(neural.MaskedMLP, "forward", counted)
    return calls


def assert_same_inversion(fl, levels, pins, start):
    ours = flow._reconstruct(fl, [lv.copy() for lv in levels], pins, start)
    ref = reconstruct_per_coordinate(fl, [lv.copy() for lv in levels], pins, start)
    for a, b in zip(ours, ref):
        assert a.tobytes() == b.tobytes()


class TestGenerationInversion:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.integers(1, 7), K=st.sampled_from([1, 2, 3]),
           seed=st.integers(0, 2**16), observed=st.booleans())
    def test_matches_per_coordinate_reference(self, data, d, K, seed, observed):
        A = np.zeros((d, d), dtype=np.int64)
        below = np.tril_indices(d, -1)
        A[below] = data.draw(st.lists(st.booleans(), min_size=len(below[0]),
                                      max_size=len(below[0])))
        fl = jitter_flow(flow.AffineFlow.build(A, K, [d + 2], seed), seed + 1)
        rng = np.random.default_rng(seed)
        if observed:
            _, _, levels = flow.to_noise(fl, rng.normal(size=(30, d)), keep_levels=True)
        else:
            levels = [rng.normal(size=(30, d))] + [np.zeros((30, d)) for _ in range(K)]
        j = data.draw(st.integers(0, d - 1))
        pins = data.draw(st.sampled_from([{}, {j: data.draw(st.floats(-3, 3))}]))
        start = data.draw(st.sampled_from([0, j]))
        assert_same_inversion(fl, levels, pins, start)

    @pytest.mark.parametrize("direction", ["lower", "upper", "self"])
    def test_weights_outside_adjacency(self, direction):
        """A conditioner whose weights add an edge A lacks is inverted in an
        order its actual weights allow (the checkpoint loader keeps such
        weights so that verify can report them).  With "self", the pinned
        coordinate 2 reads its own value."""
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
        expected = ([[0, 3], [1, 4, 5], [2]] if direction == "lower"
                    else [[k] for k in range(d)])
        assert [g.tolist() for g in flow._generations(flow._dependencies(fl), 0)] == expected
        rng = np.random.default_rng(5)
        z = rng.normal(size=(200, d))
        noise_side = [z] + [np.zeros_like(z) for _ in fl.layers]
        assert_same_inversion(fl, noise_side, {}, 0)
        assert_same_inversion(fl, noise_side, {2: 0.5}, 0)
        _, _, levels = flow.to_noise(fl, rng.normal(size=(200, d)), keep_levels=True)
        assert_same_inversion(fl, levels, {0: -1.0}, 0)
        if direction == "lower":
            x = rng.normal(size=(200, d))
            back = flow.from_noise(fl, flow.to_noise(fl, x)[0])
            assert np.max(np.abs(back - x)) < 1e-8

    def test_non_finite_weight_counts_as_edge(self):
        A = np.zeros((3, 3), dtype=np.int64)
        fl = flow.AffineFlow.build(A, 1, [3], 0)
        fl.layers[0].weights[0][0, 0] = np.nan
        fl.layers[0].weights[1][2, 0] = np.inf
        assert [g.tolist() for g in flow._generations(flow._dependencies(fl), 0)] == [[0, 1], [2]]

    @pytest.mark.parametrize("A", [adjacency.gen_prev_k(6, 1),
                                   adjacency.gen_random_sparse(9, 0.6, 2),
                                   np.zeros((4, 4), dtype=np.int64)])
    def test_one_forward_per_layer_per_generation(self, monkeypatch, A):
        K = 3
        fl = jitter_flow(flow.AffineFlow.build(A, K, [A.shape[0] + 2], 1), 2)
        calls = count_forwards(monkeypatch)
        flow.from_noise(fl, np.random.default_rng(0).normal(size=(10, A.shape[0])))
        assert len(calls) == n_generations(A) * K

    def test_cmse_report_abducts_once(self, monkeypatch):
        sem = causal.gen_linear_sem(5, rng=3)
        fl = causal.flow_from_linear_sem(sem)
        calls = []
        to_noise = flow.to_noise

        def counted(*args, **kwargs):
            calls.append(1)
            return to_noise(*args, **kwargs)

        monkeypatch.setattr(flow, "to_noise", counted)
        causal.cmse_report(fl, sem, value_count=2, n_obs=20, rng=4)
        assert len(calls) == 1


def well_conditioned_flow(x, d, n_layers, hidden, margin=1e-3):
    """Search for a jittered flow whose ReLU kinks, scale clamp, and overall
    magnitudes leave finite differences trustworthy at x."""
    for seed in range(300):
        A = adjacency.gen_random_sparse(d, 0.5, seed)
        fl = jitter_flow(flow.AffineFlow.build(A, n_layers, hidden, seed),
                         seed + 1, scale=0.1)
        z, _, levels = flow.to_noise(fl, x, keep_levels=True)
        if np.abs(z).max() > 10.0:
            continue
        ok = True
        for k, net in enumerate(fl.layers):
            _, cache = net.forward_cached(levels[k + 1])
            _, preacts = cache
            if any(np.abs(p).min() <= margin for p in preacts):
                ok = False
                break
            out = net.forward(levels[k + 1])
            if np.abs(out[:, d:]).max() >= flow.SCALE_CLAMP - 0.1:
                ok = False
                break
        if ok:
            return fl
    raise AssertionError("no well-conditioned flow found")


class TestFlowGradients:
    def test_matches_finite_differences(self):
        x = np.random.default_rng(23).normal(size=(6, 4))
        fl = well_conditioned_flow(x, 4, 2, [5])
        loss, analytic = flow.loss_and_grads(fl, x)
        np.testing.assert_allclose(loss, flow.mean_nll(fl, x), rtol=1e-12)
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
        assert flow.audit_flow(fl, 0) == []

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
        found = flow.audit_flow(fl, 0)
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
