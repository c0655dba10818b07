"""Tests for masked networks: likelihoods, gradients, training, audits."""

import itertools
import warnings

import numpy as np
import pytest
import scipy.stats

from strnn import adjacency, datagen, factorizer, neural
from strnn.errors import (
    ConfigError,
    DimMismatchError,
    NonBinaryInputError,
    NonFiniteInputError,
)


def build_net(d, hidden, head, seed, threshold=0.5):
    A = adjacency.gen_random_sparse(d, threshold, seed)
    masks = factorizer.factor_multilayer(A, hidden, "greedy")
    return A, neural.MaskedMLP.from_masks(masks, head, seed + 1)


def well_conditioned_net(d, hidden, head, x, margin=1e-3, start=0):
    """Draw nets until every ReLU pre-activation clears the kink by `margin`
    (finite differencing near a kink is meaningless)."""
    for seed in range(start, start + 200):
        A, net = build_net(d, hidden, head, seed)
        jitter = np.random.default_rng(seed + 1000)
        for W, M in zip(net.weights, net.masks):
            W += 0.3 * jitter.normal(size=W.shape) * M
        for b in net.biases:
            b += 0.3 * jitter.normal(size=b.shape)
        _, cache = net.forward_cached(x)
        _, preacts = cache  # hidden-layer pre-activations only
        if all(np.abs(p).min() > margin for p in preacts):
            return net
    raise AssertionError("no well-conditioned draw found")


def numerical_grad(f, arrays, eps=1e-6):
    """Central finite differences of a scalar function over a list of arrays."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.ravel()
        gf = g.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            hi = f()
            flat[k] = orig - eps
            lo = f()
            flat[k] = orig
            gf[k] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


class TestMaskedMLP:
    def test_masks_applied_at_init(self):
        A, net = build_net(6, [9, 7], "binary", 0)
        for W, M in zip(net.weights, net.masks):
            assert not np.any(W * (1 - M))

    def test_gaussian_head_doubles_output(self):
        A, net = build_net(5, [8], "gaussian", 1)
        assert net.out_dim == 10
        assert net.weights[-1].shape == (10, 8)
        np.testing.assert_array_equal(net.masks[-1][:5], net.masks[-1][5:])

    def test_pattern_matches_mask_product(self):
        A, net = build_net(6, [9, 9], "gaussian", 2)
        masks = factorizer.factor_multilayer(A, [9, 9], "greedy")
        expected = (factorizer.mask_product(masks) > 0).astype(np.int64)
        np.testing.assert_array_equal(net.pattern, expected)

    def test_init_respects_fanin_bound(self):
        """Kaiming-uniform rows stay within sqrt(6 / fan_in) of zero."""
        A, net = build_net(7, [11], "binary", 3)
        for W, M in zip(net.weights, net.masks):
            fan_in = np.maximum(M.sum(axis=1), 1)
            bound = np.sqrt(6.0 / fan_in)
            assert np.all(np.abs(W) <= bound[:, None] + 1e-15)

    def test_biases_zero_at_init(self):
        A, net = build_net(4, [6], "gaussian", 4)
        assert all(not b.any() for b in net.biases)

    def test_forward_hand_computed(self):
        """One hidden layer, weights set by hand: y = W2 relu(W1 x + b1) + b2."""
        masks = [np.ones((2, 2), dtype=np.int64), np.ones((2, 2), dtype=np.int64)]
        net = neural.MaskedMLP.from_masks(masks, "binary", 0)
        net.weights[0][:] = [[1.0, -1.0], [0.5, 2.0]]
        net.biases[0][:] = [0.25, -0.5]
        net.weights[1][:] = [[2.0, 0.0], [1.0, 1.0]]
        net.biases[1][:] = [0.0, 1.0]
        x = np.array([1.0, 2.0])
        hidden = np.maximum(np.array([1 - 2 + 0.25, 0.5 + 4 - 0.5]), 0.0)
        expected = np.array([2 * hidden[0], hidden[0] + hidden[1] + 1.0])
        np.testing.assert_allclose(net.forward(x), expected)

    def test_single_vector_squeezed(self):
        A, net = build_net(4, [5], "binary", 5)
        y = net.forward(np.zeros(4))
        assert y.shape == (4,)

    def test_input_validation(self):
        A, net = build_net(4, [5], "binary", 6)
        with pytest.raises(DimMismatchError):
            net.forward(np.zeros(5))
        with pytest.raises(NonFiniteInputError):
            net.forward(np.array([0.0, np.nan, 0.0, 0.0]))


class TestBinaryNLL:
    def test_distribution_sums_to_one(self):
        """The masked conditionals define a normalized joint over {0,1}^d."""
        for seed in range(5):
            A, net = build_net(3, [6], "binary", seed)
            total = 0.0
            for bits in itertools.product((0.0, 1.0), repeat=3):
                total += np.exp(-neural.nll_binary(net, np.array(bits)))
            np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_matches_manual_conditionals(self):
        A, net = build_net(4, [7], "binary", 3)
        x = np.array([1.0, 0.0, 1.0, 1.0])
        o = net.forward(x)
        p = 1.0 / (1.0 + np.exp(-o))
        expected = -np.sum(x * np.log(p) + (1 - x) * np.log1p(-p))
        np.testing.assert_allclose(neural.nll_binary(net, x), expected,
                                   rtol=1e-10)

    def test_batch_shape(self):
        A, net = build_net(4, [7], "binary", 3)
        x = np.zeros((5, 4))
        assert neural.nll_binary(net, x).shape == (5,)

    def test_stable_at_extreme_logits(self):
        A, net = build_net(3, [5], "binary", 0)
        for W in net.weights:
            W *= 80.0
        vals = neural.nll_binary(net, np.ones((2, 3)))
        assert np.isfinite(vals).all()

    def test_rejects_nonbinary(self):
        A, net = build_net(3, [5], "binary", 0)
        with pytest.raises(NonBinaryInputError):
            neural.nll_binary(net, np.array([0.0, 0.5, 1.0]))

    def test_rejects_wrong_head(self):
        A, net = build_net(3, [5], "gaussian", 0)
        with pytest.raises(ConfigError):
            neural.nll_binary(net, np.zeros(3))


class TestGaussianNLL:
    def test_matches_scipy_normal(self):
        A, net = build_net(4, [6], "gaussian", 8)
        x = np.random.default_rng(0).normal(size=(6, 4))
        mu, log_sigma = neural.gaussian_outputs(net, x)
        expected = -scipy.stats.norm.logpdf(x, loc=mu,
                                            scale=np.exp(log_sigma)).sum(axis=1)
        np.testing.assert_allclose(neural.nll_gaussian(net, x), expected,
                                   rtol=1e-10)

    def test_log_sigma_clamped(self):
        A, net = build_net(3, [5], "gaussian", 1)
        for W in net.weights:
            W *= 200.0
        x = 50.0 * np.ones((2, 3))
        mu, log_sigma = neural.gaussian_outputs(net, x)
        assert np.all(np.abs(log_sigma) <= neural.LOG_SIGMA_CLAMP)
        assert np.isfinite(neural.nll_gaussian(net, x)).all()

    def test_dispatch_by_head(self):
        A, bnet = build_net(3, [4], "binary", 2)
        A, gnet = build_net(3, [4], "gaussian", 2)
        x = np.zeros((2, 3))
        np.testing.assert_allclose(neural.nll(bnet, x),
                                   neural.nll_binary(bnet, x))
        np.testing.assert_allclose(neural.nll(gnet, x),
                                   neural.nll_gaussian(gnet, x))


class TestSigmoid:
    def test_bitwise_the_plain_form_up_to_700(self):
        t = np.concatenate([np.linspace(-700.0, 700.0, 20001), [-700.0, -699.9999, 0.0]])
        np.testing.assert_array_equal(neural.sigmoid(t), 1.0 / (1.0 + np.exp(-t)))

    def test_no_overflow_beyond(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = neural.sigmoid(np.array([-800.0, -709.9, 709.9, 800.0]))
        assert p[0] == 0.0 and 0.0 < p[1] < 1e-300
        assert p[2] == p[3] == 1.0


class TestGradients:
    @pytest.mark.parametrize("head", ["binary", "gaussian"])
    def test_parameter_gradients_match_finite_differences(self, head):
        rng = np.random.default_rng(13)
        x = (rng.random((5, 4)) < 0.5).astype(np.float64) if head == "binary" \
            else rng.normal(size=(5, 4))
        net = well_conditioned_net(4, [6], head, x)
        loss, analytic = neural.loss_and_grads(net, x)
        assert loss == neural.mean_nll(net, x)
        numeric = numerical_grad(lambda: neural.mean_nll(net, x),
                                 net.params())
        for a, n_ in zip(analytic, numeric):
            np.testing.assert_allclose(a, n_, atol=5e-7)

    def test_input_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(3, 4))
        net = well_conditioned_net(4, [6], "gaussian", x, start=300)
        c = rng.normal(size=(3, net.out_dim))

        def f():
            return float(np.sum(net.forward(x) * c))

        out, cache = net.forward_cached(x)
        _, grad_in = net.backward(cache, c)
        numeric = numerical_grad(f, [x])[0]
        np.testing.assert_allclose(grad_in, numeric, atol=5e-7)

    def test_masked_positions_stay_zero_through_updates(self):
        """Gradients are dense true derivatives; the invariant is restored by
        re-masking after each optimizer step."""
        A, net = build_net(5, [8], "binary", 9)
        x = (np.random.default_rng(0).random((16, 5)) < 0.5).astype(np.float64)
        params = net.params()
        opt = neural.AdamW(params, learning_rate=0.05)
        for _ in range(3):
            _, grads = neural.loss_and_grads(net, x)
            opt.step(params, grads)
            net.apply_masks()
        for W, M in zip(net.weights, net.masks):
            assert not np.any(W * (1 - M))


class TestAdamW:
    def test_matches_reference_implementation(self):
        """Two steps of AdamW against an independently coded update rule."""
        p = np.array([1.0, -2.0, 3.0])
        grads = [np.array([0.1, -0.2, 0.3]), np.array([-0.4, 0.5, -0.6])]
        lr, wd, b1, b2, eps = 0.05, 0.01, 0.9, 0.999, 1e-8

        ref = p.copy()
        m = np.zeros(3)
        v = np.zeros(3)
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            ref = ref - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * ref)

        actual = p.copy()
        opt = neural.AdamW([actual], lr, wd)
        for g in grads:
            opt.step([actual], [g])
        np.testing.assert_allclose(actual, ref, rtol=1e-12)

    def test_decay_is_decoupled(self):
        """With zero gradient the update is pure shrinkage, untouched by the
        adaptive denominators."""
        p = np.array([10.0])
        opt = neural.AdamW([p], learning_rate=0.1, weight_decay=0.5)
        opt.step([p], [np.zeros(1)])
        np.testing.assert_allclose(p, [10.0 - 0.1 * 0.5 * 10.0])

    def test_zero_learning_rate_freezes(self):
        p = np.array([3.0])
        opt = neural.AdamW([p], learning_rate=0.0, weight_decay=0.3)
        opt.step([p], [np.array([5.0])])
        np.testing.assert_allclose(p, [3.0])


class TestTrainConfig:
    def test_defaults_valid(self):
        neural.TrainConfig().validate()

    def test_zero_learning_rate_allowed(self):
        neural.TrainConfig(learning_rate=0.0).validate()

    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": -1e-3},
        {"weight_decay": -0.1},
        {"batch_size": 0},
        {"max_epochs": 0},
        {"early_stop_patience": 0},
        {"plateau_factor": 0.0},
        {"plateau_factor": 1.5},
        {"epsilon": 0.0},
        {"lr_schedule": "cosine"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            neural.TrainConfig(**kwargs).validate()


def toy_dataset(seed, d=4, n=90, kind="binary"):
    rng = np.random.default_rng(seed)
    A = adjacency.gen_prev_k(d, 2)
    gen = (datagen.gen_binary if kind == "binary" else datagen.gen_gaussian)(
        A, n, rng)
    return A, datagen.make_dataset(gen.x, kind, (0.6, 0.2, 0.2), rng)


class TestTraining:
    def test_loss_improves_on_train_split(self):
        A, ds = toy_dataset(0)
        masks = factorizer.factor_multilayer(A, [10], "greedy")
        net = neural.MaskedMLP.from_masks(masks, "binary", 0)
        before = neural.mean_nll(net, ds.train_x)
        cfg = neural.TrainConfig(learning_rate=5e-3, batch_size=16,
                                 max_epochs=40, seed=1)
        net, history = neural.train(net, ds, cfg)
        assert history[-1][1] < before

    def test_masks_hold_after_training(self):
        A, ds = toy_dataset(1)
        masks = factorizer.factor_multilayer(A, [8], "greedy")
        net = neural.MaskedMLP.from_masks(masks, "binary", 2)
        cfg = neural.TrainConfig(learning_rate=1e-2, batch_size=16,
                                 max_epochs=10, seed=3)
        net, _ = neural.train(net, ds, cfg)
        for W, M in zip(net.weights, net.masks):
            assert not np.any(W * (1 - M))

    def test_deterministic_given_seed(self):
        A, ds = toy_dataset(2)
        masks = factorizer.factor_multilayer(A, [8], "greedy")
        cfg = neural.TrainConfig(learning_rate=1e-2, batch_size=16,
                                 max_epochs=8, seed=5)
        runs = []
        for _ in range(2):
            net = neural.MaskedMLP.from_masks(masks, "binary", 7)
            net, history = neural.train(net, ds, cfg)
            runs.append((history, [p.copy() for p in net.params()]))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            np.testing.assert_array_equal(a, b)

    def test_early_stop_with_frozen_parameters(self):
        """lr=0 never updates, so validation never improves after epoch one
        and patience cuts the run short."""
        A, ds = toy_dataset(3)
        masks = factorizer.factor_multilayer(A, [8], "greedy")
        net = neural.MaskedMLP.from_masks(masks, "binary", 0)
        cfg = neural.TrainConfig(learning_rate=0.0, batch_size=16,
                                 max_epochs=100, early_stop_patience=3, seed=0)
        net, history = neural.train(net, ds, cfg)
        assert len(history) == 4

    def test_plateau_schedule_reduces_lr(self):
        A, ds = toy_dataset(4)
        masks = factorizer.factor_multilayer(A, [8], "greedy")
        net = neural.MaskedMLP.from_masks(masks, "binary", 0)
        cfg = neural.TrainConfig(learning_rate=0.0, batch_size=16,
                                 max_epochs=12, early_stop_patience=50,
                                 lr_schedule="plateau", plateau_factor=0.5,
                                 plateau_patience=2, seed=0)
        net, history = neural.train(net, ds, cfg)
        lrs = [row[3] for row in history]
        assert lrs[0] == 0.0  # degenerate but shows rows carry the live value
        cfg2 = neural.TrainConfig(learning_rate=0.4, batch_size=16,
                                  max_epochs=12, early_stop_patience=50,
                                  lr_schedule="plateau", plateau_factor=0.5,
                                  plateau_patience=1, seed=0)
        net2 = neural.MaskedMLP.from_masks(masks, "binary", 0)
        net2, history2 = neural.train(net2, ds, cfg2)
        lrs2 = [row[3] for row in history2]
        assert min(lrs2) < 0.4
        assert all(b <= a for a, b in zip(lrs2, lrs2[1:]))

    def test_restores_best_validation_parameters(self):
        A, ds = toy_dataset(5)
        masks = factorizer.factor_multilayer(A, [8], "greedy")
        net = neural.MaskedMLP.from_masks(masks, "binary", 1)
        cfg = neural.TrainConfig(learning_rate=0.05, batch_size=16,
                                 max_epochs=30, seed=2)
        net, history = neural.train(net, ds, cfg)
        best = min(row[2] for row in history)
        np.testing.assert_allclose(neural.mean_nll(net, ds.val_x), best,
                                   rtol=1e-12)

    def test_history_row_shape(self):
        A, ds = toy_dataset(6)
        masks = factorizer.factor_multilayer(A, [6], "greedy")
        net = neural.MaskedMLP.from_masks(masks, "binary", 0)
        cfg = neural.TrainConfig(batch_size=16, max_epochs=3, seed=0)
        net, history = neural.train(net, ds, cfg)
        assert len(history) == 3
        epoch, train_nll, val_nll, lr = history[0]
        assert epoch == 1 and np.isfinite([train_nll, val_nll, lr]).all()


class TestSummary:
    def test_matches_scipy_sem(self):
        A, ds = toy_dataset(7)
        masks = factorizer.factor_multilayer(A, [6], "greedy")
        net = neural.MaskedMLP.from_masks(masks, "binary", 0)
        per = neural.nll(net, ds.test_x)
        mean, stderr = neural.test_summary(per)
        np.testing.assert_allclose(mean, np.mean(per))
        np.testing.assert_allclose(stderr, scipy.stats.sem(per))


class TestAudit:
    @pytest.mark.parametrize("head", ["binary", "gaussian"])
    def test_clean_network_passes(self, head):
        for seed in range(4):
            A, net = build_net(6, [9, 9], head, seed)
            assert neural.audit_invariance(net, seed) == []

    def test_detects_planted_violation(self):
        """A weight at a masked position makes output 1 read input 0."""
        A = np.array([
            [0, 0, 0],
            [0, 0, 0],
            [1, 1, 0],
        ])
        masks = [A.copy()]
        net = neural.MaskedMLP.from_masks(masks, "binary", 0)
        net.weights[0][1, 0] = 0.7  # bypasses the mask on purpose
        found = neural.audit_invariance(net, 0)
        assert (1, 0) in [(i, j) for i, j, _ in found]

    def test_detects_violation_in_sigma_rows(self):
        A = np.array([
            [0, 0],
            [0, 0],
        ])
        masks = [A.copy()]
        net = neural.MaskedMLP.from_masks(masks, "gaussian", 0)
        net.weights[0][3, 0] = 0.4  # log-sigma row of output 1, input 0
        found = neural.audit_invariance(net, 0)
        assert any(j == 0 for _, j, _ in found)


class TestCheckpoint:
    @pytest.mark.parametrize("head", ["binary", "gaussian"])
    def test_bitwise_roundtrip(self, head, tmp_path):
        A, net = build_net(5, [7, 6], head, 11)
        rng = np.random.default_rng(0)
        for W in net.weights:
            W += rng.normal(size=W.shape) * np.array(0.1)
        net.apply_masks()
        path = tmp_path / "net.txt"
        neural.save_mlp(net, path)
        loaded = neural.load_mlp(path)
        assert loaded.head == net.head
        for a, b in zip(net.params(), loaded.params()):
            np.testing.assert_array_equal(a, b)
        x = rng.normal(size=(3, 5))
        np.testing.assert_array_equal(net.forward(x), loaded.forward(x))

    def test_loader_preserves_corruption_for_audit(self, tmp_path):
        """load_mlp must not silently re-mask; a corrupted checkpoint should
        still fail the audit after a round trip."""
        A = np.array([[0, 0], [0, 0]])
        net = neural.MaskedMLP.from_masks([A.copy()], "binary", 0)
        net.weights[0][1, 0] = 0.9
        path = tmp_path / "bad.txt"
        neural.save_mlp(net, path)
        loaded = neural.load_mlp(path)
        assert loaded.weights[0][1, 0] == 0.9
        assert neural.audit_invariance(loaded, 0) != []

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(Exception):
            neural.load_mlp(path)
