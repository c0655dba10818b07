"""Tests for masked networks: likelihoods, gradients, training, audits."""

import itertools
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strnn import adjacency, datagen, factorizer, flow, neural
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
        _, (_, preacts) = forward_cached_reference(net, x)
        if all(np.abs(p).min() > margin for p in preacts):
            return net
    raise AssertionError("no well-conditioned draw found")


# The training pass as it was written before it went through ``forward``:
# a second layer loop that keeps every hidden pre-activation, and a backward
# pass that gates each ReLU on them.  The tests hold the one-loop step to
# these bitwise.

def forward_cached_reference(net, x):
    """(out, (layer inputs, hidden pre-activations))."""
    x, _ = neural._as_batch(x, net.dim)
    inputs, preacts = [], []
    h = x
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        inputs.append(h)
        z = h @ W.T + b
        preacts.append(z)
        h = np.maximum(z, 0.0)
    inputs.append(h)
    out = h @ net.weights[-1].T + net.biases[-1]
    return out, (inputs, preacts)


def backward_reference(net, cache, grad_out, input_grad=True):
    inputs, preacts = cache
    weight_grads = [None] * len(net.weights)
    bias_grads = [None] * len(net.biases)
    delta = np.asarray(grad_out, dtype=np.float64)
    for layer in range(len(net.weights) - 1, -1, -1):
        weight_grads[layer] = delta.T @ inputs[layer]
        bias_grads[layer] = delta.sum(axis=0)
        if layer:
            delta = (delta @ net.weights[layer]) * (preacts[layer - 1] > 0.0)
    grad_input = delta @ net.weights[0] if input_grad else None
    return (weight_grads, bias_grads), grad_input


def copied_into(grads, out):
    """An oracle's gradients, copied into the step's ``out`` views if given."""
    if out is None:
        return grads
    for view, g in zip(out, grads, strict=True):
        view[...] = g
    return out


def gradients_reference(net, x, buffers=None, out=None):
    x = neural._targets(net.head, x)
    n = x.shape[0]
    y, cache = forward_cached_reference(net, x)
    if net.head == "binary":
        # The sigmoid from the softplus's exponential e = exp(-|y|).
        e = np.exp(-np.abs(y))
        grad_out = (np.where(y >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e)) - x) / n
    else:
        mu, log_sigma = neural._split_gaussian(y)
        inv_var = np.exp(-2.0 * log_sigma)
        g_mu = (mu - x) * inv_var / n
        in_range = np.abs(log_sigma) < neural.LOG_SIGMA_CLAMP
        g_log_sigma = (1.0 - (x - mu) ** 2 * inv_var) * in_range / n
        grad_out = np.concatenate([g_mu, g_log_sigma], axis=1)
    (weight_grads, bias_grads), _ = backward_reference(net, cache, grad_out, input_grad=False)
    return copied_into(weight_grads + bias_grads, out), neural.nll(net, x).sum()


def flow_gradients_reference(fl, x, buffers=None, out=None):
    x, _ = neural._as_batch(x, fl.dim)
    n = x.shape[0]
    levels = [(x - fl.mu) / fl.sigma]
    tape = []
    for net in reversed(fl.layers):
        y, cache = forward_cached_reference(net, levels[-1])
        t, s = neural._split_gaussian(y)
        e = np.exp(-s)
        levels.append((levels[-1] - t) * e)
        tape.append((cache, s, e))
    levels.reverse()
    per_net = []
    g = levels[0] / n
    for k, (net, (cache, s, e)) in enumerate(zip(fl.layers, reversed(tape))):
        g_t = -g * e
        g_s = (-g * levels[k] + 1.0 / n) * (np.abs(s) < neural.LOG_SIGMA_CLAMP)
        (gW, gb), g_in = backward_reference(net, cache, np.concatenate([g_t, g_s], axis=1))
        per_net.append(gW + gb)
        g = g * e + g_in
    # Stacked like ``fl.params()``: one (K, ...) array per layer position.
    grads = [np.stack(group) for group in zip(*per_net)]
    return copied_into(grads, out), flow.nll(fl, x).sum()


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
        assert net.masks[-1].shape == net.weights[-1].shape == (10, 8)
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
                total += np.exp(-neural.nll(net, np.array(bits)))
            np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_matches_manual_conditionals(self):
        A, net = build_net(4, [7], "binary", 3)
        x = np.array([1.0, 0.0, 1.0, 1.0])
        o = net.forward(x)
        p = 1.0 / (1.0 + np.exp(-o))
        expected = -np.sum(x * np.log(p) + (1 - x) * np.log1p(-p))
        np.testing.assert_allclose(neural.nll(net, x), expected,
                                   rtol=1e-10)

    def test_batch_shape(self):
        A, net = build_net(4, [7], "binary", 3)
        x = np.zeros((5, 4))
        assert neural.nll(net, x).shape == (5,)

    def test_stable_at_extreme_logits(self):
        A, net = build_net(3, [5], "binary", 0)
        for W in net.weights:
            W *= 80.0
        vals = neural.nll(net, np.ones((2, 3)))
        assert np.isfinite(vals).all()
        # An infinite logit costs 0 where it agrees with x and +inf where it
        # disagrees, with no numpy warning; NaN stays NaN.
        o = np.array([[np.inf, np.inf, -np.inf, -np.inf, np.nan, np.nan]])
        x = np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 1.0]])
        for k, want in enumerate([0.0, np.inf, 0.0, np.inf, np.nan, np.nan]):
            np.testing.assert_array_equal(neural.head_nll("binary", o[:, k], x[:, k]), want)
        per, grad = neural._binary_nll(o, x, 2)
        np.testing.assert_array_equal(per, [np.nan])
        np.testing.assert_array_equal(grad, [[0.0, 0.5, 0.0, -0.5, np.nan, np.nan]])
        # The finite entries of a row keep their bitwise terms.
        finite = neural.head_nll("binary", np.array([[0.3, -2.0]]), np.array([[0.0, 1.0]]))
        mixed = neural.head_nll("binary", np.array([[0.3, np.inf, -2.0, -np.inf]]),
                                np.array([[0.0, 1.0, 1.0, 0.0]]))
        assert mixed.tobytes() == finite.tobytes()

    def test_rejects_nonbinary(self):
        A, net = build_net(3, [5], "binary", 0)
        with pytest.raises(NonBinaryInputError):
            neural.nll(net, np.array([0.0, 0.5, 1.0]))


class TestGaussianNLL:
    def test_matches_scipy_normal(self):
        A, net = build_net(4, [6], "gaussian", 8)
        x = np.random.default_rng(0).normal(size=(6, 4))
        mu, log_sigma = neural._split_gaussian(net.forward(x))
        expected = -scipy.stats.norm.logpdf(x, loc=mu,
                                            scale=np.exp(log_sigma)).sum(axis=1)
        np.testing.assert_allclose(neural.nll(net, x), expected,
                                   rtol=1e-10)

    @pytest.mark.parametrize("hidden", [[], [6], [9, 7]])
    def test_fresh_head_is_the_standard_normal(self, hidden):
        """A fresh gaussian head's output weights and biases are zero, so
        every output is mu = 0, log-sigma = 0 and the NLL is
        0.5 sum_j x_j^2 + d 0.5 log 2 pi."""
        d = 6
        A, net = build_net(d, hidden, "gaussian", 7)
        assert not net.weights[-1].any() and not np.signbit(net.weights[-1]).any()
        x = 3.0 * np.random.default_rng(9).normal(size=(40, d))
        assert not net.forward(x).any()
        want = 0.5 * (x ** 2).sum(axis=1) + d * 0.5 * np.log(2.0 * np.pi)
        np.testing.assert_allclose(neural.nll(net, x), want, rtol=1e-14)

    def test_log_sigma_clamped(self):
        A, net = build_net(3, [5], "gaussian", 1)
        for W in net.weights:
            W *= 200.0
        x = 50.0 * np.ones((2, 3))
        mu, log_sigma = neural._split_gaussian(net.forward(x))
        assert np.all(np.abs(log_sigma) <= neural.LOG_SIGMA_CLAMP)
        assert np.isfinite(neural.nll(net, x)).all()


class TestBlockedEvaluation:
    """``nll`` runs in row blocks; each sample's value must be bitwise the
    unblocked ``head_nll(head, net.forward(x), x)``."""

    ROWS = [1, 40, 63, 64, 200, 256, 257, 319, 320, 456, 512, 513, 575, 576, 712, 1024]

    @pytest.mark.parametrize("head", ["binary", "gaussian"])
    @pytest.mark.parametrize("hidden", [[320], [40], [64, 64]])
    def test_bitwise_the_unblocked_form(self, head, hidden):
        A, net = build_net(20, hidden, head, 5, threshold=0.8)
        rng = np.random.default_rng(6)
        for W, M in zip(net.weights, net.masks):
            W += 0.1 * rng.normal(size=W.shape) * M
        x = rng.normal(size=(max(self.ROWS), 20))
        if head == "binary":
            x = (x < 0.0).astype(np.float64)
        for n in self.ROWS:
            want = neural.head_nll(head, net.forward(x[:n]), x[:n])
            np.testing.assert_array_equal(neural.nll(net, x[:n]), want)
        assert neural.nll(net, x[0]) == neural.head_nll(head, net.forward(x[0]), x[0])

    @pytest.mark.parametrize("n, rows", [
        (0, [0]), (40, [40]), (300, [300]), (320, [256, 64]),
        (575, [256, 319]), (576, [256, 256, 64]), (712, [256, 256, 200])])
    def test_short_tail_joins_previous_block(self, monkeypatch, n, rows):
        A, net = build_net(5, [8], "binary", 2)
        seen = []
        forward = neural.MaskedMLP.forward
        monkeypatch.setattr(neural.MaskedMLP, "forward",
                            lambda net, x: seen.append(len(x)) or forward(net, x))
        assert neural.nll(net, np.zeros((n, 5))).shape == (n,)
        assert seen == rows


def sigmoid_reference(t):
    """The logistic function in its two-exp form: 1 / (1 + exp(-t)), and
    exp(t) below t = -700, where that form would overflow."""
    t = np.asarray(t, dtype=np.float64)
    return np.where(t < -700.0, np.exp(np.minimum(t, -700.0)),
                    1.0 / (1.0 + np.exp(-np.maximum(t, -700.0))))


# Logits where the one-exp forms could go wrong: signed zeros and the
# smallest subnormals, around exp's overflow at 709.78, beyond it, and
# infinite or NaN.
LOGIT_SPECIALS = [s * v for v in (0.0, 5e-324, 700.0, 709.9, 800.0, 1e300, np.inf)
                  for s in (1.0, -1.0)] + [np.nan]
# The most units in the last place by which the binary head's softplus
# differed from ``np.logaddexp(0, o)``, and its sigmoid from
# ``sigmoid_reference``, over 2.2e8
# uniform logits in [-750, 750] (densest in [-10, 10]) and 5e6 random bit
# patterns (numpy 2.4.6 on x86-64 with AVX-512).
SOFTPLUS_ULPS, SIGMOID_ULPS = 3, 4


def within_ulps(got, want, ulps):
    with np.errstate(over="ignore"):  # the spacing at the largest float is inf
        return np.abs(got - want) <= ulps * np.spacing(np.abs(want))


class TestLogistic:
    """The binary head takes its softplus and its sigmoid from one
    e = exp(-|o|): the NLL of x = 0 is the softplus, and the step's output
    gradient at n = 1 is the sigmoid."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from(LOGIT_SPECIALS)),
                    min_size=1, max_size=40))
    def test_agrees_with_the_two_exp_forms(self, values):
        o = np.array(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            softplus, p = neural._binary_nll(o[:, None], np.zeros((len(o), 1)), 1)
        p = p.ravel()
        nan = np.isnan(o)
        assert np.isnan(softplus[nan]).all() and np.isnan(p[nan]).all()
        finite = np.isfinite(o)
        assert within_ulps(softplus[finite], np.logaddexp(0.0, o[finite]), SOFTPLUS_ULPS).all()
        assert within_ulps(p[finite], sigmoid_reference(o[finite]), SIGMOID_ULPS).all()
        assert ((p[~nan] >= 0.0) & (p[~nan] <= 1.0)).all()
        np.testing.assert_array_equal(softplus[o == np.inf], np.inf)
        np.testing.assert_array_equal(p[o == np.inf], 1.0)
        assert not softplus[o == -np.inf].any() and not p[o == -np.inf].any()


class TestGradients:
    @pytest.mark.parametrize("head", ["binary", "gaussian"])
    def test_parameter_gradients_match_finite_differences(self, head):
        rng = np.random.default_rng(13)
        x = (rng.random((5, 4)) < 0.5).astype(np.float64) if head == "binary" \
            else rng.normal(size=(5, 4))
        net = well_conditioned_net(4, [6], head, x)
        analytic, _ = neural.gradients(net, x, {})
        numeric = numerical_grad(lambda: neural.mean_nll(net, x),
                                 net.params())
        for a, n_ in zip(analytic, numeric):
            np.testing.assert_allclose(a, n_, atol=5e-7)

    def test_input_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(3, 4))
        net = well_conditioned_net(4, [6], "gaussian", x, start=300)
        c = rng.normal(size=(3, len(net.biases[-1])))

        def f():
            return float(np.sum(net.forward(x) * c))

        _, grad_in = backward_reference(net, forward_cached_reference(net, x)[1], c)
        numeric = numerical_grad(f, [x])[0]
        np.testing.assert_allclose(grad_in, numeric, atol=5e-7)

    def test_masked_positions_stay_zero_through_updates(self):
        """Gradients are dense true derivatives; the invariant is restored by
        the re-mask inside each optimizer step of ``train``."""
        A, net = build_net(5, [8], "binary", 9)
        x = (np.random.default_rng(0).random((16, 5)) < 0.5).astype(np.float64)
        grads, _ = neural.gradients(net, x, {})
        assert any(np.any(g * (1 - M)) for g, M in zip(grads, net.masks))
        ds = neural.Dataset(x, "binary", np.arange(16), np.arange(8), np.arange(8, 16))
        cfg = neural.TrainConfig(learning_rate=0.05, batch_size=4, max_epochs=3, seed=0)
        net, _ = neural.train(net, ds, cfg)
        for W, M in zip(net.weights, net.masks):
            assert not np.any(W * (1 - M))


def jittered(model, seed, scale=0.3):
    """``model`` (a network or a flow) with every weight and bias moved off
    its initial value, masked weights kept at zero."""
    rng = np.random.default_rng(seed)
    for net in getattr(model, "layers", [model]):
        for W, M in zip(net.weights, net.masks):
            W += scale * rng.normal(size=W.shape) * M
        for b in net.biases:
            b += scale * rng.normal(size=b.shape)
    return model


def arrays_in(value):
    """Every array held in ``value``, a dict, list, tuple or object of them,
    at any depth, in a fixed order."""
    if isinstance(value, np.ndarray):
        return [value]
    items = value.values() if isinstance(value, dict) else \
        value if isinstance(value, (list, tuple)) else vars(value).values()
    return [a for item in items for a in arrays_in(item)]


def batch(head, rng, n, d):
    x = rng.normal(size=(n, d))
    return (x < 0.0).astype(np.float64) if head == "binary" else x


class TestOneLoopStep:
    """``gradients`` runs ``forward`` into reused buffers and gates each
    ReLU on its activations; it must give bitwise what the pass with a
    pre-activation cache gave."""

    @pytest.mark.parametrize("head", ["binary", "gaussian"])
    @pytest.mark.parametrize("hidden", [[], [6], [7, 5]])
    def test_matches_forward_cached_oracle(self, head, hidden):
        rng = np.random.default_rng(61)
        A, net = build_net(5, hidden, head, 21)
        jittered(net, 22)
        buffers = {}
        # One set of buffers over batches of several sizes, back and forth.
        for n in (24, 24, 7, 1, 24, 7):
            x = batch(head, rng, n, 5)
            assert_steps_equal(neural.gradients(net, x, buffers),
                               gradients_reference(net, x))
        assert sorted(buffers) == [1, 7, 24]

    @pytest.mark.parametrize("hidden", [[], [6], [7, 5]])
    def test_flow_matches_forward_cached_oracle(self, hidden):
        """At K = 1, 3 and 5 conditioners."""
        rng = np.random.default_rng(63)
        for n_layers in (1, 3, 5):
            fl = jittered(flow.AffineFlow.build(adjacency.gen_prev_k(5, 2), n_layers, hidden, 23),
                          24)
            fl.mu, fl.sigma = rng.normal(size=5), rng.uniform(0.5, 2.0, size=5)
            buffers, made = {}, {}
            for n in (20, 20, 3, 20):
                x = rng.normal(size=(n, 5))
                assert_steps_equal(flow.gradients(fl, x, buffers),
                                   flow_gradients_reference(fl, x))
                # One workspace per row count, reused by every later step at it.
                assert made.setdefault(n, buffers[n]) is buffers[n]
            assert sorted(buffers) == [3, 20]

    @pytest.mark.parametrize("kind", ["binary", "real", "flow", "flow-train"])
    def test_training_with_a_short_trailing_minibatch(self, monkeypatch, kind):
        """54 training rows in batches of 8, so every epoch ends on 6 rows:
        the run and a run through the oracle step agree bitwise.  The
        "flow-train" case has the benchmark workload's shape: K = 5 over
        prev_k(20, 2), hidden [40], batches of 32 ending on 28 rows."""
        if kind == "flow-train":
            A, ds = toy_dataset(7, d=20, n=100, kind="real")
            batch_size, model_args = 32, (5, [40], 4)
        else:
            A, ds = toy_dataset(7, kind="binary" if kind == "binary" else "real")
            batch_size, model_args = 8, (2, [6], 4)
        assert len(ds.idx_train) % batch_size == (28 if kind == "flow-train" else 6)
        cfg = neural.TrainConfig(learning_rate=0.02, batch_size=batch_size, max_epochs=4,
                                 seed=3)
        module, fit, reference = (flow, flow.train_flow, flow_gradients_reference) \
            if kind.startswith("flow") else (neural, neural.train, gradients_reference)
        runs = []
        for step in ("one loop", "oracle"):
            if step == "oracle":
                monkeypatch.setattr(module, "gradients", reference)
            if kind.startswith("flow"):
                model = flow.AffineFlow.build(A, *model_args)
            else:
                masks = factorizer.factor_multilayer(A, [6], "greedy")
                model = neural.MaskedMLP.from_masks(
                    masks, "binary" if kind == "binary" else "gaussian", 4)
            model, history = fit(model, ds, cfg)
            runs.append((history, [p.copy() for p in model.params()]))
        assert runs[0][0] == runs[1][0]
        assert_bytes_equal(runs[0][1], runs[1][1])

    @pytest.mark.parametrize("head", ["binary", "gaussian"])
    @pytest.mark.parametrize("bias", [0.0, -0.0, np.nan, -1e300])
    def test_hidden_unit_forced_through_its_bias(self, head, bias):
        """A hidden unit that reads nothing has the pre-activation
        0.0 + bias on every row: +0.0 for either zero, NaN, or a large
        negative number."""
        rng = np.random.default_rng(65)
        A, net = build_net(4, [6, 5], head, 25)
        jittered(net, 26)
        for layer in (0, 1):
            net.weights[layer][2] = 0.0
            net.biases[layer][2] = bias
        x = batch(head, rng, 9, 4)
        with np.errstate(invalid="ignore"):
            assert_steps_equal(neural.gradients(net, x, {}),
                               gradients_reference(net, x, {}))

    def test_gate_on_activations_equals_gate_on_preactivations(self):
        """max(z, 0) > 0 exactly where z > 0, for the floats where that could
        go wrong, so the delta chain and weight-gradient pass gated on the
        layer inputs give bitwise the backward gated on the pre-activations,
        and so does the input gradient that flow training takes from the
        chain's first delta."""
        rng = np.random.default_rng(67)
        A, net = build_net(3, [7], "gaussian", 27)
        jittered(net, 28)
        special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324])
        x = rng.normal(size=(4, 3))
        z = rng.normal(size=(4, 7))
        z[:, :special.size] = special
        c = rng.normal(size=(4, len(net.biases[-1])))
        inputs = [x, np.maximum(z, 0.0)]
        got = [np.empty(p.shape) for p in net.params()]
        with np.errstate(invalid="ignore"):
            deltas = net._deltas(c, [h > 0.0 for h in inputs[1:]])
            neural._weight_gradients(inputs, deltas, got[:2], got[2:])
            want = backward_reference(net, (inputs, [z]), c)
            got.append(deltas[0] @ net.weights[0])
        assert_bytes_equal(got, want[0][0] + want[0][1] + [want[1]])

    @pytest.mark.parametrize("kind", ["network", "flow"])
    def test_reused_buffers_do_not_alias(self, kind):
        """Two steps on different batches with one set of activation buffers
        (a flow's: its workspace) and one set of gradient views into a flat
        vector, as in training, give the gradients that fresh arrays give.
        The second step reuses the first one's arrays.  The gradients land in
        the views, which share no memory with the buffers."""
        rng = np.random.default_rng(69)
        if kind == "flow":
            model = jittered(flow.AffineFlow.build(adjacency.gen_prev_k(5, 2), 2, [8], 29), 30)
            step = flow.gradients
        else:
            model = jittered(build_net(5, [8, 6], "gaussian", 29)[1], 30)
            step = neural.gradients
        out = neural.AdamW(model.params(), 0.0).grads
        xa, xb = rng.normal(size=(16, 5)), rng.normal(size=(16, 5))
        buffers = {}
        first = step(model, xa, buffers, out)
        assert all(g is view for g, view in zip(first[0], out, strict=True))
        assert_steps_equal(first, step(model, xa, {}))
        arrays = arrays_in(buffers)
        second = step(model, xb, buffers, out)
        again = arrays_in(buffers)
        assert len(again) == len(arrays) and all(a is b for a, b in zip(again, arrays))
        assert all(g is view for g, view in zip(second[0], out, strict=True))
        assert_steps_equal(second, step(model, xb, {}))
        for g in out:
            assert not any(np.shares_memory(g, a) for a in arrays)


class PerArrayAdamW:
    """The reference for the free-parameter step: AdamW applied array by
    array through two scratch arrays each, then ``W *= M`` on the masked
    weights."""

    def __init__(self, params, lr, wd, masks, b1=0.9, b2=0.999, eps=1e-8):
        self.lr, self.wd, self.b1, self.b2, self.eps = lr, wd, b1, b2, eps
        self.masks = masks
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.b1, self.b2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for p, g, m, v, (a, u) in zip(params, grads, self.m, self.v, self.scratch):
            m *= b1
            m += np.multiply(1.0 - b1, g, out=a)
            v *= b2
            np.multiply(1.0 - b2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(v, c2, out=a)
            np.sqrt(a, out=a)
            a += self.eps
            np.divide(m, c1, out=u)
            u /= a
            if self.wd:
                u += np.multiply(self.wd, p, out=a)
            u *= self.lr
            p -= u
        for p, M in zip(params, self.masks):
            if M is not None:
                p *= M


def assert_bytes_equal(actual, expected):
    for a, b in zip(actual, expected, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_steps_equal(actual, expected):
    """Two steps' (grads, nll_sum) are bitwise equal."""
    assert_bytes_equal([*actual[0], actual[1]], [*expected[0], expected[1]])


def assert_free_step(actual, expected, masks):
    """The free entries (unmasked, or with a nonzero mask entry) of
    ``actual`` are bitwise those of ``expected``; the masked ones are +0.0."""
    for a, b, M in zip(actual, expected, masks, strict=True):
        free = np.ones(a.shape, dtype=bool) if M is None else M != 0
        assert a.shape == b.shape and a[free].tobytes() == b[free].tobytes()
        assert (a[~free] == 0.0).all() and not np.signbit(a[~free]).any()


def adamw_step(opt, grads):
    """Write ``grads`` into the optimizer's gradient views, step, and return
    its parameter views."""
    for view, g in zip(opt.grads, grads, strict=True):
        view[...] = g
    opt.step()
    return opt.params


def run_masked_steps(model, gradients, x, lr, wd, steps=7, edit=None):
    """``steps`` free-parameter steps on ``model``, bound to the optimizer's
    parameter views as in training, and the per-array reference steps on a
    copy of its parameters, both fed the gradients at the flat side's
    parameters.  After each step the free entries are bitwise the
    reference's and the masked entries are +0.0.  ``edit`` runs on both
    parameter lists between steps."""
    masks = model.param_masks()
    ref = [p.copy() for p in model.params()]
    opt = neural.AdamW(model.params(), lr, wd, masks=masks)
    model.set_params(opt.params)
    params = model.params()
    ref_opt = PerArrayAdamW(ref, lr, wd, masks)
    for k in range(steps):
        grads, _ = gradients(model, x, {}, opt.grads)
        opt.step()
        ref_opt.step(ref, grads)
        assert_free_step(params, ref, masks)
        if edit is not None:
            edit(k, params)
            edit(k, ref)
    return params


class TestFlatMaskedStep:
    @pytest.mark.parametrize("head", ["binary", "gaussian"])
    @pytest.mark.parametrize("hidden", [[8], [7, 6]])
    @pytest.mark.parametrize("wd", [0.0, 0.01])
    def test_matches_per_array_step_and_remask(self, head, hidden, wd):
        rng = np.random.default_rng(41)
        A, net = build_net(5, hidden, head, 13)
        for W, M in zip(net.weights, net.masks):
            W += 0.3 * rng.normal(size=W.shape) * M
        if head == "binary":
            x = (rng.random((24, 5)) < 0.5).astype(np.float64)
        else:
            x = rng.normal(size=(24, 5))
        params = run_masked_steps(net, neural.gradients, x, 0.05, wd)
        for W, M in zip(net.weights, net.masks):
            assert not np.any(W * (1 - M))
        assert params[0] is net.weights[0]

    def test_flow_matches_per_array_step_and_remask(self):
        rng = np.random.default_rng(43)
        A = adjacency.gen_prev_k(5, 2)
        fl = flow.AffineFlow.build(A, 3, [6], 17)
        for net in fl.layers:
            for W, M in zip(net.weights, net.masks):
                W += 0.2 * rng.normal(size=W.shape) * M
        run_masked_steps(fl, flow.gradients, rng.normal(size=(20, 5)), 0.02, 0.01)
        for net in fl.layers:
            for W, M in zip(net.weights, net.masks):
                assert not np.any(W * (1 - M))

    def test_edit_between_steps_is_what_the_next_step_updates(self):
        """The step reads the parameters afresh: an edit made between two
        steps is the value the next step starts from."""
        rng = np.random.default_rng(47)
        A, net = build_net(4, [6], "gaussian", 5)
        x = rng.normal(size=(12, 4))

        def edit(k, params):
            params[0][...] = 0.5 * params[0]
            params[-1][0] = 3.0 + k

        run_masked_steps(net, neural.gradients, x, 0.05, 0.01, edit=edit)
        opt = neural.AdamW([np.array([2.0])], learning_rate=0.0)
        (p,) = adamw_step(opt, [np.array([1.0])])
        p[0] = -7.0
        adamw_step(opt, [np.array([1.0])])
        assert p[0] == -7.0

    def test_special_biases_pass_the_remask_unchanged(self):
        """Every bias entry is free, so the step leaves NaN, +-inf and -0.0
        as the per-array update leaves them."""
        rng = np.random.default_rng(53)
        A, net = build_net(4, [6], "gaussian", 7)
        special = [np.nan, np.inf, -np.inf, -0.0]
        net.biases[0][:4] = special
        net.biases[-1][:4] = special
        grads = [rng.normal(size=p.shape) for p in net.params()]
        k = len(net.weights)

        def check(wd, lr):
            ref = [p.copy() for p in net.params()]
            opt = neural.AdamW(net.params(), lr, wd, masks=net.param_masks())
            params = adamw_step(opt, grads)
            PerArrayAdamW(ref, lr, wd, [None] * len(ref)).step(ref, grads)
            assert_bytes_equal(params[k:], ref[k:])
            return params[k:]

        # Without weight decay the update makes no NaN: +-inf stay +-inf.
        for lr in (0.0, 0.05):
            for b in check(0.0, lr):
                assert b[1] == np.inf and b[2] == -np.inf
        # An infinite parameter's decay term is infinite, so with decay both
        # sides make 0 * inf or inf - inf.
        with np.errstate(invalid="ignore"):
            for lr in (0.0, 0.05):
                check(0.01, lr)
        opt = neural.AdamW([np.ones(2), np.array([-0.0, np.nan])], learning_rate=0.0,
                           masks=[np.ones(2), None])
        _, zero = adamw_step(opt, [np.zeros(2), np.zeros(2)])
        assert np.signbit(zero[0]) and zero[0] == 0.0 and np.isnan(zero[1])


    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           densities=st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=1, max_size=3),
           lr=st.sampled_from([0.0, 0.05]), wd=st.sampled_from([0.0, 0.01]),
           special=st.lists(st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 2.0]),
                            max_size=4))
    @example(seed=0, densities=[0.0], lr=0.0, wd=0.01, special=[np.nan, np.inf, -np.inf])
    @example(seed=1, densities=[0.5, 0.0], lr=0.05, wd=0.0, special=[np.nan, -np.inf, np.inf])
    def test_random_masks_match_the_oracle(self, seed, densities, lr, wd, special):
        """Weights whose masks keep a random share of entries (none, so an
        all-masked array, about half, or all), with nonzero values at the
        masked positions, and biases holding NaN and +-inf: after each step
        the free entries are bitwise the per-array reference's and the
        masked ones +0.0."""
        rng = np.random.default_rng(seed)
        shapes = [tuple(int(n) for n in rng.integers(1, 6, size=2)) for _ in densities]
        masks = [(rng.random(s) < rho).astype(np.float64) for s, rho in zip(shapes, densities)]
        biases = [rng.normal(size=s[0]) for s in shapes]
        biases[-1][:len(special)] = special[:len(biases[-1])]
        params = [rng.normal(size=s) for s in shapes] + biases
        masks += [None] * len(biases)
        ref = [p.copy() for p in params]
        opt = neural.AdamW(params, lr, wd, masks=masks)
        ref_opt = PerArrayAdamW(ref, lr, wd, masks)
        assert_free_step(opt.params, params, masks)
        with np.errstate(invalid="ignore"):
            for _ in range(3):
                grads = [rng.normal(size=p.shape) for p in params]
                adamw_step(opt, grads)
                ref_opt.step(ref, grads)
                assert_free_step(opt.params, ref, masks)

    def test_construction_zeroes_masked_entries(self):
        """A nonzero or -0.0 weight at a masked position is +0.0 in the
        optimizer's parameters before any step; the arrays passed in are
        left as they were."""
        A, net = build_net(4, [6], "binary", 9)
        off = np.argwhere(net.masks[0] == 0)[:2]
        net.weights[0][tuple(off[0])] = 3.5
        net.weights[0][tuple(off[1])] = -0.0
        before = [p.copy() for p in net.params()]
        opt = neural.AdamW(net.params(), 0.05, masks=net.param_masks())
        assert_free_step(opt.params, before, net.param_masks())
        assert_bytes_equal(net.params(), before)

    @pytest.mark.parametrize("bad", [np.nan, 1e300])
    def test_masked_gradients_never_reach_the_parameters(self, bad):
        """A NaN or huge gradient at a masked position leaves that weight at
        +0.0 and every free entry as the reference update makes it."""
        rng = np.random.default_rng(59)
        A, net = build_net(5, [7], "gaussian", 11)
        masks = net.param_masks()
        ref = [p.copy() for p in net.params()]
        opt = neural.AdamW(net.params(), 0.05, 0.01, masks=masks)
        ref_opt = PerArrayAdamW(ref, 0.05, 0.01, masks)
        for _ in range(3):
            grads = [rng.normal(size=p.shape) for p in ref]
            for g, M in zip(grads, masks):
                if M is not None:
                    g[M == 0] = bad
            adamw_step(opt, grads)
            with np.errstate(invalid="ignore", over="ignore"):
                ref_opt.step(ref, grads)
            assert_free_step(opt.params, ref, masks)
        assert all(np.isfinite(p).all() for p in opt.params)


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

        opt = neural.AdamW([p], lr, wd)
        for g in grads:
            (actual,) = adamw_step(opt, [g])
        np.testing.assert_allclose(actual, ref, rtol=1e-12)

    @pytest.mark.parametrize("wd", [0.0, 0.01])
    def test_bitwise_the_expression_form(self, wd):
        """Several steps over parameters of different shapes match the
        out-of-place update, including its weight-decay term at wd = 0."""
        rng = np.random.default_rng(21)
        shapes = [(5, 3), (3,), (2, 5)]
        lr, b1, b2, eps = 0.003, 0.9, 0.999, 1e-8
        params = [rng.normal(size=s) for s in shapes]
        ref = [p.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        opt = neural.AdamW(params, lr, wd, epsilon=eps)
        for t in range(1, 8):
            grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 2) for s in shapes]
            params = adamw_step(opt, grads)
            for p, g, m_, v_ in zip(ref, grads, m, v):
                m_ *= b1
                m_ += (1.0 - b1) * g
                v_ *= b2
                v_ += (1.0 - b2) * g * g
                m_hat = m_ / (1.0 - b1 ** t)
                v_hat = v_ / (1.0 - b2 ** t)
                p -= lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * p)
            for a, b in zip(params, ref):
                np.testing.assert_array_equal(a, b)

    def test_decay_is_decoupled(self):
        """With zero gradient the update is pure shrinkage, untouched by the
        adaptive denominators."""
        opt = neural.AdamW([np.array([10.0])], learning_rate=0.1, weight_decay=0.5)
        (p,) = adamw_step(opt, [np.zeros(1)])
        np.testing.assert_allclose(p, [10.0 - 0.1 * 0.5 * 10.0])

    def test_zero_learning_rate_freezes(self):
        opt = neural.AdamW([np.array([3.0])], learning_rate=0.0, weight_decay=0.3)
        (p,) = adamw_step(opt, [np.array([5.0])])
        np.testing.assert_allclose(p, [3.0])

    @pytest.mark.parametrize("lr", [0.0, 0.1])
    def test_zero_decay_keeps_infinite_parameters(self, lr):
        """Without weight decay no 0 * inf enters the update, so +-inf stay
        +-inf and no invalid-value warning is raised."""
        opt = neural.AdamW([np.array([np.inf, -np.inf, 1.0])], learning_rate=lr)
        (p,) = adamw_step(opt, [np.ones(3)])
        assert p[0] == np.inf and p[1] == -np.inf and np.isfinite(p[2])


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
        {"seed": -1},
        {"batch_size": 2.5},
        {"learning_rate": "0.1"},
        {"early_stop_patience": None},
        {"max_epochs": True},
        {"learning_rate": np.nan},
        {"learning_rate": np.inf},
        {"weight_decay": np.inf},
        {"epsilon": np.nan},
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
        assert history.stop_reason == "early_stop" and history.best_epoch == 1

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
        assert history[history.best_epoch - 1][2] == best

    @pytest.mark.parametrize("kind", ["binary", "gaussian", "flow"])
    def test_train_nll_is_the_mean_nll_before_each_step(self, monkeypatch, kind):
        """An epoch's ``train_nll`` is the row-weighted mean, over its
        minibatches, of ``mean_nll`` of each batch just before its step.  The
        minibatches are replayed from the seed's permutations: 54 rows in
        batches of 8, so each epoch ends on 6 rows.  The only evaluation pass
        of an epoch is over the validation split."""
        A, ds = toy_dataset(7, kind="binary" if kind == "binary" else "real")
        cfg = neural.TrainConfig(learning_rate=0.02, batch_size=8, max_epochs=4,
                                 early_stop_patience=10, seed=3)
        if kind == "flow":
            module, fit, model = flow, flow.train_flow, flow.AffineFlow.build(A, 2, [6], 4)
        else:
            masks = factorizer.factor_multilayer(A, [6], "greedy")
            module, fit = neural, neural.train
            model = neural.MaskedMLP.from_masks(masks, kind, 4)
        steps, step, evaluated, evaluate = [], module.gradients, [], module.mean_nll

        def recorded(m, x, buffers, out=None):
            steps.append((x.copy(), evaluate(m, x)))
            return step(m, x, buffers, out)

        def recorded_evaluation(m, x):
            evaluated.append(len(x))
            return evaluate(m, x)

        monkeypatch.setattr(module, "gradients", recorded)
        monkeypatch.setattr(module, "mean_nll", recorded_evaluation)
        model, history = fit(model, ds, cfg)
        assert len(history) == 4 and history.stop_reason == "max_epochs"
        assert evaluated == [len(ds.idx_val)] * 4
        n, rng = len(ds.idx_train), np.random.default_rng(cfg.seed)
        want = []
        for _ in history:
            batches = np.split(rng.permutation(n), range(8, n, 8))
            epoch, steps = steps[:len(batches)], steps[len(batches):]
            for idx, (x, _) in zip(batches, epoch, strict=True):
                np.testing.assert_array_equal(x, ds.train_x[idx])
            want.append(sum(len(x) * batch_nll for x, batch_nll in epoch) / n)
        assert not steps
        np.testing.assert_allclose([row[1] for row in history], want, rtol=1e-12)

    def test_non_finite_run_stops_and_says_so(self):
        """Gaussian data scaled by 1e150 overflows training: the run stops
        after its first epoch with ``stop_reason`` "non_finite" and restores
        the initial parameters (``best_epoch`` 0), where patience 5 would
        have run six epochs, without a numpy warning (the test config turns
        RuntimeWarning into an error).  The head starts at the standard
        normal, so the first batch's NLL is finite (about 1e302), but its
        output-layer weight gradient overflows to inf; AdamW's inf / inf
        makes the parameters NaN, and with them every later batch's NLL, so
        ``train_nll`` and ``val_nll`` are NaN."""
        rng = np.random.default_rng(73)
        A = adjacency.gen_prev_k(6, 2)
        x = 1e150 * rng.normal(size=(300, 6))
        ds = neural.Dataset(x, "real", np.arange(200), np.arange(200, 250), np.arange(250, 300))
        masks = factorizer.factor_multilayer(A, [12], "greedy")
        net = neural.MaskedMLP.from_masks(masks, "gaussian", 0)
        before = [p.copy() for p in net.params()]
        cfg = neural.TrainConfig(batch_size=50, max_epochs=100, early_stop_patience=5, seed=0)
        net, history = neural.train(net, ds, cfg)
        assert len(history) == 1 and np.isnan(history[0][1:3]).all()
        assert history.stop_reason == "non_finite" and history.best_epoch == 0
        for p, q in zip(net.params(), before, strict=True):
            np.testing.assert_array_equal(p, q)

    @pytest.mark.parametrize("kind", ["network", "flow"])
    @pytest.mark.parametrize("empty", ["training", "validation"])
    def test_empty_split_is_rejected_before_the_first_step(self, monkeypatch, kind, empty):
        """No rows to step on, or none to pick the best epoch by: without
        validation rows no epoch would be the best, and the run would
        restore its initial parameters."""
        rng = np.random.default_rng(71)
        A = adjacency.gen_prev_k(3, 1)
        rows = np.arange(5), np.arange(0), np.arange(5, 10)
        if empty == "training":
            rows = rows[1], rows[0], rows[2]
        cfg = neural.TrainConfig(batch_size=4, max_epochs=2, seed=0)
        monkeypatch.setattr(neural.AdamW, "step", None)   # any step fails
        with pytest.raises(ConfigError, match=f"{empty} split is empty"):
            if kind == "flow":
                ds = neural.Dataset(rng.normal(size=(10, 3)), "real", *rows)
                flow.train_flow(flow.AffineFlow.build(A, 2, [4], 0), ds, cfg)
            else:
                ds = neural.Dataset((rng.random((10, 3)) < 0.5).astype(float), "binary", *rows)
                masks = factorizer.factor_multilayer(A, [4], "greedy")
                neural.train(neural.MaskedMLP.from_masks(masks, "binary", 0), ds, cfg)

    def test_parameters_stay_views_of_one_flat_vector(self):
        """Training binds every weight and bias to a view of one flat vector,
        in ``params()`` order, and leaves them bound to it."""
        A, ds = toy_dataset(8, kind="real")
        fl = flow.AffineFlow.build(A, 2, [6], 0)
        fl, _ = flow.train_flow(fl, ds, neural.TrainConfig(batch_size=16, max_epochs=2))
        params = fl.params()
        flat = params[0].base
        assert flat is not None and flat.ndim == 1
        assert flat.size == sum(p.size for p in params)
        np.testing.assert_array_equal(flat, np.concatenate([p.ravel() for p in params]))
        assert all(p.base is flat for p in params)
        assert all(p.base is flat for net in fl.layers for p in net.params())

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


def probe_audit(net, rng, n_probes=4, deltas=(1.0, -2.5, 10.0)):
    """Reference perturbation audit: for every input j, shift or set x_j at
    n_probes random base points and report each output i whose pattern
    forbids j but whose value moved, with the largest move (NaN kept).  It
    finds only the edges its probes happen to reach; ``audit_invariance``
    must report each of them, NaN where the probe saw NaN."""
    rng = np.random.default_rng(rng)
    d = net.dim
    pattern = net.pattern
    if net.head == "gaussian":
        pattern = np.vstack([pattern, pattern])
    base = rng.normal(0.0, 2.0, size=(n_probes, d))
    y0 = net.forward(base)
    found = {}
    for j in range(d):
        free = np.flatnonzero(pattern[:, j] == 0)
        if len(free) == 0:
            continue
        for delta in deltas:
            for mode in ("shift", "set"):
                x1 = base.copy()
                x1[:, j] = x1[:, j] + delta if mode == "shift" else delta
                diff = np.abs(net.forward(x1)[:, free] - y0[:, free])
                col_max = diff.max(axis=0)
                for k in np.flatnonzero(col_max != 0.0):
                    key = (int(free[k]), j)
                    found[key] = float(np.maximum(found.get(key, 0.0), col_max[k]))
    return [(i, j, worst) for (i, j), worst in sorted(found.items())]


def forbidden_rows(net):
    forbidden = net.pattern == 0
    return np.vstack([forbidden, forbidden]) if net.head == "gaussian" else forbidden


def drawn_net(data, d, head, n_hidden, seed):
    """A net on a drawn lower-triangular adjacency and drawn hidden widths,
    its free weights and biases jittered."""
    A = np.zeros((d, d), dtype=np.int64)
    below = np.tril_indices(d, -1)
    A[below] = data.draw(st.lists(st.booleans(), min_size=len(below[0]),
                                  max_size=len(below[0])))
    widths = [data.draw(st.integers(d, d + 3)) for _ in range(n_hidden)]
    masks = factorizer.factor_multilayer(A, widths, "greedy")
    net = neural.MaskedMLP.from_masks(masks, head, seed)
    rng = np.random.default_rng(seed)
    for W, M in zip(net.weights, net.masks):
        W += 0.5 * rng.normal(size=W.shape) * M
    for b in net.biases:
        b += 0.5 * rng.normal(size=b.shape)
    return net


def break_mask(data, net, k):
    """Set a drawn masked weight of layer k, if it has one, to a drawn value."""
    off = np.argwhere(net.masks[k] == 0)
    if len(off):
        i, j = off[data.draw(st.integers(0, len(off) - 1))]
        net.weights[k][i, j] = data.draw(st.sampled_from([0.7, -1.5, 3.0]))


def dead_relu_net():
    """prev_k(4, 1) with a forbidden edge x_3 -> output 1 behind a hidden unit
    whose bias -50 keeps it off at every probe point; the chained |W| along
    that one path is 1."""
    masks = factorizer.factor_multilayer(adjacency.gen_prev_k(4, 1), [8], "greedy")
    net = neural.MaskedMLP.from_masks(masks, "binary", 0)
    u = np.flatnonzero(net.masks[1][1])[0]
    net.weights[0][u] = 0.0
    net.weights[0][u, 3] = 1.0
    net.biases[0][u] = -50.0
    net.weights[1][1, u] = 1.0
    return net


class TestAudit:
    @pytest.mark.parametrize("head", ["binary", "gaussian"])
    def test_clean_network_passes(self, head):
        for seed in range(4):
            A, net = build_net(6, [9, 9], head, seed)
            assert neural.audit_invariance(net) == []

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
        found = neural.audit_invariance(net)
        assert (1, 0) in [(i, j) for i, j, _ in found]

    def test_detects_violation_in_sigma_rows(self):
        A = np.array([
            [0, 0],
            [0, 0],
        ])
        masks = [A.copy()]
        net = neural.MaskedMLP.from_masks(masks, "gaussian", 0)
        net.weights[0][3, 0] = 0.4  # log-sigma row of output 1, input 0
        found = neural.audit_invariance(net)
        assert any(j == 0 for _, j, _ in found)

    def test_edge_behind_dead_relu(self):
        """The probes never lift the unit over its bias, so the probe audit
        misses the edge; the support flags it."""
        net = dead_relu_net()
        x = np.zeros(4)
        y0 = net.forward(x)[1]
        x[3] = 100.0
        assert net.forward(x)[1] - y0 == pytest.approx(50.0)
        assert probe_audit(net, 0) == []
        assert neural.audit_invariance(net) == [(1, 3, 1.0)]

    @pytest.mark.parametrize("edge", [(2, 2), (5, 2)])
    def test_overflowing_finite_weight_fails(self, edge):
        """A finite 1e308 on an allowed edge overflows the interval bounds;
        the support alone would pass the network."""
        masks = factorizer.factor_multilayer(adjacency.gen_prev_k(4, 1), [8], "greedy")
        net = neural.MaskedMLP.from_masks(masks, "binary", 0)
        assert net.masks[0][edge] == 1.0
        net.weights[0][edge] = 1e308
        assert not (neural.support(net) & forbidden_rows(net)).any()
        found = neural.audit_invariance(net)
        assert [(i, j) for i, j, _ in found] == [tuple(p) for p in np.argwhere(net.pattern == 0)]

    def test_weight_that_overflows_inside_the_box_fails(self):
        """A finite 1e306 on an allowed edge keeps the outputs finite at
        ordinary inputs, but x_2 = 1e3, inside the audit box, overflows its
        hidden unit and 0 * inf turns the outputs NaN.  The interval bounds
        overflow too, so every forbidden pair is flagged, with NaN."""
        masks = factorizer.factor_multilayer(adjacency.gen_prev_k(4, 1), [8], "greedy")
        net = neural.MaskedMLP.from_masks(masks, "binary", 0)
        assert net.masks[0][2, 2] == 1.0
        net.weights[0][2, 2] = 1e306
        assert not (neural.support(net) & forbidden_rows(net)).any()
        assert np.isfinite(net.forward(np.full(4, 2.0))).all()
        x = np.zeros(4)
        x[2] = 1e3
        with np.errstate(invalid="ignore", over="ignore"):
            assert np.isnan(net.forward(x)[:3]).all()
        found = neural.audit_invariance(net)
        assert [(i, j) for i, j, _ in found] == [tuple(p) for p in np.argwhere(net.pattern == 0)]
        assert all(np.isnan(bound) for _, _, bound in found)

    @pytest.mark.parametrize("value", [-np.inf, np.inf, np.nan])
    def test_non_finite_hidden_bias_fails(self, value):
        A, net = build_net(5, [7], "gaussian", 3)
        net.biases[0][2] = value
        found = neural.audit_invariance(net)
        forbidden = forbidden_rows(net)
        assert [(i, j) for i, j, _ in found] == [tuple(p) for p in np.argwhere(forbidden)]

    @settings(max_examples=150)
    @given(data=st.data(), d=st.integers(2, 6), head=st.sampled_from(["binary", "gaussian"]),
           n_hidden=st.integers(1, 2), seed=st.integers(0, 2**16),
           defect=st.sampled_from(["clean", "off_mask", "weight", "bias"]))
    def test_support_audit_covers_probe_audit(self, data, d, head, n_hidden, seed, defect):
        net = drawn_net(data, d, head, n_hidden, seed)
        k = data.draw(st.integers(0, n_hidden))
        if defect == "off_mask":
            break_mask(data, net, k)
        elif defect == "weight":
            i = data.draw(st.integers(0, net.weights[k].shape[0] - 1))
            j = data.draw(st.integers(0, net.weights[k].shape[1] - 1))
            net.weights[k][i, j] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        elif defect == "bias":
            net.biases[k][data.draw(st.integers(0, len(net.biases[k]) - 1))] = np.nan

        with np.errstate(invalid="ignore", over="ignore"):
            oracle = probe_audit(net, seed)
        found = neural.audit_invariance(net)
        report = {(i, j): bound for i, j, bound in found}
        for i, j, worst in oracle:
            assert (i, j) in report
            assert not np.isnan(worst) or np.isnan(report[(i, j)])
        finite = all(np.isfinite(p).all() for p in net.params())
        if defect == "clean":
            assert found == [] and oracle == []
        elif finite:
            expected = np.argwhere(neural.support(net) & forbidden_rows(net))
            assert list(report) == [tuple(p) for p in expected]
        else:
            assert list(report) == [tuple(p) for p in np.argwhere(forbidden_rows(net))]

    @settings(max_examples=100)
    @given(data=st.data(), d=st.integers(2, 6), head=st.sampled_from(["binary", "gaussian"]),
           n_hidden=st.integers(1, 2), seed=st.integers(0, 2**16), n_defects=st.integers(1, 3))
    def test_grad_bound_bounds_the_jacobian(self, data, d, head, n_hidden, seed, n_defects):
        """On a net with off-mask weights, each reported pair's grad_bound is
        at least |d out_i / d x_j| from the oracle ``backward_reference`` at
        random points."""
        net = drawn_net(data, d, head, n_hidden, seed)
        for _ in range(n_defects):
            break_mask(data, net, data.draw(st.integers(0, n_hidden)))
        found = neural.audit_invariance(net)
        x = np.random.default_rng(seed).normal(0.0, 3.0, size=(16, d))
        _, cache = forward_cached_reference(net, x)
        for i, j, bound in found:
            grad_out = np.zeros((len(x), len(net.biases[-1])))
            grad_out[:, i] = 1.0
            _, grad_in = backward_reference(net, cache, grad_out)
            assert np.abs(grad_in[:, j]).max() <= bound * (1.0 + 1e-12)


class TestSupport:
    def test_chains_weight_supports(self):
        """Output 1 reads input 0 only through hidden unit 1."""
        masks = [np.ones((2, 2)), np.ones((2, 2))]
        net = neural.MaskedMLP.from_masks(masks, "binary", 0)
        net.weights[0][:] = [[0.0, 1.0], [2.0, 0.0]]
        net.weights[1][:] = [[1.0, 0.0], [0.0, 3.0]]
        np.testing.assert_array_equal(neural.support(net), [[False, True], [True, False]])
        net.weights[1][1, 1] = np.nan
        np.testing.assert_array_equal(neural.support(net), [[False, True], [True, False]])
        net.weights[1][1, 1] = 0.0
        assert not neural.support(net)[1].any()


class TestCheckpoint:
    @pytest.mark.parametrize("head", ["binary", "gaussian"])
    def test_bitwise_roundtrip(self, head, tmp_path):
        A, net = build_net(5, [7, 6], head, 11)
        rng = np.random.default_rng(0)
        for W, M in zip(net.weights, net.masks):
            W += rng.normal(size=W.shape) * np.array(0.1)
            W *= M
        path = tmp_path / "net.txt"
        neural.save_mlp(net, path)
        loaded = flow.load_checkpoint(path)
        assert loaded.head == net.head
        for a, b in zip(net.params(), loaded.params()):
            np.testing.assert_array_equal(a, b)
        x = rng.normal(size=(3, 5))
        np.testing.assert_array_equal(net.forward(x), loaded.forward(x))

    def test_loader_preserves_corruption_for_audit(self, tmp_path):
        """The loader must not silently re-mask; a corrupted checkpoint should
        still fail the audit after a round trip."""
        A = np.array([[0, 0], [0, 0]])
        net = neural.MaskedMLP.from_masks([A.copy()], "binary", 0)
        net.weights[0][1, 0] = 0.9
        path = tmp_path / "bad.txt"
        neural.save_mlp(net, path)
        loaded = flow.load_checkpoint(path)
        assert loaded.weights[0][1, 0] == 0.9
        assert neural.audit_invariance(loaded) != []

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(Exception):
            flow.load_checkpoint(path)
