"""Masked feedforward networks with hand-rolled reverse-mode gradients.

The effective weight of every layer is weight * mask, maintained as an
invariant: weights are masked at initialization, ``AdamW`` sets every weight
that the masks from ``param_masks()`` exclude to +0.0 and steps only the free
entries, so structural zeros stay exactly +0.0 through training.  A training
run keeps all parameters of a model (every conditioner of a flow) in one
flat vector and their gradients in another: each weight and bias becomes a
view into the first, the backward pass writes into views of the second, and
the step updates the free entries of the first in place.  A flow's
parameters are one stack per layer position over its K conditioners, so the
views are stacks too.
Hidden layers use ReLU; the head is either ``binary`` (d logits) or
``gaussian`` (2d outputs: means then log-sigmas, the final mask stacked twice
vertically).  A fresh gaussian head's output weights are zero, so it starts
at the standard normal.  Each head has one likelihood, ``head_nll`` of the
raw outputs: evaluation (``nll``), the data generators' exact oracles and
training go through it.  A training step (``gradients``) differentiates it
and also sums it over the batch from the output its forward pass already
wrote, so an epoch's training NLL costs no pass of its own; only the
validation split is evaluated after each epoch.  The binary head takes its
softplus and, in a step, its sigmoid from one e = exp(-|o|) per logit
(``_logistic``), so a step runs one exp over the outputs; ``sigmoid``, a
form of its own, remains for ``datagen.gen_binary``, whose generated data
must not move.
``MaskedMLP._layers``, which ``forward`` runs on its checked input, is the
one row-major layer loop; training runs it into arrays kept per row count in
the run's ``buffers`` (a network's activations, a flow's workspace).  Both
trainers call the backward pass's two halves: the delta chain
(``MaskedMLP._deltas``), which carries the output gradient down through the
layers, into the caller's buffers when given, and the weight-gradient pass
(``_weight_gradients``), one product and one row sum per layer, which works
on any rank, so flow training runs it once over the K conditioners' stacks.
The flow's inversion runs its passes coordinate-major, in its own loop over
(width, n) views of its own buffers, each bias folded into its product
(``flow._Plan.affine``).
Evaluation runs in blocks of EVAL_BLOCK rows, so the hidden activations stay
in cache; each sample's NLL is bitwise the one an unblocked pass gives.
Checkpoints use the text format defined in ``textio``.
"""

from dataclasses import dataclass

import numpy as np

from . import factorizer, textio
from .errors import (
    ConfigError,
    DimMismatchError,
    InvalidDimError,
    NonBinaryInputError,
    NonFiniteInputError,
    check_field_types,
)

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
LOG_SIGMA_CLAMP = 7.0
# AdamW's decay rates of the first and second moment estimates.
ADAM_B1, ADAM_B2 = 0.9, 0.999
# The audit certifies finite activations for every input in the box
# |x_j| <= AUDIT_RADIUS.
AUDIT_RADIUS = 1e6
# ``nll`` evaluates in blocks of EVAL_BLOCK rows and folds a trailing block
# shorter than EVAL_TAIL into the one before it: BLAS multiplies fewer rows
# with other kernels, whose rounding differs from the unblocked product's.
EVAL_BLOCK = 256
EVAL_TAIL = 64


class MaskedMLP:
    """Feedforward network whose weights are elementwise-masked.

    ``pattern`` records the input-dependency pattern the network claims to
    respect (the binary sparsity pattern of the mask product, before any head
    duplication); audits and checkpoints use it.
    """

    def __init__(self, weights, biases, masks, head, pattern):
        self.weights = weights
        self.biases = biases
        self.masks = masks
        self.head = head
        self.pattern = np.asarray(pattern, dtype=np.int64)

    @property
    def dim(self):
        return self.masks[0].shape[1]

    @classmethod
    def from_masks(cls, masks, head, rng):
        """Build a network from a factorization mask list (input side first).

        Initialization is Kaiming-uniform with each row's fan-in counted from
        its mask row, then masked.  Biases start at zero.  A gaussian head's
        output weights are drawn too, so the rng stream does not depend on
        the head, and then set to zero: every output starts as mu = 0,
        log-sigma = 0, the standard normal, far from the log-sigma clamp.
        """
        if head not in ("binary", "gaussian"):
            raise ConfigError(f"unknown head {head!r}")
        if not masks:
            raise InvalidDimError("mask list is empty")
        masks = [np.asarray(M, dtype=np.float64) for M in masks]
        pattern = (factorizer.mask_product(masks) > 0).astype(np.int64)
        if head == "gaussian":
            masks = masks[:-1] + [np.vstack([masks[-1], masks[-1]])]
        rng = np.random.default_rng(rng)
        weights, biases = [], []
        for M in masks:
            fan_in = np.maximum(M.sum(axis=1), 1.0)
            bound = np.sqrt(6.0 / fan_in)[:, None]
            W = rng.uniform(-1.0, 1.0, size=M.shape) * bound * M
            weights.append(W)
            biases.append(np.zeros(M.shape[0]))
        if head == "gaussian":
            weights[-1][...] = 0.0
        return cls(weights, biases, masks, head, pattern)

    def forward(self, x, *, work=None):
        """Batch forward pass; 1-D input returns a 1-D output.

        ``work`` holds one array per layer, of the batch's rows by the
        layer's width: each layer's activations are written into it and the
        output returned is the last one.  Without it, every call returns a
        fresh array.
        """
        x, squeeze = _as_batch(x, self.dim)
        h = self._layers(x, work)
        return h[0] if squeeze else h

    def _layers(self, h, work=None):
        """``forward`` on a 2-D float64 batch, checking nothing: the flow's
        data-to-noise pass checks its data once, at entry."""
        for k, (W, b) in enumerate(zip(self.weights, self.biases)):
            if k:
                np.maximum(h, 0.0, out=h)
            h = np.matmul(h, W.T, out=None if work is None else work[k])
            np.add(h, b, out=h)
        return h

    def _deltas(self, grad_out, gates, out=None):
        """The gradient of every layer's output, input side first and
        ``grad_out`` last.  Hidden layer l's is the next layer's times that
        layer's weight, times ``gates[l]``: 1 or True where the layer's
        output is positive, 0 or False elsewhere, as a ReLU passes gradient
        where its output max(z, 0), hence z, is positive.  It is written into
        ``out[l]`` when given, else into a new array."""
        deltas = [grad_out]
        for layer in range(len(self.weights) - 1, 0, -1):
            delta = np.matmul(deltas[0], self.weights[layer],
                              out=None if out is None else out[layer - 1])
            np.multiply(delta, gates[layer - 1], out=delta)
            deltas.insert(0, delta)
        return deltas

    def params(self):
        return self.weights + self.biases

    def set_params(self, params):
        """Take the arrays ``params``, aligned with ``params()``, as the
        weights and biases (training binds views of ``AdamW.params``)."""
        self.weights, self.biases = params[:len(self.weights)], params[len(self.weights):]

    def param_masks(self):
        """The structural masks aligned with ``params()``: None per bias."""
        return self.masks + [None] * len(self.biases)


def _weight_gradients(inputs, deltas, weight_grads, bias_grads):
    """Each layer's weight gradient delta^T @ input and bias gradient, the
    delta summed over rows, from its input and the gradient of its output
    (``_deltas``), written into ``weight_grads`` and ``bias_grads``.  Any
    rank: a (K, n, width) stack of K networks' inputs and deltas takes one
    product and one sum per layer for all K, each slice bitwise what its
    network alone gives."""
    for x, delta, gW, gb in zip(inputs, deltas, weight_grads, bias_grads):
        np.matmul(delta.swapaxes(-1, -2), x, out=gW)
        np.add.reduce(delta, axis=-2, out=gb)


def _as_batch(x, dim):
    """``x`` as a finite float64 batch of width ``dim``, and whether it was a
    single vector."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise DimMismatchError(f"expected inputs of width {dim}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteInputError("non-finite value in input")
    return x, squeeze


def _targets(head, x):
    """``x`` as float64; a binary head also requires entries in {0, 1}."""
    x = np.asarray(x, dtype=np.float64)
    if head == "binary" and ((x != 0.0) & (x != 1.0)).any():
        raise NonBinaryInputError("binary NLL requires entries in {0, 1}")
    return x


def sigmoid(t):
    """The logistic function 1 / (1 + exp(-t)).  Below t = -700, where that
    form would overflow and 1 + exp(t) rounds to 1, it is exp(t), computed at
    those entries only.  The data generators draw with it; the binary head
    takes its sigmoid from its softplus's exponential (``_logistic``)."""
    t = np.asarray(t, dtype=np.float64)
    p = np.maximum(t, -700.0, out=np.empty(t.shape))
    np.negative(p, out=p)
    np.exp(p, out=p)
    p += 1.0
    np.divide(1.0, p, out=p)
    low = t < -700.0
    if low.any():
        p[low] = np.exp(t[low])
    return p


def _split_gaussian(out):
    """Means and log-sigmas clamped to +-LOG_SIGMA_CLAMP, the two halves of a
    gaussian-head output (for a flow conditioner: the shifts and
    log-scales)."""
    d = out.shape[-1] // 2
    return out[..., :d], out[..., d:].clip(-LOG_SIGMA_CLAMP, LOG_SIGMA_CLAMP)


def head_nll(head, out, x):
    """Per-sample negative log-likelihood of ``x`` under the raw outputs
    ``out`` of a ``head`` network.

    binary: sum_j softplus(o_j) - x_j o_j, the stable form of the Bernoulli
    NLL with logits o.  gaussian: sum_j log sigma_j + 0.5 log 2 pi +
    (x_j - mu_j)^2 / (2 sigma_j^2), from ``_split_gaussian(out)``.
    """
    if head == "binary":
        return _binary_nll(out, x)
    mu, log_sigma = _split_gaussian(out)
    per = log_sigma + HALF_LOG_2PI + (x - mu) ** 2 * np.exp(-2.0 * log_sigma) / 2.0
    return per.sum(axis=-1)


def _logistic(o, with_sigmoid=False):
    """softplus(o) = log(1 + exp(o)) and, ``with_sigmoid``, sigmoid(o) (else
    None), both from one e = exp(-|o|), which cannot overflow: the softplus
    is max(o, 0) + log1p(e), the sigmoid 1 / (1 + e) where o >= 0 and
    e / (1 + e) elsewhere."""
    e = np.exp(-np.abs(o))
    softplus = np.maximum(o, 0.0) + np.log1p(e)
    if not with_sigmoid:
        return softplus, None
    return softplus, np.where(o >= 0.0, 1.0, e) / (1.0 + e)


def _binary_nll(o, x, n=None):
    """Per-sample Bernoulli NLL sum_j softplus(o_j) - x_j o_j of ``x`` under
    the logits ``o``; given the batch's row count n, also its gradient
    (p - x) / n with respect to ``o`` for the batch's mean NLL, p the sigmoid
    that ``_logistic`` takes from the softplus's own exponential.  Evaluation
    and the training step both go through here, so a step's NLL is bitwise
    ``nll``'s."""
    softplus, p = _logistic(o, n is not None)
    per = (softplus - x * o).sum(axis=-1)
    return per if n is None else (per, (p - x) / n)


def nll(net, x):
    """Per-sample negative log-likelihood under the network's head.

    A batch is evaluated in blocks of EVAL_BLOCK rows (a trailing block
    shorter than EVAL_TAIL joins the previous one) and the per-sample values
    are concatenated, bitwise equal to ``head_nll(net.head, net.forward(x),
    x)``.  A 1-D input gives a scalar.
    """
    x = _targets(net.head, x)
    if x.ndim != 2:
        return head_nll(net.head, net.forward(x), x)
    starts = list(range(0, len(x), EVAL_BLOCK)) or [0]
    if len(starts) > 1 and len(x) - starts[-1] < EVAL_TAIL:
        starts.pop()
    return np.concatenate([head_nll(net.head, net.forward(x[a:b]), x[a:b])
                           for a, b in zip(starts, starts[1:] + [len(x)])])


def mean_nll(net, x):
    return float(np.mean(nll(net, x)))


def gradients(net, x, buffers, out=None):
    """(grads, nll_sum): the gradients of ``mean_nll(net, x)``, the batch's
    mean NLL, aligned with ``net.params()``, and the batch's NLL summed over
    its rows, both from one pass into the activations of the batch's row
    count, kept in ``buffers[n]``.  The gradients are written into ``out``
    when it is given (training passes ``AdamW.grads``), else into new arrays;
    they are dense, as the optimizer never steps a masked entry.  Each row's
    NLL is ``head_nll`` of the output the pass wrote, bitwise ``nll``'s."""
    x = _targets(net.head, x)
    n = x.shape[0]
    if n not in buffers:
        buffers[n] = [np.empty((n, len(b))) for b in net.biases]
    work = buffers[n]
    y = net.forward(x, work=work)
    if net.head == "binary":
        per, grad_out = _binary_nll(y, x, n)
    else:
        per = head_nll(net.head, y, x)
        mu, log_sigma = _split_gaussian(y)
        inv_var = np.exp(-2.0 * log_sigma)
        g_mu = (mu - x) * inv_var / n
        in_range = np.abs(log_sigma) < LOG_SIGMA_CLAMP
        g_log_sigma = (1.0 - (x - mu) ** 2 * inv_var) * in_range / n
        grad_out = np.concatenate([g_mu, g_log_sigma], axis=1)
    if out is None:
        out = [np.empty(p.shape) for p in net.params()]
    n_layers = len(net.weights)
    deltas = net._deltas(grad_out, [h > 0.0 for h in work[:-1]])
    _weight_gradients([x] + work[:-1], deltas, out[:n_layers], out[n_layers:])
    return out, per.sum()


class AdamW:
    """Adam with decoupled weight decay over one flat parameter vector ``p``
    and one flat gradient vector ``g``, stepping only the free entries.

    ``p`` starts as a copy of the arrays ``params``, in order, and ``g`` at
    zero; ``self.params`` and ``self.grads`` are views into ``p`` and ``g``
    shaped like ``params``.  ``masks`` is aligned with ``params``: an array
    per masked weight and None for an unmasked parameter (a bias); without it
    every entry is free.  An entry is free when it is unmasked or its mask
    entry is nonzero.  Every masked entry of ``p`` is set to +0.0 here and
    never written again, so structural zeros stay exactly +0.0.  The moments
    and scratch vectors hold one entry per free parameter.  Each ``step()``
    gathers the free entries of ``g`` and ``p`` (afresh, so an edit made
    between steps is what the next step starts from), updates them in the
    operation order of p -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * p) and
    scatters them back.  Adam is elementwise, so every free entry is bitwise
    the per-array update's.  At weight decay 0 the decay term is skipped, so
    an infinite parameter stays infinite instead of turning NaN through
    0 * inf.
    """

    def __init__(self, params, learning_rate, weight_decay=0.0, epsilon=1e-8, masks=None):
        self.lr = learning_rate
        self.weight_decay = weight_decay
        self.epsilon = epsilon
        size = sum(q.size for q in params)
        self.p, self.g = np.empty(size), np.zeros(size)
        np.concatenate([q.ravel() for q in params], out=self.p)
        bounds = np.cumsum([0] + [q.size for q in params])
        spans = list(zip(params, bounds[:-1], bounds[1:]))
        self.params = [self.p[lo:hi].reshape(q.shape) for q, lo, hi in spans]
        self.grads = [self.g[lo:hi].reshape(q.shape) for q, lo, hi in spans]
        if masks is None:
            masks = [None] * len(params)
        free = np.concatenate([np.ones(q.size, dtype=bool) if M is None
                               else np.asarray(M).ravel() != 0
                               for q, M in zip(params, masks)])
        self.p[~free] = 0.0
        self._free = np.flatnonzero(free)
        n = self._free.size
        self.m, self.v = np.zeros(n), np.zeros(n)
        self._a, self._u = np.empty(n), np.empty(n)
        self.t = 0

    def step(self):
        self.t += 1
        b1, b2 = ADAM_B1, ADAM_B2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        m, v, a, u, free = self.m, self.v, self._a, self._u, self._free
        g, p = self.g[free], self.p[free]
        m *= b1
        m += np.multiply(1.0 - b1, g, out=a)
        v *= b2
        np.multiply(1.0 - b2, g, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(v, c2, out=a)
        np.sqrt(a, out=a)
        a += self.epsilon
        np.divide(m, c1, out=u)
        u /= a
        if self.weight_decay:
            u += np.multiply(self.weight_decay, p, out=a)
        u *= self.lr
        p -= u
        self.p[free] = p


@dataclass
class TrainConfig:
    """Optimization settings shared by network and flow training."""

    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    batch_size: int = 200
    max_epochs: int = 200
    early_stop_patience: int = 50
    seed: int = 0
    lr_schedule: str = "fixed"
    plateau_factor: float = 0.1
    plateau_patience: int = 5
    epsilon: float = 1e-8

    def validate(self):
        check_field_types(self)
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if self.early_stop_patience < 1 or self.plateau_patience < 1:
            raise ConfigError("patience values must be >= 1")
        if not (0.0 < self.plateau_factor <= 1.0):
            raise ConfigError("plateau_factor must lie in (0, 1]")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be > 0")
        if self.lr_schedule not in ("fixed", "plateau"):
            raise ConfigError(f"unknown lr_schedule {self.lr_schedule!r}")
        return self


@dataclass
class Dataset:
    """A data matrix with frozen train/val/test index partitions."""

    x: np.ndarray
    kind: str
    idx_train: np.ndarray
    idx_val: np.ndarray
    idx_test: np.ndarray

    @property
    def train_x(self):
        return self.x[self.idx_train]

    @property
    def val_x(self):
        return self.x[self.idx_val]

    @property
    def test_x(self):
        return self.x[self.idx_test]


class History(list):
    """The rows (epoch, train_nll, val_nll, lr) of a training run, one per
    epoch, and how the run ended: ``stop_reason`` is "early_stop",
    "max_epochs" or "non_finite", and ``best_epoch`` is the epoch whose
    parameters were restored, 0 for the initial ones."""

    stop_reason = None
    best_epoch = 0


def train(net, dataset, config):
    """AdamW training on the head NLL with optional plateau schedule and
    early stopping.

    Validation NLL drives both the plateau schedule and early stopping; the
    parameters from the best validation epoch are restored at the end.  An
    epoch's ``train_nll`` is the mean over its training rows of the NLL each
    minibatch had before its step, so it lags the end-of-epoch parameters;
    ``val_nll`` is evaluated after the epoch.  A non-finite train or val NLL
    ends the run.  Deterministic given (seed, config, dataset).  Returns
    (net, history), a ``History`` of rows (epoch, train_nll, val_nll, lr).
    """
    return _optimize(net, dataset, config, gradients, mean_nll)


def _splits(dataset):
    """The training and validation rows of ``dataset``; training needs rows
    in both (without validation rows no epoch would count as the best)."""
    train_x, val_x = dataset.train_x, dataset.val_x
    for name, x in (("training", train_x), ("validation", val_x)):
        if not len(x):
            raise ConfigError(f"the dataset's {name} split is empty")
    return train_x, val_x


def _optimize(model, dataset, config, gradients, mean_nll):
    """The training loop behind ``train`` and ``flow.train_flow``, given the
    model's ``gradients(model, x, buffers, out)``, which returns the batch's
    NLL sum beside its gradients, and ``mean_nll(model, x)``, which only the
    validation split goes through.  Each step keeps its scratch in the run's
    ``buffers`` under the batch's row count.  ``train_nll`` sums what the
    steps returned, so no pass runs over the whole training split.  A
    non-finite epoch is never the best one, and it stops the run, which is
    how an overflow is reported: the loop silences numpy's overflow and
    invalid warnings.  The model's weights and biases become views into the
    optimizer's flat parameter vector, and stay so after the run."""
    config.validate()
    train_x, val_x = _splits(dataset)
    rng = np.random.default_rng(config.seed)
    opt = AdamW(model.params(), config.learning_rate, config.weight_decay,
                epsilon=config.epsilon, masks=model.param_masks())
    model.set_params(opt.params)
    buffers = {}
    n = train_x.shape[0]
    history = History()
    best_val = np.inf
    best = opt.p.copy()
    stall = 0
    plateau_stall = 0
    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n)
        total = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for idx in np.split(perm, range(config.batch_size, n, config.batch_size)):
                total += gradients(model, train_x[idx], buffers, opt.grads)[1]
                opt.step()
            train_nll = float(total / n)
            val_nll = mean_nll(model, val_x)
        history.append((epoch, train_nll, val_nll, opt.lr))
        if not np.isfinite([train_nll, val_nll]).all():
            history.stop_reason = "non_finite"
            break
        if val_nll < best_val:
            best_val = val_nll
            np.copyto(best, opt.p)
            history.best_epoch = epoch
            stall = 0
            plateau_stall = 0
        else:
            stall += 1
            plateau_stall += 1
        if config.lr_schedule == "plateau" and plateau_stall >= config.plateau_patience:
            opt.lr *= config.plateau_factor
            plateau_stall = 0
        if stall >= config.early_stop_patience:
            history.stop_reason = "early_stop"
            break
    else:
        history.stop_reason = "max_epochs"
    np.copyto(opt.p, best)
    return model, history


def test_summary(per):
    """Mean of the per-sample test NLLs ``per`` and its standard error."""
    n = len(per)
    stderr = float(np.std(per, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(per)), stderr


def support(net):
    """(outputs, d) booleans: entry (i, j) is set when output i reads input j
    through a chain of nonzero weights.  ``W != 0`` also holds for NaN and
    inf, so a non-finite weight counts as an edge."""
    return factorizer.mask_product([W != 0 for W in net.weights]) > 0


def audit_invariance(net):
    """Exact audit of structural independence: the pairs (i, j) where output
    i can read input j although the dependency pattern (stacked twice for a
    gaussian head) forbids it.  Deterministic; no forward pass runs.

    Interval bounds r = |W| r + |b| per layer, from r = AUDIT_RADIUS at every
    input, bound every activation on the box |x_j| <= AUDIT_RADIUS.  If they
    are finite, so is every activation there, and output i reads input j only
    through a chain of nonzero weights: the pairs where ``support(net)``
    leaves the pattern are flagged.  A non-finite bound (a NaN or infinite
    parameter, or finite ones that overflow) voids that argument, and every
    forbidden pair is flagged.  Returns (i, j, grad_bound) per flagged pair,
    sorted; [] means the audit passed.  ``grad_bound`` is entry (i, j) of the
    chained |W| product, an upper bound on |d out_i / d x_j|, and NaN when
    the bounds are not finite.  The support, not this float, decides: a
    product of tiny weights can underflow to 0.0.
    """
    forbidden = net.pattern == 0
    if net.head == "gaussian":
        forbidden = np.vstack([forbidden, forbidden])
    r = np.full(net.dim, AUDIT_RADIUS)
    # Elementwise, not a BLAS product, so that 0 * inf is NaN even where a
    # BLAS kernel would skip the zero.
    with np.errstate(over="ignore", invalid="ignore"):
        for W, b in zip(net.weights, net.biases):
            r = (np.abs(W) * r).sum(axis=1) + np.abs(b)
    if not np.isfinite(r).all():
        return [(int(i), int(j), float("nan")) for i, j in np.argwhere(forbidden)]
    pairs = np.argwhere(support(net) & forbidden)
    if not pairs.size:
        return []
    bound = np.abs(net.weights[0])
    for W in net.weights[1:]:
        bound = np.abs(W) @ bound
    return [(int(i), int(j), float(bound[i, j])) for i, j in pairs]


# ---------------------------------------------------------------------------
# Checkpoints, in the text format of ``textio``; a round trip is bitwise.

def write_mlp_body(fh, net):
    fh.write(f"head {net.head}\ndim {net.dim}\nlayers {len(net.weights)}\n")
    textio.write_block(fh, "pattern", net.pattern)
    for k, layer in enumerate(zip(net.masks, net.weights, net.biases)):
        for name, a in zip(("mask", "weight", "bias"), layer):
            textio.write_block(fh, f"{name} {k}", a)


def read_mlp_body(reader, head=None, dim=None, like=None):
    """Read a network body, checking that every block has the shape the
    header and the previous layers imply, and the header's head and dim
    against ``head`` and ``dim`` where given.  With ``like``, a network,
    the layer count and every block's shape must be ``like``'s too (a
    flow's conditioners share their shapes).  Weights are taken as written,
    even where their mask is zero, so that an audit can report them."""
    found = reader.field("head")
    if found not in ((head,) if head else ("binary", "gaussian")):
        raise reader.error(f"expected head {head}, got {found!r}" if head
                           else f"unknown head {found!r}")
    head, d = found, reader.count("dim")
    if dim not in (None, d):
        raise reader.error(f"expected dim {dim}, got {d}")
    n_layers = reader.count("layers")
    if like is not None and n_layers != len(like.weights):
        raise reader.error(f"expected layers {len(like.weights)}, got {n_layers}")
    pattern = reader.named_block("pattern", d, d, valid=lambda a: (a == 0) | (a == 1),
                                 why="pattern entries must be 0 or 1")
    weights, biases, masks, width = [], [], [], d
    for k in range(n_layers):
        if k == n_layers - 1:
            rows = d if head == "binary" else 2 * d
        else:
            rows = None if like is None else len(like.biases[k])
        masks.append(reader.named_block(f"mask {k}", rows, width))
        width = len(masks[-1])
        weights.append(reader.named_block(f"weight {k}", width, masks[-1].shape[1]))
        biases.append(reader.named_block(f"bias {k}", 1, width).ravel())
    return MaskedMLP(weights, biases, masks, head, pattern)


def save_mlp(net, path):
    """Write a network checkpoint; ``flow.load_checkpoint`` reads it back with
    bitwise outputs."""
    textio.write_checkpoint(path, "mlp", lambda fh: write_mlp_body(fh, net))

