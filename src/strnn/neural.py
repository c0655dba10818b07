"""Masked feedforward networks with hand-rolled reverse-mode gradients.

The effective weight of every layer is weight * mask, maintained as an
invariant: weights are masked at initialization and re-masked after every
optimizer step, so structural zeros stay exactly zero through training.
Hidden layers use ReLU; the head is either ``binary`` (d logits) or
``gaussian`` (2d outputs: means then log-sigmas, the final mask stacked twice
vertically).  Each head has one likelihood, ``head_nll`` of the raw outputs:
evaluation (``nll``), training (``loss_and_grads``) and the data generators'
exact oracles all go through it.  Checkpoints use the text format defined in
``textio``.
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
)

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
LOG_SIGMA_CLAMP = 7.0


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

    @property
    def out_dim(self):
        return self.masks[-1].shape[0]

    @classmethod
    def from_masks(cls, masks, head, rng):
        """Build a network from a factorization mask list (input side first).

        Initialization is Kaiming-uniform with each row's fan-in counted from
        its mask row, then masked.  Biases start at zero.
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
        return cls(weights, biases, masks, head, pattern)

    def apply_masks(self):
        """Re-impose the structural zeros (call after every optimizer step)."""
        for W, M in zip(self.weights, self.masks):
            W *= M

    def forward(self, x):
        """Batch forward pass; 1-D input returns a 1-D output."""
        x, squeeze = _as_batch(x, self.dim)
        h = x
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ W.T + b, 0.0)
        out = h @ self.weights[-1].T + self.biases[-1]
        return out[0] if squeeze else out

    def forward_cached(self, x):
        """Forward pass that keeps layer inputs/pre-activations for backward."""
        x, _ = _as_batch(x, self.dim)
        inputs, preacts = [], []
        h = x
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            inputs.append(h)
            z = h @ W.T + b
            preacts.append(z)
            h = np.maximum(z, 0.0)
        inputs.append(h)
        out = h @ self.weights[-1].T + self.biases[-1]
        return out, (inputs, preacts)

    def backward(self, cache, grad_out):
        """Reverse-mode pass from an output gradient.

        Returns ((weight_grads, bias_grads), grad_input).  Gradients are dense;
        masked positions are irrelevant because updates get re-masked.
        """
        inputs, preacts = cache
        weight_grads = [None] * len(self.weights)
        bias_grads = [None] * len(self.biases)
        delta = np.asarray(grad_out, dtype=np.float64)
        weight_grads[-1] = delta.T @ inputs[-1]
        bias_grads[-1] = delta.sum(axis=0)
        grad_h = delta @ self.weights[-1]
        for layer in range(len(self.weights) - 2, -1, -1):
            delta = grad_h * (preacts[layer] > 0.0)
            weight_grads[layer] = delta.T @ inputs[layer]
            bias_grads[layer] = delta.sum(axis=0)
            grad_h = delta @ self.weights[layer]
        return (weight_grads, bias_grads), grad_h

    def params(self):
        return self.weights + self.biases


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
    form would overflow and 1 + exp(t) rounds to 1, it is exp(t)."""
    t = np.asarray(t, dtype=np.float64)
    return np.where(t < -700.0, np.exp(np.minimum(t, -700.0)),
                    1.0 / (1.0 + np.exp(-np.maximum(t, -700.0))))


def _split_gaussian(out, cols=slice(None)):
    """Means and log-sigmas clamped to +-LOG_SIGMA_CLAMP, the two halves of a
    gaussian-head output, at columns ``cols`` (for a flow conditioner: the
    shifts and log-scales)."""
    d = out.shape[-1] // 2
    return (out[..., :d][..., cols],
            np.clip(out[..., d:][..., cols], -LOG_SIGMA_CLAMP, LOG_SIGMA_CLAMP))


def head_nll(head, out, x):
    """Per-sample negative log-likelihood of ``x`` under the raw outputs
    ``out`` of a ``head`` network.

    binary: sum_j softplus(o_j) - x_j o_j, the stable form of the Bernoulli
    NLL with logits o.  gaussian: sum_j log sigma_j + 0.5 log 2 pi +
    (x_j - mu_j)^2 / (2 sigma_j^2), from ``_split_gaussian(out)``.
    """
    if head == "binary":
        per = np.logaddexp(0.0, out) - x * out
    else:
        mu, log_sigma = _split_gaussian(out)
        per = log_sigma + HALF_LOG_2PI + (x - mu) ** 2 * np.exp(-2.0 * log_sigma) / 2.0
    return per.sum(axis=-1)


def nll_binary(net, x):
    """Negative log-likelihood of binary vectors under the logit head.
    Scalar for a single vector, per-sample array for a batch."""
    if net.head != "binary":
        raise ConfigError("nll_binary needs a binary-head network")
    return nll(net, x)


def gaussian_outputs(net, x):
    """Means and clamped log-sigmas from a gaussian-head network."""
    if net.head != "gaussian":
        raise ConfigError("gaussian outputs need a gaussian-head network")
    return _split_gaussian(net.forward(x))


def nll_gaussian(net, x):
    """Negative log-likelihood of real vectors under the heteroscedastic head."""
    if net.head != "gaussian":
        raise ConfigError("nll_gaussian needs a gaussian-head network")
    return nll(net, x)


def nll(net, x):
    """Per-sample negative log-likelihood under the network's head."""
    x = _targets(net.head, x)
    return head_nll(net.head, net.forward(x), x)


def mean_nll(net, x):
    return float(np.mean(nll(net, x)))


def loss_and_grads(net, x):
    """Mean NLL over the batch and its gradients, aligned with
    ``net.params()``.  The loss is ``mean_nll(net, x)`` exactly."""
    x = _targets(net.head, x)
    n = x.shape[0]
    out, cache = net.forward_cached(x)
    loss = float(np.mean(head_nll(net.head, out, x)))
    if net.head == "binary":
        grad_out = (sigmoid(out) - x) / n
    else:
        mu, log_sigma = _split_gaussian(out)
        inv_var = np.exp(-2.0 * log_sigma)
        g_mu = (mu - x) * inv_var / n
        in_range = np.abs(log_sigma) < LOG_SIGMA_CLAMP
        g_log_sigma = (1.0 - (x - mu) ** 2 * inv_var) * in_range / n
        grad_out = np.concatenate([g_mu, g_log_sigma], axis=1)
    (weight_grads, bias_grads), _ = net.backward(cache, grad_out)
    return loss, weight_grads + bias_grads


class AdamW:
    """Adam with decoupled weight decay over a flat list of parameter arrays."""

    def __init__(self, params, learning_rate, weight_decay=0.0,
                 beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.lr = learning_rate
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p -= self.lr * (m_hat / (np.sqrt(v_hat) + self.epsilon)
                            + self.weight_decay * p)


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


def _minibatches(n, batch_size, perm):
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def train(net, dataset, config):
    """AdamW training on the head NLL with optional plateau schedule and
    early stopping.

    Validation NLL drives both the plateau schedule and early stopping; the
    parameters from the best validation epoch are restored at the end.
    Deterministic given (seed, config, dataset).  Returns (net, history)
    where history rows are (epoch, train_nll, val_nll, lr).
    """
    return _optimize(net, dataset, config, loss_and_grads, mean_nll)


def _optimize(model, dataset, config, loss_and_grads, mean_nll):
    """The training loop behind ``train`` and ``flow.train_flow``, given the
    model's ``loss_and_grads(model, x)`` and ``mean_nll(model, x)``."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    params = model.params()
    opt = AdamW(params, config.learning_rate, config.weight_decay,
                epsilon=config.epsilon)
    train_x = dataset.train_x
    n = train_x.shape[0]
    history = []
    best_val = np.inf
    best = [p.copy() for p in params]
    stall = 0
    plateau_stall = 0
    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n)
        for idx in _minibatches(n, config.batch_size, perm):
            _, grads = loss_and_grads(model, train_x[idx])
            opt.step(params, grads)
            model.apply_masks()
        train_nll = mean_nll(model, train_x)
        val_nll = mean_nll(model, dataset.val_x)
        history.append((epoch, train_nll, val_nll, opt.lr))
        if val_nll < best_val:
            best_val = val_nll
            best = [p.copy() for p in params]
            stall = 0
            plateau_stall = 0
        else:
            stall += 1
            plateau_stall += 1
        if config.lr_schedule == "plateau" and plateau_stall >= config.plateau_patience:
            opt.lr *= config.plateau_factor
            plateau_stall = 0
        if stall >= config.early_stop_patience:
            break
    for p, b in zip(params, best):
        p[...] = b
    return model, history


def test_summary(per):
    """Mean of the per-sample test NLLs ``per`` and its standard error."""
    n = len(per)
    stderr = float(np.std(per, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(per)), stderr


def audit_invariance(net, rng, n_probes=4, deltas=(1.0, -2.5, 10.0)):
    """Exhaustive perturbation audit of structural independence.

    For every input j and output row i whose dependency pattern forbids the
    edge, perturbing coordinate j must leave output i exactly unchanged
    (float equality); a NaN difference is a violation with magnitude NaN.
    Returns a list of violations (i, j, max_abs_diff); an empty list means
    the audit passed.
    """
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
                # != and np.maximum keep NaN, so a NaN output is flagged as NaN.
                for k in np.flatnonzero(col_max != 0.0):
                    key = (int(free[k]), j)
                    found[key] = float(np.maximum(found.get(key, 0.0), col_max[k]))
    return [(i, j, worst) for (i, j), worst in sorted(found.items())]


# ---------------------------------------------------------------------------
# Checkpoints, in the text format of ``textio``; a round trip is bitwise.

def write_mlp_body(fh, net):
    fh.write(f"head {net.head}\ndim {net.dim}\nlayers {len(net.weights)}\n")
    textio.write_block(fh, "pattern", net.pattern)
    for k, layer in enumerate(zip(net.masks, net.weights, net.biases)):
        for name, a in zip(("mask", "weight", "bias"), layer):
            textio.write_block(fh, f"{name} {k}", a)


def read_mlp_body(reader):
    """Read a network body, checking that every block has the shape the
    header and the previous layers imply.  Weights are taken as written, even
    where their mask is zero, so that an audit can report them."""
    head = reader.field("head")
    if head not in ("binary", "gaussian"):
        raise reader.error(f"unknown head {head!r}")
    d = reader.count("dim")
    n_layers = reader.count("layers")
    pattern = reader.named_block("pattern", d, d)
    if ((pattern != 0) & (pattern != 1)).any():
        raise reader.error("pattern entries must be 0 or 1")
    weights, biases, masks, width = [], [], [], d
    for k in range(n_layers):
        rows = None if k < n_layers - 1 else (d if head == "binary" else 2 * d)
        masks.append(reader.named_block(f"mask {k}", rows, width))
        width = len(masks[-1])
        weights.append(reader.named_block(f"weight {k}", width, masks[-1].shape[1]))
        biases.append(reader.named_block(f"bias {k}", 1, width).ravel())
    return MaskedMLP(weights, biases, masks, head, pattern)


def save_mlp(net, path):
    """Write a network checkpoint; load_mlp(save) reproduces outputs bitwise."""
    textio.write_checkpoint(path, "mlp", lambda fh: write_mlp_body(fh, net))


def load_mlp(path):
    """Read a network checkpoint; any other kind raises ParseError."""
    return textio.read_checkpoint(path, {"mlp": read_mlp_body})
