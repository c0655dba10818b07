"""Masked autoregressive normalizing flows sharing one adjacency.

Each sub-flow applies the per-coordinate affine map
``x_j = exp(s_j(x_{<j})) * z_j + t_j(x_{<j})`` whose conditioner is a
gaussian-head masked network built from the shared adjacency, so s_j and t_j
read only the declared parents of j (a parentless coordinate gets learned
constants).  The data-to-noise direction evaluates in one parallel pass per
layer; ``to_noise``, ``nll`` and training (``loss_and_grads``) share that
pass and the standard-normal base density, so the training loss is the
evaluation NLL.  The noise-to-data direction takes one pass per DAG
generation, where a generation is the set of coordinates whose parents are
all already filled.  An affine standardization (train-split mean/std) sits
outermost and its log-Jacobian is part of the density.
"""

import numpy as np

from . import adjacency as adjacency_mod
from . import factorizer, neural, textio
from .errors import ConfigError, InvalidDimError

# The conditioners are gaussian-head networks whose log-sigma outputs serve
# as log-scales, so the scale clamp is the log-sigma clamp.
SCALE_CLAMP = neural.LOG_SIGMA_CLAMP


class AffineFlow:
    """A stack of affine autoregressive sub-flows over one adjacency.

    Sampling applies layers in list order (noise -> layers[0] -> ... ->
    layers[K-1] -> de-standardize -> data); to_noise inverts them in reverse
    list order.  No permutations sit between layers.
    """

    def __init__(self, A, layers, mu=None, sigma=None):
        self.adjacency = adjacency_mod.validate(A)
        if not layers:
            raise InvalidDimError("flow needs at least one layer")
        self.layers = layers
        d = self.adjacency.shape[0]
        for net in layers:
            if net.head != "gaussian" or net.dim != d:
                raise ConfigError("each sub-flow conditioner must be a "
                                  f"gaussian-head network of width {d}")
        self.mu = np.zeros(d) if mu is None else np.asarray(mu, dtype=np.float64)
        self.sigma = np.ones(d) if sigma is None else np.asarray(sigma, dtype=np.float64)

    @property
    def dim(self):
        return self.adjacency.shape[0]

    @classmethod
    def build(cls, A, n_layers, hidden, rng, method="greedy"):
        """Build a K-layer flow whose conditioners share one mask factorization
        of A but are independently initialized.

        Each conditioner's output layer starts at zero, so every layer begins
        as the identity map.  Without this, the per-layer log-scales compound
        multiplicatively through the stack and deep flows start (and often
        stay) in a numerically explosive regime.
        """
        A = adjacency_mod.validate(A)
        rng = np.random.default_rng(rng)
        masks = factorizer.factor_multilayer(A, hidden, method)
        layers = []
        for _ in range(n_layers):
            net = neural.MaskedMLP.from_masks(masks, "gaussian", rng)
            net.weights[-1][...] = 0.0
            layers.append(net)
        return cls(A, layers)

    # Optimizer protocol shared with MaskedMLP.
    def params(self):
        return [p for net in self.layers for p in net.params()]

    def apply_masks(self):
        for net in self.layers:
            net.apply_masks()


def _to_noise(flow, x, keep_levels, tape=None):
    """The data-to-noise pass of a batch: (levels, log_det).

    ``levels`` is [z, ..., u] (noise side first) with keep_levels, else [z];
    log_det is the per-sample log |det dz/dx|, including the standardization
    Jacobian.  Given a list ``tape``, each layer, data side first, appends
    its forward cache, log-scales s and exp(-s) for the backward pass; only
    training keeps these.
    """
    u = (x - flow.mu) / flow.sigma
    log_det = np.full(x.shape[0], -float(np.sum(np.log(flow.sigma))))
    levels = [u]
    for net in reversed(flow.layers):
        if tape is None:
            out = net.forward(levels[-1])
        else:
            out, cache = net.forward_cached(levels[-1])
        t, s = neural._split_gaussian(out)
        e = np.exp(-s)
        v = (levels[-1] - t) * e
        log_det -= s.sum(axis=1)
        if tape is not None:
            tape.append((cache, s, e))
        if keep_levels:
            levels.append(v)
        else:
            levels[-1] = v
    levels.reverse()
    return levels, log_det


def _nll(z, log_det):
    """Per-sample NLL from base noise z under the standard normal and the
    log-det of the data-to-noise map."""
    return 0.5 * np.sum(z * z, axis=-1) + z.shape[-1] * neural.HALF_LOG_2PI - log_det


def to_noise(flow, x, keep_levels=False):
    """Map data to base noise in one parallel pass per layer.

    Returns (z, log_det) where log_det is the per-sample log |det dz/dx|,
    including the standardization Jacobian.  With keep_levels=True also
    returns the list of intermediate representations [z, ..., u] (noise side
    first), which counterfactual evaluation reuses.
    """
    x, squeeze = neural._as_batch(x, flow.dim)
    levels, log_det = _to_noise(flow, x, keep_levels)
    z = levels[0]
    if squeeze:
        z, log_det = z[0], log_det[0]
    if keep_levels:
        return z, log_det, levels
    return z, log_det


def _dependencies(flow):
    """(d, d) booleans: entry (k, m) is set when some layer's shift or
    log-scale for coordinate k reads coordinate m through the actual weights.

    ``W != 0`` also holds for NaN and inf, so a non-finite weight counts as a
    connection.  This reads the weights, not ``flow.adjacency``: a checkpoint
    whose weights break its mask must still be inverted in a valid order.
    """
    d = flow.dim
    dep = np.zeros((d, d), dtype=bool)
    for net in flow.layers:
        reach = factorizer.mask_product([W != 0 for W in net.weights]) > 0
        dep |= reach[:d] | reach[d:]
    return dep


def _generations(dep, start):
    """Coordinates start..d-1 grouped into DAG generations, as index arrays.

    Generation 0 holds the coordinates with no parent among start..d-1; each
    later one holds those whose parents there all sit in earlier generations.
    If any coordinate reads itself or a later coordinate, every coordinate is
    its own generation, in index order, which is the per-coordinate schedule.
    """
    d = dep.shape[0]
    if np.triu(dep).any():
        return [np.array([k]) for k in range(start, d)]
    depth = np.zeros(d, dtype=np.int64)
    for k in range(start, d):
        parents = np.flatnonzero(dep[k, start:k])
        if parents.size:
            depth[k] = depth[start + parents].max() + 1
    ks, depth = np.arange(start, d), depth[start:]
    # Depth g > 0 implies a parent at depth g - 1, so no generation is empty.
    return [ks[depth == g] for g in range(depth.max(initial=-1) + 1)]


def _reconstruct(flow, levels, pins, start):
    """Fill coordinates start..d-1 of every level in noise-to-data order.

    ``levels`` is the [V_0 (noise), ..., V_K (standardized data)] list, edited
    in place.  Coordinates are filled one DAG generation at a time: each
    layer's conditioner runs once on its level, the generation's free columns
    push their noise up through the layers, and a pinned coordinate k gets its
    standardized data-side value ``pins[k]`` forced and is inverted down
    through the layers with the same per-level shifts and scales.  A column's
    conditioner reads only its parents, which are final before its generation
    starts, so columns not yet filled are harmless.
    """
    K = len(flow.layers)
    dep = _dependencies(flow)
    for gen in _generations(dep, start):
        is_pin = np.isin(gen, list(pins))
        free, pinned = gen[~is_pin], gen[is_pin]
        down = []
        for lvl in range(1, K + 1):
            out = flow.layers[lvl - 1].forward(levels[lvl])
            if free.size:
                t, s = neural._split_gaussian(out, free)
                levels[lvl][:, free] = np.exp(s) * levels[lvl - 1][:, free] + t
            if pinned.size:
                down.append(neural._split_gaussian(out, pinned))
        if pinned.size:
            # A pinned column that reads itself (only possible when the weights
            # break the mask) must see its forced value, so it reruns its
            # conditioners on the way down.
            rerun = dep[pinned, pinned].any()
            levels[K][:, pinned] = [pins[k] for k in pinned]
            for lvl in range(K, 0, -1):
                t, s = (neural._split_gaussian(flow.layers[lvl - 1].forward(levels[lvl]),
                                               pinned)
                        if rerun else down[lvl - 1])
                levels[lvl - 1][:, pinned] = (levels[lvl][:, pinned] - t) * np.exp(-s)
    return levels


def from_noise(flow, z):
    """Map base noise to data in one pass per DAG generation: each layer's
    conditioner runs once per generation."""
    z, squeeze = neural._as_batch(z, flow.dim)
    levels = [z.copy()] + [np.zeros_like(z) for _ in flow.layers]
    _reconstruct(flow, levels, pins={}, start=0)
    x = levels[-1] * flow.sigma + flow.mu
    return x[0] if squeeze else x


def nll(flow, x):
    """Per-sample negative log-likelihood under the flow."""
    return _nll(*to_noise(flow, x))


def mean_nll(flow, x):
    return float(np.mean(nll(flow, x)))


def sample(flow, n, rng):
    rng = np.random.default_rng(rng)
    return from_noise(flow, rng.standard_normal((n, flow.dim)))


def loss_and_grads(flow, x):
    """Mean NLL of the batch and gradients for every conditioner parameter,
    aligned with ``flow.params()``.  The loss is ``mean_nll(flow, x)``
    exactly."""
    x, _ = neural._as_batch(x, flow.dim)
    n = x.shape[0]
    tape = []
    levels, log_det = _to_noise(flow, x, keep_levels=True, tape=tape)
    loss = float(np.mean(_nll(levels[0], log_det)))
    grads = []
    g = levels[0] / n
    # Layer k maps levels[k + 1] to levels[k]; the tape runs data side first.
    for k, (net, (cache, s, e)) in enumerate(zip(flow.layers, reversed(tape))):
        g_t = -g * e
        g_s = (-g * levels[k] + 1.0 / n) * (np.abs(s) < SCALE_CLAMP)
        (gW, gb), g_in = net.backward(cache, np.concatenate([g_t, g_s], axis=1))
        grads += gW + gb
        g = g * e + g_in
    return loss, grads


def train_flow(flow, dataset, config):
    """Train the flow by AdamW on the exact NLL.

    Standardization parameters are frozen from the train split before the
    first step and folded into the density.  Scheduling, early stopping, and
    determinism match network training.  Returns (flow, history).
    """
    train_x = dataset.train_x
    flow.mu = train_x.mean(axis=0)
    flow.sigma = np.maximum(train_x.std(axis=0), 1e-8)
    return neural._optimize(flow, dataset, config, loss_and_grads, mean_nll)


def audit_flow(flow, rng):
    """Run the structural-independence audit on every conditioner.

    Also flags any conditioner whose mask-product pattern disagrees with the
    flow's shared adjacency.  Returns a list of (layer_index, i, j, max_diff).
    """
    rng = np.random.default_rng(rng)
    violations = []
    for k, net in enumerate(flow.layers):
        if not np.array_equal(net.pattern, flow.adjacency):
            bad = np.argwhere(net.pattern != flow.adjacency)
            for i, j in bad:
                violations.append((k, int(i), int(j), float("nan")))
            continue
        for i, j, worst in neural.audit_invariance(net, rng):
            violations.append((k, i, j, worst))
    return violations


def save_flow(flow, path):
    """Write a flow checkpoint: shared adjacency, standardization, and the
    ordered conditioner checkpoints, in the network checkpoint format."""
    def write_body(fh):
        fh.write(f"dim {flow.dim}\nlayers {len(flow.layers)}\n")
        for name in ("adjacency", "mu", "sigma"):
            textio.write_block(fh, name, getattr(flow, name))
        for k, net in enumerate(flow.layers):
            fh.write(f"conditioner {k}\n")
            neural.write_mlp_body(fh, net)

    textio.write_checkpoint(path, "flow", write_body)


def _read_flow_body(reader):
    d = reader.count("dim")
    n_layers = reader.count("layers")
    A = reader.named_block("adjacency", d, d)
    mu = reader.named_block("mu", 1, d).ravel()
    sigma = reader.named_block("sigma", 1, d).ravel()
    nets = []
    for k in range(n_layers):
        reader.label(f"conditioner {k}")
        nets.append(neural.read_mlp_body(reader))
    return AffineFlow(A, nets, mu=mu, sigma=sigma)


def load_flow(path):
    """Read a flow checkpoint; any other kind raises ParseError."""
    return textio.read_checkpoint(path, {"flow": _read_flow_body})


def load_checkpoint(path):
    """Read a checkpoint of either kind: a MaskedMLP or an AffineFlow."""
    return textio.read_checkpoint(path, {"mlp": neural.read_mlp_body,
                                         "flow": _read_flow_body})
