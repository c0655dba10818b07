"""Masked autoregressive normalizing flows sharing one adjacency.

Each sub-flow applies the per-coordinate affine map
``x_j = exp(s_j(x_{<j})) * z_j + t_j(x_{<j})`` whose conditioner is a
gaussian-head masked network built from the shared adjacency, so s_j and t_j
read only the declared parents of j (a parentless coordinate gets learned
constants).  The data-to-noise direction evaluates in one parallel pass per
layer; ``to_noise``, ``nll`` and training (``gradients``, into buffers
reused from step to step) share that pass, so training differentiates the
evaluation NLL and takes each batch's NLL from the pass it steps on.  The
noise-to-data direction takes one pass per DAG generation, where a
generation is the set of coordinates whose parents are all already filled;
``_reconstruct`` is its one routine, shared by sampling and by the
interventions and counterfactuals of ``causal``, which pin one coordinate to
a value in data units.  It follows a ``_Plan`` built once per query or
report, and each conditioner pass computes only the outputs its generation
reads, into the plan's reused buffers, bitwise the full pass's values.  An
affine standardization (train-split mean/std) sits outermost and its
log-Jacobian is part of the density.
"""

import functools

import numpy as np

from . import adjacency as adjacency_mod
from . import factorizer, neural, textio
from .errors import ConfigError, InvalidDimError, InvalidPairError


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

    def set_params(self, params):
        for net in self.layers:
            k = len(net.weights) + len(net.biases)
            net.set_params(params[:k])
            params = params[k:]

    def param_masks(self):
        return [M for net in self.layers for M in net.param_masks()]


def _to_noise(flow, x, keep_levels, work=None, tape=None):
    """The data-to-noise pass of a batch: (levels, log_det).

    ``levels`` is [z, ..., u] (noise side first) with keep_levels, else [z];
    log_det is the per-sample log |det dz/dx|, including the standardization
    Jacobian.  Training passes ``work``, each conditioner's layer buffers,
    and a list ``tape`` that each layer, data side first, appends its
    log-scales s and exp(-s) to for the backward pass.
    """
    u = (x - flow.mu) / flow.sigma
    log_det = np.full(x.shape[0], -float(np.sum(np.log(flow.sigma))))
    levels = [u]
    for k in reversed(range(len(flow.layers))):
        out = flow.layers[k].forward(levels[-1], work=None if work is None else work[k])
        t, s = neural._split_gaussian(out)
        e = np.exp(-s)
        v = (levels[-1] - t) * e
        log_det -= s.sum(axis=1)
        if tape is not None:
            tape.append((s, e))
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
    log-scale for coordinate k reads coordinate m, by ``neural.support``.

    This reads the weights, not ``flow.adjacency``: a checkpoint whose
    weights break its mask must still be inverted in a valid order.  Each
    query, or report of many queries, computes it once; it is not cached on
    the flow, because training changes the weights.
    """
    d = flow.dim
    dep = np.zeros((d, d), dtype=bool)
    for net in flow.layers:
        reach = neural.support(net)
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


class _Plan:
    """The noise-to-data plan of one flow at its current weights, built once
    per query or report: ``dep`` from ``_dependencies``, the generations of
    each ``start``, how each conditioner computes each generation and the
    activation buffers it writes into, by row count.  Like ``dep`` it is
    never cached on the flow, because training changes the weights.
    """

    def __init__(self, flow):
        self.flow = flow
        self.dep = _dependencies(flow)
        self._generations, self._steps, self._buffers = {}, {}, {}

    def generations(self, start):
        if start not in self._generations:
            self._generations[start] = _generations(self.dep, start)
        return self._generations[start]

    def step(self, k, gen, n):
        """(last, cols, work) for conditioner k on generation ``gen`` of n rows:
        ``forward(x, last=last, work=work)`` gives the generation's shifts and
        log-scales at ``cols`` of the output halves (``_split_gaussian``).

        ``last`` holds contiguous copies of the output-layer rows ``gen`` and
        ``d + gen``, so the pass computes those outputs only, unless the
        generation is every coordinate or BLAS would round those rows
        differently on their own (``_rows_exact``); then the whole layer runs.
        """
        key = (k, gen.tobytes(), n)
        if key not in self._steps:
            net, d = self.flow.layers[k], self.flow.dim
            W, b = net.weights[-1], net.biases[-1]
            rows = np.concatenate([gen, gen + d])
            if n and gen.size < d and _rows_exact(n, W.shape, tuple(rows.tolist())):
                last, cols, width = (W[rows], b[rows]), np.arange(gen.size), rows.size
            else:
                last, cols, width = None, gen, W.shape[0]
            # A sliced output layer writes into the front of the full one's buffer.
            work = neural.layer_buffers(self._buffers, "plan", net, n)
            out = work[-1].ravel()[:n * width].reshape(n, width)
            self._steps[key] = last, cols, work[:-1] + [out]
        return self._steps[key]


@functools.lru_cache(maxsize=1024)
def _rows_exact(n, shape, rows):
    """Whether BLAS computes rows ``rows`` (a tuple) of ``h @ W.T``, for h of
    n rows and W of ``shape``, bitwise equal when W holds only those rows.
    BLAS picks its kernels by shape, and some kernels round differently, so
    the two are compared on seeded random data of these shapes, over at
    least 256 outputs.  The answer depends on the shapes and the BLAS alone,
    so each process computes it once per shape."""
    rng, rows = np.random.default_rng(0), list(rows)
    for _ in range(-(-256 // (n * len(rows)))):
        h, W = rng.standard_normal((n, shape[1])), rng.standard_normal(shape)
        if not np.array_equal((h @ W.T)[:, rows], h @ W[rows].T):
            return False
    return True


def _reconstruct(plan, levels, start=0, pin=None):
    """Fill coordinates start..d-1 of every level in noise-to-data order,
    following the ``_Plan`` of the flow, and return the data.

    ``levels`` is the [V_0 (noise), ..., V_K (standardized data)] list, edited
    in place.  Coordinates are filled one DAG generation at a time: each
    layer's conditioner runs once on its level, computing the generation's
    outputs only, into the plan's buffers, and the generation's free columns
    push their noise up through the layers.  With ``pin=(j, alpha)``
    coordinate j is forced to alpha (data units) on the data side and
    inverted down through the layers with the same per-level shifts and
    scales, and column j of the returned data is alpha exactly.  A column's
    conditioner reads only its parents, which are final before its generation
    starts, so columns not yet filled are harmless.  The result is bitwise
    that of full conditioner passes.
    """
    flow = plan.flow
    j, alpha = (None, None) if pin is None else pin
    if pin is not None and not 0 <= j < flow.dim:
        raise InvalidPairError(f"intervention index {j} outside 0..{flow.dim - 1}")
    K, n = len(flow.layers), levels[0].shape[0]
    for gen in plan.generations(start):
        at_pin = gen == j
        # Index arrays, not the scalar j: the t, s below are then copies, not
        # views of the plan's buffers, which the next pass overwrites.
        free, pinned = gen[~at_pin], gen[at_pin]
        down = []
        for lvl, net in enumerate(flow.layers, 1):
            last, cols, work = plan.step(lvl - 1, gen, n)
            out = net.forward(levels[lvl], last=last, work=work)
            if free.size:
                t, s = neural._split_gaussian(out, cols[~at_pin])
                levels[lvl][:, free] = np.exp(s) * levels[lvl - 1][:, free] + t
            if pinned.size:
                down.append(neural._split_gaussian(out, cols[at_pin]))
        if pinned.size:
            # A pinned column that reads itself (only possible when the weights
            # break the mask) must see its forced value, so it reruns its
            # conditioners on the way down, in full.
            rerun = plan.dep[j, j]
            levels[K][:, j] = (alpha - flow.mu[j]) / flow.sigma[j]
            for lvl in range(K, 0, -1):
                t, s = (neural._split_gaussian(flow.layers[lvl - 1].forward(levels[lvl]),
                                               pinned)
                        if rerun else down[lvl - 1])
                levels[lvl - 1][:, pinned] = (levels[lvl][:, pinned] - t) * np.exp(-s)
    x = levels[K] * flow.sigma + flow.mu
    if pin is not None:
        x[:, j] = alpha
    return x


def from_noise(flow, z):
    """Map base noise to data in one pass per DAG generation: each layer's
    conditioner runs once per generation."""
    z, squeeze = neural._as_batch(z, flow.dim)
    x = _reconstruct(_Plan(flow), [z.copy()] + [np.zeros_like(z) for _ in flow.layers])
    return x[0] if squeeze else x


def nll(flow, x):
    """Per-sample negative log-likelihood under the flow."""
    return _nll(*to_noise(flow, x))


def mean_nll(flow, x):
    return float(np.mean(nll(flow, x)))


def sample(flow, n, rng):
    rng = np.random.default_rng(rng)
    return from_noise(flow, rng.standard_normal((n, flow.dim)))


def gradients(flow, x, buffers, out=None):
    """(grads, nll_sum): the gradients of ``mean_nll(flow, x)`` for every
    conditioner parameter, aligned with ``flow.params()``, and the batch's
    NLL summed over its rows, from one data-to-noise pass into
    ``neural.layer_buffers``.  The gradients are written into ``out`` when it
    is given (see ``MaskedMLP.backward``); each row's NLL is bitwise what
    ``nll`` gives for the row."""
    x, _ = neural._as_batch(x, flow.dim)
    n = x.shape[0]
    work = [neural.layer_buffers(buffers, k, net, n) for k, net in enumerate(flow.layers)]
    tape = []
    levels, log_det = _to_noise(flow, x, keep_levels=True, work=work, tape=tape)
    grads = []
    g = levels[0] / n
    last = len(flow.layers) - 1
    # Layer k maps levels[k + 1] to levels[k]; the tape runs data side first.
    # The data side's input gradient is unread: mu and sigma are frozen.
    for k, (net, (s, e)) in enumerate(zip(flow.layers, reversed(tape))):
        g_t = -g * e
        g_s = (-g * levels[k] + 1.0 / n) * (np.abs(s) < neural.LOG_SIGMA_CLAMP)
        size = len(net.weights) + len(net.biases)
        part = None if out is None else out[len(grads):len(grads) + size]
        (gW, gb), g_in = net.backward([levels[k + 1]] + work[k][:-1],
                                      np.concatenate([g_t, g_s], axis=1),
                                      input_grad=k < last, out=part)
        grads += gW + gb
        if k < last:
            g = g * e + g_in
    return grads, _nll(levels[0], log_det).sum()


def train_flow(flow, dataset, config):
    """Train the flow by AdamW on the exact NLL.

    Standardization parameters are frozen from the train split before the
    first step and folded into the density.  Scheduling, early stopping, the
    stop on a non-finite NLL, the meaning of each history row and
    determinism match network training (``neural.train``).  Returns (flow,
    history).
    """
    train_x, _ = neural._splits(dataset)
    flow.mu = train_x.mean(axis=0)
    flow.sigma = np.maximum(train_x.std(axis=0), 1e-8)
    return neural._optimize(flow, dataset, config, gradients, mean_nll)


def audit_flow(flow, rng):
    """Audit every conditioner: a conditioner whose recorded pattern differs
    from the flow's shared adjacency has each differing pair flagged with
    NaN; any other goes through ``neural.audit_invariance`` with the one
    shared ``rng``.  Returns a list of (layer_index, i, j, max_abs_diff); a
    clean flow costs no forward pass.
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
