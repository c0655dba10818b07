"""Masked autoregressive normalizing flows sharing one adjacency.

Each sub-flow applies the per-coordinate affine map
``x_j = exp(s_j(x_{<j})) * z_j + t_j(x_{<j})`` whose conditioner is a
gaussian-head masked network built from the shared adjacency, so s_j and t_j
read only the declared parents of j (a parentless coordinate gets learned
constants).  The data-to-noise direction evaluates in one parallel pass per
layer, row-major (one sample per row); ``to_noise``, ``nll`` and training
(``gradients``, into buffers reused from step to step) share that pass, so
training differentiates the evaluation NLL and takes each batch's NLL from
the pass it steps on.  The noise-to-data direction takes one pass per DAG
generation, where a generation is the set of coordinates whose parents are
all already filled; ``_reconstruct`` is its one routine, shared by sampling
and by the interventions and counterfactuals of ``causal``, which pin one
coordinate to a value in data units (one value per sample column, so that a
report answers several queries side by side in one call).  It fills every
coordinate, or, for a counterfactual, the pinned coordinate and its
descendants alone: the pin names the fill set.  It runs coordinate-major,
each level one (d + 1, n) array whose last row is ones, and follows a
``_Plan`` built once per query or report: each conditioner pass
(``_Plan.affine``) is one product per layer of the weight rows and hidden
units its generation reads, each bias riding as one more column against a
row of ones, with all n samples, into the plan's reused buffers, and a
generation's coordinates are contiguous rows.  It drops only terms whose
weight is exactly 0, sums in BLAS's other orientation and adds each bias
inside the product, so it matches row-major full passes up to the order of
summation.  An affine standardization (train-split mean/std) sits
outermost and its log-Jacobian is part of the density.  The noise-to-data
direction needs a triangular flow, each conditioner output k reading
coordinates before k alone: the plan refuses any other with
``UpperTriangleNonZeroError``.
"""

import numpy as np

from . import adjacency as adjacency_mod
from . import factorizer, neural, textio
from .errors import ConfigError, InvalidDimError, InvalidPairError, NonFiniteInputError


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
    def build(cls, A, n_layers, hidden, rng, method="greedy",
              objective=factorizer.MAX_CONNECTIONS):
        """Build a K-layer flow whose conditioners share one mask factorization
        of A (``factorizer.factor_multilayer`` with ``method`` and
        ``objective``) but are independently initialized.

        Each conditioner's output layer starts at zero, so every layer begins
        as the identity map.  Without this, the per-layer log-scales compound
        multiplicatively through the stack and deep flows start (and often
        stay) in a numerically explosive regime.
        """
        A = adjacency_mod.validate(A)
        rng = np.random.default_rng(rng)
        masks = factorizer.factor_multilayer(A, hidden, method, objective)
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
    Jacobian.  ``x`` is a batch already checked by ``neural._as_batch``, so
    the conditioners run through ``MaskedMLP._layers``, which checks no
    level again.  A value that overflows on the way leaves z non-finite,
    without a numpy warning: ``to_noise`` and ``_abduct`` raise on it
    (``_check_noise``), while ``nll`` and training return it.  Training
    passes ``work``, each conditioner's layer buffers, and a list ``tape``
    that each layer, data side first, appends its log-scales s and exp(-s)
    to for the backward pass.
    """
    log_det = np.full(x.shape[0], -float(np.sum(np.log(flow.sigma))))
    with np.errstate(over="ignore", invalid="ignore"):
        levels = [(x - flow.mu) / flow.sigma]
        for k in reversed(range(len(flow.layers))):
            out = flow.layers[k]._layers(levels[-1], None if work is None else work[k])
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


def _check_noise(z):
    """Raise NonFiniteInputError unless the noise of a data-to-noise pass is
    finite; a level that overflowed on the way leaves its coordinate of z
    non-finite."""
    if not np.isfinite(z).all():
        raise NonFiniteInputError("non-finite value in the data-to-noise pass")


def _nll(z, log_det):
    """Per-sample NLL from base noise z under the standard normal and the
    log-det of the data-to-noise map; a non-finite z gives +inf or NaN,
    without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * np.sum(z * z, axis=-1) + z.shape[-1] * neural.HALF_LOG_2PI - log_det


def to_noise(flow, x):
    """Map data to base noise in one parallel pass per layer.

    Returns (z, log_det) where log_det is the per-sample log |det dz/dx|,
    including the standardization Jacobian.  Finite data that overflows on
    the way raises NonFiniteInputError.
    """
    x, squeeze = neural._as_batch(x, flow.dim)
    (z,), log_det = _to_noise(flow, x, keep_levels=False)
    _check_noise(z)
    return (z[0], log_det[0]) if squeeze else (z, log_det)


def _abduct(flow, x):
    """The levels [z, ..., u] of the checked batch ``x`` for ``_reconstruct``,
    coordinate-major (``_empty_levels``); finite data that overflows on the
    way raises NonFiniteInputError."""
    rows, _ = _to_noise(flow, x, keep_levels=True)
    _check_noise(rows[0])
    levels = _empty_levels(flow, len(x))
    for level, lv in zip(levels, rows):
        level[:-1] = lv.T
    return levels


def _dependencies(flow):
    """(d, d) booleans: entry (k, m) is set when some layer's shift or
    log-scale for coordinate k reads coordinate m, by ``neural.support``.

    This reads the weights, not ``flow.adjacency``: a checkpoint whose
    weights add an edge below the diagonal is still inverted in a valid
    order (``_Plan`` refuses one on or above it).  Each query, or report of
    many queries, computes it once; it is not cached on the flow, because
    training changes the weights.
    """
    d = flow.dim
    dep = np.zeros((d, d), dtype=bool)
    for net in flow.layers:
        reach = neural.support(net)
        dep |= reach[:d] | reach[d:]
    return dep


def _descendants(dep, j):
    """(d,) booleans: coordinate j and every coordinate that reads it under
    ``dep``, directly or through others.  ``dep`` is strictly lower
    triangular, as ``_Plan`` checks."""
    reach = np.zeros(dep.shape[0], dtype=bool)
    reach[j] = True
    for k in range(j + 1, len(reach)):
        reach[k] = dep[k, reach].any()
    return reach


def _generations(dep, j=None):
    """Every coordinate, or with ``j`` only j and its descendants
    (``_descendants``), grouped into DAG generations, as index arrays.

    Generation 0 holds the coordinates with no parent among those grouped;
    each later one holds those whose parents there all sit in earlier
    generations.  ``dep`` is strictly lower triangular, as ``_Plan`` checks.
    """
    d = dep.shape[0]
    ks = np.arange(d) if j is None else np.flatnonzero(_descendants(dep, j))
    depth = np.zeros(d, dtype=np.int64)
    for i, k in enumerate(ks):
        parents = ks[:i][dep[k, ks[:i]]]
        if parents.size:
            depth[k] = depth[parents].max() + 1
    depth = depth[ks]
    # Depth g > 0 implies a parent at depth g - 1, so no generation is empty.
    return [ks[depth == g] for g in range(depth.max(initial=-1) + 1)]


class _Plan:
    """The noise-to-data plan of one flow at its current weights, built once
    per query or report: ``dep`` from ``_dependencies``, the generations of
    every coordinate or of one coordinate's descendants (``_generations``),
    the slices of each conditioner that each generation reads and the
    activation buffers its passes write into, by sample count.  Each bias
    rides in its weight slice as one more column, which multiplies a row of
    ones: the last row of every level and the first row of every hidden
    buffer, which no pass writes.  Like ``dep`` the plan is never cached on
    the flow, because training changes the weights.  A flow whose output i
    reads a coordinate j >= i raises UpperTriangleNonZeroError.
    """

    def __init__(self, flow):
        self.flow = flow
        self.dep = _dependencies(flow)
        adjacency_mod.validate(self.dep)
        self._generations, self._steps, self._buffers = {}, {}, {}

    def generations(self, j=None):
        if j not in self._generations:
            self._generations[j] = _generations(self.dep, j)
        return self._generations[j]

    def buffers(self, net, n):
        """The flat activation buffers of ``net``'s widths over n samples,
        shared by every pass of those widths: per hidden layer (width + 1) * n
        entries, the first n of them a row of ones, then 2d * n for the
        output layer."""
        widths = tuple(len(b) for b in net.biases)
        key = widths, n
        if key not in self._buffers:
            hidden = [np.empty((w + 1) * n) for w in widths[:-1]]
            for buf in hidden:
                buf[:n] = 1.0
            self._buffers[key] = hidden + [np.empty(widths[-1] * n)]
        return self._buffers[key]

    def step(self, k, gen, n):
        """Conditioner k's pass on generation ``gen`` over n samples, which
        ``affine`` runs: one (W, out, h) per layer.

        W is a contiguous copy of the weight rows the pass keeps with their
        biases as one more column, last in layer 0, whose input is a level,
        and first in every later layer, whose input is a hidden buffer.  The
        output layer keeps rows ``gen`` and ``d + gen``; walking back, each
        hidden layer keeps the units with a nonzero weight into the units
        kept after it, as ``neural.support`` reads them, and layer 0 every
        input.  A generation whose rows read no hidden unit thus outputs its
        biases times the row of ones, exactly.  ``out`` is the (width, n)
        array the product writes and ``h`` what the next layer reads: the
        front of one of the plan's ``buffers``, for a hidden layer out under
        the row of ones, for the output layer out itself.
        """
        key = (k, gen.tobytes(), n)
        if key not in self._steps:
            net, d = self.flow.layers[k], self.flow.dim
            rows, weights = np.concatenate([gen, gen + d]), []
            for layer in reversed(range(len(net.weights))):
                W, b = net.weights[layer][rows], net.biases[layer][rows, None]
                if layer:
                    rows = np.flatnonzero((W != 0.0).any(axis=0))
                    columns = [b, W[:, rows]]
                else:
                    columns = [W, b]
                weights.insert(0, np.ascontiguousarray(np.hstack(columns)))
            *hidden, last = self.buffers(net, n)
            step = []
            for W, buf in zip(weights[:-1], hidden):
                h = buf[:(len(W) + 1) * n].reshape(len(W) + 1, n)
                step.append((W, h[1:], h))
            out = last[:len(weights[-1]) * n].reshape(len(weights[-1]), n)
            self._steps[key] = step + [(weights[-1], out, out)]
        return self._steps[key]

    def affine(self, k, gen, level):
        """(t, s): conditioner k's shifts and clamped log-scales of generation
        ``gen``, one row per coordinate of ``gen`` and one column per sample,
        from the coordinate-major ``level`` (d + 1, n).

        Each layer is one product W @ h of the sliced weights, bias column
        included, with all n samples, written into the plan's buffers, and a
        ReLU on each hidden layer's (its row of ones stays 1); t and s are
        views of the output buffer, which the next pass overwrites.  Neither
        the level nor the output is checked for non-finite values:
        ``_reconstruct`` checks its answer.
        """
        h = level
        for i, (W, out, nxt) in enumerate(self.step(k, gen, level.shape[1])):
            if i:
                np.maximum(h, 0.0, out=h)
            np.matmul(W, h, out=out)
            h = nxt
        t, s = h[:len(gen)], h[len(gen):]
        s.clip(-neural.LOG_SIGMA_CLAMP, neural.LOG_SIGMA_CLAMP, out=s)
        return t, s


def _reconstruct(plan, levels, pin=None, observed=None):
    """Fill the levels in noise-to-data order, following the ``_Plan`` of
    the flow, and return the data as a C-ordered (n, d) batch.

    ``levels`` is the [V_0 (noise), ..., V_K (standardized data)] list, each
    level coordinate-major, one (d + 1, n) array, or a view of its first n
    columns, over a last row of ones that nothing writes (``_empty_levels``,
    ``_noise_levels``, ``_abduct``), edited in place.  Every coordinate is
    filled, one DAG generation at a time: each layer's conditioner runs once on its level
    (``_Plan.affine``), computing only the units the generation's outputs
    read, over all n columns at once, and the generation's free rows push
    their noise up through the layers.  With ``pin=(j, alpha)`` coordinate j
    is forced to alpha (data units) on the data side and inverted down
    through the layers with the same per-level shifts and scales, and column
    j of the returned data is alpha exactly.  alpha is one value or one
    per column: a report lays several queries side by side in one call, and
    each gets the bits its own call gives wherever BLAS computes each column
    of a product alone (see ``causal.BLOCK_COLUMNS``).  With ``observed``,
    the (n, d) data the levels were abducted from, only the pinned j and its
    descendants under ``plan.dep`` are filled, and written into
    ``observed``, which is returned: every other coordinate keeps its levels
    and its observed values bitwise (a counterfactual).
    A coordinate's conditioner reads only its parents (the plan refuses any
    other flow), which are final before its generation starts, so rows not
    yet filled are harmless as long as they are finite.  The passes drop
    terms whose weight is exactly 0, multiply in the other orientation and
    add each bias inside the product, so they match full row-major
    conditioner passes up to the order of summation.  A non-finite alpha
    raises NonFiniteInputError at entry, and so does a returned batch that
    is not finite (a value that overflowed on the way, for which numpy's
    warnings are silenced).
    """
    flow = plan.flow
    j, alpha = (None, None) if pin is None else pin
    if pin is not None and not 0 <= j < flow.dim:
        raise InvalidPairError(f"intervention index {j} outside 0..{flow.dim - 1}")
    if pin is not None and not np.isfinite(alpha).all():
        raise NonFiniteInputError(f"intervention value {alpha} is not finite")
    K, n = len(flow.layers), levels[0].shape[1]
    gens = plan.generations(None if observed is None else j)
    # An overflow leaves a non-finite value, which the check below raises on.
    with np.errstate(over="ignore", invalid="ignore"):
        for gen in gens:
            at_pin = gen == j
            free, pinned = gen[~at_pin], gen[at_pin]
            down = []
            for lvl in range(1, K + 1):
                t, s = plan.affine(lvl - 1, gen, levels[lvl])
                if pinned.size:
                    # Copies: the next pass overwrites the plan's buffers.
                    down.append((t[at_pin], s[at_pin]))
                    t, s = t[~at_pin], s[~at_pin]
                if free.size:
                    np.exp(s, out=s)
                    s *= levels[lvl - 1][free]
                    s += t
                    levels[lvl][free] = s
            if pinned.size:
                levels[K][j] = (alpha - flow.mu[j]) / flow.sigma[j]
                for lvl, (t, s) in zip(range(K, 0, -1), reversed(down)):
                    levels[lvl - 1][pinned] = (levels[lvl][pinned] - t) * np.exp(-s)
        if observed is None:
            x = np.multiply(levels[K][:-1].T, flow.sigma, out=np.empty((n, flow.dim)))
            x += flow.mu
        else:
            x, filled = observed, np.concatenate(gens)
            x[:, filled] = levels[K][filled].T * flow.sigma[filled] + flow.mu[filled]
    if pin is not None:
        x[:, j] = alpha
    if not np.isfinite(x).all():
        raise NonFiniteInputError("non-finite value in the noise-to-data pass")
    return x


def _empty_levels(flow, n):
    """K + 1 levels of n samples for ``_reconstruct``, each a coordinate-major
    (d + 1, n) array: zeros, which a row not yet filled must hold finite,
    over a last row of ones, which each pass's layer-0 product reads against
    its bias column.  One allocation holds them all."""
    levels = np.zeros((len(flow.layers) + 1, flow.dim + 1, n))
    levels[:, -1] = 1.0
    return list(levels)


def _noise_levels(flow, z):
    """The levels [z, 0, ..., 0] of the noise batch ``z`` (n, d) for
    ``_reconstruct`` (``_empty_levels``)."""
    levels = _empty_levels(flow, len(z))
    levels[0][:-1] = z.T
    return levels


def from_noise(flow, z):
    """Map base noise to data in one pass per DAG generation: each layer's
    conditioner runs once per generation."""
    z, squeeze = neural._as_batch(z, flow.dim)
    x = _reconstruct(_Plan(flow), _noise_levels(flow, z))
    return x[0] if squeeze else x


def nll(flow, x):
    """Per-sample negative log-likelihood under the flow.  Finite data that
    overflows in the data-to-noise pass gets +inf or NaN, without an error,
    so training stops on it (``neural._optimize``)."""
    x, squeeze = neural._as_batch(x, flow.dim)
    (z,), log_det = _to_noise(flow, x, keep_levels=False)
    per = _nll(z, log_det)
    return per[0] if squeeze else per


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


def audit_flow(flow):
    """Audit every conditioner: a conditioner whose recorded pattern differs
    from the flow's shared adjacency has each differing pair flagged with
    NaN; any other goes through ``neural.audit_invariance``.  Returns a list
    of (layer_index, i, j, grad_bound); no forward pass runs.
    """
    violations = []
    for k, net in enumerate(flow.layers):
        if np.array_equal(net.pattern, flow.adjacency):
            violations += [(k, i, j, bound) for i, j, bound in neural.audit_invariance(net)]
        else:
            violations += [(k, int(i), int(j), float("nan"))
                           for i, j in np.argwhere(net.pattern != flow.adjacency)]
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
    A = reader.named_block("adjacency", d, d, valid=adjacency_mod._adjacency_entries,
                           why=adjacency_mod._ENTRIES_WHY)
    mu = reader.named_block("mu", 1, d, valid=np.isfinite,
                            why="mu entries must be finite").ravel()
    sigma = reader.named_block("sigma", 1, d, valid=lambda a: np.isfinite(a) & (a > 0.0),
                               why="sigma entries must be finite and > 0").ravel()
    nets = []
    for k in range(n_layers):
        reader.label(f"conditioner {k}")
        nets.append(neural.read_mlp_body(reader, head="gaussian", dim=d))
    return AffineFlow(A, nets, mu=mu, sigma=sigma)


def load_flow(path):
    """Read a flow checkpoint; any other kind raises ParseError."""
    return textio.read_checkpoint(path, {"flow": _read_flow_body})


def load_checkpoint(path):
    """Read a checkpoint of either kind: a MaskedMLP or an AffineFlow."""
    return textio.read_checkpoint(path, {"mlp": neural.read_mlp_body,
                                         "flow": _read_flow_body})
