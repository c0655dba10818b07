"""Linear SEM ground truth and causal query evaluation for flows.

The SEM is x_i = sum_{j<i} w_ij x_j + eps_i with unit Gaussian noise.  Its
samples, interventional means and samples, and counterfactuals (by noise
abduction) all run one ancestral loop, ``_ancestral``.  Flow-side queries
call the flow's one noise-to-data routine, ``flow._reconstruct``, which takes
one pass per DAG generation: the intervened coordinate is pinned on the data
side (its intermediate values are derived by inverting its per-coordinate
affine chain), all other coordinates push their noise forward, a generation
at a time.  The inversion runs coordinate-major: the noise is drawn (n, d)
and the observations abducted row-major, as before, and each query hands
``_reconstruct`` transposed copies (``flow._noise_levels``; ``cmse_report``
transposes its abducted levels once per report, in ``flow._abduct``) and
gets back a C-ordered (n, d) batch.  ``imse_report`` and ``cmse_report``
score the (j, alpha) queries through one loop, ``_report``.
"""

from dataclasses import dataclass

import numpy as np

from . import flow as flow_mod
from . import neural
from .errors import DimMismatchError, InvalidDimError, InvalidPairError, NonFiniteInputError


@dataclass
class LinearSEM:
    """Gaussian linear structural model with finite, strictly lower-triangular
    weights."""

    weights: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.weights, dtype=np.float64)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise InvalidDimError("weights must be square")
        if not np.isfinite(W).all():
            raise NonFiniteInputError("weights must be finite")
        if np.triu(W).any():
            raise InvalidDimError("weights must be strictly lower triangular")
        self.weights = W

    @property
    def dim(self):
        return self.weights.shape[0]

    def adjacency(self):
        return (self.weights != 0).astype(np.int64)


def gen_linear_sem(d, cutoff=1.5, rng=None):
    """Random SEM: below-diagonal weights uniform on (-2, 2), zeroed when
    |w| < cutoff (the default keeps each edge with probability 1/4)."""
    if d < 1:
        raise InvalidDimError("d must be >= 1")
    rng = np.random.default_rng(rng)
    W = np.tril(rng.uniform(-2.0, 2.0, size=(d, d)), k=-1)
    W[np.abs(W) < cutoff] = 0.0
    return LinearSEM(W)


def _ancestral(sem, x, start=0, pin=None):
    """Fill columns start..d-1 of ``x`` (one row or a batch) in index order:
    x_m = W_m x + (the noise x_m holds on entry), or alpha for the pinned
    coordinate of ``pin=(j, alpha)``.  Edits ``x`` in place and returns it."""
    j, alpha = (None, None) if pin is None else pin
    if pin is not None and not 0 <= j < sem.dim:
        raise InvalidPairError(f"intervention index {j} outside 0..{sem.dim - 1}")
    for m in range(start, sem.dim):
        if m == j:
            x[..., m] = alpha
        else:
            x[..., m] += x @ sem.weights[m]
    return x


def sem_sample(sem, n, rng):
    """Ancestral samples from the observational distribution."""
    return _ancestral(sem, np.random.default_rng(rng).standard_normal((n, sem.dim)))


def sem_intervene_mean_vector(sem, j, alpha):
    """Exact means of every coordinate under do(x_j = alpha), by forward
    substitution; upstream coordinates keep their observational mean 0."""
    return _ancestral(sem, np.zeros(sem.dim), start=j, pin=(j, alpha))


def sem_intervene_sample(sem, j, alpha, n, rng):
    """Monte-Carlo interventional samples (ancestral, with x_j clamped)."""
    return _ancestral(sem, np.random.default_rng(rng).standard_normal((n, sem.dim)),
                      pin=(j, alpha))


def sem_counterfactual(sem, x_obs, j, alpha):
    """Counterfactual values: abduct eps = x - W x, set x_j = alpha, re-propagate
    downstream.  Accepts a single observation or a batch."""
    x_obs, squeeze = neural._as_batch(x_obs, sem.dim)
    # The abducted noise from j on, the observations before it.
    x = x_obs - x_obs @ sem.weights.T
    x[:, :j] = x_obs[:, :j]
    x = _ancestral(sem, x, start=j, pin=(j, alpha))
    return x[0] if squeeze else x


# ---------------------------------------------------------------------------
# Flow-side queries.

def flow_intervene_sample(fl, j, alpha, n, rng):
    """Samples from the flow's interventional distribution under do(x_j = alpha).

    Coordinate j is pinned to alpha exactly; every other coordinate draws its
    own noise and is reconstructed in one pass per DAG generation, reading
    pinned/upstream values through the conditioners.
    """
    z = np.random.default_rng(rng).standard_normal((n, fl.dim))
    return flow_mod._reconstruct(flow_mod._Plan(fl), flow_mod._noise_levels(fl, z),
                                 pin=(j, alpha))


def flow_counterfactual(fl, x_obs, j, alpha):
    """Counterfactual under the flow: abduct all noise from x_obs, pin
    coordinate j to alpha, reconstruct downstream.

    Coordinates before j are returned bitwise equal to x_obs (they cannot be
    affected), coordinate j equals alpha exactly, and descendants reuse their
    abducted noise.  Accepts a single observation or a batch.
    """
    x_obs, squeeze = neural._as_batch(x_obs, fl.dim)
    levels = flow_mod._abduct(fl, x_obs)
    x = flow_mod._reconstruct(flow_mod._Plan(fl), levels, start=j, pin=(j, alpha))
    x[:, :j] = x_obs[:, :j]
    return x[0] if squeeze else x


# ---------------------------------------------------------------------------
# Aggregate causal error metrics.

# Draws behind each Monte-Carlo ground-truth mean of imse_report.
GT_SAMPLES = 1000


def intervention_values(value_count):
    """Intervention values around the SEM's observational mean, which is 0:
    integers with zero excluded; the default count 8 gives
    {-4, ..., -1, 1, ..., 4}."""
    if value_count < 1:
        raise InvalidDimError("value_count must be >= 1")
    offs = [v for v in range(-((value_count + 1) // 2), value_count // 2 + 1) if v != 0]
    return np.asarray(offs, dtype=np.float64)


def check_queries(fl, sem, value_count, n):
    """Raise unless a report can run: the flow and the SEM share a width,
    ``value_count`` >= 1 and each query gets ``n`` >= 1 samples."""
    if fl.dim != sem.dim:
        raise DimMismatchError(f"flow width {fl.dim} != SEM width {sem.dim}")
    if n < 1:
        raise InvalidDimError(f"each query needs at least 1 sample, got {n}")
    intervention_values(value_count)


def _report(fl, sem, value_count, n, answers):
    """The loop behind imse_report and cmse_report: (total, breakdown).

    The queries are every (j, alpha), j over the coordinates and alpha over
    ``intervention_values(value_count)``.  ``answers(queries)`` yields, per
    query with j < d - 1, the SEM's values and the flow's (one row each, or
    a batch of ``n`` rows); each target i > j scores the mean squared gap
    between their column i.  The total divides by value_count * d * (d+1) / 2.
    ``check_queries`` runs before ``answers``.
    """
    check_queries(fl, sem, value_count, n)
    d = sem.dim
    queries = [(j, float(a)) for j in range(d) for a in intervention_values(value_count)]
    answered = answers([(j, alpha) for j, alpha in queries if j < d - 1])
    total = 0.0
    breakdown = []
    for j, alpha in queries:
        truth, model = next(answered) if j < d - 1 else (None, None)
        errs = {i: float(np.mean((truth[..., i] - model[..., i]) ** 2))
                for i in range(j + 1, d)}
        total += sum(errs.values())
        breakdown.append({"j": j, "alpha": alpha, "errors": errs})
    return total / (value_count * d * (d + 1) / 2.0), breakdown


def imse_report(fl, sem, value_count=8, n_samples=1000, rng=None, ground_truth="exact"):
    """Total interventional MSE and its per-query breakdown.

    For every pair (j, alpha) the flow's interventional mean over n_samples
    draws is compared against the SEM's exact mean (or a Monte-Carlo mean of
    GT_SAMPLES draws with ground_truth="sample") for every downstream target
    i > j.  The total divides by value_count * d * (d+1) / 2.  RNG streams
    are pre-split per query, so results do not depend on evaluation order.
    """
    if ground_truth not in ("exact", "sample"):
        raise InvalidDimError(f"unknown ground_truth mode {ground_truth!r}")

    def answers(queries):
        streams = np.random.default_rng(rng).spawn(value_count * fl.dim)
        plan = flow_mod._Plan(fl)
        for (j, alpha), stream in zip(queries, streams):
            flow_rng, sem_rng = stream.spawn(2)
            z = flow_rng.standard_normal((n_samples, fl.dim))
            xs = flow_mod._reconstruct(plan, flow_mod._noise_levels(fl, z), pin=(j, alpha))
            if ground_truth == "exact":
                gt = sem_intervene_mean_vector(sem, j, alpha)
            else:
                gt = sem_intervene_sample(sem, j, alpha, GT_SAMPLES, sem_rng).mean(axis=0)
            yield gt, xs.mean(axis=0)

    return _report(fl, sem, value_count, n_samples, answers)


def cmse_report(fl, sem, value_count=8, n_obs=1000, rng=None):
    """Total counterfactual MSE and its per-query breakdown.

    Observations are drawn once from the SEM and their flow noise abducted
    once; for each (j, alpha) both models answer the same counterfactual and
    downstream targets are compared by the mean squared gap over
    observations.  Denominator as in imse_report.
    """
    def answers(queries):
        plan = flow_mod._Plan(fl)
        x_obs, _ = neural._as_batch(sem_sample(sem, n_obs, rng), fl.dim)
        levels = flow_mod._abduct(fl, x_obs)
        for j, alpha in queries:
            fc = flow_mod._reconstruct(plan, [lv.copy() for lv in levels], start=j,
                                       pin=(j, alpha))
            fc[:, :j] = x_obs[:, :j]
            yield sem_counterfactual(sem, x_obs, j, alpha), fc

    return _report(fl, sem, value_count, n_obs, answers)


def flow_from_linear_sem(sem):
    """Exact flow for a linear SEM: one layer, linear conditioner with zero
    log-scales and shifts t = W x, identity standardization.  Its noise
    variables coincide with the SEM's and every causal query matches the
    closed form up to float rounding."""
    d = sem.dim
    A = sem.adjacency()
    mask = np.vstack([A, A]).astype(np.float64)
    W_cond = np.zeros((2 * d, d))
    W_cond[:d] = sem.weights
    net = neural.MaskedMLP([W_cond], [np.zeros(2 * d)], [mask], "gaussian", A)
    return flow_mod.AffineFlow(A, [net])
