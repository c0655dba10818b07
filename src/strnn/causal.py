"""Linear SEM ground truth and causal query evaluation for flows.

The SEM is x_i = sum_{j<i} w_ij x_j + eps_i with unit Gaussian noise, so
interventional means follow by forward substitution and counterfactuals by
noise abduction.  Flow-side queries share one reconstruction that takes one
pass per DAG generation: the intervened coordinate is pinned on the data side
(its intermediate values are derived by inverting its per-coordinate affine
chain), all other coordinates push their noise forward, a generation at a
time.
"""

from dataclasses import dataclass

import numpy as np

from . import flow as flow_mod
from . import neural
from .errors import DimMismatchError, InvalidDimError, InvalidPairError


@dataclass
class LinearSEM:
    """Gaussian linear structural model with strictly lower-triangular weights."""

    weights: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.weights, dtype=np.float64)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise InvalidDimError("weights must be square")
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


def sem_sample(sem, n, rng):
    """Ancestral samples from the observational distribution."""
    rng = np.random.default_rng(rng)
    d = sem.dim
    x = rng.standard_normal((n, d))
    for i in range(d):
        x[:, i] += x @ sem.weights[i]
    return x


def sem_intervene_mean_vector(sem, j, alpha):
    """Exact means of every coordinate under do(x_j = alpha), by forward
    substitution; upstream coordinates keep their observational mean 0."""
    d = sem.dim
    if not (0 <= j < d):
        raise InvalidPairError(f"intervention index {j} outside 0..{d - 1}")
    mu = np.zeros(d)
    mu[j] = alpha
    for m in range(j + 1, d):
        mu[m] = sem.weights[m] @ mu
    return mu


def sem_intervene_mean(sem, j, alpha, i):
    """E[x_i | do(x_j = alpha)] for a downstream target i > j."""
    if not (0 <= j < i < sem.dim):
        raise InvalidPairError(f"need 0 <= j < i < d, got i={i}, j={j}")
    return float(sem_intervene_mean_vector(sem, j, alpha)[i])


def sem_intervene_sample(sem, j, alpha, n, rng):
    """Monte-Carlo interventional samples (ancestral, with x_j clamped)."""
    if not (0 <= j < sem.dim):
        raise InvalidPairError(f"intervention index {j} outside 0..{sem.dim - 1}")
    rng = np.random.default_rng(rng)
    x = rng.standard_normal((n, sem.dim))
    for i in range(sem.dim):
        if i == j:
            x[:, i] = alpha
        else:
            x[:, i] += x @ sem.weights[i]
    return x


def sem_counterfactual(sem, x_obs, j, alpha):
    """Counterfactual values: abduct eps = x - W x, set x_j = alpha, re-propagate
    downstream.  Accepts a single observation or a batch."""
    x_obs = np.asarray(x_obs, dtype=np.float64)
    squeeze = x_obs.ndim == 1
    if squeeze:
        x_obs = x_obs[None, :]
    d = sem.dim
    if x_obs.shape[1] != d:
        raise DimMismatchError(f"observations must have width {d}")
    if not (0 <= j < d):
        raise InvalidPairError(f"intervention index {j} outside 0..{d - 1}")
    eps = x_obs - x_obs @ sem.weights.T
    x = x_obs.copy()
    x[:, j] = alpha
    for m in range(j + 1, d):
        x[:, m] = x @ sem.weights[m] + eps[:, m]
    return x[0] if squeeze else x


# ---------------------------------------------------------------------------
# Flow-side queries.

def _check_flow_index(fl, j):
    if not (0 <= j < fl.dim):
        raise InvalidPairError(f"intervention index {j} outside 0..{fl.dim - 1}")


def flow_intervene_sample(fl, j, alpha, n, rng):
    """Samples from the flow's interventional distribution under do(x_j = alpha).

    Coordinate j is pinned to alpha exactly; every other coordinate draws its
    own noise and is reconstructed in one pass per DAG generation, reading
    pinned/upstream values through the conditioners.
    """
    _check_flow_index(fl, j)
    return _intervene_sample(fl, j, alpha, n, rng, flow_mod._dependencies(fl))


def _intervene_sample(fl, j, alpha, n, rng, dep):
    """flow_intervene_sample given the flow's ``flow._dependencies``, so one
    schedule can serve many queries."""
    rng = np.random.default_rng(rng)
    z = rng.standard_normal((n, fl.dim))
    levels = [z] + [np.zeros_like(z) for _ in fl.layers]
    pin_u = (alpha - fl.mu[j]) / fl.sigma[j]
    flow_mod._reconstruct(fl, levels, pins={j: pin_u}, start=0, dep=dep)
    x = levels[-1] * fl.sigma + fl.mu
    x[:, j] = alpha
    return x


def flow_counterfactual(fl, x_obs, j, alpha):
    """Counterfactual under the flow: abduct all noise from x_obs, pin
    coordinate j to alpha, reconstruct downstream.

    Coordinates before j are returned bitwise equal to x_obs (they cannot be
    affected), coordinate j equals alpha exactly, and descendants reuse their
    abducted noise.  Accepts a single observation or a batch.
    """
    _check_flow_index(fl, j)
    x_obs = np.asarray(x_obs, dtype=np.float64)
    squeeze = x_obs.ndim == 1
    if squeeze:
        x_obs = x_obs[None, :]
    _, _, levels = flow_mod.to_noise(fl, x_obs, keep_levels=True)
    x = _counterfactual_from_levels(fl, x_obs, levels, j, alpha,
                                    flow_mod._dependencies(fl))
    return x[0] if squeeze else x


def _counterfactual_from_levels(fl, x_obs, levels, j, alpha, dep):
    """flow_counterfactual on a batch whose to_noise levels and
    ``flow._dependencies`` are given; the levels are copied, so one abduction
    and one schedule can serve many queries."""
    levels = [lv.copy() for lv in levels]
    pin_u = (alpha - fl.mu[j]) / fl.sigma[j]
    flow_mod._reconstruct(fl, levels, pins={j: pin_u}, start=j, dep=dep)
    x = levels[-1] * fl.sigma + fl.mu
    x[:, :j] = x_obs[:, :j]
    x[:, j] = alpha
    return x


# ---------------------------------------------------------------------------
# Aggregate causal error metrics.

def intervention_values(value_count):
    """Intervention values around the SEM's observational mean, which is 0:
    integers with zero excluded; the default count 8 gives
    {-4, ..., -1, 1, ..., 4}."""
    if value_count < 1:
        raise InvalidDimError("value_count must be >= 1")
    offs = [v for v in range(-((value_count + 1) // 2), value_count // 2 + 1) if v != 0]
    return np.asarray(offs, dtype=np.float64)


def _check_dims(fl, sem):
    if fl.dim != sem.dim:
        raise DimMismatchError(f"flow width {fl.dim} != SEM width {sem.dim}")


def imse_report(fl, sem, value_count=8, n_samples=1000, rng=None,
                ground_truth="exact", gt_samples=1000):
    """Total interventional MSE and its per-query breakdown.

    For every pair (j, alpha) the flow's interventional mean over n_samples
    draws is compared against the SEM's exact mean (or a Monte-Carlo mean
    with ground_truth="sample") for every downstream target i > j.  The total
    divides by value_count * d * (d+1) / 2.  RNG streams are pre-split per
    query, so results do not depend on evaluation order.
    """
    _check_dims(fl, sem)
    if ground_truth not in ("exact", "sample"):
        raise InvalidDimError(f"unknown ground_truth mode {ground_truth!r}")
    d = sem.dim
    values = intervention_values(value_count)
    queries = [(j, float(a)) for j in range(d) for a in values]
    streams = np.random.default_rng(rng).spawn(len(queries))
    dep = flow_mod._dependencies(fl)
    total = 0.0
    breakdown = []
    for (j, alpha), stream in zip(queries, streams):
        sub = stream.spawn(2)
        xs = _intervene_sample(fl, j, alpha, n_samples, sub[0], dep)
        flow_means = xs.mean(axis=0)
        if ground_truth == "exact":
            gt = sem_intervene_mean_vector(sem, j, alpha)
        else:
            gt = sem_intervene_sample(sem, j, alpha, gt_samples, sub[1]).mean(axis=0)
        errs = {int(i): float((gt[i] - flow_means[i]) ** 2) for i in range(j + 1, d)}
        total += sum(errs.values())
        breakdown.append({"j": j, "alpha": alpha, "errors": errs})
    denom = value_count * d * (d + 1) / 2.0
    return total / denom, breakdown


def total_imse(fl, sem, value_count=8, n_samples=1000, rng=None,
               ground_truth="exact", gt_samples=1000):
    return imse_report(fl, sem, value_count, n_samples, rng,
                       ground_truth, gt_samples)[0]


def cmse_report(fl, sem, value_count=8, n_obs=1000, rng=None):
    """Total counterfactual MSE and its per-query breakdown.

    Observations are drawn once from the SEM and their flow noise abducted
    once; for each (j, alpha) both models answer the same counterfactual and
    downstream targets are compared by the mean squared gap over
    observations.  Denominator as in imse_report.
    """
    _check_dims(fl, sem)
    d = sem.dim
    x_obs = sem_sample(sem, n_obs, rng)
    _, _, levels = flow_mod.to_noise(fl, x_obs, keep_levels=True)
    dep = flow_mod._dependencies(fl)
    values = intervention_values(value_count)
    total = 0.0
    breakdown = []
    for j in range(d):
        for alpha in values:
            fc = _counterfactual_from_levels(fl, x_obs, levels, j, float(alpha), dep)
            sc = sem_counterfactual(sem, x_obs, j, float(alpha))
            errs = {int(i): float(np.mean((sc[:, i] - fc[:, i]) ** 2))
                    for i in range(j + 1, d)}
            total += sum(errs.values())
            breakdown.append({"j": j, "alpha": float(alpha), "errors": errs})
    denom = value_count * d * (d + 1) / 2.0
    return total / denom, breakdown


def total_cmse(fl, sem, value_count=8, n_obs=1000, rng=None):
    return cmse_report(fl, sem, value_count, n_obs, rng)[0]


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
