"""Linear SEM ground truth and causal query evaluation for flows.

The SEM is x_i = sum_{j<i} w_ij x_j + eps_i with unit Gaussian noise.  Its
samples, interventional means and samples, and counterfactuals (by noise
abduction) all run one ancestral loop, ``_ancestral``.  Flow-side queries
call the flow's one noise-to-data routine, ``flow._reconstruct``, which takes
one pass per DAG generation: the intervened coordinate is pinned on the data
side (its intermediate values are derived by inverting its per-coordinate
affine chain), all other coordinates push their noise forward, a generation
at a time.  The inversion runs coordinate-major: the noise is drawn (n, d)
and the observations abducted row-major, and ``_reconstruct`` gets
transposed copies (``flow._noise_levels``, ``flow._abduct``) and gives back a
C-ordered (n, d) batch.  Counterfactuals, on either side, refill only j and
its descendants (abduction, action, prediction) and return every other
coordinate bitwise equal to the observation.  ``imse_report`` and
``cmse_report`` score the (j, alpha) queries through one loop, ``_report``,
which hands the flow a target's values in blocks of up to BLOCK_COLUMNS
columns, one ``_reconstruct`` call per block.
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


def _ancestral(sem, x, start=0, pin=None, observed=None):
    """Fill columns start..d-1 of ``x`` (one row or a batch) in index order:
    x_m = W_m x + (the noise x_m holds on entry), or alpha for the pinned
    coordinate of ``pin=(j, alpha)``.  With ``observed``, a batch of x's
    shape, only start and its descendants under the nonzero weights are
    filled, and every other column is first copied from ``observed``.
    Edits ``x`` in place and returns it."""
    j, alpha = (None, None) if pin is None else pin
    if pin is not None and not 0 <= j < sem.dim:
        raise InvalidPairError(f"intervention index {j} outside 0..{sem.dim - 1}")
    filled = np.arange(sem.dim) >= start
    if observed is not None:
        filled = flow_mod._descendants(sem.weights != 0, start)
        x[..., ~filled] = observed[..., ~filled]
    for m in np.flatnonzero(filled):
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
    """Counterfactual values: abduct eps = x - W x, set x_j = alpha and
    re-propagate j's descendants under the nonzero weights; every other
    coordinate is returned bitwise equal to x_obs.  Accepts a single
    observation or a batch."""
    x_obs, squeeze = neural._as_batch(x_obs, sem.dim)
    x = _ancestral(sem, x_obs - x_obs @ sem.weights.T, start=j, pin=(j, alpha),
                   observed=x_obs)
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
    coordinate j to alpha, reconstruct j's descendants.

    Coordinate j equals alpha exactly, its descendants under the flow's
    weights (``flow._Plan.dep``) reuse their abducted noise, and every other
    coordinate, which the intervention cannot affect, is returned bitwise
    equal to x_obs.  Accepts a single observation or a batch.
    """
    x_obs, squeeze = neural._as_batch(x_obs, fl.dim)
    x = flow_mod._reconstruct(flow_mod._Plan(fl), flow_mod._abduct(fl, x_obs), start=j,
                              pin=(j, alpha), observed=x_obs.copy())
    return x[0] if squeeze else x


# ---------------------------------------------------------------------------
# Aggregate causal error metrics.

# Draws behind each Monte-Carlo ground-truth mean of imse_report.
GT_SAMPLES = 1000
# The reports answer a target's values in blocks of max(1, BLOCK_COLUMNS // n),
# side by side in one ``flow._reconstruct`` call of up to max(n, BLOCK_COLUMNS)
# columns: per-pass overhead dominates the inversion, and a block's working
# set grows with its columns (on the benchmark's flow-serve workload, blocks
# of 2 values of 1,000 samples raise peak memory 2.2 %, blocks of 4 7.8 %).
# A query's answer is bitwise its own call's wherever BLAS computes each
# column of a product alone.  With OpenBLAS 0.3.31 on x86-64 only the last
# n mod 8 columns of a product round differently from a wider product's:
# with n a multiple of 8 each answer keeps its bits, and otherwise a
# query's last n mod 8 samples may move by rounding.
BLOCK_COLUMNS = 2048


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
    ``intervention_values(value_count)``, in that order.  Those with
    j < d - 1 go to ``answers`` in blocks (j, first, alphas) of at most
    max(1, BLOCK_COLUMNS // n) of one target's values, ``first`` the index
    of the block's first query; ``answers(blocks)`` yields per block, per
    query, the SEM's values and the flow's (one row each, or a batch of
    ``n`` rows).  Each target i > j scores the mean squared gap between
    their column i; a query at j = d - 1 has no target and is not answered.
    The total divides by value_count * d * (d+1) / 2.  ``check_queries``
    runs before ``answers``.
    """
    check_queries(fl, sem, value_count, n)
    d, values = sem.dim, intervention_values(value_count)
    size = max(1, BLOCK_COLUMNS // n)
    blocks = [(j, j * value_count + lo, values[lo:lo + size])
              for j in range(d - 1) for lo in range(0, value_count, size)]
    answered = answers(blocks)
    total = 0.0
    breakdown = []
    for j, _, alphas in blocks:
        for alpha, (truth, model) in zip(alphas, next(answered)):
            errs = {i: float(np.mean((truth[..., i] - model[..., i]) ** 2))
                    for i in range(j + 1, d)}
            total += sum(errs.values())
            breakdown.append({"j": j, "alpha": float(alpha), "errors": errs})
    breakdown += [{"j": d - 1, "alpha": float(alpha), "errors": {}} for alpha in values]
    return total / (value_count * d * (d + 1) / 2.0), breakdown


def imse_report(fl, sem, value_count=8, n_samples=1000, rng=None, ground_truth="exact"):
    """Total interventional MSE and its per-query breakdown.

    For every pair (j, alpha) the flow's interventional mean over n_samples
    draws is compared against the SEM's exact mean (or a Monte-Carlo mean of
    GT_SAMPLES draws with ground_truth="sample") for every downstream target
    i > j.  The total divides by value_count * d * (d+1) / 2.  RNG streams
    are pre-split per query, so results do not depend on evaluation order.
    A block of a target's values (``BLOCK_COLUMNS``) runs as one
    ``flow._reconstruct`` call, each query's noise, drawn from its own
    stream, in its own n_samples columns.
    """
    if ground_truth not in ("exact", "sample"):
        raise InvalidDimError(f"unknown ground_truth mode {ground_truth!r}")

    def answers(blocks):
        streams = np.random.default_rng(rng).spawn(value_count * fl.dim)
        plan = flow_mod._Plan(fl)
        for j, first, alphas in blocks:
            flow_rngs, sem_rngs = zip(*(s.spawn(2) for s in streams[first:first + len(alphas)]))
            z = np.concatenate([r.standard_normal((n_samples, fl.dim)) for r in flow_rngs])
            xs = flow_mod._reconstruct(plan, flow_mod._noise_levels(fl, z),
                                       pin=(j, np.repeat(alphas, n_samples)))
            answered = []
            for alpha, sem_rng, x in zip(alphas, sem_rngs, np.split(xs, len(alphas))):
                if ground_truth == "exact":
                    gt = sem_intervene_mean_vector(sem, j, alpha)
                else:
                    gt = sem_intervene_sample(sem, j, alpha, GT_SAMPLES, sem_rng).mean(axis=0)
                answered.append((gt, x.mean(axis=0)))
            yield answered

    return _report(fl, sem, value_count, n_samples, answers)


def cmse_report(fl, sem, value_count=8, n_obs=1000, rng=None):
    """Total counterfactual MSE and its per-query breakdown.

    Observations are drawn once from the SEM and their flow noise abducted
    once; for each (j, alpha) both models answer the same counterfactual and
    downstream targets are compared by the mean squared gap over
    observations.  Denominator as in imse_report.  Each model refills only
    j's descendants, so a target that does not descend from j under both
    scores exactly 0.0.  A block of a target's values (``BLOCK_COLUMNS``)
    runs as one ``flow._reconstruct`` call on copies of the abducted levels
    side by side.
    """
    def answers(blocks):
        plan = flow_mod._Plan(fl)
        x_obs, _ = neural._as_batch(sem_sample(sem, n_obs, rng), fl.dim)
        levels = flow_mod._abduct(fl, x_obs)
        for j, _, alphas in blocks:
            copies = len(alphas)
            fc = flow_mod._reconstruct(plan, [np.tile(lv, copies) for lv in levels], start=j,
                                       pin=(j, np.repeat(alphas, n_obs)),
                                       observed=np.tile(x_obs, (copies, 1)))
            yield [(sem_counterfactual(sem, x_obs, j, alpha), x)
                   for alpha, x in zip(alphas, np.split(fc, copies))]

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
