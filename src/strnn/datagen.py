"""Synthetic dataset families with known ground truth.

Every generator returns the data together with its adjacency and the exact
generating coefficients, so oracles (true NLL, causal ground truth) can be
evaluated downstream.  Datasets are written as a plain-text matrix with an
``n d kind`` header plus a JSON sidecar holding the spec, seed, coefficient
arrays, and the frozen train/val/test split.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import adjacency as adjacency_mod
from . import causal, neural
from .errors import ConfigError, InvalidDimError, ParseError
from .version import VERSION


@dataclass
class GeneratedData:
    """Samples plus everything needed to reconstruct their law."""

    x: np.ndarray
    adjacency: np.ndarray
    kind: str                   # "binary" or "real"
    family: str
    params: dict = field(default_factory=dict)


def _sigmoid(t):
    return 1.0 / (1.0 + np.exp(-t))


def gen_binary(A, n, rng):
    """Autoregressive Bernoulli data: p_i = sigmoid(sum_j alpha_ij x_j + c_i)
    with alpha ~ N(0,1) masked by A and intercepts c ~ N(0,1), both drawn
    once per dataset."""
    A = adjacency_mod.validate(A)
    rng = np.random.default_rng(rng)
    d = A.shape[0]
    alpha = rng.standard_normal((d, d)) * A
    c = rng.standard_normal(d)
    x = np.zeros((n, d))
    for i in range(d):
        p = _sigmoid(x @ alpha[i] + c[i])
        x[:, i] = rng.random(n) < p
    return GeneratedData(x, A, "binary", "binary", {"alpha": alpha, "c": c})


def gen_gaussian(A, n, rng):
    """Autoregressive Gaussian data: x_i ~ N(sum_j alpha_ij x_j + c_i, sigma_i^2)
    with sigma_i = |N(0,1)| floored at 0.01."""
    A = adjacency_mod.validate(A)
    rng = np.random.default_rng(rng)
    d = A.shape[0]
    alpha = rng.standard_normal((d, d)) * A
    c = rng.standard_normal(d)
    sigma = np.maximum(np.abs(rng.standard_normal(d)), 0.01)
    x = np.zeros((n, d))
    for i in range(d):
        mu = x @ alpha[i] + c[i]
        x[:, i] = mu + sigma[i] * rng.standard_normal(n)
    return GeneratedData(x, A, "real", "gaussian",
                         {"alpha": alpha, "c": c, "sigma": sigma})


def gen_nonlinear_multimodal(d, n, rng, threshold=0.8):
    """Sparse nonlinear data with multimodal sources.

    The adjacency comes from the random_sparse generator; parentless
    coordinates draw from their own 3-component Gaussian mixture (means
    U(-8,8), stds U(0.01,2), Dirichlet(1,1,1) weights, component resampled
    independently per draw); dependent coordinates follow
    x_i = sqrt(sum_j (w_ij x_j)^2) + N(0,1) with w ~ U(-3,3) masked by A.
    """
    if d < 2:
        raise InvalidDimError("nonlinear multimodal data needs d >= 2")
    rng = np.random.default_rng(rng)
    A = adjacency_mod.gen_random_sparse(d, threshold, rng)
    W = rng.uniform(-3.0, 3.0, size=(d, d)) * A
    parentless = ~A.any(axis=1)
    mix_means = np.zeros((d, 3))
    mix_stds = np.ones((d, 3))
    mix_weights = np.full((d, 3), 1.0 / 3.0)
    x = np.zeros((n, d))
    for i in range(d):
        if parentless[i]:
            mix_means[i] = rng.uniform(-8.0, 8.0, size=3)
            mix_stds[i] = rng.uniform(0.01, 2.0, size=3)
            mix_weights[i] = rng.dirichlet(np.ones(3))
            comp = rng.choice(3, size=n, p=mix_weights[i])
            x[:, i] = mix_means[i][comp] + mix_stds[i][comp] * rng.standard_normal(n)
        else:
            x[:, i] = np.sqrt(((x * W[i]) ** 2).sum(axis=1)) + rng.standard_normal(n)
    params = {"weights": W, "parentless": parentless.astype(np.int64),
              "mix_means": mix_means, "mix_stds": mix_stds,
              "mix_weights": mix_weights}
    return GeneratedData(x, A, "real", "nonlinear_multimodal", params)


def gen_linear_sem_data(d, n, rng, cutoff=1.5):
    """Observational samples from a random linear SEM (unit noise)."""
    rng = np.random.default_rng(rng)
    sem = causal.gen_linear_sem(d, cutoff, rng)
    x = causal.sem_sample(sem, n, rng)
    return GeneratedData(x, sem.adjacency(), "real", "linear_sem",
                         {"weights": sem.weights})


def true_nll_binary(gen, x):
    """Exact per-sample NLL under the binary generator's own law."""
    alpha, c = gen.params["alpha"], gen.params["c"]
    x = np.asarray(x, dtype=np.float64)
    o = x @ alpha.T + c
    return (np.logaddexp(0.0, o) - x * o).sum(axis=-1)


def true_nll_gaussian(gen, x):
    """Exact per-sample NLL under the Gaussian generator's own law."""
    alpha, c, sigma = gen.params["alpha"], gen.params["c"], gen.params["sigma"]
    x = np.asarray(x, dtype=np.float64)
    mu = x @ alpha.T + c
    per = np.log(sigma) + neural.HALF_LOG_2PI + (x - mu) ** 2 / (2.0 * sigma ** 2)
    return per.sum(axis=-1)


def split_indices(n, ratios, rng):
    """Shuffle 0..n-1 and cut contiguously; the first two ratios floor, the
    last takes the remainder (n=10 at 0.6/0.2/0.2 gives 6/2/2)."""
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ConfigError("ratios must be three nonnegative numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must sum to 1, got {sum(ratios)}")
    rng = np.random.default_rng(rng)
    perm = rng.permutation(n)
    n1 = int(n * ratios[0])
    n2 = int(n * ratios[1])
    return perm[:n1], perm[n1:n1 + n2], perm[n1 + n2:]


def make_dataset(x, kind, ratios, rng):
    tr, va, te = split_indices(x.shape[0], ratios, rng)
    return neural.Dataset(np.asarray(x, dtype=np.float64), kind, tr, va, te)


@dataclass
class SynthSpec:
    """Declarative dataset recipe (the datagen config/sidecar payload)."""

    family: str
    n: int
    seed: int = 0
    d: int = 0
    ratios: tuple = (0.6, 0.2, 0.2)
    adjacency: dict | None = None     # GeneratorSpec fields, for binary/gaussian
    threshold: float = 0.8            # nonlinear_multimodal sparsity
    cutoff: float = 1.5               # linear_sem weight cutoff

    _FAMILIES = ("binary", "gaussian", "nonlinear_multimodal", "linear_sem")

    def validate(self):
        if self.family not in self._FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; known: {self._FAMILIES}")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.family in ("binary", "gaussian") and self.adjacency is None:
            raise ConfigError(f"family {self.family!r} needs an adjacency spec")
        if self.family in ("nonlinear_multimodal", "linear_sem") and self.d < 1:
            raise ConfigError(f"family {self.family!r} needs d >= 1")
        return self

    def to_dict(self):
        out = {"family": self.family, "n": self.n, "seed": self.seed,
               "ratios": list(self.ratios)}
        if self.adjacency is not None:
            out["adjacency"] = dict(self.adjacency)
        if self.family == "nonlinear_multimodal":
            out.update(d=self.d, threshold=self.threshold)
        if self.family == "linear_sem":
            out.update(d=self.d, cutoff=self.cutoff)
        return out

    @classmethod
    def from_dict(cls, cfg):
        known = {"family", "n", "seed", "d", "ratios", "adjacency", "threshold", "cutoff"}
        unknown = set(cfg) - known
        if unknown:
            raise ConfigError(f"unknown dataset spec keys {sorted(unknown)}")
        cfg = dict(cfg)
        if "ratios" in cfg:
            cfg["ratios"] = tuple(cfg["ratios"])
        return cls(**cfg).validate()


def generate(spec):
    """Generate (GeneratedData, Dataset) from a SynthSpec, deterministically."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    if spec.family in ("binary", "gaussian"):
        A = adjacency_mod.GeneratorSpec.from_dict(spec.adjacency).generate()
        gen = (gen_binary if spec.family == "binary" else gen_gaussian)(A, spec.n, rng)
    elif spec.family == "nonlinear_multimodal":
        gen = gen_nonlinear_multimodal(spec.d, spec.n, rng, spec.threshold)
    else:
        gen = gen_linear_sem_data(spec.d, spec.n, rng, spec.cutoff)
    dataset = make_dataset(gen.x, gen.kind, spec.ratios, rng)
    return gen, dataset


# ---------------------------------------------------------------------------
# Files: "n d kind" header + rows; JSON sidecar with params and splits.

def write_dataset(path, gen, dataset, spec=None, adjacency_path=None):
    """Write data rows and the JSON sidecar (at path + '.json').

    Binary data is written as integer tokens, real data with full-precision
    repr; rewriting the same dataset is bit-identical.
    """
    x = gen.x
    n, d = x.shape
    with open(path, "w") as fh:
        fh.write(f"{n} {d} {gen.kind}\n")
        if gen.kind == "binary":
            for row in x.astype(np.int64):
                fh.write(" ".join(str(v) for v in row) + "\n")
        else:
            for row in x:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
    sidecar = {
        "tool": "strnn",
        "version": VERSION,
        "kind": gen.kind,
        "family": gen.family,
        "n": int(n),
        "d": int(d),
        "spec": spec.to_dict() if spec is not None else None,
        "seed": spec.seed if spec is not None else None,
        "adjacency_file": adjacency_path,
        "params": {k: np.asarray(v).tolist() for k, v in gen.params.items()},
        "splits": {"train": dataset.idx_train.tolist(),
                   "val": dataset.idx_val.tolist(),
                   "test": dataset.idx_test.tolist()},
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_dataset(path):
    """Read a dataset file and its sidecar back into (GeneratedData, Dataset)."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().split("\n") if ln.strip() != ""]
    if not lines:
        raise ParseError(path, 1, "empty dataset file")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError(path, 1, "header must be 'n d kind'")
    try:
        n, d = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(path, 1, f"bad header {lines[0]!r}") from None
    kind = head[2]
    if kind not in ("binary", "real"):
        raise ParseError(path, 1, f"unknown kind {kind!r}")
    if len(lines) - 1 != n:
        raise ParseError(path, len(lines), f"expected {n} rows, found {len(lines) - 1}")
    x = np.zeros((n, d))
    for r in range(n):
        toks = lines[1 + r].split()
        if len(toks) != d:
            raise ParseError(path, 2 + r, f"expected {d} values, found {len(toks)}")
        try:
            x[r] = [float(t) for t in toks]
        except ValueError:
            raise ParseError(path, 2 + r, "non-numeric token") from None
    side_path = path + ".json"
    try:
        with open(side_path) as fh:
            sidecar = json.load(fh)
    except FileNotFoundError:
        raise ParseError(side_path, 1, "sidecar file not found") from None
    except json.JSONDecodeError as exc:
        raise ParseError(side_path, exc.lineno, f"bad JSON: {exc.msg}") from None
    splits = sidecar.get("splits") if isinstance(sidecar, dict) else None
    if not isinstance(splits, dict) or not {"train", "val", "test"} <= set(splits):
        raise ParseError(side_path, 1, "sidecar needs 'splits' with train, val and test")
    params = {k: np.asarray(v) for k, v in sidecar.get("params", {}).items()}
    A = (np.abs(params["alpha"]) > 0).astype(np.int64) if "alpha" in params else None
    if "weights" in params and A is None:
        A = (np.abs(params["weights"]) > 0).astype(np.int64)
    gen = GeneratedData(x, A, kind, sidecar.get("family", "unknown"), params)
    dataset = neural.Dataset(x, kind,
                             np.asarray(splits["train"], dtype=np.int64),
                             np.asarray(splits["val"], dtype=np.int64),
                             np.asarray(splits["test"], dtype=np.int64))
    return gen, dataset
