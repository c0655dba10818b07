"""Synthetic dataset families with known ground truth.

Every generator returns the data together with its adjacency and the exact
generating coefficients, so oracles (true NLL, causal ground truth) can be
evaluated downstream.  Datasets are written in the dataset format of
``textio`` plus a JSON sidecar holding the spec, seed, coefficient arrays,
and the frozen train/val/test split.
"""

import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from . import adjacency as adjacency_mod
from . import causal, neural, textio
from .errors import ConfigError, InvalidDimError, ParseError, check_field_types, decode
from .version import VERSION


@dataclass
class GeneratedData:
    """Samples plus everything needed to reconstruct their law."""

    x: np.ndarray
    adjacency: np.ndarray
    kind: str                   # "binary" or "real"
    family: str
    params: dict = field(default_factory=dict)


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
        p = neural.sigmoid(x @ alpha[i] + c[i])
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
    """Exact per-sample NLL under the binary generator's own law: the binary
    head NLL of its logits."""
    alpha, c = gen.params["alpha"], gen.params["c"]
    x = np.asarray(x, dtype=np.float64)
    return neural.head_nll("binary", x @ alpha.T + c, x)


def true_nll_gaussian(gen, x):
    """Exact per-sample NLL under the Gaussian generator's own law: the
    gaussian head NLL of its means and log-sigmas (the generator's sigmas,
    floored at 0.01, lie well inside the head's log-sigma clamp)."""
    alpha, c, sigma = gen.params["alpha"], gen.params["c"], gen.params["sigma"]
    x = np.asarray(x, dtype=np.float64)
    mu = x @ alpha.T + c
    log_sigma = np.broadcast_to(np.log(sigma), mu.shape)
    return neural.head_nll("gaussian", np.concatenate([mu, log_sigma], axis=-1), x)


def _check_ratios(ratios):
    """The split ratios as floats: three finite nonnegative numbers (not
    bools) that sum to 1, else ConfigError."""
    if not (isinstance(ratios, (list, tuple)) and len(ratios) == 3
            and all(isinstance(r, numbers.Real) and not isinstance(r, bool)
                    and 0 <= r <= sys.float_info.max for r in ratios)
            and abs(sum(map(float, ratios)) - 1.0) <= 1e-9):
        raise ConfigError(f"ratios must be three finite nonnegative numbers that sum to 1, "
                          f"got {ratios!r}")
    return tuple(float(r) for r in ratios)


def split_indices(n, ratios, rng):
    """Shuffle 0..n-1 and cut contiguously; the first two ratios floor, the
    last takes the remainder (n=10 at 0.6/0.2/0.2 gives 6/2/2)."""
    ratios = _check_ratios(ratios)
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
    adjacency: adjacency_mod.GeneratorSpec | None = None   # for binary/gaussian
    threshold: float = 0.8            # nonlinear_multimodal sparsity
    cutoff: float = 1.5               # linear_sem weight cutoff

    _FAMILIES = ("binary", "gaussian", "nonlinear_multimodal", "linear_sem")

    def validate(self):
        check_field_types(self)
        if self.family not in self._FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; known: {self._FAMILIES}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        _check_ratios(self.ratios)
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.family in ("binary", "gaussian") and self.adjacency is None:
            raise ConfigError(f"family {self.family!r} needs an adjacency spec")
        if self.adjacency is not None:
            self.adjacency.validate()
        if self.family in ("nonlinear_multimodal", "linear_sem") and self.d < 1:
            raise ConfigError(f"family {self.family!r} needs d >= 1")
        return self

    def to_dict(self):
        out = {"family": self.family, "n": self.n, "seed": self.seed,
               "ratios": list(self.ratios)}
        if self.adjacency is not None:
            out["adjacency"] = self.adjacency.to_dict()
        if self.family == "nonlinear_multimodal":
            out.update(d=self.d, threshold=self.threshold)
        if self.family == "linear_sem":
            out.update(d=self.d, cutoff=self.cutoff)
        return out

    @classmethod
    def from_dict(cls, cfg):
        return decode(cls, cfg, "dataset spec ").validate()


def generate(spec):
    """Generate (GeneratedData, Dataset) from a SynthSpec, deterministically."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    if spec.family in ("binary", "gaussian"):
        A = spec.adjacency.generate()
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
    """Write the data in the dataset format of ``textio`` and the JSON sidecar
    at path + '.json'; rewriting the same dataset is bit-identical."""
    x = gen.x
    n, d = x.shape
    with open(path, "w") as fh:
        fh.write(f"{n} {d} {gen.kind}\n")
        textio.write_rows(fh, x.astype(np.int64) if gen.kind == "binary" else x)
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
    textio.write_json(path + ".json", sidecar)


def read_params(side_path, sidecar):
    """The ``params`` of the sidecar read from ``side_path`` as numeric arrays;
    ParseError naming the sidecar unless they are an object of numbers."""
    params = sidecar.get("params", {})
    if not isinstance(params, dict):
        raise ParseError(side_path, 1, "sidecar 'params' must be an object")
    arrays = {}
    for name, value in params.items():
        try:
            a = np.asarray(value)
        except ValueError:      # a ragged nested list
            a = None
        if a is None or a.dtype.kind not in "iuf":
            raise ParseError(side_path, 1, f"sidecar params entry {name!r} is not numeric")
        arrays[name] = a
    return arrays


def read_dataset(path):
    """Read a dataset file and its sidecar back into (GeneratedData, Dataset)."""
    reader = textio.Reader(path)
    head = reader.line("the 'n d kind' header")
    if len(head) != 3 or head[2] not in ("binary", "real"):
        raise reader.error(f"header must be 'n d kind' with kind binary or real, "
                           f"got {' '.join(head)!r}")
    (n, d), kind = reader.dims(head[:2]), head[2]
    binary = kind == "binary"
    x = reader.block(n, d, valid=(lambda a: (a == 0) | (a == 1)) if binary else np.isfinite,
                     why=f"{kind} dataset entries must be {'0 or 1' if binary else 'finite'}")
    reader.finish(f"the {n} rows")
    side_path = path + ".json"
    sidecar = textio.read_json(side_path, "sidecar")
    splits = sidecar.get("splits")
    if not isinstance(splits, dict) or not {"train", "val", "test"} <= set(splits):
        raise ParseError(side_path, 1, "sidecar needs 'splits' with train, val and test")
    for part in ("train", "val", "test"):
        idx = splits[part]
        # type() rather than isinstance(): JSON true/false load as bool, an int.
        if not isinstance(idx, list) or not all(type(i) is int and 0 <= i < n for i in idx):
            raise ParseError(side_path, 1, f"sidecar split {part!r} must list "
                                           f"integer row indices in 0..{n - 1}")
        if not idx:
            raise ParseError(side_path, 1, f"sidecar split {part!r} is empty")
    params = read_params(side_path, sidecar)
    coef = params.get("alpha", params.get("weights"))
    A = None if coef is None else (np.abs(coef) > 0).astype(np.int64)
    gen = GeneratedData(x, A, kind, sidecar.get("family", "unknown"), params)
    dataset = neural.Dataset(x, kind, *(np.asarray(splits[part], dtype=np.int64)
                                        for part in ("train", "val", "test")))
    return gen, dataset
