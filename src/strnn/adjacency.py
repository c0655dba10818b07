"""Binary adjacency matrices for autoregressive dependency structure.

An adjacency matrix A is a d x d strictly lower triangular 0/1 matrix where
A[i, j] = 1 means variable i depends on variable j (so j < i).  This module
provides validation, the standard synthetic generators, and I/O for the
plain-text matrix format (defined in ``textio``) of adjacencies and masks.
"""

from dataclasses import dataclass

import numpy as np

from . import textio
from .errors import (
    ConfigError,
    InvalidDimError,
    InvalidThresholdError,
    NonBinaryEntryError,
    UpperTriangleNonZeroError,
    check_field_types,
)


def validate(A):
    """Check adjacency invariants and return the matrix as an int64 array.

    Raises InvalidDimError for non-square input, NonBinaryEntryError for an
    entry outside {0, 1}, and UpperTriangleNonZeroError for a nonzero entry on
    or above the diagonal.  Each error names the offending (i, j).
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise InvalidDimError(f"adjacency must be square with d >= 1, got shape {A.shape}")
    bad = (A != 0) & (A != 1)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NonBinaryEntryError(int(i), int(j), A[i, j].item())
    A = A.astype(np.int64)
    upper = np.triu(A) != 0
    if upper.any():
        i, j = np.argwhere(upper)[0]
        raise UpperTriangleNonZeroError(int(i), int(j))
    return A


def dense_lower(d):
    """Full autoregressive structure: every variable depends on all predecessors."""
    if d < 1:
        raise InvalidDimError("d must be >= 1")
    return np.tril(np.ones((d, d), dtype=np.int64), k=-1)


def gen_prev_k(d, k):
    """A[i, j] = 1 iff 1 <= i - j <= k (each variable depends on its k predecessors)."""
    if d < 1 or k < 0:
        raise InvalidDimError("require d >= 1 and k >= 0")
    i, j = np.indices((d, d))
    return ((i - j >= 1) & (i - j <= k)).astype(np.int64)


def gen_every_other(d):
    """A[i, j] = 1 iff j < i and i - j is odd (alternating-predecessor pattern)."""
    if d < 1:
        raise InvalidDimError("d must be >= 1")
    i, j = np.indices((d, d))
    return ((i - j >= 1) & ((i - j) % 2 == 1)).astype(np.int64)


def gen_random_sparse(d, threshold, rng):
    """Independent below-diagonal entries: A[i, j] = 1 iff u_ij > threshold.

    Draws one uniform per (i, j) with j < i, in row-major order, so the result
    is a pure function of (d, threshold, seed).  ``rng`` may be a seed or a
    numpy Generator.  threshold = 0 gives the dense lower triangle, 1 gives
    the empty matrix.
    """
    if d < 1:
        raise InvalidDimError("d must be >= 1")
    if not (0.0 <= threshold <= 1.0):
        raise InvalidThresholdError(f"threshold must lie in [0, 1], got {threshold}")
    rng = np.random.default_rng(rng)
    A = np.zeros((d, d), dtype=np.int64)
    idx = np.tril_indices(d, k=-1)
    u = rng.random(len(idx[0]))
    A[idx] = u > threshold
    return A


def gen_neighborhood(rows, cols, nbr_size):
    """Local image structure on rows x cols pixels in row-major order.

    Pixel p depends on pixel q iff q precedes p in row-major order and q lies
    within Manhattan distance nbr_size of p.  A window large enough to cover
    the image (nbr_size >= 2 * max(rows, cols)) reduces to the dense lower
    triangle.
    """
    if rows < 1 or cols < 1 or nbr_size < 0:
        raise InvalidDimError("require rows, cols >= 1 and nbr_size >= 0")
    d = rows * cols
    r = np.arange(d) // cols
    c = np.arange(d) % cols
    dist = np.abs(r[:, None] - r[None, :]) + np.abs(c[:, None] - c[None, :])
    precedes = np.arange(d)[:, None] > np.arange(d)[None, :]
    return (precedes & (dist <= nbr_size)).astype(np.int64)


def write_matrix(M, path):
    """Write an integer matrix in the matrix format of ``textio``."""
    M = np.asarray(M, dtype=np.int64)
    if M.ndim != 2:
        raise InvalidDimError("matrix must be 2-D")
    r, c = M.shape
    with open(path, "w") as fh:
        fh.write(f"{r}\n" if r == c else f"{r} {c}\n")
        textio.write_rows(fh, M)


_ENTRIES_WHY = "adjacency entries must be 0 or 1, and 0 on or above the diagonal"


def _adjacency_entries(A):
    """Where square A holds an adjacency's entries: 0, or 1 below the diagonal."""
    return (A == 0) | np.tri(len(A), k=-1, dtype=bool) & (A == 1)


def read_matrix(path, adjacency=False):
    """Read a plain-text matrix as an int64 array.  With ``adjacency`` it must
    also pass ``validate``: square, 0/1 and strictly lower triangular.
    Malformed content raises ParseError naming the line."""
    reader = textio.Reader(path)
    head = reader.dims(reader.line("the 'd' or 'rows cols' header"))
    if len(head) > 2:
        raise reader.error(f"header must hold 1 or 2 integers, got {len(head)}")
    r, c = head if len(head) == 2 else (head[0], head[0])
    if adjacency and r != c:
        raise reader.error(f"an adjacency must be square, got {r} x {c}")
    M = reader.block(r, c, dtype=np.int64, valid=_adjacency_entries if adjacency else None,
                     why=_ENTRIES_WHY)
    reader.finish(f"the {r} rows")
    return M


# Each scheme's generator and the spec fields it takes, in call order.
_SCHEMES = {"prev_k": (gen_prev_k, ("d", "k")),
            "every_other": (gen_every_other, ("d",)),
            "random_sparse": (gen_random_sparse, ("d", "threshold", "seed")),
            "neighborhood": (gen_neighborhood, ("rows", "cols", "nbr_size")),
            "dense": (dense_lower, ("d",))}


@dataclass
class GeneratorSpec:
    """Declarative recipe for an adjacency matrix (used by configs/sidecars)."""

    scheme: str
    d: int = 0
    k: int = 1
    threshold: float = 0.5
    rows: int = 0
    cols: int = 0
    nbr_size: int = 1
    seed: int = 0

    def _scheme(self):
        """(generator, fields in call order) of the spec's scheme."""
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; known: {tuple(_SCHEMES)}")
        return _SCHEMES[self.scheme]

    def generate(self):
        gen, fields = self._scheme()
        return gen(*(getattr(self, name) for name in fields))

    def to_dict(self):
        """The scheme and the fields its generator takes."""
        return {"scheme": self.scheme, **{name: getattr(self, name) for name in self._scheme()[1]}}

    def validate(self):
        check_field_types(self, "adjacency spec ")
        self._scheme()
        if self.seed < 0:
            raise ConfigError("adjacency spec seed must be >= 0")
        return self
