"""Factorize an adjacency matrix into per-layer binary masks.

A network with H hidden layers needs H+1 masks M^1 (h_1 x d), ...,
M^{H+1} (d x h_H) whose product (applied right-to-left) has exactly the
zero/nonzero pattern of the adjacency A; the integer entries of the product
count the masked connection paths between each output/input pair.  Three
factorization schemes are provided (greedy, exact search, unique-row tiling)
plus the classic random-degree masks, with two path-count objectives.
"""

import itertools

import numpy as np

from . import adjacency
from .errors import (
    BudgetExceededError,
    InfeasibleError,
    InsufficientWidthError,
    InvalidDimError,
    ShapeMismatchError,
)

MAX_CONNECTIONS = "max_connections"
CONNECTIONS_MINUS_VARIANCE = "connections_minus_variance"
OBJECTIVES = (MAX_CONNECTIONS, CONNECTIONS_MINUS_VARIANCE)

# Steps one exact_factor_layer call may take before it gives up.
EXACT_STEP_BUDGET = 40_000


def mask_product(masks):
    """Multiply a mask list (input-to-output order) into one integer matrix."""
    if not masks:
        raise InvalidDimError("mask list is empty")
    P = np.asarray(masks[0], dtype=np.int64)
    for M in masks[1:]:
        M = np.asarray(M, dtype=np.int64)
        if M.shape[1] != P.shape[0]:
            raise ShapeMismatchError(f"cannot chain {M.shape} after {P.shape}")
        P = M @ P
    return P


def check_sparsity_equal(product, A):
    """True iff the product's nonzero pattern equals A's exactly."""
    product = np.asarray(product)
    A = np.asarray(A)
    if product.shape != A.shape:
        raise ShapeMismatchError(f"shapes {product.shape} and {A.shape} differ")
    return bool(((product > 0) == (A > 0)).all())


def objective_value(product, objective=MAX_CONNECTIONS):
    """Score a mask product: total path count, optionally minus the population
    variance over all entries."""
    product = np.asarray(product, dtype=np.float64)
    if objective == MAX_CONNECTIONS:
        return float(product.sum())
    if objective == CONNECTIONS_MINUS_VARIANCE:
        return float(product.sum() - np.var(product))
    raise InvalidDimError(f"unknown objective {objective!r}; known: {OBJECTIVES}")


def greedy_factor_layer(A, h):
    """Single-layer greedy factorization A ~ M_V @ M_W with h hidden units.

    M_W's rows cycle through the nonzero rows of A (in order of appearance,
    with multiplicity) until all h rows are filled.  M_V starts as all-ones
    and zeroes entry (i, r) whenever unit r reads an input that row i of A
    forbids, which is the maximal M_V for the chosen M_W.  Runs in vectorized
    matrix time, so large instances (d = h = 2000) complete in well under a
    second.

    Returns (M_V, M_W) with shapes (d1, h) and (h, d2).  Raises
    InsufficientWidthError when the first h cycled rows do not include every
    distinct nonzero row pattern (always satisfiable for h >= d1).
    """
    A = np.asarray(A, dtype=np.int64)
    if A.ndim != 2:
        raise InvalidDimError("A must be 2-D")
    if h < 1:
        raise InvalidDimError("h must be >= 1")
    d1, d2 = A.shape
    nz = np.flatnonzero(A.any(axis=1))
    if len(nz) == 0:
        return np.zeros((d1, h), dtype=np.int64), np.zeros((h, d2), dtype=np.int64)
    M_W = A[nz[np.arange(h) % len(nz)]]
    if h < len(nz):
        n_distinct = len(np.unique(A[nz], axis=0))
        if h < n_distinct or len(np.unique(M_W, axis=0)) < n_distinct:
            raise InsufficientWidthError(
                f"h={h} units cannot carry all {n_distinct} distinct nonzero rows")
    # Unit r may feed output i only if r's inputs are a subset of row i's.
    # Float32 keeps the big matmul in fast BLAS; counts stay exact (< 2^24).
    conflict = M_W.astype(np.float32) @ (1 - A).astype(np.float32).T
    M_V = (conflict.T == 0).astype(np.int64)
    return M_V, M_W


def _columns(mask):
    """The sorted column indices of a column bit mask."""
    bits = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return tuple(np.flatnonzero(np.unpackbits(bits, bitorder="little")).tolist())


def _intersection_closure(supports, spend):
    closure = set(supports)
    frontier = set(supports)
    while frontier:
        spend(len(frontier) * len(supports))
        new = set()
        for a in frontier:
            for b in supports:
                c = a & b
                if c and c not in closure:
                    new.add(c)
        closure |= new
        frontier = new
    return closure


def exact_factor_layer(A, h, objective=MAX_CONNECTIONS):
    """Optimal single-layer factorization by branch-and-bound over unit input sets.

    Each hidden unit is assigned an input pattern; its output pattern is then
    forced maximal (every output row whose support covers the inputs).  For the
    path-count objective the search may restrict candidate patterns to the
    intersection closure of A's row supports without losing optimality:
    widening a pattern to the intersection of the rows it feeds never shrinks
    its input count, its output count, or the set of edges it covers.  The
    variance-penalized objective gets no such reduction and enumerates all
    subsets of row supports.

    The work is capped at EXACT_STEP_BUDGET steps: one per intersection tried
    for the closure, subset enumerated in variance mode, candidate cover tested
    against a distinct row support, and node or leaf of the search; a variance
    leaf costs d1 * d2 more, for the product it rebuilds.

    The returned objective value is always >= the greedy layer's on the same
    instance (the greedy configuration is one point of the search space and
    seeds the incumbent).  Raises BudgetExceededError when the budget runs
    out and InfeasibleError when no h-unit assignment covers every edge of A.
    """
    A = np.asarray(A, dtype=np.int64)
    if A.ndim != 2:
        raise InvalidDimError("A must be 2-D")
    if h < 1:
        raise InvalidDimError("h must be >= 1")
    if objective not in OBJECTIVES:
        raise InvalidDimError(f"unknown objective {objective!r}")
    d1, d2 = A.shape
    if not A.any():
        return np.zeros((d1, h), dtype=np.int64), np.zeros((h, d2), dtype=np.int64)
    steps = 0

    def spend(n):
        nonlocal steps
        steps += n
        if steps > EXACT_STEP_BUDGET:
            raise BudgetExceededError(f"exact search ran out of its budget of {EXACT_STEP_BUDGET}"
                                      f" steps on a {d1}x{d2} layer with h={h}")

    # Row i reads the inputs in bit mask supports[cls[i]]; covers and coverage run
    # over distinct supports, support k standing for its n_rows[k] equal rows.
    packed = np.packbits(A != 0, axis=1, bitorder="little")
    row_supports = np.array([int.from_bytes(row.tobytes(), "little") for row in packed], object)
    supports, cls, n_rows = np.unique(row_supports, return_inverse=True, return_counts=True)
    distinct = [s for s in supports if s]
    if objective == MAX_CONNECTIONS:
        candidates = _intersection_closure(distinct, spend)
    else:
        spend(sum(2 ** s.bit_count() - 1 for s in distinct))
        candidates = set()
        for s in distinct:
            bits = [1 << j for j in _columns(s)]
            for r in range(1, len(bits) + 1):
                candidates.update(map(sum, itertools.combinations(bits, r)))
    spend(len(candidates) * len(supports))

    # Coverage bit sets hold cell (k, j) of support k and column j at bit k * d2 + j.
    all_edges = sum(s << (k * d2) for k, s in enumerate(supports))
    # (paths, sorted columns, cover, coverage, mask); each lies in some support.
    cand = []
    for w in candidates:
        cover = [k for k, s in enumerate(supports) if s & w == w]
        cand.append((w.bit_count() * int(n_rows[cover].sum()), _columns(w), cover,
                     sum(w << (k * d2) for k in cover), w))
    cand.sort(key=lambda c: (-c[0], c[1]))
    if objective == CONNECTIONS_MINUS_VARIANCE:
        # A unit may also sit idle (empty input pattern, contributing nothing);
        # trading a duplicated unit for an idle one can reduce the variance
        # penalty.  Idle units are pointless under pure connection counting.
        cand.append((0, (), list(range(len(supports))), 0, 0))
    n_cand = len(cand)
    f = [c[0] for c in cand]
    covered = [c[3] for c in cand]
    # Suffix union of coverable edges, for infeasibility pruning.
    suffix = [0] * (n_cand + 1)
    for q in range(n_cand - 1, -1, -1):
        suffix[q] = suffix[q + 1] | covered[q]

    best = {"value": -np.inf, "units": None}

    def consider(units, path_count):
        if objective == MAX_CONNECTIONS:
            val = path_count
        else:
            groups = [(q, len(list(run))) for q, run in itertools.groupby(units)]
            spend(d1 * d2 + len(groups))
            P = np.zeros((len(supports), d2), dtype=np.int64)
            for q, c in groups:
                P[np.ix_(cand[q][2], list(cand[q][1]))] += c
            val = objective_value(P[cls], objective)
        if val > best["value"]:
            best["value"] = val
            best["units"] = units

    # Seed the incumbent with greedy_factor_layer's units, which cycle through
    # the nonzero rows of A, when they carry every distinct nonzero row.
    nonzero = [s for s in row_supports if s]
    greedy = [nonzero[r % len(nonzero)] for r in range(h)]
    if len(set(greedy)) == len(distinct):
        index = {c[4]: q for q, c in enumerate(cand)}
        seed = sorted(index[s] for s in greedy)
        consider(seed, sum(f[q] for q in seed))

    units = []

    def search(p, slots, sum_value, uncovered):
        """A search node: yields a child node per candidate tried, scores leaves."""
        spend(1)
        for q in range(p, n_cand):
            # Candidates are value-sorted, so both the additive bound and the
            # suffix coverage only shrink with q; the first failure ends the loop.
            # The bound is valid for the variance objective too (variance >= 0).
            if sum_value + slots * f[q] <= best["value"] or uncovered & ~suffix[q]:
                return
            if slots == 1:
                spend(1)
                if not uncovered & ~covered[q]:
                    consider(units + [q], sum_value + f[q])
                continue
            units.append(q)
            yield search(q, slots - 1, sum_value + f[q], uncovered & ~covered[q])
            units.pop()

    # Depth first on a stack of nodes, so h is not bounded by the recursion limit.
    nodes = [search(0, h, 0, all_edges)]
    while nodes:
        child = next(nodes[-1], None)
        if child is None:
            nodes.pop()
        else:
            nodes.append(child)

    if best["units"] is None:
        raise InfeasibleError(f"no {h}-unit assignment covers every edge of A")

    V = np.zeros((len(supports), h), dtype=np.int64)
    M_W = np.zeros((h, d2), dtype=np.int64)
    for r, q in enumerate(best["units"]):
        _, w, cover, _, _ = cand[q]
        M_W[r, list(w)] = 1
        V[cover, r] = 1
    return V[cls], M_W


def zuko_factor(A, hidden):
    """Unique-row tiling factorization for the full mask stack.

    Deduplicates A's rows, computes the row-support containment relation
    P[i, j] = (support(row_j) <= support(row_i)), and tiles the units of every
    hidden layer cyclically over the reachable (nonzero) unique rows; the
    final mask re-expands to the original row order.  With no hidden widths
    the single mask is A itself.
    """
    A = adjacency.validate(A)
    if any(w < 1 for w in hidden):
        raise InvalidDimError("hidden widths must be >= 1")
    d = A.shape[0]
    u_rows, inverse = np.unique(A, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    n_deps = u_rows.sum(axis=1)
    reachable = np.flatnonzero(n_deps > 0)
    widths = list(hidden) + [d]
    if len(reachable) == 0:
        dims = [d] + list(hidden) + [d]
        return [np.zeros((dims[k + 1], dims[k]), dtype=np.int64) for k in range(len(dims) - 1)]
    P = (u_rows @ u_rows.T) == n_deps[None, :]
    masks = []
    indices = None
    for layer, width in enumerate(widths):
        M = u_rows if layer == 0 else P[:, indices].astype(np.int64)
        if layer < len(hidden):
            indices = reachable[np.arange(width) % len(reachable)]
            M = M[indices]
        else:
            M = M[inverse]
        masks.append(np.asarray(M, dtype=np.int64))
    return masks


def made_masks(d, hidden, rng, natural_ordering=False):
    """Random-degree mask stack: degrees m^0 a permutation of 1..d (or the
    identity), hidden degrees uniform on {min(previous), ..., d-1}, hidden
    mask entries m^l_i >= m^{l-1}_j and a strict > for the output mask.

    The product is lower-triangular with respect to the m^0 ordering but can
    carry extra zeros below the diagonal when sampled degrees starve some
    connection (for d=4, h=2 the all-ones hidden degree vector appears with
    probability 1/9).
    """
    if d < 1:
        raise InvalidDimError("d must be >= 1")
    if d == 1 and hidden:
        raise InvalidDimError("random-degree masks need d >= 2 with hidden layers")
    rng = np.random.default_rng(rng)
    m0 = np.arange(1, d + 1)
    if not natural_ordering:
        m0 = rng.permutation(m0)
    degrees = [m0]
    for width in hidden:
        if width < 1:
            raise InvalidDimError("hidden widths must be >= 1")
        lo = int(degrees[-1].min())
        degrees.append(rng.integers(lo, d, size=width))
    masks = []
    for lvl in range(1, len(degrees)):
        masks.append((degrees[lvl][:, None] >= degrees[lvl - 1][None, :]).astype(np.int64))
    masks.append((m0[:, None] > degrees[-1][None, :]).astype(np.int64))
    return masks


def factor_multilayer(A, hidden, method="greedy", objective=MAX_CONNECTIONS):
    """Factor A into len(hidden)+1 masks using the chosen scheme.

    greedy/exact split recursively: each step factors the current left matrix
    C ~ C' @ M, emits M as the next mask (input side first), and continues on
    C'; the last left factor is the final mask.  zuko delegates to
    zuko_factor.  An unknown objective raises InvalidDimError for every
    method; layer errors (InsufficientWidthError, BudgetExceededError,
    InfeasibleError) propagate.
    """
    A = adjacency.validate(A)
    if objective not in OBJECTIVES:
        raise InvalidDimError(f"unknown objective {objective!r}")
    if method == "zuko":
        return zuko_factor(A, hidden)
    if method not in ("greedy", "exact"):
        raise InvalidDimError(f"unknown method {method!r}")
    if not hidden:
        return [A.copy()]
    masks = []
    cur = A
    for width in hidden:
        if method == "greedy":
            M_V, M_W = greedy_factor_layer(cur, width)
        else:
            M_V, M_W = exact_factor_layer(cur, width, objective)
        masks.append(M_W)
        cur = M_V
    masks.append(cur)
    return masks
