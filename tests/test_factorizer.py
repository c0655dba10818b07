"""Tests for mask factorization schemes against brute-force oracles."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strnn import adjacency, factorizer, neural
from strnn.errors import (
    BudgetExceededError,
    InfeasibleError,
    InsufficientWidthError,
    InvalidDimError,
    ShapeMismatchError,
)


def forced_maximal_output(M_W, A):
    """Reference output mask: unit r feeds row i iff r's inputs fit row i."""
    d1 = A.shape[0]
    h = M_W.shape[0]
    supports = [set(np.flatnonzero(row)) for row in A]
    M_V = np.zeros((d1, h), dtype=np.int64)
    for r in range(h):
        unit = set(np.flatnonzero(M_W[r]))
        for i in range(d1):
            if unit <= supports[i]:
                M_V[i, r] = 1
    return M_V


def brute_force_best(A, h, objective):
    """Exhaustively score every h-row input mask with forced-maximal outputs."""
    d1, d2 = A.shape
    best = None
    for bits in itertools.product((0, 1), repeat=h * d2):
        M_W = np.array(bits, dtype=np.int64).reshape(h, d2)
        M_V = forced_maximal_output(M_W, A)
        P = M_V @ M_W
        if ((P > 0) == (A > 0)).all():
            val = factorizer.objective_value(P, objective)
            if best is None or val > best:
                best = val
    return best


class TestMaskProduct:
    def test_chains_right_to_left(self):
        masks = [np.array([[1, 0], [1, 1]]), np.array([[1, 1], [0, 1]])]
        np.testing.assert_array_equal(factorizer.mask_product(masks),
                                      np.array([[2, 1], [1, 1]]))

    def test_rejects_bad_chain(self):
        with pytest.raises(ShapeMismatchError):
            factorizer.mask_product([np.ones((2, 3)), np.ones((2, 3))])

    def test_rejects_empty(self):
        with pytest.raises(InvalidDimError):
            factorizer.mask_product([])


class TestObjectives:
    def test_connection_count(self):
        P = np.array([[0, 0], [2, 0]])
        assert factorizer.objective_value(P, factorizer.MAX_CONNECTIONS) == 2.0

    def test_variance_penalty_by_hand(self):
        """Entries (0, 0, 2, 0): sum 2, population variance 0.75."""
        P = np.array([[0, 0], [2, 0]])
        val = factorizer.objective_value(P, factorizer.CONNECTIONS_MINUS_VARIANCE)
        np.testing.assert_allclose(val, 2.0 - 0.75)

    def test_sparsity_check(self):
        A = np.array([[0, 0], [1, 0]])
        assert factorizer.check_sparsity_equal(np.array([[0, 0], [3, 0]]), A)
        assert not factorizer.check_sparsity_equal(np.zeros((2, 2)), A)
        with pytest.raises(ShapeMismatchError):
            factorizer.check_sparsity_equal(np.zeros((3, 3)), A)


class TestGreedyLayer:
    def test_sparsity_exact_across_instances(self):
        """The greedy product reproduces A's zero pattern exactly."""
        rng = np.random.default_rng(0)
        for _ in range(60):
            d = int(rng.integers(2, 12))
            h = int(rng.integers(d, 3 * d))
            A = adjacency.gen_random_sparse(d, float(rng.uniform(0.1, 0.9)),
                                            int(rng.integers(1 << 30)))
            M_V, M_W = factorizer.greedy_factor_layer(A, h)
            assert factorizer.check_sparsity_equal(M_V @ M_W, A)

    def test_rows_cycle_with_multiplicity(self):
        A = np.array([
            [0, 0, 0],
            [1, 0, 0],
            [1, 1, 0],
        ])
        M_V, M_W = factorizer.greedy_factor_layer(A, 5)
        np.testing.assert_array_equal(M_W, A[[1, 2, 1, 2, 1]])

    def test_output_mask_is_forced_maximal(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 20:
            d = int(rng.integers(2, 9))
            A = adjacency.gen_random_sparse(d, 0.4, int(rng.integers(1 << 30)))
            if not A.any():  # the all-zero convention is zero masks instead
                continue
            M_V, M_W = factorizer.greedy_factor_layer(A, 2 * d)
            np.testing.assert_array_equal(M_V, forced_maximal_output(M_W, A))
            done += 1

    def test_insufficient_width_below_distinct_count(self):
        A = adjacency.dense_lower(4)  # three distinct nonzero rows
        with pytest.raises(InsufficientWidthError):
            factorizer.greedy_factor_layer(A, 2)
        M_V, M_W = factorizer.greedy_factor_layer(A, 3)
        assert factorizer.check_sparsity_equal(M_V @ M_W, A)

    def test_insufficient_width_when_cycling_misses_a_pattern(self):
        """Width equal to the distinct count still fails if the first h rows
        repeat a pattern before covering them all."""
        A = np.array([
            [0, 0, 0, 0],
            [1, 0, 0, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ])
        with pytest.raises(InsufficientWidthError):
            factorizer.greedy_factor_layer(A, 2)
        M_V, M_W = factorizer.greedy_factor_layer(A, 3)
        assert factorizer.check_sparsity_equal(M_V @ M_W, A)

    def test_all_zero_adjacency_gives_zero_masks(self):
        M_V, M_W = factorizer.greedy_factor_layer(np.zeros((3, 3), dtype=int), 4)
        assert M_V.shape == (3, 4) and not M_V.any()
        assert M_W.shape == (4, 3) and not M_W.any()

    def test_single_variable(self):
        M_V, M_W = factorizer.greedy_factor_layer(np.zeros((1, 1), dtype=int), 2)
        assert M_V.shape == (1, 2) and M_W.shape == (2, 1)

    def test_rejects_bad_width(self):
        with pytest.raises(InvalidDimError):
            factorizer.greedy_factor_layer(adjacency.dense_lower(3), 0)


class TestExactLayer:
    @pytest.mark.parametrize("objective", factorizer.OBJECTIVES)
    def test_matches_brute_force(self, objective):
        """Branch-and-bound equals exhaustive search over all input masks."""
        rng = np.random.default_rng(3)
        cases = []
        for d in (3, 4):
            for h in (2, 3):
                for _ in range(6):
                    cases.append((adjacency.gen_random_sparse(
                        d, float(rng.uniform(0.2, 0.8)),
                        int(rng.integers(1 << 30))), h))
        cases.append((adjacency.dense_lower(3), 3))
        cases.append((adjacency.gen_prev_k(4, 1), 3))
        cases.append((adjacency.gen_every_other(4), 2))
        for A, h in cases:
            expected = brute_force_best(A, h, objective)
            if expected is None:
                with pytest.raises(InfeasibleError):
                    factorizer.exact_factor_layer(A, h, objective)
                continue
            M_V, M_W = factorizer.exact_factor_layer(A, h, objective)
            P = M_V @ M_W
            assert factorizer.check_sparsity_equal(P, A)
            np.testing.assert_allclose(
                factorizer.objective_value(P, objective), expected)

    @pytest.mark.parametrize("objective", factorizer.OBJECTIVES)
    def test_never_below_greedy(self, objective):
        rng = np.random.default_rng(5)
        for _ in range(25):
            d = int(rng.integers(3, 7))
            h = int(rng.integers(2, 8))
            A = adjacency.gen_random_sparse(d, float(rng.uniform(0.1, 0.9)),
                                            int(rng.integers(1 << 30)))
            try:
                gV, gW = factorizer.greedy_factor_layer(A, h)
            except InsufficientWidthError:
                continue
            eV, eW = factorizer.exact_factor_layer(A, h, objective)
            g = factorizer.objective_value(gV @ gW, objective)
            e = factorizer.objective_value(eV @ eW, objective)
            assert e >= g - 1e-12

    def test_output_mask_is_forced_maximal(self):
        A = adjacency.gen_random_sparse(5, 0.5, 12)
        M_V, M_W = factorizer.exact_factor_layer(A, 4)
        np.testing.assert_array_equal(M_V, forced_maximal_output(M_W, A))

    def test_variance_mode_can_idle_units(self):
        """With width to spare, the variance objective may leave units unused
        rather than duplicate connections."""
        A = np.array([[0, 0], [1, 0]])
        M_V, M_W = factorizer.exact_factor_layer(
            A, 2, factorizer.CONNECTIONS_MINUS_VARIANCE)
        P = M_V @ M_W
        assert factorizer.check_sparsity_equal(P, A)
        expected = brute_force_best(A, 2, factorizer.CONNECTIONS_MINUS_VARIANCE)
        np.testing.assert_allclose(
            factorizer.objective_value(P, factorizer.CONNECTIONS_MINUS_VARIANCE),
            expected)

    def test_infeasible_width(self):
        A = np.array([
            [0, 0, 0],
            [1, 0, 0],
            [0, 1, 0],
        ])
        with pytest.raises(InfeasibleError):
            factorizer.exact_factor_layer(A, 1)

    def test_budget_guard(self):
        """A variance search far beyond the step budget gives up within
        half a second, naming the budget and the layer's shape."""
        A = np.array([[0, 0, 1, 1, 0, 1, 0, 0, 1, 1],
                      [1, 1, 1, 1, 1, 0, 0, 0, 0, 1],
                      [1, 0, 1, 1, 1, 1, 0, 0, 1, 1],
                      [1, 1, 1, 0, 1, 1, 1, 0, 1, 1]])
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError,
                           match=f"{factorizer.EXACT_STEP_BUDGET} steps on a 4x10 layer with h=8"):
            factorizer.exact_factor_layer(A, 8, factorizer.CONNECTIONS_MINUS_VARIANCE)
        assert time.perf_counter() - t0 < 0.5

    def test_budget_covers_candidate_setup(self):
        """A d = 2000 layer whose 1985 last rows share one 15-input support has
        32,767 variance candidates, inside the budget, each covering 1985 rows.
        Covers are tested once per distinct support and charged, so the search
        gives up at once rather than building a bit set per row."""
        A = np.zeros((2000, 2000), dtype=np.int64)
        A[15:, :15] = 1
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="2000x2000 layer"):
            factorizer.exact_factor_layer(A, 2000, factorizer.CONNECTIONS_MINUS_VARIANCE)
        assert time.perf_counter() - t0 < 0.5

    def test_budget_is_the_only_limit(self, monkeypatch):
        A = adjacency.gen_prev_k(4, 1)
        factorizer.exact_factor_layer(A, 3)
        monkeypatch.setattr(factorizer, "EXACT_STEP_BUDGET", 3)
        with pytest.raises(BudgetExceededError):
            factorizer.exact_factor_layer(A, 3)

    def test_too_few_units_is_infeasible(self):
        """dense_lower(7) has 6 distinct nonzero rows, so 4 units cannot
        cover its edges."""
        with pytest.raises(InfeasibleError):
            factorizer.exact_factor_layer(adjacency.dense_lower(7), 4)

    @pytest.mark.parametrize("A, h", [(adjacency.dense_lower(6), 9),
                                      (adjacency.gen_random_sparse(16, 0.8, 3), 32)])
    def test_solves_beyond_small_shapes(self, A, h):
        M_V, M_W = factorizer.exact_factor_layer(A, h)
        assert factorizer.check_sparsity_equal(M_V @ M_W, A)
        gV, gW = factorizer.greedy_factor_layer(A, h)
        assert factorizer.objective_value(M_V @ M_W) >= factorizer.objective_value(gV @ gW)

    def test_width_beyond_the_recursion_limit(self):
        """The search keeps its own stack, so a branch 2000 units deep nests no
        Python calls.  dense_lower(4)'s top candidate {0, 1} (4 paths) beats
        greedy's cycle of rows (10 paths per 3 units), so the first branch
        takes it for 1998 units before the last two cover rows 1 and 3."""
        A = adjacency.dense_lower(4)
        M_V, M_W = factorizer.exact_factor_layer(A, 2000)
        assert factorizer.check_sparsity_equal(M_V @ M_W, A)
        assert factorizer.objective_value(M_V @ M_W) == 1998 * 4 + 3 + 3
        gV, gW = factorizer.greedy_factor_layer(A, 2000)
        assert factorizer.objective_value(gV @ gW) < 1998 * 4 + 3 + 3

    def test_unknown_objective_rejected_before_any_work(self, monkeypatch):
        monkeypatch.setattr(factorizer, "EXACT_STEP_BUDGET", 0)
        with pytest.raises(InvalidDimError):
            factorizer.exact_factor_layer(np.ones((60, 60), dtype=int), 5, "bogus")

    def test_all_zero_adjacency(self):
        M_V, M_W = factorizer.exact_factor_layer(np.zeros((3, 3), dtype=int), 2)
        assert not M_V.any() and not M_W.any()


class TestZukoFactor:
    def test_sparsity_with_enough_width(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            d = int(rng.integers(2, 10))
            A = adjacency.gen_random_sparse(d, float(rng.uniform(0.1, 0.8)),
                                            int(rng.integers(1 << 30)))
            masks = factorizer.zuko_factor(A, [d, d])
            assert factorizer.check_sparsity_equal(
                factorizer.mask_product(masks), A)

    def test_tiles_unique_rows(self):
        A = np.array([
            [0, 0, 0],
            [1, 0, 0],
            [1, 0, 0],
        ])
        masks = factorizer.zuko_factor(A, [3])
        np.testing.assert_array_equal(masks[0],
                                      np.array([[1, 0, 0]] * 3))
        np.testing.assert_array_equal(masks[1],
                                      np.array([[0, 0, 0], [1, 1, 1], [1, 1, 1]]))

    def test_no_hidden_layers_returns_adjacency(self):
        A = adjacency.gen_prev_k(5, 2)
        masks = factorizer.zuko_factor(A, [])
        assert len(masks) == 1
        np.testing.assert_array_equal(masks[0], A)

    def test_all_zero_chain(self):
        masks = factorizer.zuko_factor(np.zeros((3, 3), dtype=int), [4, 2])
        assert [m.shape for m in masks] == [(4, 3), (2, 4), (3, 2)]
        assert not any(m.any() for m in masks)

    def test_rejects_bad_width(self):
        with pytest.raises(InvalidDimError):
            factorizer.zuko_factor(adjacency.gen_prev_k(4, 1), [0])
        with pytest.raises(InvalidDimError):
            factorizer.zuko_factor(adjacency.gen_prev_k(4, 1), [3, -1])

    def test_narrow_width_loses_sparsity_silently(self):
        """Tiling fewer units than unique rows drops patterns (mirroring the
        ported behavior, which has no width guard)."""
        A = adjacency.dense_lower(4)  # 3 unique nonzero rows
        masks = factorizer.zuko_factor(A, [2])
        assert not factorizer.check_sparsity_equal(
            factorizer.mask_product(masks), A)


class TestGreedyVsZuko:
    def test_duplicate_heavy_rows_favor_greedy(self):
        """Cycling raw rows weights duplicated patterns by multiplicity, which
        unique-row tiling cannot, so greedy wins this hub-shaped instance."""
        A = np.zeros((5, 5), dtype=np.int64)
        A[1, 0] = A[2, 0] = A[3, 0] = 1
        A[4, 0] = A[4, 1] = 1
        h = 4
        gV, gW = factorizer.greedy_factor_layer(A, h)
        z = factorizer.mask_product(factorizer.zuko_factor(A, [h]))
        g_val = factorizer.objective_value(gV @ gW)
        z_val = factorizer.objective_value(z)
        assert factorizer.check_sparsity_equal(gV @ gW, A)
        assert factorizer.check_sparsity_equal(z, A)
        assert g_val > z_val


class TestMadeMasks:
    def test_shapes_and_constraints(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.integers(2, 8))
            hidden = [int(w) for w in rng.integers(1, 10, size=rng.integers(1, 4))]
            masks = factorizer.made_masks(d, hidden, rng)
            dims = [d] + hidden + [d]
            assert [m.shape for m in masks] == [
                (dims[k + 1], dims[k]) for k in range(len(dims) - 1)]

    def test_product_respects_some_ordering(self):
        """Each output depends only on inputs earlier in the sampled ordering."""
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = 5
            masks = factorizer.made_masks(d, [6, 6], rng)
            P = factorizer.mask_product(masks)
            nonzero = P != 0
            # Infer degrees from the first mask: input j's degree is d minus
            # the number of hidden units it may feed... instead recover the
            # ordering by topological comparison: dependence must be acyclic
            # and antisymmetric.
            for i in range(d):
                assert not nonzero[i, i]
                for j in range(d):
                    if nonzero[i, j]:
                        assert not nonzero[j, i]

    def test_natural_ordering_is_lower_triangular(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            masks = factorizer.made_masks(6, [8], rng, natural_ordering=True)
            P = factorizer.mask_product(masks)
            assert np.all(np.triu(P) == 0)

    def test_natural_ordering_first_variable_has_no_parents(self):
        rng = np.random.default_rng(3)
        masks = factorizer.made_masks(4, [5, 5], rng, natural_ordering=True)
        P = factorizer.mask_product(masks)
        assert not P[0].any()

    def test_hidden_degrees_within_range(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            masks = factorizer.made_masks(4, [3], rng, natural_ordering=True)
            # First-layer mask row r is (degree_r >= m0), so the row sum
            # recovers the sampled degree; degrees live in {1, ..., d-1}.
            degrees = masks[0].sum(axis=1)
            assert np.all(degrees >= 1) and np.all(degrees <= 3)

    def test_single_variable_with_hidden_rejected(self):
        with pytest.raises(InvalidDimError):
            factorizer.made_masks(1, [3], 0)

    def test_deterministic_given_seed(self):
        m1 = factorizer.made_masks(5, [4, 4], 99)
        m2 = factorizer.made_masks(5, [4, 4], 99)
        for a, b in zip(m1, m2):
            np.testing.assert_array_equal(a, b)


class TestFactorMultilayer:
    @pytest.mark.parametrize("method", ["greedy", "zuko"])
    def test_mask_count_and_shapes(self, method):
        A = adjacency.gen_random_sparse(6, 0.4, 8)
        hidden = [7, 5, 9]
        masks = factorizer.factor_multilayer(A, hidden, method)
        dims = [6] + hidden + [6]
        assert [m.shape for m in masks] == [
            (dims[k + 1], dims[k]) for k in range(len(dims) - 1)]
        assert factorizer.check_sparsity_equal(factorizer.mask_product(masks), A)

    def test_exact_multilayer_within_budget(self):
        A = adjacency.gen_random_sparse(5, 0.5, 3)
        masks = factorizer.factor_multilayer(A, [6, 8], "exact")
        assert factorizer.check_sparsity_equal(factorizer.mask_product(masks), A)

    def test_no_hidden_returns_copy_of_adjacency(self):
        A = adjacency.gen_prev_k(4, 2)
        masks = factorizer.factor_multilayer(A, [], "greedy")
        assert len(masks) == 1
        np.testing.assert_array_equal(masks[0], A)
        masks[0][0, 0] = 7
        assert A[0, 0] == 0

    @pytest.mark.parametrize("method", ["greedy", "exact", "zuko"])
    @pytest.mark.parametrize("hidden", [[4], []])
    def test_unknown_objective_rejected(self, method, hidden):
        with pytest.raises(InvalidDimError, match="bogus"):
            factorizer.factor_multilayer(adjacency.gen_prev_k(4, 1), hidden, method, "bogus")

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidDimError):
            factorizer.factor_multilayer(adjacency.dense_lower(3), [4], "magic")


# ---------------------------------------------------------------------------
# Factorization invariants over random DAGs


@st.composite
def lower_triangular(draw, max_d=5):
    d = draw(st.integers(1, max_d))
    A = np.zeros((d, d), dtype=np.int64)
    below = np.tril_indices(d, -1)
    A[below] = draw(st.lists(st.booleans(), min_size=len(below[0]), max_size=len(below[0])))
    return A


# Exact search time grows steeply with two hidden layers wider than 5.
WIDTHS = st.lists(st.integers(1, 5), min_size=0, max_size=2)
DOCUMENTED_ERRORS = {
    "greedy": (InsufficientWidthError,),
    "exact": (BudgetExceededError, InfeasibleError),
}


class TestFactorizationProperties:
    @settings(max_examples=300)
    @given(A=lower_triangular(), widths=WIDTHS,
           method=st.sampled_from(["greedy", "exact", "zuko"]),
           objective=st.sampled_from(factorizer.OBJECTIVES))
    def test_product_support_is_the_adjacency(self, A, widths, method, objective):
        """greedy and exact reproduce A exactly or raise their documented
        error; zuko never adds an edge and, with every hidden layer at least
        as wide as A's distinct nonzero rows, drops none."""
        try:
            masks = factorizer.factor_multilayer(A, widths, method, objective)
        except DOCUMENTED_ERRORS.get(method, ()):
            return
        support = factorizer.mask_product(masks) > 0
        if method == "zuko":
            assert not (support & (A == 0)).any()
            n_rows = len(np.unique(A[A.any(axis=1)], axis=0))
            if all(w >= n_rows for w in widths):
                np.testing.assert_array_equal(support, A > 0)
        else:
            np.testing.assert_array_equal(support, A > 0)

    @settings(max_examples=200)
    @given(A=lower_triangular(max_d=6), h=st.integers(1, 8),
           objective=st.sampled_from(factorizer.OBJECTIVES))
    def test_exact_objective_at_least_greedy(self, A, h, objective):
        try:
            greedy = factorizer.factor_multilayer(A, [h], "greedy", objective)
            exact = factorizer.factor_multilayer(A, [h], "exact", objective)
        except (InsufficientWidthError, BudgetExceededError, InfeasibleError):
            return
        assert (factorizer.objective_value(factorizer.mask_product(exact), objective)
                >= factorizer.objective_value(factorizer.mask_product(greedy), objective))

    @settings(max_examples=200)
    @given(A=lower_triangular(), widths=WIDTHS,
           method=st.sampled_from(["greedy", "exact", "zuko"]),
           head=st.sampled_from(["binary", "gaussian"]), seed=st.integers(0, 2**16))
    def test_initialized_network_support_is_its_pattern(self, A, widths, method, head, seed):
        """A fresh network reads every input its pattern allows.  A gaussian
        head starts with zero output weights, so its own support is empty;
        its drawn hidden weights chained through the output mask give the
        pattern, stacked twice."""
        try:
            masks = factorizer.factor_multilayer(A, widths, method)
        except DOCUMENTED_ERRORS.get(method, ()):
            return
        net = neural.MaskedMLP.from_masks(masks, head, seed)
        pattern = net.pattern > 0
        support = neural.support(net)
        if head == "gaussian":
            pattern = np.vstack([pattern, pattern])
            assert not support.any()
            drawn = [W != 0 for W in net.weights[:-1]] + [net.masks[-1]]
            support = factorizer.mask_product(drawn) > 0
        np.testing.assert_array_equal(support, pattern)
