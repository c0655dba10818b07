"""Tests for adjacency construction, validation, and matrix file I/O."""

import numpy as np
import pytest

from strnn import adjacency
from strnn.errors import (
    ConfigError,
    InvalidDimError,
    InvalidThresholdError,
    NonBinaryEntryError,
    ParseError,
    UpperTriangleNonZeroError,
    UsageError,
    decode,
)


class TestValidate:
    def test_accepts_strictly_lower_binary(self):
        """A binary strictly-lower matrix passes through as int64."""
        A = np.array([[0, 0], [1, 0]])
        out = adjacency.validate(A)
        np.testing.assert_array_equal(out, A)
        assert out.dtype == np.int64

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidDimError):
            adjacency.validate(np.zeros((2, 3), dtype=int))

    def test_rejects_empty(self):
        with pytest.raises(InvalidDimError):
            adjacency.validate(np.zeros((0, 0), dtype=int))

    def test_rejects_nonbinary_with_location(self):
        A = np.array([[0, 0], [2, 0]])
        with pytest.raises(NonBinaryEntryError) as exc:
            adjacency.validate(A)
        assert exc.value.i == 1 and exc.value.j == 0
        assert str(exc.value) == "non-binary entry 2 at (1, 0)"

    def test_rejects_diagonal_entry(self):
        A = np.array([[1, 0], [0, 0]])
        with pytest.raises(UpperTriangleNonZeroError) as exc:
            adjacency.validate(A)
        assert (exc.value.i, exc.value.j) == (0, 0)

    def test_rejects_upper_entry(self):
        A = np.array([[0, 1], [0, 0]])
        with pytest.raises(UpperTriangleNonZeroError) as exc:
            adjacency.validate(A)
        assert (exc.value.i, exc.value.j) == (0, 1)


class TestGenerators:
    def test_dense_lower(self):
        expected = np.array([
            [0, 0, 0, 0],
            [1, 0, 0, 0],
            [1, 1, 0, 0],
            [1, 1, 1, 0],
        ])
        np.testing.assert_array_equal(adjacency.dense_lower(4), expected)

    def test_prev_k_is_banded(self):
        """prev_k keeps exactly the k most recent predecessors."""
        A = adjacency.gen_prev_k(5, 2)
        expected = np.array([
            [0, 0, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [0, 1, 1, 0, 0],
            [0, 0, 1, 1, 0],
        ])
        np.testing.assert_array_equal(A, expected)

    def test_prev_1_is_chain(self):
        A = adjacency.gen_prev_k(4, 1)
        np.testing.assert_array_equal(A, np.eye(4, k=-1, dtype=np.int64))

    def test_prev_k_saturates_to_dense(self):
        np.testing.assert_array_equal(adjacency.gen_prev_k(5, 10),
                                      adjacency.dense_lower(5))

    def test_every_other_alternates(self):
        A = adjacency.gen_every_other(6)
        for i in range(6):
            for j in range(6):
                expected = 1 if (j < i and (i - j) % 2 == 1) else 0
                assert A[i, j] == expected, (i, j)

    def test_random_sparse_deterministic(self):
        A1 = adjacency.gen_random_sparse(12, 0.5, 42)
        A2 = adjacency.gen_random_sparse(12, 0.5, 42)
        np.testing.assert_array_equal(A1, A2)

    def test_random_sparse_rowmajor_perpair_draws(self):
        """Each strictly-lower cell consumes one uniform draw in row-major order."""
        d, threshold, seed = 7, 0.35, 3
        rng = np.random.default_rng(seed)
        expected = np.zeros((d, d), dtype=np.int64)
        for i in range(1, d):
            for j in range(i):
                if rng.random() > threshold:
                    expected[i, j] = 1
        np.testing.assert_array_equal(
            adjacency.gen_random_sparse(d, threshold, seed), expected)

    def test_random_sparse_threshold_monotone(self):
        """Raising the threshold with a fixed seed only removes edges."""
        lo = adjacency.gen_random_sparse(10, 0.2, 9)
        hi = adjacency.gen_random_sparse(10, 0.8, 9)
        assert np.all(hi <= lo)

    def test_random_sparse_extremes(self):
        assert adjacency.gen_random_sparse(6, 1.0, 0).sum() == 0
        np.testing.assert_array_equal(adjacency.gen_random_sparse(6, 0.0, 0),
                                      adjacency.dense_lower(6))

    def test_random_sparse_bad_threshold(self):
        with pytest.raises(InvalidThresholdError):
            adjacency.gen_random_sparse(5, 1.5, 0)
        with pytest.raises(InvalidThresholdError):
            adjacency.gen_random_sparse(5, -0.1, 0)

    def test_neighborhood_line(self):
        """On a 1x3 strip with radius 1 each pixel sees only its left neighbor."""
        A = adjacency.gen_neighborhood(1, 3, 1)
        expected = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        np.testing.assert_array_equal(A, expected)

    def test_neighborhood_square(self):
        """On a 2x2 grid the last pixel skips the diagonally opposite corner."""
        A = adjacency.gen_neighborhood(2, 2, 1)
        expected = np.array([
            [0, 0, 0, 0],
            [1, 0, 0, 0],
            [1, 0, 0, 0],
            [0, 1, 1, 0],
        ])
        np.testing.assert_array_equal(A, expected)

    def test_neighborhood_manhattan_rule(self):
        """Pixel q is a parent of p iff q precedes p and L1 distance <= radius."""
        rows, cols, radius = 3, 4, 2
        A = adjacency.gen_neighborhood(rows, cols, radius)
        for p in range(rows * cols):
            for q in range(rows * cols):
                pr, pc = divmod(p, cols)
                qr, qc = divmod(q, cols)
                expected = int(q < p and abs(pr - qr) + abs(pc - qc) <= radius)
                assert A[p, q] == expected, (p, q)

    def test_neighborhood_large_radius_orders_fully(self):
        A = adjacency.gen_neighborhood(2, 3, 10)
        np.testing.assert_array_equal(A, adjacency.dense_lower(6))


class TestMatrixIO:
    def test_square_roundtrip(self, tmp_path):
        A = adjacency.gen_random_sparse(9, 0.4, 1)
        path = tmp_path / "A.txt"
        adjacency.write_matrix(A, path)
        np.testing.assert_array_equal(adjacency.read_matrix(path), A)

    def test_rectangular_roundtrip(self, tmp_path):
        M = np.arange(12).reshape(3, 4)
        path = tmp_path / "M.txt"
        adjacency.write_matrix(M, path)
        np.testing.assert_array_equal(adjacency.read_matrix(path), M)

    def test_header_formats(self, tmp_path):
        path = tmp_path / "A.txt"
        adjacency.write_matrix(np.zeros((3, 3), dtype=int), path)
        assert path.read_text().splitlines()[0] == "3"
        adjacency.write_matrix(np.zeros((2, 5), dtype=int), path)
        assert path.read_text().splitlines()[0] == "2 5"

    def test_read_rejects_bad_token(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 0\n1 x\n")
        with pytest.raises(ParseError) as exc:
            adjacency.read_matrix(path)
        assert exc.value.line_no == 3

    def test_read_rejects_wrong_row_length(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 0\n1\n")
        with pytest.raises(ParseError):
            adjacency.read_matrix(path)

    def test_read_rejects_missing_rows(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n0 0 0\n")
        with pytest.raises(ParseError):
            adjacency.read_matrix(path)

    def test_validated_read_rejects_upper_entries(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 1\n0 0\n")
        M = adjacency.read_matrix(path)
        assert M[0, 1] == 1
        with pytest.raises(UpperTriangleNonZeroError):
            adjacency.validate(M)

    def test_adjacency_read_names_the_line(self, tmp_path):
        """An adjacency read takes exactly what ``validate`` takes, but names
        the line; a plain read still takes any integers."""
        path = tmp_path / "A.txt"
        A = adjacency.gen_random_sparse(6, 0.4, 2)
        adjacency.write_matrix(A, path)
        np.testing.assert_array_equal(adjacency.read_matrix(path, adjacency=True), A)
        for i, j, value in [(3, 1, 2), (3, 1, -1), (2, 2, 1), (1, 4, 1)]:
            B = A.copy()
            B[i, j] = value
            adjacency.write_matrix(B, path)
            with pytest.raises(UsageError):
                adjacency.validate(B)
            with pytest.raises(ParseError, match="adjacency entries") as exc:
                adjacency.read_matrix(path, adjacency=True)
            assert exc.value.line_no == i + 2
            np.testing.assert_array_equal(adjacency.read_matrix(path), B)


def load_spec(cfg):
    return decode(adjacency.GeneratorSpec, cfg, "adjacency spec ").validate()


class TestGeneratorSpec:
    def test_roundtrip_each_scheme(self):
        specs = [
            adjacency.GeneratorSpec(scheme="prev_k", d=6, k=2),
            adjacency.GeneratorSpec(scheme="every_other", d=6),
            adjacency.GeneratorSpec(scheme="random_sparse", d=6, threshold=0.5,
                                    seed=4),
            adjacency.GeneratorSpec(scheme="neighborhood", rows=2, cols=3,
                                    nbr_size=1),
            adjacency.GeneratorSpec(scheme="dense", d=5),
        ]
        for spec in specs:
            again = load_spec(spec.to_dict())
            np.testing.assert_array_equal(spec.generate(), again.generate())

    def test_generate_matches_direct_calls(self):
        spec = adjacency.GeneratorSpec(scheme="random_sparse", d=8,
                                       threshold=0.3, seed=11)
        np.testing.assert_array_equal(spec.generate(),
                                      adjacency.gen_random_sparse(8, 0.3, 11))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_spec({"scheme": "prev_k", "d": 4, "k": 1, "wat": True})

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            load_spec({"scheme": "mystery", "d": 4})

    def test_unset_dimension_rejected(self):
        with pytest.raises(InvalidDimError):
            adjacency.GeneratorSpec(scheme="prev_k").generate()
