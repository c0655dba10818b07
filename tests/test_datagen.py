"""Tests for the synthetic dataset families and dataset file IO."""

import json

import numpy as np
import pytest
import scipy.stats

from strnn import adjacency, causal, datagen, neural
from strnn.errors import ConfigError, InvalidDimError, ParseError


class TestGenBinary:
    def test_values_are_binary(self):
        A = adjacency.gen_prev_k(4, 2)
        gen = datagen.gen_binary(A, 100, 0)
        assert set(np.unique(gen.x)) <= {0.0, 1.0}
        assert gen.kind == "binary" and gen.family == "binary"

    def test_alpha_respects_adjacency(self):
        A = adjacency.gen_every_other(6)
        gen = datagen.gen_binary(A, 10, 1)
        assert np.all(gen.params["alpha"][A == 0] == 0)

    def test_matches_sequential_draw_order(self):
        """The documented draw order (alpha, intercepts, then one uniform
        block per coordinate) is a reproducibility contract."""
        A = adjacency.gen_prev_k(3, 1)
        gen = datagen.gen_binary(A, 50, 123)
        rng = np.random.default_rng(123)
        alpha = rng.standard_normal((3, 3)) * A
        c = rng.standard_normal(3)
        x = np.zeros((50, 3))
        for i in range(3):
            p = 1.0 / (1.0 + np.exp(-(x @ alpha[i] + c[i])))
            x[:, i] = rng.random(50) < p
        np.testing.assert_array_equal(gen.x, x)

    def test_marginal_rate_matches_intercept(self):
        """Coordinate 0 has no parents, so its rate is sigmoid(c_0)."""
        A = adjacency.gen_prev_k(3, 1)
        gen = datagen.gen_binary(A, 200000, 7)
        target = 1.0 / (1.0 + np.exp(-gen.params["c"][0]))
        np.testing.assert_allclose(gen.x[:, 0].mean(), target, atol=0.005)

    def test_conditional_rates_self_consistent(self):
        """E[x_i] equals E[sigmoid(parents)] under the generating law."""
        A = adjacency.dense_lower(4)
        gen = datagen.gen_binary(A, 200000, 8)
        alpha, c = gen.params["alpha"], gen.params["c"]
        for i in range(4):
            p = 1.0 / (1.0 + np.exp(-(gen.x @ alpha[i] + c[i])))
            np.testing.assert_allclose(gen.x[:, i].mean(), p.mean(),
                                       atol=0.005)

    def test_deterministic(self):
        A = adjacency.gen_prev_k(4, 2)
        a = datagen.gen_binary(A, 30, 5)
        b = datagen.gen_binary(A, 30, 5)
        np.testing.assert_array_equal(a.x, b.x)


class TestGenGaussian:
    def test_matches_sequential_draw_order(self):
        A = adjacency.gen_prev_k(3, 2)
        gen = datagen.gen_gaussian(A, 40, 9)
        rng = np.random.default_rng(9)
        alpha = rng.standard_normal((3, 3)) * A
        c = rng.standard_normal(3)
        sigma = np.maximum(np.abs(rng.standard_normal(3)), 0.01)
        x = np.zeros((40, 3))
        for i in range(3):
            x[:, i] = x @ alpha[i] + c[i] + sigma[i] * rng.standard_normal(40)
        np.testing.assert_array_equal(gen.x, x)

    def test_root_moments(self):
        A = adjacency.gen_prev_k(3, 1)
        gen = datagen.gen_gaussian(A, 100000, 10)
        c0, s0 = gen.params["c"][0], gen.params["sigma"][0]
        np.testing.assert_allclose(gen.x[:, 0].mean(), c0, atol=5 * s0 / 300)
        np.testing.assert_allclose(gen.x[:, 0].std(), s0, rtol=0.02)

    def test_sigma_floor(self):
        for seed in range(30):
            gen = datagen.gen_gaussian(adjacency.gen_prev_k(5, 1), 2, seed)
            assert np.all(gen.params["sigma"] >= 0.01)


class TestTrueNll:
    def test_binary_hand_loop(self):
        A = adjacency.dense_lower(4)
        gen = datagen.gen_binary(A, 12, 11)
        alpha, c = gen.params["alpha"], gen.params["c"]
        got = datagen.true_nll_binary(gen, gen.x)
        for s in range(12):
            total = 0.0
            for i in range(4):
                p = 1.0 / (1.0 + np.exp(-(gen.x[s] @ alpha[i] + c[i])))
                total -= np.log(p) if gen.x[s, i] == 1 else np.log(1 - p)
            np.testing.assert_allclose(got[s], total, rtol=1e-9)

    def test_gaussian_matches_norm_logpdf(self):
        A = adjacency.gen_prev_k(3, 2)
        gen = datagen.gen_gaussian(A, 15, 12)
        alpha, c, sigma = (gen.params["alpha"], gen.params["c"],
                           gen.params["sigma"])
        got = datagen.true_nll_gaussian(gen, gen.x)
        for s in range(15):
            total = 0.0
            for i in range(3):
                mu = gen.x[s] @ alpha[i] + c[i]
                total -= scipy.stats.norm.logpdf(gen.x[s, i], mu, sigma[i])
            np.testing.assert_allclose(got[s], total, rtol=1e-9)

    def test_true_nll_near_entropy_rate(self):
        """Mean true NLL over the generator's own samples estimates the
        differential entropy; for Gaussians that is sum log(sigma sqrt(2 pi e))."""
        A = adjacency.gen_prev_k(3, 2)
        gen = datagen.gen_gaussian(A, 200000, 13)
        sigma = gen.params["sigma"]
        entropy = np.sum(np.log(sigma) + 0.5 * np.log(2 * np.pi * np.e))
        got = datagen.true_nll_gaussian(gen, gen.x).mean()
        np.testing.assert_allclose(got, entropy, rtol=0.02)


class TestNonlinearMultimodal:
    def test_dependent_residuals_are_standard_normal(self):
        gen = datagen.gen_nonlinear_multimodal(6, 4000, 21)
        W = gen.params["weights"]
        parentless = gen.params["parentless"].astype(bool)
        assert not parentless.all()
        i = int(np.flatnonzero(~parentless)[0])
        resid = gen.x[:, i] - np.sqrt(((gen.x * W[i]) ** 2).sum(axis=1))
        assert scipy.stats.kstest(resid, "norm").pvalue > 0.01

    def test_parentless_matches_mixture_cdf(self):
        gen = datagen.gen_nonlinear_multimodal(6, 4000, 22)
        parentless = gen.params["parentless"].astype(bool)
        i = int(np.flatnonzero(parentless)[0])
        m = gen.params["mix_means"][i]
        s = gen.params["mix_stds"][i]
        w = gen.params["mix_weights"][i]

        def cdf(t):
            t = np.asarray(t)[..., None]
            return (w * scipy.stats.norm.cdf((t - m) / s)).sum(axis=-1)

        assert scipy.stats.kstest(gen.x[:, i], cdf).pvalue > 0.01

    def test_adjacency_from_random_sparse(self):
        gen = datagen.gen_nonlinear_multimodal(8, 5, 23, threshold=0.5)
        adjacency.validate(gen.adjacency)
        assert np.all((gen.params["weights"] != 0) == (gen.adjacency == 1))

    def test_rejects_small_d(self):
        with pytest.raises(InvalidDimError):
            datagen.gen_nonlinear_multimodal(1, 10, 0)

    def test_deterministic(self):
        a = datagen.gen_nonlinear_multimodal(5, 20, 3)
        b = datagen.gen_nonlinear_multimodal(5, 20, 3)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.adjacency, b.adjacency)


class TestLinearSemData:
    def test_matches_causal_module_stream(self):
        gen = datagen.gen_linear_sem_data(5, 25, 31)
        rng = np.random.default_rng(31)
        sem = causal.gen_linear_sem(5, 1.5, rng)
        x = causal.sem_sample(sem, 25, rng)
        np.testing.assert_array_equal(gen.x, x)
        np.testing.assert_array_equal(gen.params["weights"], sem.weights)

    def test_adjacency_matches_weights(self):
        gen = datagen.gen_linear_sem_data(6, 5, 32)
        assert np.all((gen.params["weights"] != 0) == (gen.adjacency == 1))


class TestSplitIndices:
    def test_frozen_sizes(self):
        tr, va, te = datagen.split_indices(10, (0.6, 0.2, 0.2), 0)
        assert (len(tr), len(va), len(te)) == (6, 2, 2)

    def test_remainder_goes_to_test(self):
        tr, va, te = datagen.split_indices(7, (0.5, 0.3, 0.2), 0)
        assert (len(tr), len(va), len(te)) == (3, 2, 2)
        tr, va, te = datagen.split_indices(5, (1 / 3, 1 / 3, 1 / 3), 0)
        assert (len(tr), len(va), len(te)) == (1, 1, 3)

    def test_disjoint_cover(self):
        for seed in range(10):
            parts = datagen.split_indices(57, (0.7, 0.15, 0.15), seed)
            joined = np.concatenate(parts)
            assert sorted(joined) == list(range(57))

    def test_deterministic(self):
        a = datagen.split_indices(20, (0.6, 0.2, 0.2), 4)
        b = datagen.split_indices(20, (0.6, 0.2, 0.2), 4)
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u, v)

    @pytest.mark.parametrize("ratios", [(0.5, 0.5), (0.6, 0.2, 0.3),
                                        (-0.1, 0.6, 0.5), (1.0, 0.2, -0.2)])
    def test_bad_ratios_rejected(self, ratios):
        with pytest.raises(ConfigError):
            datagen.split_indices(10, ratios, 0)


class TestSynthSpec:
    def test_round_trip_each_family(self):
        specs = [
            datagen.SynthSpec("binary", 50, seed=1,
                              adjacency={"scheme": "prev_k", "d": 4, "k": 2}),
            datagen.SynthSpec("gaussian", 50, seed=2,
                              adjacency={"scheme": "dense", "d": 3}),
            datagen.SynthSpec("nonlinear_multimodal", 50, seed=3, d=5,
                              threshold=0.7),
            datagen.SynthSpec("linear_sem", 50, seed=4, d=6, cutoff=1.2),
        ]
        for spec in specs:
            back = datagen.SynthSpec.from_dict(spec.to_dict())
            assert back == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            datagen.SynthSpec.from_dict({"family": "linear_sem", "n": 5,
                                         "d": 3, "bogus": 1})

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            datagen.SynthSpec("mystery", 10).validate()

    def test_missing_adjacency_rejected(self):
        with pytest.raises(ConfigError):
            datagen.SynthSpec("binary", 10).validate()

    def test_missing_d_rejected(self):
        with pytest.raises(ConfigError):
            datagen.SynthSpec("linear_sem", 10).validate()

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ConfigError):
            datagen.SynthSpec("linear_sem", 0, d=3).validate()


class TestGenerate:
    def test_deterministic_end_to_end(self):
        spec = datagen.SynthSpec("gaussian", 40, seed=6,
                                 adjacency={"scheme": "prev_k", "d": 4, "k": 1})
        g1, d1 = datagen.generate(spec)
        g2, d2 = datagen.generate(spec)
        np.testing.assert_array_equal(g1.x, g2.x)
        np.testing.assert_array_equal(d1.idx_train, d2.idx_train)

    def test_binary_family_dataset_kind(self):
        spec = datagen.SynthSpec("binary", 30, seed=7,
                                 adjacency={"scheme": "every_other", "d": 5})
        gen, dataset = datagen.generate(spec)
        assert dataset.kind == "binary"
        assert gen.x.shape == (30, 5)
        assert len(dataset.idx_train) == 18


class TestDatasetFiles:
    def test_real_round_trip_bit_identical(self, tmp_path):
        spec = datagen.SynthSpec("linear_sem", 25, seed=8, d=4)
        gen, dataset = datagen.generate(spec)
        path = str(tmp_path / "data.txt")
        datagen.write_dataset(path, gen, dataset, spec=spec)
        gen2, dataset2 = datagen.read_dataset(path)
        np.testing.assert_array_equal(gen.x, gen2.x)
        np.testing.assert_array_equal(dataset.idx_test, dataset2.idx_test)
        datagen.write_dataset(str(tmp_path / "again.txt"), gen2, dataset2,
                              spec=spec)
        assert (tmp_path / "again.txt").read_text() == \
            (tmp_path / "data.txt").read_text()

    def test_binary_rows_are_integer_tokens(self, tmp_path):
        spec = datagen.SynthSpec("binary", 6, seed=9,
                                 adjacency={"scheme": "prev_k", "d": 3, "k": 1})
        gen, dataset = datagen.generate(spec)
        path = str(tmp_path / "b.txt")
        datagen.write_dataset(path, gen, dataset, spec=spec)
        lines = (tmp_path / "b.txt").read_text().splitlines()
        assert lines[0] == "6 3 binary"
        for ln in lines[1:]:
            assert set(ln.split()) <= {"0", "1"}
        gen2, _ = datagen.read_dataset(path)
        np.testing.assert_array_equal(gen.x, gen2.x)

    def test_sidecar_contents(self, tmp_path):
        spec = datagen.SynthSpec("gaussian", 10, seed=11,
                                 adjacency={"scheme": "prev_k", "d": 3, "k": 2})
        gen, dataset = datagen.generate(spec)
        path = str(tmp_path / "g.txt")
        datagen.write_dataset(path, gen, dataset, spec=spec,
                              adjacency_path="g.adj.txt")
        side = json.loads((tmp_path / "g.txt.json").read_text())
        assert side["tool"] == "strnn"
        assert side["kind"] == "real" and side["family"] == "gaussian"
        assert side["n"] == 10 and side["d"] == 3
        assert side["seed"] == 11
        assert side["adjacency_file"] == "g.adj.txt"
        assert sorted(side["splits"]) == ["test", "train", "val"]
        assert set(side["params"]) == {"alpha", "c", "sigma"}

    def test_adjacency_reconstructed_from_params(self, tmp_path):
        spec = datagen.SynthSpec("binary", 8, seed=12,
                                 adjacency={"scheme": "dense", "d": 4})
        gen, dataset = datagen.generate(spec)
        path = str(tmp_path / "a.txt")
        datagen.write_dataset(path, gen, dataset, spec=spec)
        gen2, _ = datagen.read_dataset(path)
        np.testing.assert_array_equal(gen2.adjacency, gen.adjacency)

    def test_parse_errors_carry_location(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("3 real\n")
        with pytest.raises(ParseError):
            datagen.read_dataset(str(p))
        p.write_text("2 2 real\n1.0 2.0\n")
        with pytest.raises(ParseError, match="rows"):
            datagen.read_dataset(str(p))
        p.write_text("1 3 real\n1.0 2.0\n")
        with pytest.raises(ParseError, match="values"):
            datagen.read_dataset(str(p))
        p.write_text("1 2 real\n1.0 frog\n")
        with pytest.raises(ParseError, match="non-numeric"):
            datagen.read_dataset(str(p))
        p.write_text("1 2 complex\n1.0 2.0\n")
        with pytest.raises(ParseError, match="kind"):
            datagen.read_dataset(str(p))

    def write_small(self, tmp_path):
        spec = datagen.SynthSpec("gaussian", 10, seed=14,
                                 adjacency={"scheme": "prev_k", "d": 3, "k": 1})
        gen, dataset = datagen.generate(spec)
        path = str(tmp_path / "s.txt")
        datagen.write_dataset(path, gen, dataset, spec=spec)
        return path

    def test_empty_file_is_parse_error(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("\n  \n")
        with pytest.raises(ParseError, match="empty") as info:
            datagen.read_dataset(str(p))
        assert info.value.path == str(p)

    def test_missing_sidecar_is_parse_error(self, tmp_path):
        path = self.write_small(tmp_path)
        (tmp_path / "s.txt.json").unlink()
        with pytest.raises(ParseError, match="sidecar") as info:
            datagen.read_dataset(path)
        assert info.value.path == path + ".json"

    def test_sidecar_without_splits_is_parse_error(self, tmp_path):
        path = self.write_small(tmp_path)
        side = tmp_path / "s.txt.json"
        cfg = json.loads(side.read_text())
        del cfg["splits"]["val"]
        side.write_text(json.dumps(cfg))
        with pytest.raises(ParseError, match="splits") as info:
            datagen.read_dataset(path)
        assert info.value.path == path + ".json"
        del cfg["splits"]
        side.write_text(json.dumps(cfg))
        with pytest.raises(ParseError, match="splits"):
            datagen.read_dataset(path)

    @pytest.mark.parametrize("part, index", [("train", 999), ("train", 10), ("val", -1),
                                             ("test", 1.5), ("test", True), ("val", "3")])
    def test_sidecar_split_index_is_checked(self, tmp_path, part, index):
        path = self.write_small(tmp_path)
        side = tmp_path / "s.txt.json"
        cfg = json.loads(side.read_text())
        cfg["splits"][part][-1] = index
        side.write_text(json.dumps(cfg))
        with pytest.raises(ParseError, match=f"split '{part}'.*0..9") as info:
            datagen.read_dataset(path)
        assert info.value.path == path + ".json"

    def test_sidecar_splits_and_params_must_be_containers(self, tmp_path):
        path = self.write_small(tmp_path)
        side = tmp_path / "s.txt.json"
        cfg = json.loads(side.read_text())
        cfg["splits"]["train"] = 3
        side.write_text(json.dumps(cfg))
        with pytest.raises(ParseError, match="split 'train'"):
            datagen.read_dataset(path)
        cfg = json.loads(side.read_text())
        cfg["splits"]["train"] = [0]
        cfg["params"] = [1.0]
        side.write_text(json.dumps(cfg))
        with pytest.raises(ParseError, match="'params' must be an object"):
            datagen.read_dataset(path)

    @pytest.mark.parametrize("value", ["x", None, True, [[1.0, 2.0], [3.0]],
                                       [1.0, "2"], {"a": 1}])
    def test_sidecar_params_must_be_numeric(self, tmp_path, value):
        path = self.write_small(tmp_path)
        side = tmp_path / "s.txt.json"
        cfg = json.loads(side.read_text())
        cfg["params"]["c"] = value
        side.write_text(json.dumps(cfg))
        with pytest.raises(ParseError, match="params entry 'c'") as info:
            datagen.read_dataset(path)
        assert info.value.path == path + ".json"

    def test_sidecar_not_an_object_is_parse_error(self, tmp_path):
        path = self.write_small(tmp_path)
        (tmp_path / "s.txt.json").write_text("[1, 2]")
        with pytest.raises(ParseError, match="JSON object, not list") as info:
            datagen.read_dataset(path)
        assert info.value.path == path + ".json"

    def test_sidecar_bad_json_is_parse_error(self, tmp_path):
        path = self.write_small(tmp_path)
        (tmp_path / "s.txt.json").write_text('{\n  "splits": \n')
        with pytest.raises(ParseError, match="JSON") as info:
            datagen.read_dataset(path)
        assert info.value.line_no == 3

    def test_true_nll_survives_round_trip(self, tmp_path):
        spec = datagen.SynthSpec("gaussian", 15, seed=13,
                                 adjacency={"scheme": "prev_k", "d": 3, "k": 1})
        gen, dataset = datagen.generate(spec)
        path = str(tmp_path / "n.txt")
        datagen.write_dataset(path, gen, dataset, spec=spec)
        gen2, _ = datagen.read_dataset(path)
        np.testing.assert_allclose(datagen.true_nll_gaussian(gen2, gen2.x),
                                   datagen.true_nll_gaussian(gen, gen.x),
                                   rtol=1e-12)


class TestMakeDataset:
    def test_wraps_neural_dataset(self):
        x = np.random.default_rng(0).normal(size=(20, 3))
        ds = datagen.make_dataset(x, "real", (0.6, 0.2, 0.2), 1)
        assert isinstance(ds, neural.Dataset)
        assert len(ds.idx_train) == 12
        np.testing.assert_array_equal(ds.x, x)
