"""End-to-end tests for the command-line interface.

Each test drives cli.main() in process and inspects exit codes and the files
left behind.
"""

import json
import os
import time

import numpy as np
import pytest

from strnn import adjacency, causal, cli, datagen, factorizer, flow, neural


# A small trained flow and the linear SEM of its data (tests/data/README.md).
CAUSAL = os.path.join(os.path.dirname(__file__), "data", "causal_eval")

# A parametrized value that stands for a key left out of the config.
ABSENT = object()


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("STRNN_SEED", raising=False)


def write_adjacency(tmp_path, A, name="adj.txt"):
    path = str(tmp_path / name)
    adjacency.write_matrix(A, path)
    return path


def reject_constant(name):
    """``json.loads``'s ``parse_constant``: strict JSON has no NaN or Infinity."""
    raise ValueError(f"non-JSON constant {name}")


def assert_parse_error_names(path, capsys):
    err = capsys.readouterr().err
    assert f"error: {path}:1:" in err and "Traceback" not in err


def write_gaussian_dataset(tmp_path, n=60, d=3, seed=3):
    spec = datagen.SynthSpec("gaussian", n, seed=seed,
                             adjacency=adjacency.GeneratorSpec("prev_k", d=d, k=2))
    gen, dataset = datagen.generate(spec)
    path = str(tmp_path / "data.txt")
    datagen.write_dataset(path, gen, dataset, spec=spec)
    adj = write_adjacency(tmp_path, gen.adjacency)
    return path, adj


class TestFactorCommand:
    def test_writes_masks_product_and_report(self, tmp_path, capsys):
        adj = write_adjacency(tmp_path, adjacency.gen_prev_k(5, 2))
        out = str(tmp_path / "out")
        assert cli.main(["factor", "--adjacency", adj, "--widths", "6,6",
                         "--out-dir", out]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["tool"] == "strnn"
        assert report["sparsity_ok"] is True
        assert report["widths"] == [6, 6]
        assert report["objective_value"] > 0
        masks = [adjacency.read_matrix(str(tmp_path / "out" / f"mask_{k}.txt"))
                 for k in range(3)]
        product = adjacency.read_matrix(str(tmp_path / "out" / "product.txt"))
        A = adjacency.gen_prev_k(5, 2)
        np.testing.assert_array_equal((product > 0).astype(int), A)
        assert masks[0].shape == (6, 5) and masks[2].shape == (5, 6)

    def test_space_separated_widths(self, tmp_path):
        adj = write_adjacency(tmp_path, adjacency.gen_prev_k(4, 1))
        assert cli.main(["factor", "--adjacency", adj, "--widths", "4 4",
                         "--out-dir", str(tmp_path / "o")]) == 0

    def test_compare_reports_per_method(self, tmp_path):
        adj = write_adjacency(tmp_path, adjacency.gen_prev_k(6, 3))
        out = str(tmp_path / "cmp")
        assert cli.main(["factor", "--adjacency", adj, "--widths", "8,8",
                         "--out-dir", out, "--compare"]) == 0
        cmp_data = json.loads((tmp_path / "cmp" / "compare.json").read_text())
        assert set(cmp_data) == {"greedy", "exact", "zuko"}
        assert cmp_data["greedy"]["sparsity_ok"] is True
        assert cmp_data["exact"] == {"objective_value": 95.0, "sparsity_ok": True}

    @pytest.mark.parametrize("args", [
        ["--method", "exact", "--objective", factorizer.MAX_CONNECTIONS],
        ["--method", "exact", "--objective", factorizer.CONNECTIONS_MINUS_VARIANCE],
        ["--compare"],
    ])
    def test_exact_on_a_wide_layer_ends_within_seconds(self, tmp_path, args):
        """The exact search gives up on its step budget, not on the shape,
        and does so quickly: d = 20 at width 40 exits 0 or 2 within 5 s."""
        adj = write_adjacency(tmp_path, adjacency.gen_random_sparse(20, 0.5, 0))
        t0 = time.perf_counter()
        code = cli.main(["factor", "--adjacency", adj, "--widths", "40",
                         "--out-dir", str(tmp_path / "o")] + args)
        assert code in (0, 2)
        assert time.perf_counter() - t0 < 5.0

    def test_compare_reuses_the_chosen_method(self, tmp_path, monkeypatch):
        """The comparison takes the chosen method's entry from the
        factorization the report already holds: one factorization per method."""
        calls, factor_multilayer = [], factorizer.factor_multilayer

        def counted(*args):
            calls.append(args[2])
            return factor_multilayer(*args)

        monkeypatch.setattr(factorizer, "factor_multilayer", counted)
        adj = write_adjacency(tmp_path, adjacency.gen_random_sparse(5, 0.5, 0))
        out = tmp_path / "cmp"
        assert cli.main(["factor", "--adjacency", adj, "--widths", "4", "--method", "exact",
                         "--objective", factorizer.CONNECTIONS_MINUS_VARIANCE,
                         "--out-dir", str(out), "--compare"]) == 0
        assert sorted(calls) == ["exact", "greedy", "zuko"]
        report = json.loads((out / "report.json").read_text())
        assert report["comparison"]["exact"] == {
            "objective_value": report["objective_value"], "sparsity_ok": report["sparsity_ok"]}
        assert json.loads((out / "compare.json").read_text()) == report["comparison"]

    def test_sparsity_failure_exits_one(self, tmp_path, capsys):
        adj = write_adjacency(tmp_path, adjacency.dense_lower(4))
        out = str(tmp_path / "bad")
        assert cli.main(["factor", "--adjacency", adj, "--widths", "1",
                         "--method", "zuko", "--out-dir", out]) == 1
        report = json.loads((tmp_path / "bad" / "report.json").read_text())
        assert report["sparsity_ok"] is False
        assert "sparsity" in capsys.readouterr().err

    def test_bad_widths_exit_two(self, tmp_path):
        adj = write_adjacency(tmp_path, adjacency.gen_prev_k(4, 1))
        assert cli.main(["factor", "--adjacency", adj, "--widths", "4,frog",
                         "--out-dir", str(tmp_path / "o")]) == 2
        assert cli.main(["factor", "--adjacency", adj, "--widths", "0",
                         "--out-dir", str(tmp_path / "o")]) == 2

    def test_missing_adjacency_file_exit_two(self, tmp_path):
        assert cli.main(["factor", "--adjacency", str(tmp_path / "none.txt"),
                         "--widths", "4", "--out-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("text, line_no", [
        ("3\n0 0 0\n2 0 0\n1 1 0\n", 3),        # not 0 or 1
        ("3\n0 0 0\n1 0 1\n1 1 0\n", 3),        # above the diagonal
        ("3\n\n1 0 0\n0 0 0\n1 1 0\n", 3),      # on it, after a blank line
        ("2 3\n0 0 0\n1 0 0\n", 1),              # not square
    ])
    def test_bad_adjacency_names_its_line(self, tmp_path, capsys, text, line_no):
        adj = tmp_path / "m.txt"
        adj.write_text(text)
        out = tmp_path / "o"
        assert cli.main(["factor", "--adjacency", str(adj), "--widths", "4",
                         "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {adj}:{line_no}: ") and "Traceback" not in err
        assert not out.exists()


class TestDatagenCommand:
    def spec_file(self, tmp_path, cfg, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_writes_dataset_sidecar_and_adjacency(self, tmp_path):
        spec = self.spec_file(tmp_path, {
            "family": "gaussian", "n": 20, "seed": 5,
            "adjacency": {"scheme": "prev_k", "d": 3, "k": 1}})
        out = str(tmp_path / "d.txt")
        assert cli.main(["datagen", "--spec", spec, "--out", out]) == 0
        assert (tmp_path / "d.txt").exists()
        assert (tmp_path / "d.txt.json").exists()
        assert (tmp_path / "d.txt.adj.txt").exists()
        gen, dataset = datagen.read_dataset(out)
        assert gen.x.shape == (20, 3)

    def test_rerun_is_bit_identical(self, tmp_path):
        spec = self.spec_file(tmp_path, {"family": "linear_sem", "n": 15,
                                         "seed": 9, "d": 4})
        out = str(tmp_path / "d.txt")
        assert cli.main(["datagen", "--spec", spec, "--out", out]) == 0
        first = (tmp_path / "d.txt").read_bytes()
        first_side = (tmp_path / "d.txt.json").read_bytes()
        assert cli.main(["datagen", "--spec", spec, "--out", out]) == 0
        assert (tmp_path / "d.txt").read_bytes() == first
        assert (tmp_path / "d.txt.json").read_bytes() == first_side

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        spec = self.spec_file(tmp_path, {"family": "linear_sem", "n": 10,
                                         "d": 3})
        out_env = str(tmp_path / "env.txt")
        monkeypatch.setenv("STRNN_SEED", "77")
        assert cli.main(["datagen", "--spec", spec, "--out", out_env]) == 0
        spec77 = self.spec_file(tmp_path, {"family": "linear_sem", "n": 10,
                                           "d": 3, "seed": 77}, "s77.json")
        monkeypatch.delenv("STRNN_SEED")
        out_explicit = str(tmp_path / "explicit.txt")
        assert cli.main(["datagen", "--spec", spec77, "--out",
                         out_explicit]) == 0
        assert (tmp_path / "env.txt").read_bytes() == \
            (tmp_path / "explicit.txt").read_bytes()

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch):
        spec = self.spec_file(tmp_path, {"family": "linear_sem", "n": 10,
                                         "d": 3, "seed": 1})
        monkeypatch.setenv("STRNN_SEED", "999")
        out = str(tmp_path / "d.txt")
        assert cli.main(["datagen", "--spec", spec, "--out", out]) == 0
        side = json.loads((tmp_path / "d.txt.json").read_text())
        assert side["seed"] == 1

    def test_garbage_env_seed_exits_two(self, tmp_path, monkeypatch, capsys):
        spec = self.spec_file(tmp_path, {"family": "linear_sem", "n": 10,
                                         "d": 3})
        monkeypatch.setenv("STRNN_SEED", "not-a-number")
        assert cli.main(["datagen", "--spec", spec,
                         "--out", str(tmp_path / "d.txt")]) == 2
        assert "STRNN_SEED" in capsys.readouterr().err

    def test_unknown_spec_key_exits_two(self, tmp_path):
        spec = self.spec_file(tmp_path, {"family": "linear_sem", "n": 10,
                                         "d": 3, "mystery": True})
        assert cli.main(["datagen", "--spec", spec,
                         "--out", str(tmp_path / "d.txt")]) == 2

    def test_missing_spec_file_exits_two(self, tmp_path):
        assert cli.main(["datagen", "--spec", str(tmp_path / "none.json"),
                         "--out", str(tmp_path / "d.txt")]) == 2

    def test_invalid_json_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["datagen", "--spec", str(bad),
                         "--out", str(tmp_path / "d.txt")]) == 2

    def test_non_object_spec_exits_two(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path, [1, 2])
        assert cli.main(["datagen", "--spec", spec,
                         "--out", str(tmp_path / "d.txt")]) == 2
        assert_parse_error_names(spec, capsys)


class TestTrainCommand:
    def config_file(self, tmp_path, cfg, name="train.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    def check_outputs(self, out_dir):
        summary = json.loads((out_dir / "summary.json").read_text())
        assert (out_dir / "checkpoint.txt").exists()
        history = (out_dir / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_nll,val_nll,lr"
        assert len(history) == summary["epochs_run"] + 1
        assert np.isfinite(summary["test_nll"])
        assert summary["test_nll_stderr"] >= 0
        assert summary["stop_reason"] in ("early_stop", "max_epochs")
        assert 1 <= summary["best_epoch"] <= summary["epochs_run"]
        return summary

    def test_strnn_model(self, tmp_path):
        data, adj = write_gaussian_dataset(tmp_path)
        cfg = self.config_file(tmp_path, {
            "model": "strnn", "dataset": data, "adjacency": adj,
            "hidden": [6], "max_epochs": 25, "batch_size": 16, "seed": 0})
        out = tmp_path / "run"
        assert cli.main(["train", "--config", cfg, "--out-dir",
                         str(out)]) == 0
        summary = self.check_outputs(out)
        assert summary["model"] == "strnn"
        assert summary["config"]["hidden"] == [6]
        assert summary["stop_reason"] == "max_epochs" and summary["epochs_run"] == 25
        net = flow.load_checkpoint(str(out / "checkpoint.txt"))
        assert net.head == "gaussian"

    def test_non_finite_run_reports_its_stop(self, tmp_path, capsys):
        """A dataset scaled by 1e150 overflows the NLL: training stops after
        one epoch, restores the initial parameters, says so on stderr and
        exits 1.  Its files are still written, as strict JSON."""
        spec = datagen.SynthSpec("gaussian", 334, seed=5,
                                 adjacency=adjacency.GeneratorSpec("prev_k", d=6, k=2))
        gen, dataset = datagen.generate(spec)
        gen.x = 1e150 * gen.x
        data = str(tmp_path / "data.txt")
        datagen.write_dataset(data, gen, dataset, spec=spec)
        cfg = self.config_file(tmp_path, {
            "model": "strnn", "dataset": data, "adjacency": write_adjacency(tmp_path, gen.adjacency),
            "hidden": [12], "early_stop_patience": 5, "seed": 0})
        out = tmp_path / "run"
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["train", "--config", cfg, "--out-dir", str(out)]) == 1
        assert "non_finite" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text(),
                             parse_constant=reject_constant)
        assert summary["stop_reason"] == "non_finite"
        assert summary["best_epoch"] == 0 and summary["epochs_run"] == 1
        assert len((out / "history.csv").read_text().splitlines()) == 2

    def test_made_model_on_binary_data(self, tmp_path):
        spec = datagen.SynthSpec("binary", 60, seed=4,
                                 adjacency=adjacency.GeneratorSpec("prev_k", d=3, k=1))
        gen, dataset = datagen.generate(spec)
        data = str(tmp_path / "b.txt")
        datagen.write_dataset(data, gen, dataset, spec=spec)
        cfg = self.config_file(tmp_path, {
            "model": "made", "dataset": data, "hidden": [5],
            "max_epochs": 20, "batch_size": 16, "seed": 1})
        out = tmp_path / "made"
        assert cli.main(["train", "--config", cfg, "--out-dir",
                         str(out)]) == 0
        summary = self.check_outputs(out)
        net = flow.load_checkpoint(str(out / "checkpoint.txt"))
        assert net.head == "binary"

    def test_flow_model(self, tmp_path):
        data, adj = write_gaussian_dataset(tmp_path)
        cfg = self.config_file(tmp_path, {
            "model": "flow", "dataset": data, "adjacency": adj,
            "hidden": [4], "flow_layers": 2, "max_epochs": 8,
            "batch_size": 16, "seed": 2})
        out = tmp_path / "flow"
        assert cli.main(["train", "--config", cfg, "--out-dir",
                         str(out)]) == 0
        self.check_outputs(out)
        fl = flow.load_flow(str(out / "checkpoint.txt"))
        assert fl.dim == 3 and len(fl.layers) == 2

    def test_flow_model_factors_with_its_objective(self, tmp_path):
        """A flow's conditioners take the masks of the config's objective,
        which here differ from the max-connections masks."""
        A = adjacency.gen_random_sparse(5, 0.5, 0)
        masks = factorizer.factor_multilayer(A, [4], "exact",
                                             factorizer.CONNECTIONS_MINUS_VARIANCE)
        other = factorizer.factor_multilayer(A, [4], "exact", factorizer.MAX_CONNECTIONS)
        assert not np.array_equal(masks[0], other[0])
        data, _ = write_gaussian_dataset(tmp_path, d=5)
        cfg = self.config_file(tmp_path, {
            "model": "flow", "dataset": data, "adjacency": write_adjacency(tmp_path, A, "A.txt"),
            "hidden": [4], "flow_layers": 2, "max_epochs": 2, "method": "exact",
            "objective": factorizer.CONNECTIONS_MINUS_VARIANCE, "seed": 0})
        out = tmp_path / "flow"
        assert cli.main(["train", "--config", cfg, "--out-dir", str(out)]) == 0
        for net in flow.load_flow(str(out / "checkpoint.txt")).layers:
            np.testing.assert_array_equal(net.masks[0], masks[0])
            np.testing.assert_array_equal(net.masks[1], np.vstack([masks[1], masks[1]]))

    def test_deterministic_given_seed(self, tmp_path):
        data, adj = write_gaussian_dataset(tmp_path)
        cfg = self.config_file(tmp_path, {
            "model": "strnn", "dataset": data, "adjacency": adj,
            "hidden": [4], "max_epochs": 10, "batch_size": 16, "seed": 6})
        assert cli.main(["train", "--config", cfg,
                         "--out-dir", str(tmp_path / "a")]) == 0
        assert cli.main(["train", "--config", cfg,
                         "--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "checkpoint.txt").read_bytes() == \
            (tmp_path / "b" / "checkpoint.txt").read_bytes()

    def test_unknown_config_key_exits_two(self, tmp_path):
        data, adj = write_gaussian_dataset(tmp_path)
        cfg = self.config_file(tmp_path, {"model": "strnn", "dataset": data,
                                          "adjacency": adj, "turbo": True})
        assert cli.main(["train", "--config", cfg,
                         "--out-dir", str(tmp_path / "o")]) == 2

    def test_bad_model_exits_two(self, tmp_path):
        data, _ = write_gaussian_dataset(tmp_path)
        cfg = self.config_file(tmp_path, {"model": "transformer",
                                          "dataset": data})
        assert cli.main(["train", "--config", cfg,
                         "--out-dir", str(tmp_path / "o")]) == 2

    def test_flow_on_binary_data_exits_two(self, tmp_path):
        spec = datagen.SynthSpec("binary", 30, seed=4,
                                 adjacency=adjacency.GeneratorSpec("prev_k", d=3, k=1))
        gen, dataset = datagen.generate(spec)
        data = str(tmp_path / "b.txt")
        datagen.write_dataset(data, gen, dataset, spec=spec)
        adj = write_adjacency(tmp_path, gen.adjacency)
        cfg = self.config_file(tmp_path, {"model": "flow", "dataset": data,
                                          "adjacency": adj, "max_epochs": 2})
        assert cli.main(["train", "--config", cfg,
                         "--out-dir", str(tmp_path / "o")]) == 2

    def test_strnn_without_adjacency_exits_two(self, tmp_path):
        data, _ = write_gaussian_dataset(tmp_path)
        cfg = self.config_file(tmp_path, {"model": "strnn", "dataset": data,
                                          "max_epochs": 2})
        assert cli.main(["train", "--config", cfg,
                         "--out-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("model", ["strnn", "flow"])
    def test_upper_adjacency_entry_names_its_line(self, tmp_path, capsys, model):
        data, adj = write_gaussian_dataset(tmp_path)
        with open(adj, "w") as fh:
            fh.write("3\n0 0 0\n1 0 0\n1 1 1\n")
        cfg = self.config_file(tmp_path, {"model": model, "dataset": data,
                                          "adjacency": adj, "max_epochs": 2})
        assert cli.main(["train", "--config", cfg,
                         "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {adj}:4: ") and "Traceback" not in err

    def test_non_object_config_exits_two(self, tmp_path, capsys):
        cfg = self.config_file(tmp_path, [1, 2])
        assert cli.main(["train", "--config", cfg,
                         "--out-dir", str(tmp_path / "o")]) == 2
        assert_parse_error_names(cfg, capsys)

    @pytest.mark.parametrize("defect", ["empty", "no_sidecar", "no_splits",
                                        "not_object", "index_out_of_range",
                                        "index_not_integer", "params_not_numeric"])
    def test_unreadable_dataset_exits_two(self, tmp_path, capsys, defect):
        data, adj = write_gaussian_dataset(tmp_path)
        side = tmp_path / "data.txt.json"
        sidecar = json.loads(side.read_text())
        if defect == "empty":
            (tmp_path / "data.txt").write_text("")
        elif defect == "no_sidecar":
            side.unlink()
        elif defect == "no_splits":
            side.write_text(json.dumps({"family": "gaussian"}))
        elif defect == "not_object":
            side.write_text(json.dumps([1, 2]))
        elif defect == "index_out_of_range":
            sidecar["splits"]["train"][0] = 999
            side.write_text(json.dumps(sidecar))
        elif defect == "index_not_integer":
            sidecar["splits"]["val"][0] = 1.5
            side.write_text(json.dumps(sidecar))
        else:
            sidecar["params"]["alpha"] = "zero"
            side.write_text(json.dumps(sidecar))
        cfg = self.config_file(tmp_path, {"model": "strnn", "dataset": data,
                                          "adjacency": adj, "max_epochs": 2})
        assert cli.main(["train", "--config", cfg,
                         "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "data.txt" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind, value", [("real", "nan"), ("real", "-inf"),
                                             ("binary", "2"), ("binary", "0.5"),
                                             ("binary", "nan")])
    def test_malformed_dataset_value_names_its_line(self, tmp_path, capsys, kind, value):
        """A non-finite value, or an entry outside {0, 1} in a binary
        dataset, is a parse error at its line, raised before --out-dir is
        made."""
        if kind == "real":
            data, adj = write_gaussian_dataset(tmp_path)
        else:
            spec = datagen.SynthSpec("binary", 40, seed=2,
                                     adjacency=adjacency.GeneratorSpec("prev_k", d=3, k=2))
            gen, dataset = datagen.generate(spec)
            data = str(tmp_path / "data.txt")
            datagen.write_dataset(data, gen, dataset, spec=spec)
            adj = write_adjacency(tmp_path, gen.adjacency)
        lines = (tmp_path / "data.txt").read_text().split("\n")
        # Line 1 is the header; a blank line before row 7 puts it on line 10.
        row = lines[8].split()
        row[1] = value
        lines[8] = "\n" + " ".join(row)
        (tmp_path / "data.txt").write_text("\n".join(lines))
        cfg = self.config_file(tmp_path, {"model": "strnn", "dataset": data,
                                          "adjacency": adj, "max_epochs": 2})
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}:10: ") and "Traceback" not in err
        assert ("must be 0 or 1" if kind == "binary" else "must be finite") in err
        assert not out.exists()

    @pytest.mark.parametrize("part", ["train", "val", "test"])
    def test_empty_split_exits_two(self, tmp_path, capsys, part):
        """An empty test split used to report a NaN test NLL, an empty val
        split to train against NaN validation losses."""
        data, adj = write_gaussian_dataset(tmp_path)
        side = tmp_path / "data.txt.json"
        sidecar = json.loads(side.read_text())
        sidecar["splits"][part] = []
        side.write_text(json.dumps(sidecar))
        cfg = self.config_file(tmp_path, {"model": "flow", "dataset": data,
                                          "adjacency": adj, "max_epochs": 2})
        out = tmp_path / "o"
        assert cli.main(["train", "--config", cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {side}:1: sidecar split '{part}' is empty" in err
        assert not (out / "summary.json").exists()


class TestVerifyCommand:
    def test_clean_mlp_checkpoint(self, tmp_path, capsys):
        masks = factorizer.factor_multilayer(adjacency.gen_prev_k(3, 1), [4],
                                             "greedy")
        net = neural.MaskedMLP.from_masks(masks, "gaussian", 0)
        path = str(tmp_path / "ck.txt")
        neural.save_mlp(net, path)
        assert cli.main(["verify", "--checkpoint", path]) == 0
        assert "respects" in capsys.readouterr().out

    def test_corrupted_mlp_exits_one(self, tmp_path, capsys):
        A = adjacency.gen_prev_k(3, 1)
        masks = factorizer.factor_multilayer(A, [4], "greedy")
        net = neural.MaskedMLP.from_masks(masks, "gaussian", 0)
        net.weights[-1][0, :] = 5.0   # output row 0 must depend on nothing
        path = str(tmp_path / "bad.txt")
        neural.save_mlp(net, path)
        out = str(tmp_path / "report.json")
        assert cli.main(["verify", "--checkpoint", path, "--out", out]) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["ok"] is False
        assert report["violations"]
        assert "violation" in capsys.readouterr().err

    def test_flow_checkpoint(self, tmp_path):
        sem = causal.gen_linear_sem(4, rng=3)
        fl = causal.flow_from_linear_sem(sem)
        path = str(tmp_path / "fl.txt")
        flow.save_flow(fl, path)
        assert cli.main(["verify", "--checkpoint", path]) == 0

    def test_non_checkpoint_file_exits_two(self, tmp_path):
        p = tmp_path / "junk.txt"
        p.write_text("hello world\n")
        assert cli.main(["verify", "--checkpoint", str(p)]) == 2

    def test_missing_file_exits_two(self, tmp_path):
        assert cli.main(["verify", "--checkpoint",
                         str(tmp_path / "none.txt")]) == 2

    def test_directory_exits_two(self, tmp_path):
        assert cli.main(["verify", "--checkpoint", str(tmp_path)]) == 2

    @staticmethod
    def small_net():
        masks = factorizer.factor_multilayer(adjacency.gen_prev_k(3, 1), [4],
                                             "greedy")
        return neural.MaskedMLP.from_masks(masks, "binary", 0)

    def assert_exits_two_without_traceback(self, path, capsys):
        assert cli.main(["verify", "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:" in err and "Traceback" not in err

    def test_non_integer_layers_exits_two(self, tmp_path, capsys):
        path = tmp_path / "ck.txt"
        neural.save_mlp(self.small_net(), path)
        path.write_text(path.read_text().replace("layers 2", "layers two", 1))
        self.assert_exits_two_without_traceback(path, capsys)

    def test_weight_shape_unlike_mask_exits_two(self, tmp_path, capsys):
        net = self.small_net()
        net.weights[0] = net.weights[0][:3]      # a 3 x 3 block under a 4 x 3 mask
        path = tmp_path / "ck.txt"
        neural.save_mlp(net, path)
        self.assert_exits_two_without_traceback(path, capsys)

    def test_nan_on_masked_weight_exits_one(self, tmp_path):
        net = self.small_net()
        i, j = np.argwhere(net.masks[0] == 0)[0]
        net.weights[0][i, j] = np.nan
        path = str(tmp_path / "nan.txt")
        neural.save_mlp(net, path)
        out = str(tmp_path / "report.json")
        assert cli.main(["verify", "--checkpoint", path, "--out", out]) == 1
        report = json.loads((tmp_path / "report.json").read_text(),
                            parse_constant=reject_constant)
        assert report["violations"]
        assert all(v["grad_bound"] is None for v in report["violations"])

    def test_edge_behind_dead_relu_exits_one(self, tmp_path):
        """A forbidden weight behind a hidden unit that ordinary inputs never
        switch on; the |W| product along its one path is 1."""
        masks = factorizer.factor_multilayer(adjacency.gen_prev_k(4, 1), [8], "greedy")
        net = neural.MaskedMLP.from_masks(masks, "binary", 0)
        u = np.flatnonzero(net.masks[1][1])[0]
        net.weights[0][u] = 0.0
        net.weights[0][u, 3] = 1.0
        net.biases[0][u] = -50.0
        net.weights[1][1, u] = 1.0
        path = str(tmp_path / "dead.txt")
        neural.save_mlp(net, path)
        out = str(tmp_path / "report.json")
        assert cli.main(["verify", "--checkpoint", path, "--out", out]) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["violations"] == [{"i": 1, "j": 3, "grad_bound": 1.0}]

    def test_negative_inf_hidden_bias_exits_one(self, tmp_path):
        net = self.small_net()
        net.biases[0][0] = -np.inf
        path = str(tmp_path / "inf.txt")
        neural.save_mlp(net, path)
        assert cli.main(["verify", "--checkpoint", path]) == 1

    def test_clean_checkpoints_run_no_forward(self, tmp_path, monkeypatch):
        """The interval bounds and the support prove a clean checkpoint
        without running any network."""
        A = adjacency.gen_random_sparse(10, 0.5, 2)
        fl = flow.AffineFlow.build(A, 5, [20], 3)
        rng = np.random.default_rng(4)
        for net in fl.layers:
            for W, M in zip(net.weights, net.masks):
                W += 0.3 * rng.normal(size=W.shape) * M
        flow.save_flow(fl, tmp_path / "flow.txt")
        neural.save_mlp(self.small_net(), tmp_path / "mlp.txt")
        calls = []
        forward = neural.MaskedMLP.forward
        monkeypatch.setattr(neural.MaskedMLP, "forward",
                            lambda net, x: calls.append(1) or forward(net, x))
        for name in ("flow.txt", "mlp.txt"):
            out = tmp_path / (name + ".json")
            assert cli.main(["verify", "--checkpoint", str(tmp_path / name),
                             "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report["ok"] is True and report["violations"] == []
            assert report["config"] == {"checkpoint": str(tmp_path / name)}
        assert calls == []

    def test_weight_that_overflows_inside_the_box_exits_one(self, tmp_path):
        """A finite 1e306 on an allowed edge turns outputs NaN at x_2 = 1e3,
        inside the audit box: every forbidden pair is flagged."""
        masks = factorizer.factor_multilayer(adjacency.gen_prev_k(4, 1), [8], "greedy")
        net = neural.MaskedMLP.from_masks(masks, "binary", 0)
        net.weights[0][2, 2] = 1e306
        path = str(tmp_path / "big.txt")
        neural.save_mlp(net, path)
        out = str(tmp_path / "report.json")
        assert cli.main(["verify", "--checkpoint", path, "--out", out]) == 1
        report = json.loads((tmp_path / "report.json").read_text(),
                            parse_constant=reject_constant)
        assert report["violations"] == [{"i": int(i), "j": int(j), "grad_bound": None}
                                        for i, j in np.argwhere(net.pattern == 0)]

    @pytest.mark.parametrize("block, row, col, value", [
        ("adjacency", 1, 0, "2.0"), ("adjacency", 0, 3, "1.0"), ("mu", 0, 2, "nan"),
        ("sigma", 0, 1, "nan"), ("sigma", 0, 4, "0.0"), ("sigma", 0, 0, "-1.5"),
        ("sigma", 0, 3, "inf"), ("pattern", 2, 1, "2.0")])
    def test_bad_flow_block_names_its_line(self, tmp_path, capsys, block, row, col, value):
        """A flow's adjacency must be 0/1 and strictly lower triangular, mu
        finite, sigma finite and positive and a conditioner's pattern 0/1; an
        entry that is not exits 2 with an error at its line."""
        with open(os.path.join(CAUSAL, "flow.txt")) as fh:
            lines = fh.read().split("\n")
        at = lines.index(block) + 2 + row     # the label, then the shape line
        tokens = lines[at].split()
        tokens[col] = value
        lines[at] = " ".join(tokens)
        path = tmp_path / "flow.txt"
        path.write_text("\n".join(lines))
        assert cli.main(["verify", "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{at + 1}: ") and block in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", ["head", "dim", "hidden", "layers"])
    def test_conditioner_unlike_its_flow_names_its_line(self, tmp_path, capsys, field):
        """A flow's conditioner must be a gaussian-head network of the flow's
        width with conditioner 0's layer shapes: a binary head, a network
        consistent in itself but of another width, or one of another hidden
        width or layer count exits 2 with an error at its head, dim or layers
        line, or at the shape line of its first mask block."""
        fl = flow.AffineFlow.build(adjacency.gen_prev_k(3, 1), 2, [4], 0)
        width, head, hidden = {"head": (3, "binary", [4]), "dim": (4, "gaussian", [4]),
                               "hidden": (3, "gaussian", [5]),
                               "layers": (3, "gaussian", [4, 4])}[field]
        masks = factorizer.factor_multilayer(adjacency.gen_prev_k(width, 1), hidden, "greedy")
        fl.layers[1] = neural.MaskedMLP.from_masks(masks, head, 0)
        path = tmp_path / "flow.txt"
        flow.save_flow(fl, path)
        lines = path.read_text().split("\n")
        start = lines.index("conditioner 1")
        at, line, message = {
            "head": (start + 2, f"head {head}", "expected head "),
            "dim": (start + 3, f"dim {width}", "expected dim "),
            "hidden": (lines.index("mask 0", start) + 2, "5 3",
                       "mask 0 block is 5 x 3, expected 4 x 3"),
            "layers": (start + 4, "layers 3", "expected layers 2, got 3"),
        }[field]
        assert lines[at - 1] == line
        assert cli.main(["verify", "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{at}: {message}")
        assert "Traceback" not in err


class TestCausalEvalCommand:
    def test_exact_flow_scores_near_zero_cmse(self, tmp_path):
        spec = datagen.SynthSpec("linear_sem", 40, seed=5, d=4)
        gen, dataset = datagen.generate(spec)
        data = str(tmp_path / "sem.txt")
        datagen.write_dataset(data, gen, dataset, spec=spec)
        sem = causal.LinearSEM(gen.params["weights"])
        fl = causal.flow_from_linear_sem(sem)
        ck = str(tmp_path / "flow.txt")
        flow.save_flow(fl, ck)
        out = str(tmp_path / "metrics.json")
        assert cli.main(["causal-eval", "--flow", ck, "--sem", data + ".json",
                         "--out", out, "--value-count", "2",
                         "--samples", "200", "--n-obs", "50",
                         "--seed", "5"]) == 0
        report = json.loads((tmp_path / "metrics.json").read_text())
        assert report["total_cmse"] < 1e-12
        assert np.isfinite(report["total_imse"])
        assert len(report["imse_breakdown"]) == 4 * 2
        assert len(report["cmse_breakdown"]) == 4 * 2

    def test_deterministic_given_seed(self, tmp_path):
        spec = datagen.SynthSpec("linear_sem", 30, seed=6, d=3)
        gen, dataset = datagen.generate(spec)
        data = str(tmp_path / "sem.txt")
        datagen.write_dataset(data, gen, dataset, spec=spec)
        fl = causal.flow_from_linear_sem(causal.LinearSEM(gen.params["weights"]))
        ck = str(tmp_path / "flow.txt")
        flow.save_flow(fl, ck)
        out = str(tmp_path / "m.json")
        args = ["causal-eval", "--flow", ck, "--sem", data + ".json",
                "--out", out, "--value-count", "2", "--samples", "100",
                "--n-obs", "20", "--seed", "3"]
        assert cli.main(args) == 0
        first = (tmp_path / "m.json").read_bytes()
        assert cli.main(args) == 0
        assert (tmp_path / "m.json").read_bytes() == first

    def test_non_object_sidecar_exits_two(self, tmp_path, capsys):
        fl = causal.flow_from_linear_sem(causal.gen_linear_sem(3, rng=1))
        ck = str(tmp_path / "flow.txt")
        flow.save_flow(fl, ck)
        sem = tmp_path / "sem.json"
        sem.write_text(json.dumps([1, 2]))
        assert cli.main(["causal-eval", "--flow", ck, "--sem", str(sem),
                         "--out", str(tmp_path / "m.json")]) == 2
        assert_parse_error_names(str(sem), capsys)

    @pytest.mark.parametrize("params", [
        {"weights": [["a", 1, 2], [0, 0, 0], [0, 0, 0]]}, "weights",
        {"weights": [[0, 1.5, 0], [0, 0, 0], [0, 0, 0]]},      # upper triangular
        {"weights": [[0, 0], [1.5, 0], [0, 1.5]]},              # not square
        {"weights": [[0, 0, 0], [float("nan"), 0, 0], [0, 1.5, 0]]}])
    def test_malformed_sem_params_exit_two(self, tmp_path, capsys, params):
        fl = causal.flow_from_linear_sem(causal.gen_linear_sem(3, rng=1))
        ck = str(tmp_path / "flow.txt")
        flow.save_flow(fl, ck)
        sem = tmp_path / "sem.json"
        sem.write_text(json.dumps({"params": params}))
        assert cli.main(["causal-eval", "--flow", ck, "--sem", str(sem),
                         "--out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert f"error: {sem}" in err and "Traceback" not in err

    @pytest.mark.parametrize("reader, source", [(1, 2), (2, 2)])
    def test_non_triangular_flow_exits_two(self, tmp_path, capsys, reader, source):
        """A flow whose weights make output ``reader`` read coordinate
        ``source`` >= ``reader`` has no noise-to-data pass: causal-eval exits
        2 before its first query, names the checkpoint and says that its
        conditioner weights make output ``reader`` read coordinate ``source``,
        and writes no report, while verify reports the edge and exits 1."""
        sem = causal.gen_linear_sem(4, cutoff=0.5, rng=1)
        fl = causal.flow_from_linear_sem(sem)
        fl.layers[0].weights[0][reader, source] = 0.5
        ck = str(tmp_path / "flow.txt")
        flow.save_flow(fl, ck)
        side = tmp_path / "sem.json"
        side.write_text(json.dumps({"params": {"weights": sem.weights.tolist()}}))
        out = tmp_path / "m.json"
        assert cli.main(["causal-eval", "--flow", ck, "--sem", str(side),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {ck}: the conditioner weights make output {reader} read " \
            f"coordinate {source}," in err and "Traceback" not in err
        assert not out.exists()
        assert cli.main(["verify", "--checkpoint", ck]) == 1

    def test_sidecar_without_weights_exits_two(self, tmp_path):
        data, _ = write_gaussian_dataset(tmp_path)
        sem = causal.gen_linear_sem(3, rng=1)
        fl = causal.flow_from_linear_sem(sem)
        ck = str(tmp_path / "flow.txt")
        flow.save_flow(fl, ck)
        assert cli.main(["causal-eval", "--flow", ck, "--sem", data + ".json",
                         "--out", str(tmp_path / "m.json")]) == 2


class TestParser:
    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["juggle"])
        assert exc.value.code == 2

    def test_bad_method_choice_exits_two(self, tmp_path):
        adj = write_adjacency(tmp_path, adjacency.gen_prev_k(3, 1))
        with pytest.raises(SystemExit) as exc:
            cli.main(["factor", "--adjacency", adj, "--widths", "3",
                      "--method", "psychic", "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_parser_is_built_once(self, monkeypatch, tmp_path):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        path = str(tmp_path / "ck.txt")
        neural.save_mlp(neural.MaskedMLP.from_masks([np.ones((2, 2))], "binary", 0), path)
        try:
            assert cli.main(["verify", "--checkpoint", path]) == 0
            assert cli.main(["verify", "--checkpoint", path]) == 0
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_command_is_looked_up_when_it_runs(self, monkeypatch):
        """A replaced ``cmd_verify`` (a test double, a tracer's wrapper) is
        the one a parser built before the replacement runs."""
        cli.main(["verify", "--checkpoint", os.devnull])
        seen = []
        monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.checkpoint) or 7)
        assert cli.main(["verify", "--checkpoint", "x.txt"]) == 7
        assert seen == ["x.txt"]

    def test_valid_call_after_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify"])
        assert exc.value.code == 2
        path = str(tmp_path / "ck.txt")
        neural.save_mlp(neural.MaskedMLP.from_masks([np.ones((2, 2))], "binary", 0), path)
        assert cli.main(["verify", "--checkpoint", path]) == 0


class TestRejectedValues:
    """Sample counts below 1, negative seeds and wrong-typed config or spec
    values exit 2 with an error that names the value."""

    @staticmethod
    def assert_usage_error(argv, capsys, name):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err

    @staticmethod
    def json_file(tmp_path, obj, name):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    @pytest.mark.parametrize("flag, value", [("--samples", "-1"), ("--samples", "0"),
                                             ("--n-obs", "0"), ("--n-obs", "-3")])
    def test_causal_eval_sample_count(self, tmp_path, capsys, flag, value):
        out = tmp_path / "m.json"
        self.assert_usage_error(
            ["causal-eval", "--flow", os.path.join(CAUSAL, "flow.txt"),
             "--sem", os.path.join(CAUSAL, "sem.json"), "--out", str(out),
             "--value-count", "2", flag, value], capsys, f"got {value}")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--n-obs", "0"), ("--samples", "0"),
                                             ("--value-count", "0"), ("--sem", "narrow")])
    def test_causal_eval_checks_before_any_query(self, tmp_path, capsys, monkeypatch,
                                                 flag, value):
        """Every argument is checked before the first report runs a network."""
        if value == "narrow":
            sem = {"params": {"weights": [[0.0, 0.0], [0.5, 0.0]]}}
            value = self.json_file(tmp_path, sem, "sem2.json")
        calls = []
        forward = neural.MaskedMLP.forward
        monkeypatch.setattr(neural.MaskedMLP, "forward",
                            lambda net, x: calls.append(1) or forward(net, x))
        argv = ["causal-eval", "--flow", os.path.join(CAUSAL, "flow.txt"),
                "--sem", os.path.join(CAUSAL, "sem.json"),
                "--out", str(tmp_path / "m.json"), flag, value]
        assert cli.main(argv) == 2
        assert "error: " in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("where", ["causal-eval", "env", "train", "datagen"])
    def test_negative_seed(self, tmp_path, capsys, monkeypatch, where):
        flow_path = os.path.join(CAUSAL, "flow.txt")
        causal_eval = ["causal-eval", "--flow", flow_path,
                       "--sem", os.path.join(CAUSAL, "sem.json"),
                       "--out", str(tmp_path / "m.json")]
        name = "--seed"
        if where == "causal-eval":
            argv = causal_eval + ["--seed", "-2"]
        elif where == "env":
            monkeypatch.setenv("STRNN_SEED", "-5")
            argv, name = causal_eval, "STRNN_SEED"
        elif where == "train":
            data, adj = write_gaussian_dataset(tmp_path)
            cfg = self.json_file(tmp_path, {"model": "strnn", "dataset": data,
                                            "adjacency": adj, "seed": -1}, "train.json")
            argv, name = ["train", "--config", cfg, "--out-dir", str(tmp_path / "o")], "seed"
        else:
            spec = self.json_file(tmp_path, {"family": "linear_sem", "n": 10, "d": 3,
                                             "seed": -1}, "spec.json")
            argv, name = ["datagen", "--spec", spec, "--out", str(tmp_path / "d.txt")], "seed"
        self.assert_usage_error(argv, capsys, name)

    @pytest.mark.parametrize("key, value", [
        ("hidden", 5), ("hidden", "ab"), ("hidden", [1.5]), ("learning_rate", "0.1"),
        ("batch_size", 2.5), ("max_epochs", 1.5), ("seed", "x"),
        ("early_stop_patience", None), ("objective", "bogus"), ("flow_layers", 2.5),
        ("natural_ordering", "false"), ("learning_rate", np.nan), ("learning_rate", np.inf),
        ("epsilon", np.nan), ("epsilon", np.inf), ("dataset", None), ("dataset", 5),
        ("adjacency", None), ("adjacency", 5), ("method", []),
        pytest.param("adjacency", ABSENT, id="adjacency-absent")])
    def test_train_config_value(self, tmp_path, capsys, key, value):
        data, adj = write_gaussian_dataset(tmp_path)
        cfg = {"model": "flow" if key == "flow_layers" else "strnn",
               "dataset": data, "adjacency": adj, "max_epochs": 1, key: value}
        if value is ABSENT:
            del cfg[key]
        path = self.json_file(tmp_path, cfg, "train.json")
        self.assert_usage_error(["train", "--config", path, "--out-dir", str(tmp_path / "o")],
                                capsys, key)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, spec", [
        ("n", {"family": "linear_sem", "n": "200", "d": 3}),
        ("n", {"family": "linear_sem", "n": 20.5, "d": 3}),
        ("d", {"family": "binary", "n": 20, "adjacency": {"scheme": "prev_k", "d": "5"}}),
        ("ratios", {"family": "linear_sem", "n": 20, "d": 3, "ratios": 1}),
        ("cutoff", {"family": "linear_sem", "n": 20, "d": 3, "cutoff": "x"}),
        ("adjacency", {"family": "binary", "n": 20, "adjacency": 5}),
        ("ratios", {"family": "linear_sem", "n": 20, "d": 3, "ratios": [np.nan, 0.5, 0.5]}),
        ("cutoff", {"family": "linear_sem", "n": 20, "d": 3, "cutoff": np.nan}),
        ("family", {"n": 20, "d": 3}), ("n", {"family": "linear_sem", "d": 3})])
    def test_dataset_spec_value(self, tmp_path, capsys, key, spec):
        path = self.json_file(tmp_path, spec, "spec.json")
        out = tmp_path / "d.txt"
        self.assert_usage_error(["datagen", "--spec", path, "--out", str(out)], capsys, key)
        assert not out.exists()
