"""End-to-end tests for the command-line interface.

Each test drives cli.main() in process and inspects exit codes and the files
left behind.
"""

import json

import numpy as np
import pytest

from strnn import adjacency, causal, cli, datagen, factorizer, flow, neural


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("STRNN_SEED", raising=False)


def write_adjacency(tmp_path, A, name="adj.txt"):
    path = str(tmp_path / name)
    adjacency.write_matrix(A, path)
    return path


def write_gaussian_dataset(tmp_path, n=60, d=3, seed=3):
    spec = datagen.SynthSpec("gaussian", n, seed=seed,
                             adjacency={"scheme": "prev_k", "d": d, "k": 2})
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
        masks = [adjacency.read_matrix(
            str(tmp_path / "out" / f"mask_{k}.txt"), validated=False)
            for k in range(3)]
        product = adjacency.read_matrix(str(tmp_path / "out" / "product.txt"),
                                        validated=False)
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
        # two hidden layers blow the exact solver's enumeration budget
        assert cmp_data["exact"]["error"].startswith("BudgetExceededError")

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
        net = neural.load_mlp(str(out / "checkpoint.txt"))
        assert net.head == "gaussian"

    def test_made_model_on_binary_data(self, tmp_path):
        spec = datagen.SynthSpec("binary", 60, seed=4,
                                 adjacency={"scheme": "prev_k", "d": 3, "k": 1})
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
        net = neural.load_mlp(str(out / "checkpoint.txt"))
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
                                 adjacency={"scheme": "prev_k", "d": 3, "k": 1})
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

    @pytest.mark.parametrize("defect", ["empty", "no_sidecar", "no_splits"])
    def test_unreadable_dataset_exits_two(self, tmp_path, capsys, defect):
        data, adj = write_gaussian_dataset(tmp_path)
        side = tmp_path / "data.txt.json"
        if defect == "empty":
            (tmp_path / "data.txt").write_text("")
        elif defect == "no_sidecar":
            side.unlink()
        else:
            side.write_text(json.dumps({"family": "gaussian"}))
        cfg = self.config_file(tmp_path, {"model": "strnn", "dataset": data,
                                          "adjacency": adj, "max_epochs": 2})
        assert cli.main(["train", "--config", cfg,
                         "--out-dir", str(tmp_path / "o")]) == 2
        assert "data.txt" in capsys.readouterr().err


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
