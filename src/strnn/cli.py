"""Command-line interface.

Subcommands: factor, datagen, train, causal-eval, verify.  Exit codes:
0 success, 1 a verified property failed (sparsity mismatch, audit violation),
2 usage/config errors.  Every JSON output embeds the resolved config and the
tool version.  When a config omits its seed, the STRNN_SEED environment
variable is used as a global fallback.
"""

import argparse
import functools
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import adjacency, causal, datagen, factorizer, flow, neural, textio
from .errors import StrnnError, UsageError, decode
from .version import VERSION


def _seed(arg=None):
    """The ``--seed`` value ``arg``, else the STRNN_SEED environment variable,
    else 0; a seed is a nonnegative integer."""
    if arg is not None:
        name, raw = "--seed", arg
    else:
        name, raw = "STRNN_SEED", os.environ.get("STRNN_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise UsageError(f"{name} must be a nonnegative integer, got {raw!r}")
    return seed


def _parse_widths(text):
    if not text:
        return []
    try:
        widths = [int(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"widths must be integers, got {text!r}") from None
    if any(w < 1 for w in widths):
        raise UsageError("widths must be >= 1")
    return widths


# ---------------------------------------------------------------------------
# factor

def cmd_factor(args):
    A = adjacency.read_matrix(args.adjacency, adjacency=True)
    widths = _parse_widths(args.widths)
    os.makedirs(args.out_dir, exist_ok=True)
    config = {"adjacency": args.adjacency, "widths": widths, "method": args.method,
              "objective": args.objective, "out_dir": args.out_dir}

    t0 = time.perf_counter()
    masks = factorizer.factor_multilayer(A, widths, args.method, args.objective)
    wall_ms = (time.perf_counter() - t0) * 1000.0

    product = factorizer.mask_product(masks)
    sparsity_ok = factorizer.check_sparsity_equal(product, A)
    for k, M in enumerate(masks):
        adjacency.write_matrix(M, os.path.join(args.out_dir, f"mask_{k}.txt"))
    adjacency.write_matrix(product, os.path.join(args.out_dir, "product.txt"))
    report = {
        "tool": "strnn", "version": VERSION, "config": config,
        "method": args.method, "widths": widths,
        "objective": args.objective,
        "objective_value": factorizer.objective_value(product, args.objective),
        "sparsity_ok": bool(sparsity_ok),
        "wall_time_ms": wall_ms,
    }
    if args.compare:
        comparison = {}
        for method in ("greedy", "exact", "zuko"):
            try:
                p = factorizer.mask_product(
                    factorizer.factor_multilayer(A, widths, method, args.objective))
                comparison[method] = {
                    "objective_value": factorizer.objective_value(p, args.objective),
                    "sparsity_ok": factorizer.check_sparsity_equal(p, A),
                }
            except StrnnError as exc:
                comparison[method] = {"error": f"{type(exc).__name__}: {exc}"}
        report["comparison"] = comparison
        textio.write_json(os.path.join(args.out_dir, "compare.json"), comparison)
    textio.write_json(os.path.join(args.out_dir, "report.json"), report)
    if not sparsity_ok:
        print("factor: product sparsity does not match the adjacency", file=sys.stderr)
        return 1
    print(f"factor: objective {report['objective_value']} in {wall_ms:.1f} ms "
          f"-> {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# datagen

def cmd_datagen(args):
    cfg = textio.read_json(args.spec, "spec")
    if "seed" not in cfg:
        cfg["seed"] = _seed()
    spec = datagen.SynthSpec.from_dict(cfg)
    gen, dataset = datagen.generate(spec)
    adj_path = args.adjacency_out or args.out + ".adj.txt"
    adjacency.write_matrix(gen.adjacency, adj_path)
    datagen.write_dataset(args.out, gen, dataset, spec=spec, adjacency_path=adj_path)
    print(f"datagen: {gen.x.shape[0]} x {gen.x.shape[1]} {gen.kind} samples "
          f"({spec.family}) -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# train

@dataclass(kw_only=True)
class TrainRun(neural.TrainConfig):
    """A ``strnn train`` config: the run's keys plus the TrainConfig fields."""

    model: str
    dataset: str
    adjacency: str | None = None        # strnn and flow need it
    hidden: list | None = None          # None: one layer of 2 * d units
    method: str = "greedy"
    objective: str = factorizer.MAX_CONNECTIONS
    flow_layers: int = 5
    natural_ordering: bool = True

    def validate(self):
        super().validate()
        if self.objective not in factorizer.OBJECTIVES:
            raise UsageError(f"objective must be one of {factorizer.OBJECTIVES}, "
                             f"got {self.objective!r}")
        if self.hidden is not None and not all(type(h) is int and h >= 1 for h in self.hidden):
            raise UsageError(f"hidden must be a list of positive integers, "
                             f"got {self.hidden!r}")
        if self.model != "made" and self.adjacency is None:
            raise UsageError(f"{self.model} training needs an 'adjacency' path")
        return self


# Each model's TrainConfig values where they differ from the dataclass defaults.
_MODEL_DEFAULTS = {
    "strnn": {"max_epochs": 5000},
    "made": {"max_epochs": 5000},
    "flow": {"batch_size": 32, "max_epochs": 750, "lr_schedule": "plateau"},
}


def cmd_train(args):
    cfg = textio.read_json(args.config, "config")
    if "seed" not in cfg:
        cfg["seed"] = _seed()
    model = cfg.get("model")
    if model not in tuple(_MODEL_DEFAULTS):     # a tuple: model may be unhashable
        raise UsageError(f"model must be strnn, made, or flow; got {model!r}")
    run = decode(TrainRun, {**_MODEL_DEFAULTS[model], **cfg}, "train config ").validate()
    _, dataset = datagen.read_dataset(run.dataset)
    d = dataset.x.shape[1]
    hidden = [2 * d] if run.hidden is None else run.hidden
    if model == "flow":
        if dataset.kind != "real":
            raise UsageError("flow training needs real-valued data")
        A = adjacency.read_matrix(run.adjacency, adjacency=True)
        net = flow.AffineFlow.build(A, run.flow_layers, hidden, run.seed, run.method)
        fit, test_nll_of, save = flow.train_flow, flow.nll, flow.save_flow
    else:
        if model == "strnn":
            A = adjacency.read_matrix(run.adjacency, adjacency=True)
            masks = factorizer.factor_multilayer(A, hidden, run.method, run.objective)
        else:
            masks = factorizer.made_masks(d, hidden, run.seed,
                                          natural_ordering=run.natural_ordering)
        head = "binary" if dataset.kind == "binary" else "gaussian"
        net = neural.MaskedMLP.from_masks(masks, head, run.seed)
        fit, test_nll_of, save = neural.train, neural.nll, neural.save_mlp
    os.makedirs(args.out_dir, exist_ok=True)
    net, history = fit(net, dataset, run)
    per = test_nll_of(net, dataset.test_x)
    ckpt_path = os.path.join(args.out_dir, "checkpoint.txt")
    save(net, ckpt_path)
    test_nll, stderr = neural.test_summary(per)

    hist_path = os.path.join(args.out_dir, "history.csv")
    with open(hist_path, "w") as fh:
        fh.write("epoch,train_nll,val_nll,lr\n")
        for epoch, tr, va, lr in history:
            fh.write(f"{epoch},{tr!r},{va!r},{lr!r}\n")
    summary = {
        "tool": "strnn", "version": VERSION,
        "config": {**cfg, "hidden": hidden, "method": run.method},
        "model": model,
        "test_nll": test_nll,
        "test_nll_stderr": stderr,
        "n_test": len(per),
        "epochs_run": len(history),
        "best_val_nll": float(min(h[2] for h in history)),
        "best_epoch": history.best_epoch,
        "stop_reason": history.stop_reason,
        "checkpoint": ckpt_path,
        "history": hist_path,
    }
    textio.write_json(os.path.join(args.out_dir, "summary.json"), summary)
    print(f"train[{model}]: test NLL {summary['test_nll']:.4f} "
          f"+/- {summary['test_nll_stderr']:.4f} ({len(history)} epochs) "
          f"-> {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# causal-eval

def cmd_causal_eval(args):
    weights = datagen.read_params(args.sem, textio.read_json(args.sem, "sidecar")).get("weights")
    if weights is None:
        raise UsageError(f"{args.sem} carries no SEM weights "
                         "(expected a linear_sem dataset sidecar)")
    sem = causal.LinearSEM(weights)
    fl = flow.load_flow(args.flow)
    seed = _seed(args.seed)
    for n in (args.samples, args.n_obs):
        causal.check_queries(fl, sem, args.value_count, n)
    imse, imse_breakdown = causal.imse_report(
        fl, sem, value_count=args.value_count, n_samples=args.samples,
        rng=seed, ground_truth=args.ground_truth)
    cmse, cmse_breakdown = causal.cmse_report(
        fl, sem, value_count=args.value_count, n_obs=args.n_obs, rng=seed + 1)
    report = {
        "tool": "strnn", "version": VERSION,
        "config": {"flow": args.flow, "sem": args.sem,
                   "value_count": args.value_count, "samples": args.samples,
                   "n_obs": args.n_obs, "seed": seed,
                   "ground_truth": args.ground_truth},
        "total_imse": imse,
        "total_cmse": cmse,
        "imse_breakdown": imse_breakdown,
        "cmse_breakdown": cmse_breakdown,
    }
    textio.write_json(args.out, report)
    print(f"causal-eval: total I-MSE {imse:.6g}, total C-MSE {cmse:.6g} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args):
    """Audit a network or flow checkpoint (``neural.audit_invariance``,
    ``flow.audit_flow``): exit 1 when any output can read an input its
    pattern forbids or a parameter is non-finite.  A pair's ``max_abs_diff``
    is what the perturbation probe measured, 0.0 when it did not reach the
    pair; ``--seed`` seeds the probe."""
    model = flow.load_checkpoint(args.checkpoint)
    seed = _seed(args.seed)
    rng = np.random.default_rng(seed)
    kind = "flow" if isinstance(model, flow.AffineFlow) else "mlp"
    if kind == "flow":
        violations = [{"layer": k, "i": i, "j": j, "max_abs_diff": diff}
                      for k, i, j, diff in flow.audit_flow(model, rng)]
    else:
        violations = [{"i": i, "j": j, "max_abs_diff": diff}
                      for i, j, diff in neural.audit_invariance(model, rng)]
    report = {
        "tool": "strnn", "version": VERSION,
        "config": {"checkpoint": args.checkpoint, "seed": seed},
        "kind": kind,
        "ok": not violations,
        "violations": violations,
    }
    if args.out:
        textio.write_json(args.out, report)
    if violations:
        print(f"verify: {len(violations)} structural violation(s) found",
              file=sys.stderr)
        for v in violations[:10]:
            print(f"  {v}", file=sys.stderr)
        return 1
    print(f"verify: {kind} checkpoint respects its dependency pattern")
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="strnn",
        description="Masked autoregressive networks, flows, and causal queries "
                    "with enforced dependency structure.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor an adjacency into layer masks")
    p.add_argument("--adjacency", required=True)
    p.add_argument("--widths", required=True, help="comma-separated hidden widths")
    p.add_argument("--method", default="greedy", choices=("greedy", "exact", "zuko"))
    p.add_argument("--objective", default=factorizer.MAX_CONNECTIONS,
                   choices=factorizer.OBJECTIVES)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--compare", action="store_true",
                   help="also emit greedy/exact/zuko objective comparison")

    p = sub.add_parser("datagen", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="JSON dataset spec")
    p.add_argument("--out", required=True, help="dataset file to write")
    p.add_argument("--adjacency-out", default=None)

    p = sub.add_parser("train", help="train a structured net, baseline, or flow")
    p.add_argument("--config", required=True, help="JSON training config")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("causal-eval", help="score a flow against SEM ground truth")
    p.add_argument("--flow", required=True, help="flow checkpoint path")
    p.add_argument("--sem", required=True, help="linear_sem dataset sidecar JSON")
    p.add_argument("--out", required=True, help="metrics JSON to write")
    p.add_argument("--value-count", type=int, default=8)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--n-obs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ground-truth", default="exact", choices=("exact", "sample"))

    p = sub.add_parser("verify", help="audit a checkpoint's structural independence")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None, help="optional report JSON path")
    p.add_argument("--seed", type=int, default=None)
    return parser


@functools.cache
def _parser():
    """The parser, built once per process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    # Looked up per call, so that a replaced ``cmd_<name>`` is the one that runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StrnnError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
