"""Command-line interface.

Subcommands: factor, datagen, train, causal-eval, verify.  Exit codes:
0 success, 1 a verified property failed (sparsity mismatch, audit violation),
2 usage/config errors.  Every JSON output embeds the resolved config and the
tool version.  When a config omits its seed, the STRNN_SEED environment
variable is used as a global fallback.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import adjacency, causal, datagen, factorizer, flow, neural
from .errors import StrnnError, UsageError, VerificationError
from .version import VERSION


def _env_seed(default=0):
    raw = os.environ.get("STRNN_SEED")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"STRNN_SEED must be an integer, got {raw!r}") from None


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON ({exc})") from None


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


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
    A = adjacency.read_matrix(args.adjacency)
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
        _write_json(os.path.join(args.out_dir, "compare.json"), comparison)
    _write_json(os.path.join(args.out_dir, "report.json"), report)
    if not sparsity_ok:
        print("factor: product sparsity does not match the adjacency", file=sys.stderr)
        return 1
    print(f"factor: objective {report['objective_value']} in {wall_ms:.1f} ms "
          f"-> {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# datagen

def cmd_datagen(args):
    cfg = _load_json(args.spec)
    if "seed" not in cfg:
        cfg["seed"] = _env_seed()
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

_TRAIN_KEYS = {
    "model", "dataset", "adjacency", "hidden", "method", "objective",
    "flow_layers", "natural_ordering", "learning_rate", "weight_decay",
    "batch_size", "max_epochs", "early_stop_patience", "seed", "lr_schedule",
    "plateau_factor", "plateau_patience", "epsilon",
}

_MODEL_DEFAULTS = {
    "strnn": {"learning_rate": 1e-3, "batch_size": 200, "max_epochs": 5000,
              "lr_schedule": "fixed"},
    "made": {"learning_rate": 1e-3, "batch_size": 200, "max_epochs": 5000,
             "lr_schedule": "fixed"},
    "flow": {"learning_rate": 1e-3, "batch_size": 32, "max_epochs": 750,
             "lr_schedule": "plateau"},
}


def _train_config(cfg, model):
    fields = ("learning_rate", "weight_decay", "batch_size", "max_epochs",
              "early_stop_patience", "seed", "lr_schedule", "plateau_factor",
              "plateau_patience", "epsilon")
    defaults = dict(_MODEL_DEFAULTS[model])
    kwargs = {}
    for name in fields:
        if name in cfg:
            kwargs[name] = cfg[name]
        elif name in defaults:
            kwargs[name] = defaults[name]
    return neural.TrainConfig(**kwargs).validate()


def cmd_train(args):
    cfg = _load_json(args.config)
    unknown = set(cfg) - _TRAIN_KEYS
    if unknown:
        raise UsageError(f"unknown train config keys: {sorted(unknown)}")
    model = cfg.get("model")
    if model not in ("strnn", "made", "flow"):
        raise UsageError(f"model must be strnn, made, or flow; got {model!r}")
    if "dataset" not in cfg:
        raise UsageError("train config needs a 'dataset' path")
    if "seed" not in cfg:
        cfg["seed"] = _env_seed()
    gen, dataset = datagen.read_dataset(cfg["dataset"])
    d = dataset.x.shape[1]
    hidden = list(cfg.get("hidden", [2 * d]))
    method = cfg.get("method", "greedy")
    tc = _train_config(cfg, model)
    os.makedirs(args.out_dir, exist_ok=True)
    ckpt_path = os.path.join(args.out_dir, "checkpoint.txt")
    head = "binary" if dataset.kind == "binary" else "gaussian"

    if model == "flow":
        if dataset.kind != "real":
            raise UsageError("flow training needs real-valued data")
        if "adjacency" not in cfg:
            raise UsageError("flow training needs an 'adjacency' path")
        A = adjacency.read_matrix(cfg["adjacency"])
        fl = flow.AffineFlow.build(A, int(cfg.get("flow_layers", 5)), hidden,
                                   tc.seed, method)
        fl, history = flow.train_flow(fl, dataset, tc)
        per = flow.nll(fl, dataset.test_x)
        flow.save_flow(fl, ckpt_path)
    else:
        if model == "strnn":
            if "adjacency" not in cfg:
                raise UsageError("structured training needs an 'adjacency' path")
            A = adjacency.read_matrix(cfg["adjacency"])
            masks = factorizer.factor_multilayer(A, hidden, method,
                                                 cfg.get("objective",
                                                         factorizer.MAX_CONNECTIONS))
        else:
            masks = factorizer.made_masks(d, hidden, tc.seed,
                                          natural_ordering=bool(
                                              cfg.get("natural_ordering", True)))
        net = neural.MaskedMLP.from_masks(masks, head, tc.seed)
        net, history = neural.train(net, dataset, tc)
        per = neural.nll(net, dataset.test_x)
        neural.save_mlp(net, ckpt_path)

    hist_path = os.path.join(args.out_dir, "history.csv")
    with open(hist_path, "w") as fh:
        fh.write("epoch,train_nll,val_nll,lr\n")
        for epoch, tr, va, lr in history:
            fh.write(f"{epoch},{tr!r},{va!r},{lr!r}\n")
    n_test = len(per)
    stderr = float(np.std(per, ddof=1) / np.sqrt(n_test)) if n_test > 1 else 0.0
    summary = {
        "tool": "strnn", "version": VERSION,
        "config": {**cfg, "hidden": hidden, "method": method},
        "model": model,
        "test_nll": float(np.mean(per)),
        "test_nll_stderr": stderr,
        "n_test": int(n_test),
        "epochs_run": len(history),
        "best_val_nll": float(min(h[2] for h in history)),
        "checkpoint": ckpt_path,
        "history": hist_path,
    }
    _write_json(os.path.join(args.out_dir, "summary.json"), summary)
    print(f"train[{model}]: test NLL {summary['test_nll']:.4f} "
          f"+/- {summary['test_nll_stderr']:.4f} ({len(history)} epochs) "
          f"-> {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# causal-eval

def cmd_causal_eval(args):
    sidecar = _load_json(args.sem)
    params = sidecar.get("params", {})
    if "weights" not in params:
        raise UsageError(f"{args.sem} carries no SEM weights "
                         "(expected a linear_sem dataset sidecar)")
    sem = causal.LinearSEM(np.asarray(params["weights"], dtype=np.float64))
    fl = flow.load_flow(args.flow)
    seed = args.seed if args.seed is not None else _env_seed()
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
    _write_json(args.out, report)
    print(f"causal-eval: total I-MSE {imse:.6g}, total C-MSE {cmse:.6g} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify

def _checkpoint_kind(path):
    try:
        with open(path) as fh:
            header = fh.readline()
            kind_line = fh.readline().split()
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}") from None
    if not header.startswith("strnn-checkpoint"):
        raise UsageError(f"{path} is not a checkpoint file")
    if len(kind_line) != 2 or kind_line[0] != "kind":
        raise UsageError(f"{path}: malformed kind line")
    return kind_line[1]


def cmd_verify(args):
    kind = _checkpoint_kind(args.checkpoint)
    seed = args.seed if args.seed is not None else _env_seed()
    rng = np.random.default_rng(seed)
    if kind == "flow":
        fl = flow.load_flow(args.checkpoint)
        raw = flow.audit_flow(fl, rng)
        violations = [{"layer": k, "i": i, "j": j, "max_abs_diff": diff}
                      for k, i, j, diff in raw]
    elif kind == "mlp":
        net = neural.load_mlp(args.checkpoint)
        raw = neural.audit_invariance(net, rng)
        violations = [{"i": i, "j": j, "max_abs_diff": diff} for i, j, diff in raw]
    else:
        raise UsageError(f"unknown checkpoint kind {kind!r}")
    report = {
        "tool": "strnn", "version": VERSION,
        "config": {"checkpoint": args.checkpoint, "seed": seed},
        "kind": kind,
        "ok": not violations,
        "violations": violations,
    }
    if args.out:
        _write_json(args.out, report)
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
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("datagen", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="JSON dataset spec")
    p.add_argument("--out", required=True, help="dataset file to write")
    p.add_argument("--adjacency-out", default=None)
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("train", help="train a structured net, baseline, or flow")
    p.add_argument("--config", required=True, help="JSON training config")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("causal-eval", help="score a flow against SEM ground truth")
    p.add_argument("--flow", required=True, help="flow checkpoint path")
    p.add_argument("--sem", required=True, help="linear_sem dataset sidecar JSON")
    p.add_argument("--out", required=True, help="metrics JSON to write")
    p.add_argument("--value-count", type=int, default=8)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--n-obs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ground-truth", default="exact", choices=("exact", "sample"))
    p.set_defaults(func=cmd_causal_eval)

    p = sub.add_parser("verify", help="audit a checkpoint's structural independence")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None, help="optional report JSON path")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StrnnError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
