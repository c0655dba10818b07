"""Per-layer metrics of a traced run.

``instrument`` wraps the package's public functions and methods from outside
(``src/`` is untouched) and adds FLOP counters at the ``MaskedMLP`` passes.
``per_layer`` turns the recorded spans into the metrics listed in
``PER_LAYER``.  Times are seconds per closed-loop cycle; counts are exact and
repeat run to run.  The end-to-end metric each one should move is in
bench/README.md.
"""

from collections import defaultdict

import numpy as np

import harness

MODULES = ("cli", "datagen", "factorizer", "neural", "flow", "causal")
# Accessors called per checkpoint line or per optimizer step; wrapping them
# would add spans without adding a layer.
SKIP = ("Reader.next_line", "Reader.expect", "MaskedMLP.params", "AffineFlow.params")

FORWARD = "neural.MaskedMLP.forward"
N_LAYERS = 2        # every workload's networks have one hidden layer


def instrument(tracer, modules):
    for name in MODULES:
        tracer.instrument(modules[name], skip=SKIP)
    tracer.hooks[FORWARD] = _flop_hook(tracer.counters, 1)
    tracer.hooks["neural.MaskedMLP.forward_cached"] = _flop_hook(tracer.counters, 1)
    # backward does two matmuls per layer: weight gradient and input gradient.
    tracer.hooks["neural.MaskedMLP.backward"] = _flop_hook(tracer.counters, 2)


def _flop_hook(counters, passes):
    """Counts dense and mask-useful multiply-adds (x2 FLOPs) per layer from
    the rows passed and each mask's shape and nonzero count."""
    nnz = {}

    def hook(args):
        net, x = args[0], args[-1]
        rows = x.shape[0] if np.ndim(x) == 2 else 1
        for k, mask in enumerate(net.masks):
            entry = nnz.get(id(mask))
            if entry is None or entry[0] is not mask:
                # Keep the mask alive so its id cannot be reused by another.
                entry = nnz[id(mask)] = (mask, int(np.count_nonzero(mask)))
            counters[f"layer{k}.dense"] += 2 * passes * rows * mask.size
            counters[f"layer{k}.useful"] += 2 * passes * rows * entry[1]
    return hook


class _Spans:
    def __init__(self, spans, cycles):
        self.spans = spans
        self.cycles = cycles
        self.index = defaultdict(list)
        for i, s in enumerate(spans):
            self.index[s[0]].append(i)
        self._self = None

    @property
    def self_times(self):
        if self._self is None:
            self._self = harness.self_times(self.spans)
        return self._self

    def _outermost(self, names):
        """Indices of spans named in ``names`` with no ancestor also named in it."""
        spans = self.spans
        out = []
        for i in sorted(i for n in names for i in self.index[n]):
            p = spans[i][3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                out.append(i)
        return out

    def total(self, *names):
        names = set(names)
        return sum(self.spans[i][2] - self.spans[i][1]
                   for i in self._outermost(names)) / self.cycles

    def self_s(self, name):
        return sum(self.self_times[i] for i in self.index[name]) / self.cycles

    def per_call(self, ancestor, descendant):
        counts = harness.descendant_counts(self.spans, ancestor, descendant)
        return sum(counts) / len(counts) if counts else 0.0

    def prefix_total(self, prefix):
        return self.total(*[n for n in self.index if n.startswith(prefix)])


def _gflop(counters, cycles, key):
    return sum(v for k, v in counters.items() if k.endswith(key)) / cycles / 1e9


def _useful_frac(counters, layer=""):
    dense = sum(v for k, v in counters.items() if k.startswith(layer) and k.endswith(".dense"))
    useful = sum(v for k, v in counters.items() if k.startswith(layer) and k.endswith(".useful"))
    return useful / dense if dense else 0.0


# name, unit, better, value(spans, counters)
PER_LAYER = [
    ("neural.forward_cached.s", "s/cycle", "lower",
     lambda t, c: t.total("neural.MaskedMLP.forward_cached")),
    ("neural.backward.s", "s/cycle", "lower", lambda t, c: t.total("neural.MaskedMLP.backward")),
    ("neural.adamw_step.s", "s/cycle", "lower", lambda t, c: t.total("neural.AdamW.step")),
    ("neural.apply_masks.s", "s/cycle", "lower",
     lambda t, c: t.total("neural.MaskedMLP.apply_masks")),
    ("neural.mean_nll.s", "s/cycle", "lower", lambda t, c: t.total("neural.mean_nll")),
    ("neural.forward.s", "s/cycle", "lower", lambda t, c: t.total(FORWARD)),
    ("neural.dense_gflop", "GFLOP/cycle", "lower",
     lambda t, c: _gflop(c, t.cycles, ".dense")),
    ("neural.mask_useful_frac", "frac", "higher", lambda t, c: _useful_frac(c)),
    *[item for k in range(N_LAYERS) for item in (
        (f"neural.layer{k}.dense_gflop", "GFLOP/cycle", "lower",
         lambda t, c, k=k: _gflop(c, t.cycles, f"layer{k}.dense")),
        (f"neural.layer{k}.mask_useful_frac", "frac", "higher",
         lambda t, c, k=k: _useful_frac(c, f"layer{k}.")))],
    ("cli.train.steps", "count", "lower",
     lambda t, c: t.per_call("cli.cmd_train", "neural.AdamW.step")),
    ("flow.loss_and_grads.self_s", "s/cycle", "lower",
     lambda t, c: t.self_s("flow.loss_and_grads")),
    ("flow.mean_nll.s", "s/cycle", "lower", lambda t, c: t.total("flow.mean_nll")),
    ("flow.from_noise.s", "s/cycle", "lower", lambda t, c: t.total("flow.from_noise")),
    ("flow.from_noise.forward_calls", "count", "lower",
     lambda t, c: t.per_call("flow.from_noise", FORWARD)),
    ("causal.imse_report.s", "s/cycle", "lower", lambda t, c: t.total("causal.imse_report")),
    ("causal.cmse_report.s", "s/cycle", "lower", lambda t, c: t.total("causal.cmse_report")),
    ("causal.imse_report.self_s", "s/cycle", "lower",
     lambda t, c: t.self_s("causal.imse_report")),
    ("causal.flow_intervene_sample.calls", "count", "lower",
     lambda t, c: t.per_call("cli.cmd_causal_eval", "causal.flow_intervene_sample")),
    ("causal.flow_counterfactual.calls", "count", "lower",
     lambda t, c: t.per_call("cli.cmd_causal_eval", "causal.flow_counterfactual")),
    ("causal.forward_calls_per_eval", "count", "lower",
     lambda t, c: t.per_call("cli.cmd_causal_eval", FORWARD)),
    ("causal.sem.s", "s/cycle", "lower", lambda t, c: t.prefix_total("causal.sem_")),
    ("neural.audit_invariance.s", "s/cycle", "lower",
     lambda t, c: t.total("neural.audit_invariance")),
    ("neural.audit_invariance.forward_calls", "count", "lower",
     lambda t, c: t.per_call("neural.audit_invariance", FORWARD)),
    ("flow.audit_flow.s", "s/cycle", "lower", lambda t, c: t.total("flow.audit_flow")),
    ("cli.verify.forward_calls", "count", "lower",
     lambda t, c: t.per_call("cli.cmd_verify", FORWARD)),
    ("flow.load_flow.s", "s/cycle", "lower", lambda t, c: t.total("flow.load_flow")),
    ("neural.load_mlp.s", "s/cycle", "lower", lambda t, c: t.total("neural.load_mlp")),
    ("flow.save_flow.s", "s/cycle", "lower", lambda t, c: t.total("flow.save_flow")),
    ("neural.save_mlp.s", "s/cycle", "lower", lambda t, c: t.total("neural.save_mlp")),
    ("datagen.read_dataset.s", "s/cycle", "lower", lambda t, c: t.total("datagen.read_dataset")),
    ("factorizer.factor_multilayer.s", "s/cycle", "lower",
     lambda t, c: t.total("factorizer.factor_multilayer")),
    ("cli.main.self_s", "s/cycle", "lower", lambda t, c: t.self_s("cli.main")),
    ("cli.build_parser.s", "s/cycle", "lower", lambda t, c: t.total("cli.build_parser")),
    ("cli.train.self_s", "s/cycle", "lower", lambda t, c: t.self_s("cli.cmd_train")),
    ("cli.verify.self_s", "s/cycle", "lower", lambda t, c: t.self_s("cli.cmd_verify")),
    ("cli.causal_eval.self_s", "s/cycle", "lower", lambda t, c: t.self_s("cli.cmd_causal_eval")),
]


# Measured from the two halves of a traced run rather than from its spans.
EXTRA = {"bench.trace_overhead_frac": ("frac", "lower")}


def per_layer(tracer, cycles, op, untraced, traced):
    """Metrics of the traced half of a run and a table of the largest self
    times.  ``untraced`` and ``traced`` are the clients of the two halves;
    their median reference-unit time of the main request ``op`` gives the
    tracing overhead."""
    t = _Spans(tracer.spans(), cycles)
    metrics = {name: (float(fn(t, tracer.counters)), unit)
               for name, unit, _, fn in PER_LAYER}
    overhead = harness.median(traced.ratios[op]) / harness.median(untraced.ratios[op]) - 1.0
    metrics["bench.trace_overhead_frac"] = (overhead, "frac")

    by_name = defaultdict(float)
    for s, st in zip(t.spans, t.self_times):
        by_name[s[0]] += st
    top = sorted(by_name.items(), key=lambda kv: -kv[1])[:15]
    detail = {f"self {name}": (v / cycles, "s/cycle", "") for name, v in top}
    detail["traced cycles"] = (cycles, "count", f"{len(t.spans)} spans")
    return metrics, detail
