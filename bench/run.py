"""strnn benchmark: closed-loop, single-client workloads driven through the CLI.

Usage (from the repository root):

    python3 bench/run.py --workload mlp-train --seed 1 --seconds 30 --trace 0

Every request except sampling is a real ``strnn`` command run in process
through ``strnn.cli.main(argv)``; sampling calls ``flow.sample`` on a loaded
checkpoint.  One client sends its next request only after the previous one
returned.  ``--trace 0`` times the requests and prints the end-to-end
metrics; ``--trace 1`` wraps the public functions and methods of ``cli``,
``datagen``, ``factorizer``, ``neural``, ``flow`` and ``causal`` from outside
and prints the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See
bench/README.md for the workloads and which layer moves which metric.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NPROC = len(os.sched_getaffinity(0))
# Matrices here are at most 1000 x 320.  A second BLAS thread did not make
# the C09-size training faster on 2 cores, and it makes every matmul wait
# for the slower of two shared cores.  The count is in the run record.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402

SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.5
SAMPLE_ROWS = 1000
ROUND_TRIP_TOL = 1e-8          # the flow inversion bound of acceptance check C06


def _import_strnn():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "strnn", "cli.py")):
        raise SystemExit(f"bench: no strnn sources under {src}")
    sys.path.insert(0, src)
    import numpy
    import strnn
    from strnn import causal, cli, datagen, factorizer, flow, neural
    if not os.path.abspath(strnn.__file__).startswith(src + os.sep):
        raise SystemExit(f"bench: strnn imported from {strnn.__file__}, not {src}")
    return numpy, {"cli": cli, "datagen": datagen, "factorizer": factorizer,
                   "neural": neural, "flow": flow, "causal": causal}


np, M = _import_strnn()


def _seeds(seed, n):
    """Independent child seeds of the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# The client

_REF_A = np.random.default_rng(0).random((200, 320))
_REF_B = np.random.default_rng(1).random((320, 20))
_REF_C = np.random.default_rng(2).random((32, 20))
_REF_D = np.random.default_rng(3).random((40, 20))


def reference_kernel():
    """A fixed mix of medium matmuls, numpy calls on small arrays and
    interpreted Python (about 9 ms on one core), timed right before every
    request.  It shares no code with strnn, so a request's time divided by
    it keeps the cost of the code and cancels most of the machine's speed
    at that moment."""
    acc = 0.0
    for _ in range(40):
        acc += float(np.exp(-np.maximum(_REF_A @ _REF_B - 0.5, 0.0)).sum())
    for _ in range(300):
        acc += float(np.clip(np.maximum(_REF_C @ _REF_D.T + 0.1, 0.0), -7, 7)[:, :5].sum())
    counts = {}
    for i in range(20000):
        counts[i % 17] = counts.get(i % 17, 0) + i
    return acc + sum(counts.values())


class Client:
    """Sends requests, times each one and feeds the correctness gate.

    Checks run between requests with tracing paused, outside every timed
    region.  With ``calibrate`` the reference kernel runs before each
    request; set-up leaves it off so that it does not count as set-up time.
    """

    def __init__(self, tracer, gate, calibrate=True):
        self.calibrate = calibrate
        self.tracer = tracer
        self.gate = gate
        self.times = defaultdict(list)
        self.ratios = defaultdict(list)
        self.quality = {}
        self._n = 0

    def _timed(self, kind, fn):
        if self.calibrate:
            t0 = time.perf_counter()
            reference_kernel()
            ref = time.perf_counter() - t0
            self.times["reference"].append(ref)
        self._n += 1
        self.tracer.request = f"{self._n}:{kind}"
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        self.tracer.request = None
        self.times[kind].append(dt)
        if self.calibrate:
            self.ratios[kind].append(dt / ref)
        return result

    def cli(self, kind, argv):
        """Run one CLI command; returns the failure reasons so far."""
        out, err = io.StringIO(), io.StringIO()

        def call():
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return M["cli"].main(argv)
            except SystemExit as exc:
                return exc.code
            except Exception as exc:   # a crash is a failed request, not a dead run
                return f"{type(exc).__name__}: {exc}"

        code = self._timed(kind, call)
        if code == 0:
            return []
        return [f"{kind} exited {code!r}: {err.getvalue().strip()[-300:]}"]

    def sample(self, fl, seed):
        """Draw one batch; returns (batch or None, failure reasons)."""
        def call():
            try:
                return M["flow"].sample(fl, SAMPLE_ROWS, seed), []
            except Exception as exc:   # a crash is a failed request, not a dead run
                return None, [f"sample raised {type(exc).__name__}: {exc}"]

        return self._timed("sample", call)

    @contextlib.contextmanager
    def paused(self):
        was = self.tracer.active
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = was


def check_sample(fl, seed, x):
    """Reasons a sampled batch is wrong: non-finite, or it does not map back
    to the noise it was drawn from."""
    if not np.isfinite(x).all():
        return ["sample has non-finite values"]
    z = np.random.default_rng(seed).standard_normal((SAMPLE_ROWS, fl.dim))
    err = float(np.abs(M["flow"].to_noise(fl, x)[0] - z).max())
    if not err < ROUND_TRIP_TOL:
        return [f"sample round trip error {err:.3g} >= {ROUND_TRIP_TOL}"]
    return []


def verify(client, ckpt, out, seed):
    reasons = client.cli("verify", ["verify", "--checkpoint", ckpt, "--out", out,
                                    "--seed", str(seed)])
    with client.paused():
        if os.path.exists(out):
            report = _read_json(out)
            if report["violations"]:
                reasons.append(f"verify found {len(report['violations'])} violation(s)")
            os.remove(out)
        elif not reasons:
            reasons.append("verify wrote no report")
        client.gate.record("verify", reasons)


def train(client, cfg_path, out_dir, epochs):
    reasons = client.cli("train", ["train", "--config", cfg_path, "--out-dir", out_dir])
    with client.paused():
        summary_path = os.path.join(out_dir, "summary.json")
        if os.path.exists(summary_path):
            summary = _read_json(summary_path)
            reasons += client.gate.repeat("test_nll", summary["test_nll"])
            if summary["epochs_run"] != epochs:
                reasons.append(f"ran {summary['epochs_run']} epochs, not {epochs}")
            os.remove(summary_path)
            client.quality["test_nll"] = summary["test_nll"]
        elif not reasons:
            reasons.append("train wrote no summary")
        client.gate.record("train", reasons)


def sample_batch(client, fl, seeds):
    for s in seeds:
        x, reasons = client.sample(fl, s)
        with client.paused():
            client.gate.record("sample", reasons or check_sample(fl, s, x))


# ---------------------------------------------------------------------------
# Workloads


def _datagen(client, work, spec):
    spec_path = _write_json(os.path.join(work, "spec.json"), spec)
    data = os.path.join(work, "data.txt")
    adj = data + ".adj.txt"
    reasons = client.cli("datagen", ["datagen", "--spec", spec_path, "--out", data,
                                     "--adjacency-out", adj])
    if reasons:
        raise RuntimeError("; ".join(reasons))
    return data, adj


class MlpTrain:
    """C09's binary density config: structured MLP training plus a verify."""

    name = "mlp-train"
    op = "train"
    epochs = 10

    def setup(self, client, work, seed):
        s_data, s_adj, s_model, s_verify = _seeds(seed, 4)
        data, adj = _datagen(client, work, {
            "family": "binary", "n": 5000, "seed": s_data,
            "adjacency": {"scheme": "random_sparse", "d": 20, "threshold": 0.8,
                          "seed": s_adj}})
        cfg = _write_json(os.path.join(work, "train.json"), {
            "model": "strnn", "dataset": data, "adjacency": adj, "hidden": [320],
            "method": "greedy", "learning_rate": 1e-3, "batch_size": 200,
            "lr_schedule": "plateau", "plateau_factor": 0.5, "plateau_patience": 15,
            "max_epochs": self.epochs, "early_stop_patience": self.epochs + 1,
            "seed": s_model})
        return {"cfg": cfg, "out": os.path.join(work, "model"), "verify_seed": s_verify,
                "train_rows": 3000}

    def cycle(self, client, st):
        train(client, st["cfg"], st["out"], self.epochs)
        verify(client, os.path.join(st["out"], "checkpoint.txt"),
               os.path.join(st["out"], "verify.json"), st["verify_seed"])


class FlowTrain:
    """Flow training on a deep banded DAG, then sampling from the new checkpoint."""

    name = "flow-train"
    op = "train"
    epochs = 10
    samples = 5

    def setup(self, client, work, seed):
        s_data, s_model, s_verify, s_sample = _seeds(seed, 4)
        data, adj = _datagen(client, work, {
            "family": "gaussian", "n": 2000, "seed": s_data,
            "adjacency": {"scheme": "prev_k", "d": 20, "k": 2}})
        cfg = _write_json(os.path.join(work, "train.json"), {
            "model": "flow", "dataset": data, "adjacency": adj, "flow_layers": 5,
            "hidden": [40], "max_epochs": self.epochs,
            "early_stop_patience": self.epochs + 1, "seed": s_model})
        return {"cfg": cfg, "out": os.path.join(work, "model"), "verify_seed": s_verify,
                "sample_seeds": [s_sample + i for i in range(self.samples)],
                "train_rows": 1200}

    def cycle(self, client, st):
        train(client, st["cfg"], st["out"], self.epochs)
        ckpt = os.path.join(st["out"], "checkpoint.txt")
        verify(client, ckpt, os.path.join(st["out"], "verify.json"), st["verify_seed"])
        try:
            fl = M["flow"].load_flow(ckpt)
        except Exception as exc:   # no checkpoint to sample from: each sample fails
            for _ in st["sample_seeds"]:
                client.gate.record("sample", [f"load_flow raised {type(exc).__name__}: {exc}"])
            return
        sample_batch(client, fl, st["sample_seeds"])


class FlowServe:
    """Read-only inference on a trained flow over a shallow linear-SEM DAG."""

    name = "flow-serve"
    op = "causal_eval"
    setup_epochs = 30
    verifies = 2
    samples = 10

    def setup(self, client, work, seed):
        s_data, s_model, s_eval, s_verify, s_sample = _seeds(seed, 5)
        data, adj = _datagen(client, work, {
            "family": "linear_sem", "n": 2000, "d": 10, "seed": s_data})
        cfg = _write_json(os.path.join(work, "train.json"), {
            "model": "flow", "dataset": data, "adjacency": adj, "flow_layers": 5,
            "hidden": [20], "max_epochs": self.setup_epochs,
            "early_stop_patience": self.setup_epochs + 1, "seed": s_model})
        out = os.path.join(work, "model")
        reasons = client.cli("train", ["train", "--config", cfg, "--out-dir", out])
        if reasons:
            raise RuntimeError("; ".join(reasons))
        ckpt = os.path.join(out, "checkpoint.txt")
        return {"ckpt": ckpt, "sem": data + ".json", "flow": M["flow"].load_flow(ckpt),
                "eval_out": os.path.join(work, "causal.json"), "eval_seed": s_eval,
                "verify_out": os.path.join(work, "verify.json"),
                "verify_seeds": [s_verify + i for i in range(self.verifies)],
                "sample_seeds": [s_sample + i for i in range(self.samples)]}

    def cycle(self, client, st):
        reasons = client.cli("causal_eval", [
            "causal-eval", "--flow", st["ckpt"], "--sem", st["sem"],
            "--out", st["eval_out"], "--value-count", "8", "--samples", "1000",
            "--n-obs", "1000", "--seed", str(st["eval_seed"])])
        with client.paused():
            if os.path.exists(st["eval_out"]):
                report = _read_json(st["eval_out"])
                for key in ("total_imse", "total_cmse"):
                    reasons += client.gate.repeat(key, report[key])
                    client.quality[key] = report[key]
                os.remove(st["eval_out"])
            elif not reasons:
                reasons.append("causal-eval wrote no report")
            client.gate.record("causal_eval", reasons)
        for s in st["verify_seeds"]:
            verify(client, st["ckpt"], st["verify_out"], s)
        sample_batch(client, st["flow"], st["sample_seeds"])


WORKLOADS = {w.name: w for w in (MlpTrain(), FlowTrain(), FlowServe())}


# ---------------------------------------------------------------------------
# Running


def run_loop(workload, client, state, seconds):
    """Closed loop: whole cycles until ``seconds`` have passed (at least one)."""
    t_end = time.perf_counter() + seconds
    cycles = 0
    while True:
        workload.cycle(client, state)
        cycles += 1
        if time.perf_counter() >= t_end:
            return cycles


def run_setups(workload, tracer, gate, work, seed):
    """Set the workload up from scratch at least SETUP_MIN_REPEATS times and
    for at least SETUP_MIN_SECONDS; returns the last state and the wall time
    of each set-up."""
    walls = []
    state = None
    while len(walls) < SETUP_MIN_REPEATS or sum(walls) < SETUP_MIN_SECONDS:
        if walls:
            shutil.rmtree(os.path.join(work, f"setup{len(walls) - 1}"))
        sub = os.path.join(work, f"setup{len(walls)}")
        os.makedirs(sub)
        client = Client(tracer, gate, calibrate=False)
        t0 = time.perf_counter()
        state = workload.setup(client, sub, seed)
        walls.append(time.perf_counter() - t0)
    return state, walls


END_TO_END = ("setup_s", "op_ref_p50", "verify_ref_p50", "peak_rss_mb", "ok_frac")


def end_to_end(workload, client, state, setup_walls):
    """The declared end-to-end metrics, and a per-request-kind view of the
    same run in seconds (printed, not declared).

    Declared request times are medians of each request's time divided by the
    reference kernel timed right before it; see bench/README.md.
    """
    metrics = {
        "setup_s": (harness.median(setup_walls), "s"),
        "op_ref_p50": (harness.median(client.ratios[workload.op]), "ref"),
        "verify_ref_p50": (harness.median(client.ratios["verify"]), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - client.gate.failed / client.gate.attempted, "frac"),
    }
    detail = {}
    for kind, times in sorted(client.times.items()):
        value, pct, beyond, n = harness.tail(times)
        detail[f"{kind}_s_min"] = (min(times), "s", f"n={n}")
        detail[f"{kind}_s_p50"] = (harness.median(times), "s", f"n={n}")
        detail[f"{kind}_s_tail"] = (value, "s", f"p{pct:.1f}, {beyond} beyond, n={n}")
    if "train" in client.times:
        rows = workload.epochs * state["train_rows"] * len(client.times["train"])
        detail["train_rows_per_s"] = (rows / sum(client.times["train"]), "rows/s", "")
    if "sample" in client.times:
        rows = SAMPLE_ROWS * len(client.times["sample"])
        detail["sample_rows_per_s"] = (rows / sum(client.times["sample"]), "rows/s", "")
    for key, value in sorted(client.quality.items()):
        detail[key] = (value, "nats" if key == "test_nll" else "mse", "deterministic")
    detail["failed_frac"] = (client.gate.failed / client.gate.attempted, "frac",
                             f"{client.gate.failed}/{client.gate.attempted}")
    return metrics, detail


def run_record(workload, seed, seconds, trace):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": NPROC, "blas": blas, "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "commit": _git_commit(),
    }


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = harness.Tracer()
    gate = harness.Gate()
    base = os.path.join(ROOT, ".bench_run")
    work = os.path.join(base, f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        state, setup_walls = run_setups(workload, tracer, gate, work, args.seed)
        workload.cycle(Client(tracer, gate), state)

        client = Client(tracer, gate)
        if not args.trace:
            run_loop(workload, client, state, args.seconds)
            metrics, detail = end_to_end(workload, client, state, setup_walls)
        else:
            run_loop(workload, client, state, args.seconds / 2)
            layers.instrument(tracer, M)
            traced = Client(tracer, gate)
            tracer.active = True
            t0 = time.perf_counter()
            cycles = run_loop(workload, traced, state, args.seconds / 2)
            tracer.active = False
            metrics, detail = layers.per_layer(tracer, cycles, workload.op, client, traced)
            tracer.dump(os.path.join(base, f"trace-{workload.name}-{args.seed}.json"), t0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = run_record(workload.name, args.seed, args.seconds, args.trace)
    print("# run " + json.dumps(record, sort_keys=True))
    for name, (value, unit, *note) in {**metrics, **detail}.items():
        print(f"# {name:40s} {value:>16.6g} {unit:12s} {' '.join(note)}")
    for op, reasons in gate.failures[:20]:
        print(f"# FAILED {op}: {'; '.join(reasons)}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
