"""Checks of the benchmark's own arithmetic: tail-percentile selection, self
time from nested spans, span recording and failure counting.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import math
import os
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import harness  # noqa: E402


# ---------------------------------------------------------------------------
# tail


def test_tail_keeps_exactly_ten_samples_beyond():
    values = list(range(1, 41))              # 40 samples, shuffled below
    values = values[::2] + values[1::2]
    value, pct, beyond, n = harness.tail(values)
    assert (value, beyond, n) == (30, 10, 40)
    assert pct == pytest.approx(75.0)
    assert sum(v > value for v in values) == 10


def test_tail_with_twenty_samples_is_the_lower_median():
    value, pct, beyond, n = harness.tail(range(20))
    assert (value, pct, beyond, n) == (9, 50.0, 10, 20)


def test_tail_with_eleven_samples_is_the_minimum():
    value, pct, beyond, n = harness.tail([5.0] + [9.0] * 10)
    assert (value, beyond) == (5.0, 10)
    assert pct == pytest.approx(100.0 / 11)


def test_tail_with_too_few_samples_falls_back_to_the_maximum():
    value, pct, beyond, n = harness.tail([3.0, 1.0, 2.0])
    assert (value, pct, beyond, n) == (3.0, 100.0, 0, 3)
    assert math.isnan(harness.tail([])[0])


def test_tail_honours_a_custom_count_beyond():
    assert harness.tail(range(100), beyond=1)[:3] == (98, 99.0, 1)


# ---------------------------------------------------------------------------
# self time


def span(name, start, end, parent=-1):
    return (name, start, end, parent, "r1")


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("train", 0.0, 10.0),
        span("step", 1.0, 4.0, 0),
        span("matmul", 1.5, 3.5, 1),       # grandchild of train
        span("step", 5.0, 6.0, 0),
    ]
    assert harness.self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span("parent", 0.0, 10.0),
        span("a", 2.0, 5.0, 0),
        span("b", 4.0, 7.0, 0),             # overlaps a by one second
        span("c", 9.0, 12.0, 0),            # runs past the parent's end
        span("d", 7.0, 7.0, 0),             # empty
    ]
    assert harness.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_time_of_a_leaf_is_its_duration():
    assert harness.self_times([span("leaf", 2.5, 4.0)]) == pytest.approx([1.5])


def test_descendant_counts_at_any_depth():
    spans = [
        span("from_noise", 0, 10),
        span("reconstruct", 1, 9, 0),
        span("forward", 2, 3, 1),
        span("forward", 4, 5, 1),
        span("from_noise", 11, 12),
        span("forward", 13, 14),            # not under any from_noise
    ]
    assert harness.descendant_counts(spans, "from_noise", "forward") == [2, 0]
    assert harness.descendant_counts(spans, "absent", "forward") == []


# ---------------------------------------------------------------------------
# span recording


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def make_module():
    mod = types.ModuleType("pkg.fake")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) + mod.leaf(x)

    def _private(x):
        return x

    class Net:
        def forward(self, x):
            return mod.leaf(x)

        @classmethod
        def build(cls):
            return cls()

        @property
        def dim(self):
            return 3

    for obj in (leaf, outer, _private, Net):
        obj.__module__ = "pkg.fake"
        setattr(mod, obj.__name__, obj)
    return mod


def test_instrument_wraps_public_functions_and_methods():
    mod = make_module()
    tracer = harness.Tracer(clock=FakeClock())
    names = tracer.instrument(mod, skip=("Net.build",))
    assert sorted(names) == ["fake.Net.forward", "fake.leaf", "fake.outer"]
    assert mod.Net().dim == 3

    assert mod.outer(1) == 4
    assert tracer.spans() == []                   # inactive: nothing recorded

    tracer.active = True
    tracer.request = "7:sample"
    assert mod.outer(1) == 4
    assert mod.Net.build().forward(2) == 3
    spans = tracer.spans()
    assert [(s[0], s[3], s[4]) for s in spans] == [
        ("fake.outer", -1, "7:sample"),
        ("fake.leaf", 0, "7:sample"),
        ("fake.leaf", 0, "7:sample"),
        ("fake.Net.forward", -1, "7:sample"),
        ("fake.leaf", 3, "7:sample"),
    ]
    # The fake clock ticks once per reading: outer 1..6 holds leaves 2..3, 4..5.
    assert spans[0][1:3] == (1.0, 6.0)
    assert harness.self_times(spans)[0] == pytest.approx(3.0)


def test_hooks_see_call_arguments_and_dump_round_trips(tmp_path):
    mod = make_module()
    tracer = harness.Tracer(clock=FakeClock())
    tracer.instrument(mod)
    seen = []
    tracer.hooks["fake.leaf"] = lambda args: seen.append(args)
    tracer.active = True
    mod.outer(5)
    assert seen == [(5,), (5,)]

    path = tmp_path / "trace.json"
    tracer.dump(str(path), t0=1.0)
    payload = json.loads(path.read_text())
    assert payload["names"] == ["fake.leaf", "fake.outer"]
    assert payload["spans"][0] == [1, 0.0, 5.0, -1, None]


def test_a_raising_call_still_closes_its_span():
    tracer = harness.Tracer(clock=FakeClock())

    def boom():
        raise ValueError("no")

    wrapped = tracer.wrap("boom", boom)
    tracer.active = True
    with pytest.raises(ValueError):
        wrapped()
    (name, start, end, parent, _), = tracer.spans()
    assert (name, start, end, parent) == ("boom", 1.0, 2.0, -1)
    assert tracer._stack == []


# ---------------------------------------------------------------------------
# failure counting


def test_gate_counts_attempts_and_failures():
    gate = harness.Gate()
    gate.record("train", [])
    gate.record("verify", ["verify found 2 violation(s)"])
    gate.record("sample", ["a", "b"])                   # one op, two reasons
    assert (gate.attempted, gate.failed) == (3, 2)
    assert gate.failures[1] == ("sample", ["a", "b"])


def test_gate_repeat_requires_finite_bitwise_equal_values():
    gate = harness.Gate()
    assert gate.repeat("test_nll", 1.25) == []
    assert gate.repeat("test_nll", 1.25) == []
    assert gate.repeat("test_nll", 1.25 + 2.0 ** -52) != []
    assert gate.repeat("test_nll", float("nan")) != []
    assert gate.repeat("total_imse", float("inf")) != []
    # A key whose first value was non-finite never records it.
    assert gate.repeat("total_imse", 0.5) == []
    assert gate.repeat("zero", 0.0) == []
    assert gate.repeat("zero", -0.0) != []


# ---------------------------------------------------------------------------
# declared metrics


def test_benchmark_json_declares_what_the_runs_print():
    import layers
    import run

    root = os.path.dirname(BENCH)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    printed = {name: (unit, better) for name, unit, better, _ in layers.PER_LAYER}
    printed.update(layers.EXTRA)
    assert declared == printed
