"""Tests of the benchmark itself: inputs, answer checks, timing arithmetic
and the tracer. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _keys(workload: str, seed: int, count: int) -> list[str]:
    stream = workloads.WORKLOADS[workload].stream(seed)
    return [op.key for op in itertools.islice(stream, count)]


def test_cli_names_every_workload():
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_one_seed_gives_one_op_list(workload):
    first = _keys(workload, 7, 40)
    assert first == _keys(workload, 7, 40)
    assert first != _keys(workload, 8, 40)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_warmup_is_seed_free_and_correct(workload):
    ops = workloads.WORKLOADS[workload].warmup()
    assert ops
    for op in ops:
        assert op.check(op.run()), op.key


def _op(value, want, fail=False):
    def call():
        if fail:
            raise RuntimeError("boom")
        return value

    return harness.Op(kind="synthetic", key=str(value), run=call, check=lambda got: got == want)


def test_wrong_answer_and_error_lower_ok_frac():
    ops = [_op(i, i) for i in range(8)] + [_op(1, 2), _op(3, 3, fail=True)]
    p = harness.run_pass(iter(ops), "python", max_ops=len(ops))
    verdicts = harness.judge(p.records)
    assert verdicts == [True] * 8 + [False, False]
    assert harness.end_to_end(p, verdicts)["ok_frac"] == pytest.approx(0.8)
    assert p.records[-1].error == "RuntimeError: boom"


def test_wrong_enumeration_lowers_ok_frac(monkeypatch):
    # The expected supports must not come from the function under test: a
    # broken enumerate_minimal_supports, in place before the ops are built,
    # still fails every check of a base that has supports.
    import argcl

    real = argcl.enumerate_minimal_supports
    monkeypatch.setattr(
        argcl, "enumerate_minimal_supports", lambda *a, **k: real(*a, **k)[:-1]
    )
    ops = list(itertools.islice(workloads.kb_stream(3), 32))
    p = harness.run_pass(iter(ops), "python", max_ops=len(ops))
    verdicts = harness.judge(p.records)
    wrong = [r.op.kind.split(":")[0] for r, ok in zip(p.records, verdicts) if not ok]
    # Bases alternate between YES and NO claims; a NO base has no support.
    assert wrong == ["enumerate_minimal_supports"] * 4
    assert harness.end_to_end(p, verdicts)["ok_frac"] == pytest.approx(28 / 32)


def test_kb_oracle_finds_planted_supports():
    # delta: a, a -> b, b, F(a), c; alpha: b. The minimal supports are {b}
    # and {a, a -> b}; F(a) with a is inconsistent, c is irrelevant.
    C, f = workloads.Constraint, workloads._formula
    delta = [
        f(C(workloads.T, ("a",))),
        f(C(workloads.IMPL, ("a", "b"))),
        f(C(workloads.T, ("b",))),
        f(C(workloads.F, ("a",))),
        f(C(workloads.T, ("c",))),
    ]
    alpha = f(C(workloads.T, ("b",)))
    got = workloads.kb_minimal_supports(delta, alpha, ["a", "b", "c"])
    assert got == [(0, 1), (2,)]


def test_property_streams_repeat_tuples_under_fresh_names():
    first = next(workloads.property_stream(4))
    second = next(workloads.property_stream(4))
    assert first.key == second.key
    assert first.run.__defaults__[0] != second.run.__defaults__[0]


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert tracing.self_times(parents, starts, ends) == pytest.approx([3.0, 2.0, 1.0, 4.0])


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_normalisation_of_synthetic_timings(monkeypatch):
    clock = _FakeClock()
    nominal = harness.NOMINAL_REF_RATE
    rates = iter([nominal, 3 * nominal, nominal])
    monkeypatch.setattr(harness, "perf_counter", clock)
    monkeypatch.setattr(harness, "ref_rate", lambda mix, units=0: next(rates))
    monkeypatch.setattr(harness, "SEGMENT_S", 0.25)

    def sleeper(seconds):
        def call():
            clock.now += seconds
            return seconds

        return harness.Op(kind="synthetic", key=str(seconds), run=call, check=lambda got: True)

    # Segment one: 0.1 + 0.2 s between rates 1x and 3x (mean 2x);
    # segment two: 0.3 s between rates 3x and 1x (mean 2x again).
    ops = [sleeper(0.1), sleeper(0.2), sleeper(0.3)]
    p = harness.run_pass(iter(ops), "python", max_ops=3)
    assert [r.raw_s for r in p.records] == pytest.approx([0.1, 0.2, 0.3])
    assert [r.norm_s for r in p.records] == pytest.approx([0.2, 0.4, 0.6])
    e2e = harness.end_to_end(p, harness.judge(p.records))
    assert e2e["ops_per_s"] == pytest.approx(3 / 1.2)
    assert e2e["op_p50_ms"] == pytest.approx(400.0)
    assert e2e["op_p95_ms"] == pytest.approx(580.0)
    assert harness.normalise(0.5, nominal / 2) == pytest.approx(0.25)


def test_tracer_wraps_every_binding_and_reports_missing(monkeypatch):
    import argcl
    import argcl.argumentation
    import argcl.logic

    original = argcl.logic.entails
    monkeypatch.setitem(tracing.TRACED, "logic", ("is_consistent", "entails", "no_such_fn"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert argcl.logic.entails is not original
        assert argcl.argumentation.entails is argcl.logic.entails
        assert argcl.entails is argcl.logic.entails
        delta = [workloads._formula(workloads.Constraint(workloads.T, ("a",)))]
        alpha = workloads._formula(workloads.Constraint(workloads.T, ("a",)))
        assert argcl.arg_exists(delta, alpha)
    finally:
        tracer.uninstall()
    assert argcl.logic.entails is original
    assert argcl.argumentation.entails is original
    assert tracer.missing == ["logic.no_such_fn"]
    calls, _ = tracer.totals()
    assert calls["argumentation.arg_exists"] == 1
    assert calls["logic.entails"] >= 1
    metrics = tracer.layer_metrics(1)
    assert "logic.entails.calls" in metrics
    assert all("no_such_fn" not in name for name in metrics)


_TRACE_SCRIPT = """
import json, sys
from pathlib import Path
sys.path.insert(0, {bench!r})
import run
run.import_argcl()
import workloads
spec = workloads.WORKLOADS[{workload!r}]
workloads.WORKLOADS[{workload!r}] = spec._replace(trace_ops={ops})
metrics, verdicts, record = run.traced_run({workload!r}, 5, Path({spans!r}))
counts = {{k: v for k, (v, unit) in metrics.items() if unit != "ms"
          and not k.startswith("harness.")}}
busy = sorted(k for k, (v, unit) in metrics.items() if unit == "ms" and v > 0)
print(json.dumps({{"counts": counts, "busy": busy}}))
"""


@pytest.mark.parametrize(
    "workload,ops,layer",
    [
        ("reduction-sweep", 60, "reductions.reduce.self_ms"),
        ("kb-search", 8, "argumentation.enumerate_minimal_supports.self_ms"),
        ("schaefer-scale", 10, "argumentation.argcheck.self_ms"),
        ("property-sweep", 10, "expressibility.express.self_ms"),
    ],
)
def test_traced_counts_repeat_across_runs(workload, ops, layer, tmp_path):
    env = {**os.environ, **run.FIXED_ENV}
    outputs = []
    for attempt in range(2):
        script = _TRACE_SCRIPT.format(
            bench=str(BENCH_DIR),
            workload=workload,
            ops=ops,
            spans=str(tmp_path / f"spans{attempt}.tsv.gz"),
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
            check=True,
        )
        outputs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    assert outputs[0]["counts"] == outputs[1]["counts"]
    assert outputs[0]["counts"]["argumentation.oracle_calls_per_op"] > 0
    # The workload's own layer is seen, so ops reach argcl through the wrappers.
    assert layer in outputs[0]["busy"]
