"""Tests of the benchmark harness itself (span arithmetic, wrappers, output)."""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    t = Tracer()
    t.spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 5.0, 0, 0),
        Span("a.inner", 2.0, 3.5, 1, 0),
        Span("b", 6.0, 9.0, 0, 0),
    ]
    assert t.self_times() == [3.0, 2.5, 1.5, 3.0]
    assert sum(t.self_times()) == 10.0  # self times partition the root span
    assert t.owner(2, frozenset({"a"})) == "a"
    assert t.owner(3, frozenset({"a"})) is None


def test_wrapped_calls_nest_and_close_on_error():
    t = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError
        return x

    wrapped_leaf = t.wrap_function(leaf, "leaf")

    def outer(x):
        return wrapped_leaf(x) + wrapped_leaf(x)

    assert t.wrap_function(outer, "outer")(2) == 4
    with pytest.raises(ValueError):
        wrapped_leaf(-1)
    assert [(s.name, s.parent) for s in t.spans] == [("outer", -1), ("leaf", 0), ("leaf", 0), ("leaf", -1)]
    assert t._stack == []


def test_generator_wrapper_times_next_only():
    t = Tracer()

    def gen(n):
        yield from range(n)

    wrapped = t.wrap_generator(gen, "gen")
    with t.span("consumer"):
        seen = []
        for item in wrapped(3):
            with t.span("body"):
                seen.append(item)
    assert seen == [0, 1, 2]
    names = [s.name for s in t.spans]
    # one span per next(), the last one ending in StopIteration
    assert names.count("gen") == 4
    assert all(s.parent == 0 for s in t.spans[1:])  # consumer's work is not inside gen's spans
    gen_spans = [s for s in t.spans if s.name == "gen"]
    body_spans = [s for s in t.spans if s.name == "body"]
    for g in gen_spans:
        assert not any(b.start < g.end and g.start < b.end for b in body_spans)

    t2 = Tracer()
    for item in t2.wrap_generator(gen, "gen")(10):
        if item == 1:
            break  # early exit leaves no span open
    assert t2._stack == [] and len(t2.spans) == 2


def _knoki_items(seed, workdir):
    from modcert.datasets import load_network

    return [workloads.Item("knoki", "knoki", load_network("knoki"), {"method": "both", "seed": seed})]


def _wrapped_targets():
    out = {}
    for module, attr, *_ in run.WRAPS:
        target = importlib.import_module(f"modcert.{module}")
        out[(module, attr)] = getattr(target, attr)
    return out


def test_tracing_off_installs_nothing(tmp_path):
    run.load_modcert()
    before = _wrapped_targets()
    result = run.run_pass(_knoki_items(0, tmp_path), tmp_path)
    assert result.failed == 0
    assert _wrapped_targets() == before

    tracer = Tracer()
    run.install_tracer(tracer)
    assert all(getattr(f, "__wrapped_by_tracer__", False) for f in _wrapped_targets().values())
    try:
        run.run_pass(_knoki_items(0, tmp_path), tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert _wrapped_targets() == before
    assert tracer.spans


def test_check_results_names_changed_networks():
    want = {"a": ["1/2", "1/2", "optimal-proved"], "b": ["1/3", "1/2", "gap"]}
    got = {"a": ["1/2", "1/2", "optimal-proved"], "b": ["1/3", "2/5", "gap"]}
    problems = run.check_results(got, want)
    assert len(problems) == 1 and problems[0].startswith("b:")
    assert run.check_results(want, want) == []


@pytest.mark.parametrize("trace", [False, True])
def test_knoki_smoke_prints_every_metric(monkeypatch, capsys, trace):
    monkeypatch.setitem(workloads.WORKLOADS, "knoki", _knoki_items)
    monkeypatch.setattr(run, "OUT", BENCH / "out" / "tests")
    result = run.measure("knoki", seed=0, seconds=0.0, trace=trace)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    out = capsys.readouterr().out
    assert '"nproc"' in out and '"commit"' in out
    if trace:
        assert "exact-simplex fallback" in out
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # self times of the spans inside the certify calls account for the
        # traced certify time; the harness's timer also covers opening the span
        inside = sum(v for k, v in metrics.items() if k.endswith(".self_s")
                     and k.count(".") == 2 and not k.startswith(("document.dumps", "cli.verify")))
        assert inside <= metrics["trace.certify_s"]
        assert inside == pytest.approx(metrics["trace.certify_s"], rel=0.05)


def test_reference_kernel_does_fixed_work_and_scales_times():
    import speed

    matrix = speed.reference_matrix()
    assert matrix == speed.reference_matrix()
    assert speed.kernel(matrix) == [{i: 1} for i in range(speed.SIZE)]
    assert speed.slowdown([speed.NOMINAL_S * 2] * 3) == pytest.approx(2.0)
