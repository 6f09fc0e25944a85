"""Tests of the benchmark's own machinery: tracing, inputs and checks."""

import json
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from spans import Span, Tracer, self_times


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span(3, "leaf", 2.0, 3.0, 1, 0),
        Span(1, "mid", 1.0, 4.0, 0, 0),
        Span(2, "mid", 5.0, 9.0, 0, 0),
        Span(0, "root", 0.0, 10.0, None, 0),
    ]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 4.0, 3: 1.0})
    tracer = Tracer([])
    tracer.spans = spans
    assert tracer.self_time_by_name() == pytest.approx(
        {"root": 3.0, "mid": 6.0, "leaf": 1.0})
    assert tracer.calls_by_name() == {"root": 1, "mid": 2, "leaf": 1}


def _current(target):
    if isinstance(target.owner, type):
        return target.owner.__dict__[target.attr]
    return getattr(target.owner, target.attr)


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    tracer = Tracer(workloads.trace_targets())
    originals = [_current(t) for t in tracer.targets]
    with tracer.installed():
        assert all(_current(t) is not o for t, o in zip(tracer.targets, originals))
        workloads.run_configs([workloads.WARMUP], tmp_path)
    assert all(_current(t) is o for t, o in zip(tracer.targets, originals))

    by_id = {s.span_id: s for s in tracer.spans}
    parents = {by_id[s.parent].name for s in tracer.spans
               if s.name == "linalg.unitary_eig"}
    assert parents == {"phase.decide"}
    assert tracer.counts[0]["phase.decide.dim_max"] == 504

    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("batch failed")
    assert all(_current(t) is o for t, o in zip(tracer.targets, originals))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    inputs = workloads.WORKLOADS[name].inputs
    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_closed_form_subroutines_follow_the_seed():
    def unitaries(seed):
        return [s.unitaries for s in workloads.closed_form_pair(seed, 2, 2, 2)]

    assert all(np.array_equal(a, b) for a, b in zip(unitaries(5), unitaries(5)))
    assert not any(np.array_equal(a, b) for a, b in zip(unitaries(5), unitaries(6)))


def _lines(tmp_path, config):
    (path,) = workloads.run_configs([config], tmp_path)
    return path.read_text().splitlines()


def test_wrong_verdict_counts_as_failed(tmp_path):
    config = workloads.ExperimentConfig(kind="simple-loop", n_list=(4,))
    lines = _lines(tmp_path, config)
    assert workloads.evaluate(lines, None) == (2, 0)

    record = json.loads(lines[1])
    assert record["passed"] and record["payload"]["decision"]["verdict"] == "positive"
    record["payload"]["decision"]["verdict"] = "negative"
    injected = [lines[0], json.dumps(record, sort_keys=True)]
    assert workloads.evaluate(injected, None) == (2, 1)
    assert workloads.evaluate(injected, lines) == (2, 1)
    assert workloads.evaluate(lines[:1], lines) == (2, 1)


def test_closed_form_norm_mismatch_counts_as_failed():
    record = workloads.closed_form_records(0, 2, 2, 2)[0]
    assert record["passed"] and workloads.check_record(record)
    record["payload"]["negative"]["witness"]["norm_sq_closed"] += 1e-6
    assert not workloads.check_record(record)


def test_benchmark_json_matches_the_runner():
    bench = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    spans = {t.span for t in workloads.trace_targets()}
    expected = ({f"{s}.self_s" for s in spans} | {f"{s}.calls" for s in spans}
                | set(workloads.COUNTERS) | {"tracing.overhead_s"})
    assert {m["name"] for m in bench["per_layer"]} == expected
