"""Self-tests of the benchmark harness and its tracer.

Run with: python3 -m pytest bench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def test_wrappers_pass_results_and_exceptions_through():
    tracer = tracing.Tracer()
    sentinel, boom = object(), ValueError("boom")

    def value(a, *, b):
        return a, b, sentinel

    def fail():
        raise boom

    def count(n):
        yield from range(n)

    w_value, w_fail, w_count = (tracer.wrap(f, f"toy.{f.__name__}") for f in (value, fail, count))
    assert tracer.wrap(value, "toy.again") is w_value
    assert w_value.__wrapped__ is value and w_value.__name__ == "value"
    for on in (False, True):
        tracer.on[0] = on
        assert w_value(1, b=2)[2] is sentinel
        with pytest.raises(ValueError) as info:
            w_fail()
        assert info.value is boom
        assert list(w_count(3)) == [0, 1, 2]
    assert tracer.stack == []
    assert tracer.calls == [1, 1, 1]  # only the traced pass counts


def test_installed_tracer_keeps_package_behaviour():
    plain, _ = run.fresh_import()
    graph = plain.kgraph.flip_graph()
    want = plain.fock.verify_identity(graph, "R4", plain.shapes.Shape(2, 2))
    with pytest.raises(plain.errors.ShapeError) as expected:
        graph.factorize(graph.path(["a0"]), plain.shapes.Shape(1, 1))

    kg, modules = run.fresh_import()
    tracer = tracing.Tracer()
    tracing.install(tracer, modules)
    tracer.on[0] = True
    graph = kg.kgraph.flip_graph()
    got = kg.fock.verify_identity(graph, "R4", kg.shapes.Shape(2, 2))
    before = tracer.counts()
    with pytest.raises(kg.errors.ShapeError) as raised:
        kg.duality.factorize(graph.path(["a0"]), kg.shapes.Shape(1, 1))
    tracer.on[0] = False
    assert (got.ok, got.checked, got.relation) == (want.ok, want.checked, want.relation)
    assert str(raised.value) == str(expected.value)
    assert tracer.stack == []
    after = tracer.counts()
    # duality's own binding of factorize was rebound, and reaches the method
    assert "kgraph.factorize" not in before and after["kgraph.factorize"] == 1
    assert after["kgraph.KGraph.factorize"] == before["kgraph.KGraph.factorize"] + 1
    assert before["fock.operators_agree"] > 0 and before["shapes.shapes_below"] > 0


def _traced_counts(workload, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "1"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr  # includes: traced verdicts equal untraced ones
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] != "s" and name != "trace.overhead_ratio"}


# A Path hashes by its graph's identity, so where colliding rational
# infinite paths sit in a set depends on memory addresses, and with it the
# number of __eq__ calls (and the path work inside them) a lookup makes.
ADDRESS_DEPENDENT = {"boundary-pairing"}


@pytest.mark.parametrize("workload", ["fock-window", "groupoid-arith", "boundary-pairing",
                                      "fixture-cli"])
def test_layer_counts_repeat_for_a_seed(workload):
    first = _traced_counts(workload, 11, hash_seed=1)
    second = _traced_counts(workload, 11, hash_seed=2)
    assert any(first.values())
    if workload in ADDRESS_DEPENDENT and first != second:
        pytest.xfail("infinite-path equality work depends on id-based graph hashes")
    assert first == second


def test_request_self_times_fit_inside_their_wall_time():
    workload = workloads.WORKLOADS["boundary-pairing"]
    *_, tracer, per_request = run.trace(workload, 5)
    assert per_request and all(own <= wall + 1e-9 for own, wall in per_request)
    assert sum(own for own, _ in per_request) > 0

    rows = [line.split("\t") for line in run.spans_path(workload).read_text().splitlines()[1:]]
    assert len(rows) == min(sum(tracer.calls), tracing.RECORD_CAP)
    assert len(rows) + tracer.dropped == sum(tracer.calls)
    intervals = {}
    for index, name, start, end, parent, request in rows:
        start, end, parent = float(start), float(end), int(parent)
        assert start <= end and name in tracer.names
        if parent >= 0:
            p_start, p_end, p_request = intervals[parent]
            assert p_start <= start and end <= p_end and p_request == request
        intervals[int(index)] = (start, end, request)
