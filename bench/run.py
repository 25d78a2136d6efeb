"""Benchmark of kgraphlab's bounded-window law checks.

    python3 bench/run.py --workload fock-window --seed 1 --seconds 25 --trace 0
    python3 bench/run.py                     # every workload, each in its own interpreter

One process, one thread, one caller in a closed loop: the next request is
sent when the previous verdict is back, as in a researcher's script.  The
run makes passes until ``--seconds`` have passed.  Each pass starts cold:
it imports the package afresh from ``src/``, builds the workload's shared
structures (timed as one ``setup_s`` sample), draws the seed's deck of at
least MIN_REQUESTS requests anew and runs it in a fresh seeded order,
checking every answer against an oracle after the clock stops.  So no
pass sees what an earlier pass memoized, and the set-up samples are
spread over the whole run.

Each request's latency, and ``setup_s``, is the fastest of its cold
passes.  The shared machines this runs on switch between a full and a
much slower speed for stretches of seconds, so the fastest pass
estimates what the work costs, where a mean over all passes would mostly
measure the neighbours.  ``checks_per_s`` is the deck's request count
over the sum of those fastest latencies: the rate of a pass in which
every request ran at its fastest.  ``check_p50_ms``/``check_p90_ms`` are
the median and 90th percentile of the fastest latencies.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the run makes one pass
untraced, then sets up again with the tracer installed and makes the pass
traced (set-up included, as request 0); it prints the per-layer metrics
of that traced pass and writes its span records to
``.bench_build/spans-<workload>.tsv``.  Their counts repeat exactly for a
seed, except on boundary-pairing, where the work of infinite-path
equality depends on id-based graph hashes.  Traced and untraced verdicts
must agree or the run is not correct.

Exit status 2, with no result line, when the package sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS = ROOT / ".bench_build"
MIN_REQUESTS = 100  # so that at least 10 samples lie beyond the p90
MAX_SECONDS = 150  # stop starting passes here, whatever --seconds says
PACKAGE = "kgraphlab"
MODULES = ("shapes", "kgraph", "dynsys", "groupoid", "fock", "ideals", "duality",
           "fixtures", "cli", "reporting", "errors")


def fresh_import():
    """Import the package from src/ as if for the first time in this process."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    modules[PACKAGE] = pkg
    return types.SimpleNamespace(**modules), modules


def deck_rng(seed, index):
    return random.Random(f"{seed}/{index}")


def run_request(req, tracer=None):
    """Time one request's call, then check it; returns (latency, verdict, problem)."""
    if tracer is not None:
        tracer.on[0] = True
    t0 = time.perf_counter()
    try:
        answer = req.call()
    except Exception as err:  # a crash is a failed request, never an aborted run
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.on[0] = False
        return latency, ("raised", type(err).__name__), f"raised {type(err).__name__}: {err}"
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.on[0] = False
    try:
        verdict, problem = req.check(answer)
    except Exception as err:
        verdict, problem = ("check raised",), f"check raised {type(err).__name__}: {err}"
    return latency, verdict, problem


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def cold_setup(workload, seed):
    """Import the package afresh and set the workload up; returns (set-up seconds, deck)."""
    t0 = time.perf_counter()
    kg, _ = fresh_import()
    state = workload.setup(kg, ROOT)
    seconds = time.perf_counter() - t0
    deck = workload.deck(kg, state, deck_rng(seed, 0))
    if len(deck) < MIN_REQUESTS:
        raise ValueError(f"{workload.name} deck has {len(deck)} requests, fewer than {MIN_REQUESTS}")
    return seconds, deck


def measure(workload, seed, seconds):
    order_rng = deck_rng(seed, "order")
    setup_times, best, described = [], None, None
    attempted, problems = 0, []
    start = time.perf_counter()
    while True:
        setup_time, deck = cold_setup(workload, seed)
        setup_times.append(setup_time)
        gc.collect()
        if best is None:
            best, described = [float("inf")] * len(deck), workload.describe(deck)
        order = list(range(len(deck)))
        order_rng.shuffle(order)
        for i in order:
            latency, _, problem = run_request(deck[i])
            best[i] = min(best[i], latency)
            attempted += 1
            if problem is not None:
                problems.append(f"{deck[i].kind} [{deck[i].label}]: {problem}")
        del deck  # so the next pass's set-up does not run beside this pass's state
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= MAX_SECONDS:
            break
    metrics = {
        "checks_per_s": (len(best) / sum(best), "req/s"),
        "check_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "check_p90_ms": (quantile(best, 0.90) * 1e3, "ms"),
        "setup_s": (min(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = [f"cold passes {len(setup_times)} over {len(best)} requests, wall {elapsed:.3f} s",
             f"failed_ratio {len(problems) / attempted} 1",
             f"property: {described}"]
    return metrics, attempted, problems, notes


def spans_path(workload):
    return SPANS / f"spans-{workload.name}.tsv"


def trace(workload, seed):
    import tracer as tracing

    _, plain_deck = cold_setup(workload, seed)
    plain = [run_request(req) for req in plain_deck]
    del plain_deck

    kg, modules = fresh_import()
    tracer = tracing.Tracer()
    tracing.install(tracer, modules)
    tracer.begin(0)
    tracer.on[0] = True
    state = workload.setup(kg, ROOT)
    tracer.on[0] = False
    deck = workload.deck(kg, state, deck_rng(seed, 0))
    traced, problems, per_request = [], [], []
    for i, req in enumerate(deck, start=1):
        tracer.begin(i)
        result = run_request(req, tracer)
        traced.append(result)
        per_request.append((tracer.request_self[0], result[0]))
        if result[2] is not None:
            problems.append(f"{req.kind} [{req.label}]: {result[2]}")
    if [r[1] for r in plain] != [r[1] for r in traced]:
        problems.append("traced verdicts differ from untraced verdicts")
    problems += [f"untraced {req.kind} [{req.label}]: {r[2]}"
                 for req, r in zip(deck, plain) if r[2] is not None]
    SPANS.mkdir(exist_ok=True)
    tracer.write_spans(spans_path(workload))

    overhead = sum(r[0] for r in traced) / sum(r[0] for r in plain)
    metrics = tracer.layer_metrics(overhead)
    written = sum(tracer.calls) - tracer.dropped
    notes = [f"traced requests {len(deck)}, spans {sum(tracer.calls)}, "
             f"{written} of them written to {spans_path(workload).relative_to(ROOT)}",
             f"property: {workload.describe(deck)}; "
             f"factorize distinct_ratio {metrics['kgraph.factorize.distinct_ratio'][0]:.4f}, "
             f"composite escape share {metrics['groupoid.compose.escape_ratio'][0]:.4f}"]
    return metrics, len(deck), problems, notes, tracer, per_request


def result_line(metrics, attempted, problems):
    return json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def run_all(args):
    """Every workload in a fresh interpreter, so set-up and memory belong to it alone."""
    import workloads

    summary, ok = {}, True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        summary[name] = result
        ok = ok and result["correct"]
        print(f"== {name}")
        for line in lines[:-1]:
            print(f"   {line}")
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)

    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        metrics, attempted, problems, notes, _, _ = trace(workload, args.seed)
    else:
        metrics, attempted, problems, notes = measure(workload, args.seed, args.seconds)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for note in notes:
        print(note)
    for problem in problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(result_line(metrics, attempted, problems))
    return 0


if __name__ == "__main__":
    sys.exit(main())
