"""Command line runner: load a fixture file, run its check suites, report.

Exit codes keep configuration problems apart from genuine check failures:

    0  every selected check passed
    1  at least one check failed (reports carry the witnesses)
    2  fixture could not be read, parsed, or resolved into runnable checks
    3  internal error: an exception outside the package's own error types
       escaped, so the run says nothing about the checks

Options are resolved before any check body runs, so a bad option exits 2;
a package error raised inside a check body is a failed check.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from dataclasses import replace

from .duality import boundary_subsystem, path_space_system
from .dynsys import free_monoid_system
from .errors import ConfigError, FixtureError, KGraphLabError, WitnessError
from .fixtures import SUITE_KINDS, Fixture, build_graph, parse_fixture
from .fock import RELATION_NAMES, verify_identity
from .groupoid import GroupoidElement, SemidirectGroupoid, build_semidirect
from .reporting import Check, RunReport, render
from .shapes import INF, Shape


def _timed(name: str, fn) -> Check:
    """Run one check body, timed, as a Check of that name; a package error it raises fails it."""
    t0 = time.perf_counter()
    try:
        check = fn()
    except KGraphLabError as err:
        check = Check(name, False, err, f"check raised {type(err).__name__}")
    return replace(check, name=name, elapsed=time.perf_counter() - t0)


def _parts(check: Check) -> list[Check]:
    """A composite check's sub-checks, the last carrying its time; else the check."""
    if not check.checks:
        return [check]
    *head, last = check.checks
    return [*head, replace(last, elapsed=check.elapsed)]


def _shape_option(options: dict, key: str, rank: int, default=None) -> Shape | None:
    """The shape an option names, checked against the graph rank; None if unset."""
    raw = options.get(key, default)
    if raw is None:
        return None
    if len(raw) != rank:
        raise ConfigError(f"{key} {raw} has {len(raw)} coordinates, graph rank is {rank}")
    return Shape(raw)


def _resolve_bound(options: dict, fixture: Fixture, rank: int) -> Shape:
    bound = _shape_option(options, "bound", rank, fixture.bound)
    return Shape((1,) * rank) if bound is None else bound


def _require_graph(graph, suite: str):
    if graph is None:
        raise ConfigError(f"suite {suite!r} needs a graph directive in the fixture")
    return graph


# -- suites ---------------------------------------------------------------------------
#
# Each suite returns its checks named without the suite prefix; run_fixture
# adds it, and flattens each composite check into its sub-checks.


def suite_validate(fixture: Fixture, graph, options: dict) -> list[Check]:
    graph = _require_graph(graph, "validate")
    bound = _resolve_bound(options, fixture, graph.rank)
    return [_timed("validate", lambda: graph.validate(bound))]


def suite_counterexample(fixture: Fixture, graph, options: dict) -> list[Check]:
    """The word system's two defects, read off the DC witness with no groupoid window built."""
    system = free_monoid_system(options.get("letters", "ab"), options.get("length", 3))
    # this suite passes when the expected defect shows up
    dc = _timed("domain-compat-fails", lambda: replace(rep := system.check_dc(), ok=not rep.ok))

    def composite_has_no_witness():
        # DC fails at (n, m, x): x is in dom T^n and dom T^m, not in dom T^(n join m).
        # g = (x, n, T^n x) and h = (x, m, T^m x) are arrows with the evident witnesses
        # (n, 0) and (m, 0).  g^-1 h = (T^n x, m - n, T^m x) has no witness (p, q) at any
        # bound: T^p T^n x = T^q T^m x with p - q = m - n gives p + n = q + m >= n join m,
        # and T^(p+n) x defined puts x in dom T^(n join m).  So they compose in an empty
        # window whose witness bound is a default build's, exit_bound(), which the
        # WitnessError reports as its search bound.
        n, m, x = dc.witness
        zero = Shape.zero(system.rank)
        g, h = (GroupoidElement(x, k.coords, system.power(k)(x), witness=(k, zero)) for k in (n, m))
        empty = SemidirectGroupoid(system, (), system.exit_bound())
        try:
            empty.compose(empty.inverse(g), h)
        except WitnessError as err:
            return Check("composite-without-witness", True,
                         (err.attempted, err.search_bound), "composite rejected")
        return Check("composite-without-witness", False, None, "composite unexpectedly accepted")

    return [dc, _timed("composite-without-witness", composite_has_no_witness)]


def suite_fock(fixture: Fixture, graph, options: dict) -> list[Check]:
    """Each selected relation, timed on its own; all share the graph's path table and basis."""
    graph = _require_graph(graph, "fock")
    bound = _resolve_bound(options, fixture, graph.rank)
    relations = options.get("relations", RELATION_NAMES)
    for rel in relations:
        if rel not in RELATION_NAMES:
            raise ConfigError(
                f"unknown relation {rel!r} (known: {', '.join(RELATION_NAMES)})")

    def relation(rel):
        rep = verify_identity(graph, rel, bound)
        # witness: the first counterexample's instance label and basis element
        witness = rep.counterexamples[0][:2] if rep.counterexamples else None
        return Check(rel, rep.ok, witness, f"checked={rep.checked}")

    return [_timed(rel, lambda rel=rel: relation(rel)) for rel in relations]


def suite_groupoid(fixture: Fixture, graph, options: dict) -> list[Check]:
    graph = _require_graph(graph, "groupoid")
    bound = _resolve_bound(options, fixture, graph.rank)
    witness_bound = _shape_option(options, "witness", graph.rank)
    system = None

    def domain_compat():  # building the system validates the graph; an invalid one fails here
        nonlocal system
        system = path_space_system(graph, bound)
        return system.check_dc()

    dc = _timed("domain-compat", domain_compat)
    if not dc.ok:
        return [dc, Check("axioms", False, None, "skipped: domain compatibility failed")]

    def axioms():
        # at the default bound, exit_bound(), domain_compat's scan has passed: skip the repeat
        G = build_semidirect(system, witness_bound=witness_bound, force=witness_bound is None)
        rep = G.check_axioms()
        census = Check("census", True, info=f"elements={len(G)}")
        return replace(rep, checks=rep.checks + (census,))

    return [dc, _timed("build", axioms)]


def suite_boundary(fixture: Fixture, graph, options: dict) -> list[Check]:
    graph = _require_graph(graph, "boundary")
    prefix_cap = _shape_option(options, "prefix", graph.rank)
    cycle_cap = _shape_option(options, "cycle", graph.rank)
    system = boundary_subsystem(graph, prefix_cap=prefix_cap, cycle_cap=cycle_cap)
    dc_bound = Shape((1,) * graph.rank)
    points = f"points={len(system.carrier)}"

    def never_exits():
        stuck = next((x for x in system.carrier
                      if any(c is not INF for c in system.exit_time(x).coords)), None)
        return Check("exit-infinite", stuck is None, stuck, points)

    return [
        _timed("commuting", lambda: replace(system.check_commuting(), info=points)),
        _timed("domain-compat", lambda: system.check_dc(dc_bound)),
        _timed("exit-infinite", never_exits),
    ]


SUITES = {
    "validate": suite_validate,
    "counterexample": suite_counterexample,
    "fock": suite_fock,
    "groupoid": suite_groupoid,
    "boundary": suite_boundary,
}

assert set(SUITES) == set(SUITE_KINDS)


# -- entry point -----------------------------------------------------------------------

def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="kgraphlab",
        description="Run the check suites declared in a fixture file.")
    parser.add_argument("fixture", help="path to a fixture file")
    parser.add_argument("--suite", default=None,
                        help="comma separated suite names (default: as declared)")
    parser.add_argument("--bound", default=None,
                        help="override the fixture bound, e.g. 2,2")
    parser.add_argument("--relations", default=None,
                        help="comma separated relation names for the fock suite")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the fixture seed")
    parser.add_argument("--format", default="human",
                        choices=("human", "machine", "both"),
                        help="report rendering (default: human)")
    return parser.parse_args(argv)


def run_fixture(fixture: Fixture, *, suite_names=None, bound=None,
                relations=None, seed=None) -> RunReport:
    """Run the selected suites and collect every check result, in order."""
    graph = build_graph(fixture)

    if suite_names is None:
        selected = list(fixture.suites)
    else:
        selected = list(suite_names)
        for name in selected:
            if name not in SUITES:
                raise ConfigError(
                    f"unknown suite {name!r} (known: {', '.join(sorted(SUITES))})")
    if not selected:
        raise ConfigError("fixture declares no suites and none were selected")

    results: list[Check] = []
    for name in selected:
        options = dict(fixture.suites.get(name, {}))
        if bound is not None:
            options["bound"] = bound
        if relations is not None and name == "fock":
            options["relations"] = relations
        results.extend(replace(part, name=f"{name}.{part.name}")
                       for c in SUITES[name](fixture, graph, options) for part in _parts(c))

    return RunReport(fixture=fixture.name,
                     seed=seed if seed is not None else fixture.seed,
                     results=tuple(results))


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    try:
        fixture = parse_fixture(args.fixture)
        suite_names = args.suite.split(",") if args.suite else None
        bound = None
        if args.bound is not None:
            parts = args.bound.split(",")
            if not all(p.isascii() and p.isdigit() for p in parts):
                raise ConfigError(f"malformed --bound {args.bound!r}")
            bound = tuple(int(p) for p in parts)
        relations = tuple(args.relations.split(",")) if args.relations else None
        report = run_fixture(fixture, suite_names=suite_names, bound=bound,
                             relations=relations, seed=args.seed)
        text = render(report, args.format)
    except OSError as err:
        print(f"error: cannot read fixture: {err}", file=sys.stderr)
        return 2
    except (FixtureError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except KGraphLabError as err:
        print(f"error: fixture does not resolve: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        # a bug, not a verdict: exit 1 must keep meaning "a check failed"
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        traceback.print_exc()
        return 3

    print(text)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
