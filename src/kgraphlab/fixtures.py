"""Line-oriented fixture files: parsing, validation, materialization.

A fixture file declares one scenario per file:

    # free text after a hash is a comment
    name  grid walkthrough
    graph grid size=1,1
    suite validate
    suite fock relations=R1,R2 bound=2,2
    bound 2,2
    seed  7

Directives:

    name  <free text>           run label (defaults to the file stem)
    graph <kind> key=value...   kinds: grid, loops, free_abelian, flip
    system <kind> key=value...  kinds: free_monoid
    suite <name> key=value...   validate, counterexample, fock, groupoid, boundary
    bound <comma separated ints>
    seed  <int>

Unknown directives, unknown kinds, unknown option keys and malformed
values are all rejected with the line and column of the offending token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path as FsPath

from .errors import FixtureError
from .kgraph import KGraph, flip_graph, grid_graph, one_loop_per_color_graph, single_vertex_graph
from .shapes import Shape

_TOKEN = re.compile(r"\S+")

GRAPH_KINDS = {
    "grid": {"size"},
    "loops": {"counts", "squares"},
    "free_abelian": {"rank"},
    "flip": set(),
}

SYSTEM_KINDS = {
    "free_monoid": {"letters", "length"},
}

SUITE_KINDS = {
    "validate": {"bound"},
    "counterexample": {"letters", "length"},
    "fock": {"relations", "bound"},
    "groupoid": {"bound", "witness"},
    "boundary": {"prefix", "cycle"},
}

# option value syntax, shared across directives
_INT_KEYS = {"rank", "length"}
_INT_LIST_KEYS = {"size", "counts", "bound", "witness", "prefix", "cycle"}
_WORD_LIST_KEYS = {"relations"}


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    options: dict
    line: int


@dataclass(frozen=True)
class Fixture:
    name: str
    graph_kind: str | None
    graph_options: dict
    system_kind: str | None
    system_options: dict
    suites: tuple[SuiteSpec, ...]
    bound: tuple[int, ...] | None
    seed: int | None


def _parse_int(text: str, line: int, col: int) -> int:
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise FixtureError(f"expected an integer, got {text!r}", line=line, column=col)
    return int(text)


def _parse_int_list(text: str, line: int, col: int) -> tuple[int, ...]:
    parts = text.split(",")
    if not all(parts):
        raise FixtureError(f"malformed integer list {text!r}", line=line, column=col)
    values = tuple(_parse_int(p, line, col) for p in parts)
    if any(v < 0 for v in values):
        raise FixtureError(f"negative entry in {text!r}", line=line, column=col)
    return values


def _parse_value(key: str, text: str, line: int, col: int):
    if key in _INT_KEYS:
        return _parse_int(text, line, col)
    if key in _INT_LIST_KEYS:
        return _parse_int_list(text, line, col)
    if key in _WORD_LIST_KEYS:
        return tuple(text.split(","))
    return text  # word keys keep their raw spelling


def _parse_options(tokens, allowed: set[str], line: int) -> dict:
    options = {}
    for text, col in tokens:
        key, eq, value = text.partition("=")
        if not eq:
            raise FixtureError(
                f"expected key=value, got bare token {text!r}", line=line, column=col)
        if key not in allowed:
            raise FixtureError(
                f"unknown option key {key!r} (allowed: {', '.join(sorted(allowed)) or 'none'})",
                line=line, column=col)
        if key in options:
            raise FixtureError(f"duplicate option key {key!r}", line=line, column=col)
        if not value:
            raise FixtureError(f"empty value for {key!r}", line=line, column=col)
        options[key] = _parse_value(key, value, line, col + len(key) + 1)
    return options


def parse_fixture_text(text: str, *, name: str = "fixture") -> Fixture:
    label = name
    graph_kind = None
    graph_options: dict = {}
    system_kind = None
    system_options: dict = {}
    suites: list[SuiteSpec] = []
    bound = None
    seed = None
    seen = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(body)]
        if not tokens:
            continue
        keyword, kw_col = tokens[0]
        rest = tokens[1:]

        if keyword == "name":
            if not rest:
                raise FixtureError("name needs a value", line=lineno, column=kw_col)
            label = " ".join(t for t, _ in rest)

        elif keyword in ("graph", "system"):
            if keyword in seen:
                raise FixtureError(f"duplicate {keyword} directive", line=lineno, column=kw_col)
            seen.add(keyword)
            if not rest:
                raise FixtureError(f"{keyword} needs a kind", line=lineno, column=kw_col)
            kind, kind_col = rest[0]
            kinds = GRAPH_KINDS if keyword == "graph" else SYSTEM_KINDS
            if kind not in kinds:
                raise FixtureError(
                    f"unknown {keyword} kind {kind!r} (known: {', '.join(sorted(kinds))})",
                    line=lineno, column=kind_col)
            options = _parse_options(rest[1:], kinds[kind], lineno)
            if keyword == "graph":
                graph_kind, graph_options = kind, options
            else:
                system_kind, system_options = kind, options

        elif keyword == "suite":
            if not rest:
                raise FixtureError("suite needs a name", line=lineno, column=kw_col)
            suite_name, name_col = rest[0]
            if suite_name not in SUITE_KINDS:
                raise FixtureError(
                    f"unknown suite {suite_name!r} (known: {', '.join(sorted(SUITE_KINDS))})",
                    line=lineno, column=name_col)
            if any(s.name == suite_name for s in suites):
                raise FixtureError(
                    f"suite {suite_name!r} declared twice", line=lineno, column=name_col)
            options = _parse_options(rest[1:], SUITE_KINDS[suite_name], lineno)
            suites.append(SuiteSpec(suite_name, options, lineno))

        elif keyword == "bound":
            if "bound" in seen:
                raise FixtureError("duplicate bound directive", line=lineno, column=kw_col)
            seen.add("bound")
            if len(rest) != 1:
                raise FixtureError("bound takes one comma separated list",
                                   line=lineno, column=kw_col)
            bound = _parse_int_list(rest[0][0], lineno, rest[0][1])

        elif keyword == "seed":
            if "seed" in seen:
                raise FixtureError("duplicate seed directive", line=lineno, column=kw_col)
            seen.add("seed")
            if len(rest) != 1:
                raise FixtureError("seed takes one integer", line=lineno, column=kw_col)
            seed = _parse_int(rest[0][0], lineno, rest[0][1])

        else:
            raise FixtureError(
                f"unknown directive {keyword!r} "
                "(known: name, graph, system, suite, bound, seed)",
                line=lineno, column=kw_col)

    return Fixture(
        name=label,
        graph_kind=graph_kind,
        graph_options=graph_options,
        system_kind=system_kind,
        system_options=system_options,
        suites=tuple(suites),
        bound=bound,
        seed=seed,
    )


def parse_fixture(path) -> Fixture:
    fs = FsPath(path)
    return parse_fixture_text(fs.read_text(encoding="utf-8"), name=fs.stem)


# -- materialization -----------------------------------------------------------------

def build_graph(fixture: Fixture) -> KGraph | None:
    """Instantiate the fixture's declared graph, if any."""
    kind = fixture.graph_kind
    opts = fixture.graph_options
    if kind is None:
        return None
    if kind == "grid":
        if "size" not in opts:
            raise FixtureError("graph grid requires size=")
        return grid_graph(Shape(opts["size"]), name=fixture.name)
    if kind == "loops":
        if "counts" not in opts:
            raise FixtureError("graph loops requires counts=")
        squares = opts.get("squares", "commute")
        if squares not in ("commute", "flip"):
            raise FixtureError(f"squares must be commute or flip, got {squares!r}")
        return single_vertex_graph(opts["counts"], squares=squares, name=fixture.name)
    if kind == "free_abelian":
        if "rank" not in opts:
            raise FixtureError("graph free_abelian requires rank=")
        return one_loop_per_color_graph(opts["rank"], name=fixture.name)
    if kind == "flip":
        return flip_graph(name=fixture.name)
    raise FixtureError(f"unknown graph kind {kind!r}")

