"""Line-oriented fixture files: parsing, validation, materialization.

A fixture file declares one scenario per file:

    # free text after a hash is a comment
    name  grid walkthrough
    graph grid size=1,1
    suite validate
    suite fock relations=R1,R2 bound=2,2
    bound 2,2
    seed  7

Directives, each at most once except suite (once per suite name):

    name  <free text>           run label (defaults to the file stem)
    graph grid size=<ints>      lattice-interval graph below size
    graph loops counts=<ints> [squares=commute|flip]
                                one vertex, counts[j-1] loops of color j
    suite <name> key=value...   validate, counterexample, fock, groupoid, boundary
    bound <comma separated ints>
    seed  <int>

Unknown directives, kinds and option keys, repeated directives, a missing
required graph option, a value outside its choices, a length below 1, a
comma in letters (one word, not a list), flip squares over unequal loop
counts and malformed values are all rejected with the line and column of
the offending token, so a parsed fixture always builds its graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path as FsPath

from .errors import FixtureError
from .kgraph import KGraph, grid_graph, single_vertex_graph
from .shapes import Shape

_TOKEN = re.compile(r"\S+")

GRAPH_KINDS = {
    "grid": {"size"},
    "loops": {"counts", "squares"},
}
_OPTIONAL = {"squares"}  # every other graph option is required

SUITE_KINDS = {
    "validate": {"bound"},
    "counterexample": {"letters", "length"},
    "fock": {"relations", "bound"},
    "groupoid": {"bound", "witness"},
    "boundary": {"prefix", "cycle"},
}

# option value syntax, shared across directives
_POSITIVE_INT_KEYS = {"length"}
_INT_LIST_KEYS = {"size", "counts", "bound", "witness", "prefix", "cycle"}
_WORD_LIST_KEYS = {"relations"}
_CHOICES = {"squares": ("commute", "flip")}


@dataclass(frozen=True)
class Fixture:
    name: str
    graph_kind: str | None
    graph_options: dict
    suites: dict  # suite name -> its options, in declaration order
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
    if key in _POSITIVE_INT_KEYS:
        if (value := _parse_int(text, line, col)) < 1:
            raise FixtureError(f"{key} must be positive, got {text!r}", line=line, column=col)
        return value
    if key in _INT_LIST_KEYS:
        return _parse_int_list(text, line, col)
    if key in _WORD_LIST_KEYS:
        return tuple(text.split(","))
    choices = _CHOICES.get(key)
    if choices and text not in choices:
        raise FixtureError(f"{key} must be {' or '.join(choices)}, got {text!r}",
                           line=line, column=col)
    if "," in text:
        raise FixtureError(f"{key} takes one word, not a list: got {text!r}",
                           line=line, column=col + text.index(","))
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
    suites: dict = {}
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
        if keyword in seen:
            raise FixtureError(f"duplicate {keyword} directive", line=lineno, column=kw_col)
        if keyword != "suite":
            seen.add(keyword)

        if keyword == "name":
            if not rest:
                raise FixtureError("name needs a value", line=lineno, column=kw_col)
            label = " ".join(t for t, _ in rest)

        elif keyword == "graph":
            if not rest:
                raise FixtureError("graph needs a kind", line=lineno, column=kw_col)
            graph_kind, kind_col = rest[0]
            if graph_kind not in GRAPH_KINDS:
                raise FixtureError(
                    f"unknown graph kind {graph_kind!r} (known: {', '.join(sorted(GRAPH_KINDS))})",
                    line=lineno, column=kind_col)
            graph_options = _parse_options(rest[1:], GRAPH_KINDS[graph_kind], lineno)
            missing = sorted(GRAPH_KINDS[graph_kind] - _OPTIONAL - set(graph_options))
            if missing:
                raise FixtureError(f"graph {graph_kind} requires {missing[0]}=",
                                   line=lineno, column=kind_col)
            counts = graph_options.get("counts", ())
            if graph_options.get("squares") == "flip" and len({c for c in counts if c}) > 1:
                col = next(c for t, c in rest if t.startswith("squares="))
                raise FixtureError(f"squares=flip needs equal nonzero counts, got {counts}",
                                   line=lineno, column=col + len("squares="))

        elif keyword == "suite":
            if not rest:
                raise FixtureError("suite needs a name", line=lineno, column=kw_col)
            suite_name, name_col = rest[0]
            if suite_name not in SUITE_KINDS:
                raise FixtureError(
                    f"unknown suite {suite_name!r} (known: {', '.join(sorted(SUITE_KINDS))})",
                    line=lineno, column=name_col)
            if suite_name in suites:
                raise FixtureError(
                    f"suite {suite_name!r} declared twice", line=lineno, column=name_col)
            suites[suite_name] = _parse_options(rest[1:], SUITE_KINDS[suite_name], lineno)

        elif keyword == "bound":
            if len(rest) != 1:
                raise FixtureError("bound takes one comma separated list",
                                   line=lineno, column=kw_col)
            bound = _parse_int_list(rest[0][0], lineno, rest[0][1])

        elif keyword == "seed":
            if len(rest) != 1:
                raise FixtureError("seed takes one integer", line=lineno, column=kw_col)
            seed = _parse_int(rest[0][0], lineno, rest[0][1])

        else:
            raise FixtureError(
                f"unknown directive {keyword!r} (known: name, graph, suite, bound, seed)",
                line=lineno, column=kw_col)

    return Fixture(label, graph_kind, graph_options, suites, bound, seed)


def parse_fixture(path) -> Fixture:
    fs = FsPath(path)
    return parse_fixture_text(fs.read_text(encoding="utf-8"), name=fs.stem)


# -- materialization -----------------------------------------------------------------

def build_graph(fixture: Fixture) -> KGraph | None:
    """Instantiate the fixture's declared graph, if any; the parser checked its options."""
    opts = fixture.graph_options
    if fixture.graph_kind == "grid":
        return grid_graph(Shape(opts["size"]), name=fixture.name)
    if fixture.graph_kind == "loops":
        return single_vertex_graph(opts["counts"], squares=opts.get("squares", "commute"),
                                   name=fixture.name)
    return None
