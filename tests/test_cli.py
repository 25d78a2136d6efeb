"""Fixture parsing, witness grammar round trips, report rendering, exit codes."""

import random
from pathlib import Path

import pytest

from kgraphlab import cli, duality
from kgraphlab.cli import main, run_fixture
from kgraphlab.dynsys import MGDS
from kgraphlab.errors import ConfigError, FixtureError, GraphError, KGraphLabError
from kgraphlab.fixtures import build_graph, parse_fixture, parse_fixture_text
from kgraphlab.fock import RELATION_NAMES, verify_identity
from kgraphlab.groupoid import SemidirectGroupoid
from kgraphlab.kgraph import (
    Edge,
    KGraph,
    PathTable,
    flip_graph,
    grid_graph,
    one_loop_per_color_graph,
    single_vertex_graph,
)
from kgraphlab.reporting import (
    Check,
    RunReport,
    human_lines,
    machine_lines,
    serialize_witness,
)
from kgraphlab.shapes import INF, ExtendedShape, Shape

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


# -- fixture parsing -----------------------------------------------------------------

def test_parse_full_fixture():
    fx = parse_fixture_text(
        "# a comment\n"
        "name  demo run\n"
        "graph loops counts=2,2 squares=flip\n"
        "suite validate\n"
        "suite fock relations=R1,R3 bound=2,2\n"
        "bound 1,1\n"
        "seed  7\n"
    )
    assert fx.name == "demo run"
    assert fx.graph_kind == "loops"
    assert fx.graph_options == {"counts": (2, 2), "squares": "flip"}
    assert list(fx.suites) == ["validate", "fock"]
    assert fx.suites["fock"] == {"relations": ("R1", "R3"), "bound": (2, 2)}
    assert fx.bound == (1, 1)
    assert fx.seed == 7


def test_unknown_directive_has_line_and_column():
    with pytest.raises(FixtureError) as ei:
        parse_fixture_text("graph grid size=1,1\n  wibble 3\n")
    assert ei.value.line == 2
    assert ei.value.column == 3
    assert "line 2" in str(ei.value) and "column 3" in str(ei.value)


def test_unknown_option_key_rejected_with_position():
    with pytest.raises(FixtureError) as ei:
        parse_fixture_text("graph grid sixe=1,1\n")
    assert ei.value.line == 1
    assert ei.value.column == 12
    assert "sixe" in str(ei.value)


def test_unknown_suite_key_rejected():
    with pytest.raises(FixtureError) as ei:
        parse_fixture_text("suite fock relations=R1 depth=3\n")
    assert ei.value.line == 1 and "depth" in str(ei.value)


def test_unknown_graph_kind_rejected():
    with pytest.raises(FixtureError) as ei:
        parse_fixture_text("graph torus size=1,1\n")
    assert "torus" in str(ei.value) and ei.value.column == 7


def test_unknown_suite_name_rejected():
    with pytest.raises(FixtureError) as ei:
        parse_fixture_text("suite focke\n")
    assert "focke" in str(ei.value)


def test_malformed_int_list_rejected():
    with pytest.raises(FixtureError) as ei:
        parse_fixture_text("bound 2,,2\n")
    assert ei.value.line == 1 and ei.value.column == 7
    with pytest.raises(FixtureError):
        parse_fixture_text("graph grid size=1,x\n")
    with pytest.raises(FixtureError):
        parse_fixture_text("seed 3.5\n")


@pytest.mark.parametrize("text, column", [
    ("bound \u0663,1\n", 7),  # ARABIC-INDIC DIGIT THREE
    ("bound 1_0,1\n", 7),
    ("bound +1,1\n", 7),
    ("seed \u0663\n", 6),
], ids=["non-ascii-digit", "underscore", "plus-sign", "non-ascii-seed"])
def test_integers_take_ascii_digits_only(text, column):
    with pytest.raises(FixtureError) as ei:
        parse_fixture_text(text)
    assert (ei.value.line, ei.value.column) == (1, column)
    assert "expected an integer" in str(ei.value)


def test_signed_seed_and_negative_entry():
    assert parse_fixture_text("seed -4\n").seed == -4
    with pytest.raises(FixtureError, match="negative entry"):
        parse_fixture_text("bound -1,1\n")


def test_bare_token_where_option_expected():
    with pytest.raises(FixtureError) as ei:
        parse_fixture_text("graph grid 1,1\n")
    assert "key=value" in str(ei.value)


def test_duplicate_directives_rejected():
    with pytest.raises(FixtureError):
        parse_fixture_text("graph grid size=1,1\ngraph loops counts=2,2 squares=flip\n")
    with pytest.raises(FixtureError) as ei:
        parse_fixture_text("name a\nname b\n")
    assert (ei.value.line, ei.value.column) == (2, 1)
    with pytest.raises(FixtureError):
        parse_fixture_text("seed 1\nseed 2\n")
    with pytest.raises(FixtureError):
        parse_fixture_text("suite validate\nsuite validate\n")
    with pytest.raises(FixtureError):
        parse_fixture_text("suite fock bound=1,1 bound=2,2\n")


def test_comments_and_blanks_ignored():
    fx = parse_fixture_text("\n# only a comment\n\ngraph loops counts=2,2  # trailing\n")
    assert fx.graph_kind == "loops" and fx.suites == {}


def test_build_graph_kinds():
    assert build_graph(parse_fixture_text("graph grid size=1,1")).rank == 2
    loops = build_graph(parse_fixture_text("graph loops counts=2,1"))
    assert sorted(e.name for e in loops.edges) == ["a0", "a1", "b0"]
    free = build_graph(parse_fixture_text("graph loops counts=1,1,1"))
    assert free.rank == 3 and len(free.edges) == 3
    flip = build_graph(parse_fixture_text("graph loops counts=2,2 squares=flip"))
    assert flip.rank == 2 and len(flip.edges) == 4
    # flip squares pair only colors that both have loops
    assert len(build_graph(parse_fixture_text("graph loops counts=2,0,2 squares=flip")).edges) == 4
    assert build_graph(parse_fixture_text("suite validate")) is None


def test_graph_option_errors_have_line_and_column():
    # the parser rejects them, so build_graph never sees a graph it cannot build
    cases = [("graph grid", 7, "graph grid requires size="),
             ("graph loops", 7, "graph loops requires counts="),
             ("graph loops counts=2,2 squares=flipp", 32,
              "squares must be commute or flip, got 'flipp'"),
             ("graph loops counts=2,1 squares=flip", 32,
              "squares=flip needs equal nonzero counts, got (2, 1)")]
    for text, column, message in cases:
        with pytest.raises(FixtureError) as ei:
            parse_fixture_text(f"seed 0\n{text}\n")
        assert (ei.value.line, ei.value.column) == (2, column)
        assert str(ei.value) == f"line 2, column {column}: {message}"


@pytest.mark.parametrize("text, column, message", [
    ("suite counterexample length=-1", 29, "length must be positive, got '-1'"),
    ("suite counterexample length=0", 29, "length must be positive, got '0'"),
    ("suite counterexample letters=a,b", 31, "letters takes one word, not a list: got 'a,b'"),
], ids=["negative-length", "zero-length", "comma-in-letters"])
def test_counterexample_option_errors_have_line_and_column(text, column, message):
    # the parser refuses them, so free_monoid_system never sees a value it cannot use as meant
    with pytest.raises(FixtureError) as ei:
        parse_fixture_text(f"{text}\n")
    assert str(ei.value) == f"line 1, column {column}: {message}"


# -- witness grammar -----------------------------------------------------------------

# The package only writes witnesses; this parser is the round-trip oracle
# that reads them back.

_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


class WitnessSyntaxError(ValueError):
    """Raised when witness text does not match the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def parse_witness(text: str):
    """Parse one serialized witness back into its value tree."""
    parser = _WitnessParser(text)
    value = parser.value()
    parser.skip_ws()
    if parser.pos != len(text):
        raise WitnessSyntaxError("trailing input", parser.pos)
    return value


_DIGITS = frozenset("0123456789")  # the writer emits ASCII digits only


class _WitnessParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def value(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            raise WitnessSyntaxError("unexpected end of input", self.pos)
        ch = self.text[self.pos]
        if ch == "(":
            return self._tuple()
        if ch == '"':
            return self._string()
        if ch == "-" or ch in _DIGITS:
            return self._int()
        return self._word()

    def _tuple(self):
        self.pos += 1  # consume (
        items = []
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ")":
            self.pos += 1
            return ()
        while True:
            items.append(self.value())
            self.skip_ws()
            if self.pos >= len(self.text):
                raise WitnessSyntaxError("unclosed tuple", self.pos)
            ch = self.text[self.pos]
            if ch == ",":
                self.pos += 1
                continue
            if ch == ")":
                self.pos += 1
                return tuple(items)
            raise WitnessSyntaxError(f"expected ',' or ')' not {ch!r}", self.pos)

    def _string(self):
        self.pos += 1  # consume opening quote
        out = []
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == '"':
                self.pos += 1
                return "".join(out)
            if ch == "\\":
                if self.pos + 1 >= len(self.text):
                    raise WitnessSyntaxError("dangling escape", self.pos)
                esc = self.text[self.pos + 1]
                if esc not in _UNESCAPES:
                    raise WitnessSyntaxError(f"unknown escape \\{esc}", self.pos)
                out.append(_UNESCAPES[esc])
                self.pos += 2
                continue
            out.append(ch)
            self.pos += 1
        raise WitnessSyntaxError("unterminated string", self.pos)

    def _int(self):
        start = self.pos
        if self.text[self.pos] == "-":
            self.pos += 1
        if self.pos >= len(self.text) or self.text[self.pos] not in _DIGITS:
            raise WitnessSyntaxError("expected digits", self.pos)
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        return int(self.text[start:self.pos])

    def _word(self):
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalpha()):
            self.pos += 1
        word = self.text[start:self.pos]
        table = {"none": None, "true": True, "false": False, "inf": INF}
        if word not in table:
            raise WitnessSyntaxError(f"unknown token {word!r}", start)
        return table[word]



def test_witness_hand_cases():
    cases = [
        None, True, False, 0, -17, INF, "", "a b", 'say "hi"\n', ("x",),
        (), (1, (2, 3), ("nested", None)), (INF, 1, "inf"),
    ]
    for w in cases:
        assert parse_witness(serialize_witness(w)) == w


def test_witness_serialized_forms():
    assert serialize_witness(None) == "none"
    assert serialize_witness(INF) == "inf"
    assert serialize_witness((1, "a")) == '(1, "a")'
    assert serialize_witness('q"\\') == '"q\\"\\\\"'
    assert serialize_witness(()) == "()"


def _random_witness(rng, depth=0):
    kinds = ["int", "str", "bool", "none", "inf"]
    if depth < 3:
        kinds += ["tuple", "tuple"]
    k = rng.choice(kinds)
    if k == "int":
        return rng.randint(-999, 999)
    if k == "str":
        alphabet = ' abc"\\\n\t(),=inf'
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
    if k == "bool":
        return rng.random() < 0.5
    if k == "none":
        return None
    if k == "inf":
        return INF
    return tuple(_random_witness(rng, depth + 1) for _ in range(rng.randint(0, 4)))


def test_witness_round_trip_100_random():
    rng = random.Random(20260816)
    for _ in range(100):
        w = _random_witness(rng)
        assert parse_witness(serialize_witness(w)) == w


def test_witness_parse_rejects_garbage():
    for bad in ["bogus", "(1, 2", '"open', "1 2", "(1,, 2)", "", "--3", '"\\q"',
                "²", "(1, ²)", "٣"]:
        with pytest.raises(WitnessSyntaxError):
            parse_witness(bad)


def test_normalize_witness_folds_shapes_and_exceptions():
    def folded(x):
        return parse_witness(serialize_witness(x))

    assert folded(Shape(2, 3)) == (2, 3)
    assert folded(ExtendedShape((1, INF))) == (1, INF)
    assert folded([1, [2, 3]]) == (1, (2, 3))
    assert folded({"b": 2, "a": 1}) == (("a", 1), ("b", 2))
    assert folded(ValueError("boom")) == "ValueError: boom"


# -- rendering -----------------------------------------------------------------------

def _report():
    return RunReport("demo", 5, (
        Check("one", True, None, "count=3", 0.25),
        Check("two", False, (1, "x"), "", 0.5),
    ))


def test_human_lines_carry_timings_and_witnesses():
    lines = human_lines(_report())
    assert lines[0] == "fixture: demo"
    assert lines[1] == "seed: 5"
    assert "PASS  one  (0.250s)  count=3" in lines
    assert "FAIL  two  (0.500s)" in lines
    assert '      witness: (1, "x")' in lines
    assert lines[-1] == "result: 1/2 checks passed"


def test_machine_lines_have_no_timings():
    lines = machine_lines(_report())
    assert lines[0] == 'record=run fixture="demo" seed=5 checks=2'
    assert lines[1] == 'record=check name="one" status=pass witness=none info="count=3"'
    assert lines[2] == 'record=check name="two" status=fail witness=(1, "x") info=""'
    assert lines[3] == "record=summary ok=false"
    assert not any("0.2" in ln or "0.5" in ln for ln in lines)


def test_a_check_is_true_exactly_when_it_passes():
    assert bool(Check("pass", True)) is True
    assert bool(Check("fail", False, (1, "x"), "info", checks=(Check("part", True),))) is False
    assert bool(Check("composite", True, checks=(Check("part", False),))) is True


def test_machine_witness_fields_reparse():
    report = _report()
    for row, line in zip(report.results, machine_lines(report)[1:]):
        witness_text = line.split(" witness=", 1)[1].rsplit(" info=", 1)[0]
        assert parse_witness(witness_text) == row.witness
        name_text = line.split(" name=", 1)[1].split(" status=", 1)[0]
        assert parse_witness(name_text) == row.name


# -- end-to-end runs -----------------------------------------------------------------

def test_grid_fixture_reports_nine_morphisms(capsys):
    assert main([str(FIXTURES / "grid11.kgf")]) == 0
    out = capsys.readouterr().out
    assert "PASS  validate.morphisms" in out and "count=9" in out
    assert "result: 12/12 checks passed" in out


def test_free_monoid_fixture_shows_both_defects(capsys):
    assert main([str(FIXTURES / "free_monoid.kgf")]) == 0
    out = capsys.readouterr().out
    assert 'witness: ((1, 0), (0, 1), "a")' in out
    assert "PASS  counterexample.composite-without-witness" in out
    assert "witness: ((-1, 1), (6, 6))" in out


def test_fock_relations_flag_on_free_abelian(capsys):
    code = main([str(FIXTURES / "n2.kgf"),
                 "--suite", "fock", "--relations", "R1,R3,R4", "--bound", "3,3"])
    assert code == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert [ln.split()[1] for ln in lines] == ["fock.R1", "fock.R3", "fock.R4"]
    assert all(ln.startswith("PASS") for ln in lines)


def test_flip_fixture_all_suites_pass(capsys):
    assert main([str(FIXTURES / "flip.kgf")]) == 0
    out = capsys.readouterr().out
    assert "result: 20/20 checks passed" in out
    assert "boundary.exit-infinite" in out and "points=4" in out


def test_machine_report_byte_identical(capsys):
    argv = [str(FIXTURES / "n2.kgf"), "--format", "machine"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "elapsed" not in first and "(0." not in first


def test_both_format_emits_each_section(capsys):
    assert main([str(FIXTURES / "grid11.kgf"), "--format", "both"]) == 0
    out = capsys.readouterr().out
    assert "result: 12/12 checks passed" in out
    assert "record=summary ok=true" in out


def test_failing_check_exits_one(monkeypatch, capsys):
    # a compose that accepts the composite without a witness fails the check
    monkeypatch.setattr(SemidirectGroupoid, "compose", lambda self, g, h: g)
    assert main([str(FIXTURES / "free_monoid.kgf")]) == 1
    out = capsys.readouterr().out
    assert "FAIL  counterexample.composite-without-witness  (" in out
    assert "composite unexpectedly accepted" in out
    assert "result: 1/2 checks passed" in out


# every shipped fixture passes; one_letter is written inline, and its one-letter
# word system shows both defects too
GOLDEN_CASES = [(p.stem, 0) for p in sorted(FIXTURES.glob("*.kgf"))] + [("one_letter", 0)]


def test_every_golden_file_has_a_source():
    assert sorted(p.stem for p in GOLDEN.glob("*.machine")) == sorted(s for s, _ in GOLDEN_CASES)


@pytest.mark.parametrize("stem, code", GOLDEN_CASES)
def test_machine_output_matches_golden(stem, code, tmp_path, capsys):
    # the golden files pin every byte of the machine format, witnesses included
    if stem == "one_letter":
        path = tmp_path / "one_letter.kgf"
        path.write_text("suite counterexample letters=a\n")
    else:
        path = FIXTURES / f"{stem}.kgf"
    assert main([str(path), "--format", "machine"]) == code
    assert capsys.readouterr().out == (GOLDEN / f"{stem}.machine").read_text(encoding="utf-8")


def test_groupoid_suite_reports_an_invalid_graph_as_a_failed_check(monkeypatch, tmp_path, capsys):
    # building the path-space system validates the graph inside the timed
    # domain-compat check, so an invalid graph is a witness there, not exit 2
    edges = [Edge("a0", 1, "u", "u"), Edge("b0", 2, "u", "u")]
    missing = KGraph(2, ["u"], edges, {(1, 2): {}}, name="missing")
    monkeypatch.setattr(cli, "build_graph", lambda fixture: missing)
    path = tmp_path / "missing.kgf"
    path.write_text("graph grid size=1,1\nsuite validate\nsuite groupoid\n")
    assert main([str(path), "--format", "machine"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == [
        'record=check name="groupoid.domain-compat" status=fail witness="ConfigError: graph '
        'missing fails validation: square-totality[1,2]" info="check raised ConfigError"',
        'record=check name="groupoid.axioms" status=fail witness=none '
        'info="skipped: domain compatibility failed"',
        "record=summary ok=false",
    ]


def test_counterexample_suite_builds_no_window(monkeypatch, tmp_path, capsys):
    # g and h carry their evident witnesses, and their composite is refused in an
    # empty window with the build's witness bound: no semidirect build runs
    def no_build(*args, **kwargs):
        raise AssertionError("the counterexample suite built a window")

    monkeypatch.setattr(cli, "build_semidirect", no_build)
    dc, composite = cli.suite_counterexample(parse_fixture_text("suite counterexample\n"), None, {})
    assert (dc.ok, composite.ok, composite.witness) == (True, True, ((-1, 1), Shape(6, 6)))
    path = tmp_path / "one_letter.kgf"
    path.write_text("suite counterexample letters=a\n")
    assert main([str(path), "--format", "machine"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "one_letter.machine").read_text(encoding="utf-8")


@pytest.mark.parametrize("text, scans", [
    ("graph grid size=1,1\nsuite groupoid\n", 1),
    ("graph grid size=1,1\nsuite groupoid witness=1,1\n", 2),
])
def test_groupoid_suite_scans_domain_compatibility_once(monkeypatch, text, scans):
    # at the default witness bound the build trusts the suite's own passed scan;
    # a witness option has the build scan at its own bound
    calls = []
    check_dc = MGDS.check_dc
    monkeypatch.setattr(MGDS, "check_dc", lambda self, *a: calls.append(a) or check_dc(self, *a))
    assert run_fixture(parse_fixture_text(text)).ok
    assert len(calls) == scans


def _mutated_flip():
    """The flip table with one entry changed: R1 fails, R2-R4 raise, commutation passes."""
    table = {(f"b{q}", f"a{p}"): (f"a{q}", f"b{p}") for q in (0, 1) for p in (0, 1)}
    table[("b0", "a0")] = ("a1", "b0")
    return single_vertex_graph([2, 2], {(1, 2): table}, name="mutated_flip")


def _endpoint_moving():
    """Squares b.a -> c.d and d.c -> a.b move outer endpoints: every relation raises."""
    edges = [Edge("a", 1, "u", "u"), Edge("b", 2, "u", "u"),
             Edge("c", 1, "v", "v"), Edge("d", 2, "v", "v")]
    return KGraph(2, ["u", "v"], edges, {(1, 2): {("b", "a"): ("c", "d"), ("d", "c"): ("a", "b")}})


FOCK_SUITE_CASES = [
    (flip_graph, (2, 2)),
    (one_loop_per_color_graph, (2, 2)),
    (lambda: grid_graph((1, 1)), (1, 1)),
    (lambda: single_vertex_graph([2, 2]), (2, 2)),
    (_mutated_flip, (2, 2)),
    (_endpoint_moving, (1, 1)),
]


@pytest.mark.parametrize("make, bound", FOCK_SUITE_CASES, ids=[
    "flip", "n2", "grid11", "single2x2", "mutated_flip", "endpoint_moving"])
@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_fock_suite_shares_one_window_without_changing_a_report(monkeypatch, make, bound, order):
    """Relations sharing the graph's basis and path table report as each does alone.

    Each record is (ok, checked, every counterexample in order), or the
    error's type and text where the relation raises; both orders run, and
    each relation alone runs on a fresh graph, so basis elements compare
    by their reprs.
    """
    def as_record(rep):
        def vec(v):
            return {repr(b): c for b, c in v.items()}
        return rep.ok, rep.checked, [(label, repr(b), vec(lv), vec(rv))
                                     for label, b, lv, rv in rep.counterexamples]

    def alone(rel):
        try:
            rep = verify_identity(make(), rel, bound)
        except KGraphLabError as err:
            return type(err).__name__, str(err)
        return as_record(rep)

    shared = {}

    def recorded(graph, rel, bound):
        shared[rel] = verify_identity(graph, rel, bound)
        return shared[rel]

    monkeypatch.setattr(cli, "verify_identity", recorded)
    graph, relations = make(), RELATION_NAMES[::order]
    checks = cli.suite_fock(parse_fixture_text("suite fock\n"), graph,
                            {"bound": bound, "relations": relations})
    got = []
    for check in checks:
        rep = shared.get(check.name)
        if rep is None:
            assert check.info == f"check raised {type(check.witness).__name__}"
            got.append((type(check.witness).__name__, str(check.witness)))
        else:
            assert (check.ok, check.info) == (rep.ok, f"checked={rep.checked}")
            got.append(as_record(rep))
    assert [c.name for c in checks] == list(relations)
    assert got == [alone(rel) for rel in relations]
    assert list(graph._table.bases) == [bound]
    if make is _endpoint_moving:
        assert all(record[0] == "NotComposable" for record in got)


def test_fock_suite_basis_error_fails_every_relation(monkeypatch):
    """An error building the basis is never kept: each relation builds it again and fails."""
    calls = []

    def broken(graph, shape, **kwargs):
        calls.append(tuple(shape.coords))
        raise GraphError("enumeration broke")

    monkeypatch.setattr(KGraph, "enumerate_paths", broken)
    graph = flip_graph()
    checks = cli.suite_fock(parse_fixture_text("suite fock\n"), graph, {"bound": (1, 1)})
    assert [(c.name, c.ok, c.info, str(c.witness)) for c in checks] == [
        (rel, False, "check raised GraphError", "enumeration broke") for rel in RELATION_NAMES]
    assert calls == [(0, 1)] * len(RELATION_NAMES)
    assert not (graph._table._ids or graph._table._paths or graph._table.bases)


def test_fock_suite_work_counts_are_pinned(monkeypatch):
    """One basis in one path table per graph: each distinct kernel call once per run.

    Flip at (2,2) enumerates its 8 nonzero shapes once, for the basis, and
    the relations' instances take their paths from the table: they asked
    for 36 more enumerations when each enumerated its own.  Five windows,
    one per relation, made 6,304 joins, 3,328 splits and 76 enumerations.
    n2's whole run makes 106 joins and 117 splits: its fock, groupoid and
    boundary suites share one table, where the graph's memos and a
    separate Fock window made 111 and 161, and 154 splits were made before
    right strips stopped asking for a negative grade.
    """
    counts = {}
    for name in ("_join", "_split", "enumerate_paths"):
        def counted(*args, _name=name, _inner=getattr(KGraph, name), **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(KGraph, name, counted)

    def work(stem, keys, **selection):
        counts.clear()
        assert run_fixture(parse_fixture(FIXTURES / f"{stem}.kgf"), **selection).ok
        return {k: counts.get(k, 0) for k in keys}

    assert work("flip", ("_join", "_split"), suite_names=["fock"], bound=(1, 1)) == {
        "_join": 704, "_split": 88}
    assert work("flip", ("_join", "_split", "enumerate_paths"), suite_names=["fock"]) == {
        "_join": 5120, "_split": 2544, "enumerate_paths": 8}
    assert work("n2", ("_join", "_split")) == {"_join": 106, "_split": 117}


def test_a_fixture_run_holds_each_normal_word_once(monkeypatch):
    """After a flip fixture run, the graph holds one store of its paths.

    Its table gives each normal word one id; every Path the table and its
    clients keep (the Paths it made, each shape's paths, fock's basis)
    spells a word of that store, the table's own Paths share their id's
    word and know their id, and duality's canonical forms are pairs of its
    ids, each form its own.  Besides its construction tables, the graph
    keeps only the table and the kernel's passes.
    """
    graphs = []
    monkeypatch.setattr(cli, "build_graph",
                        lambda fixture: graphs.append(build_graph(fixture)) or graphs[-1])
    assert run_fixture(parse_fixture(FIXTURES / "flip.kgf")).ok
    (g,) = graphs
    table = g._table
    words = [w for w in table.words if w]
    assert len(set(words)) == len(words) > 0
    assert all(p.codes is table.words[i] and vars(p)["_id"] == i
               for i, p in table._objects.items())
    forms = list(table.canonical.values())
    assert forms and all(type(i) is int and 0 <= i < len(table.words) for f in forms for i in f)
    assert all(duality._canonical(table, *form) == form for form in forms)
    kept = [*table._objects.values(), *(p for paths in table._paths.values() for p in paths),
            *(b for basis in table.bases.values() for b in basis[1:])]
    assert {p.codes for p in kept if p.codes} <= set(words)
    assert {name for name, v in vars(g).items() if isinstance(v, (dict, list, PathTable))} == {
        "_code", "_into", "_to_normal", "_moves", "_starts", "_passes", "_table"}


def test_internal_error_exits_three(monkeypatch, capsys):
    def broken(fixture, graph, options):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.SUITES, "validate", broken)
    assert main([str(FIXTURES / "grid11.kgf")]) == 3
    captured = capsys.readouterr()
    assert "internal error: RuntimeError: boom" in captured.err
    assert captured.out == ""


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.kgf"
    path.write_text("graph grid size=1,1\nwibble\n")
    assert main([str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "wibble" in err


def test_missing_file_exits_two(tmp_path, capsys):
    assert main([str(tmp_path / "absent.kgf")]) == 2
    assert "cannot read fixture" in capsys.readouterr().err


def test_unknown_suite_flag_exits_two(capsys):
    assert main([str(FIXTURES / "n2.kgf"), "--suite", "nosuch"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_bad_bound_flag_exits_two(capsys):
    for bad in ("2,x", "²,1"):
        assert main([str(FIXTURES / "n2.kgf"), "--bound", bad]) == 2
        assert "--bound" in capsys.readouterr().err


def test_bound_rank_mismatch_exits_two(capsys):
    assert main([str(FIXTURES / "n2.kgf"), "--bound", "1,1,1"]) == 2
    assert "coordinates" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["groupoid witness=1", "boundary prefix=1", "boundary cycle=1,1,1"])
def test_shape_option_rank_mismatch_exits_two(suite, tmp_path, capsys):
    # a wrong-rank shape option is a fixture error before any check runs
    path = tmp_path / "rank.kgf"
    path.write_text(f"graph loops counts=1,1\nsuite {suite}\n")
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    key = suite.split()[1].split("=")[0]
    assert f"error: {key} " in captured.err and "coordinates, graph rank is 2" in captured.err
    assert captured.out == ""


def test_suite_needs_graph_exits_two(tmp_path, capsys):
    path = tmp_path / "nograph.kgf"
    path.write_text("suite validate\n")
    assert main([str(path)]) == 2
    assert "needs a graph" in capsys.readouterr().err


def test_run_fixture_respects_selection_order():
    fx = parse_fixture_text(
        "graph loops counts=1,1\nsuite validate\nsuite fock relations=R2\nbound 1,1\n")
    rep = run_fixture(fx, suite_names=["fock", "validate"])
    names = [r.name for r in rep.results]
    assert names[0] == "fock.R2" and names[-1] == "validate.morphisms"
    with pytest.raises(ConfigError):
        run_fixture(fx, suite_names=["fock", "nosuch"])


def test_run_fixture_without_suites_is_config_error():
    fx = parse_fixture_text("graph loops counts=2,2 squares=flip\n")
    with pytest.raises(ConfigError):
        run_fixture(fx)


# -- the exit-code contract under generated fixtures ---------------------------------

def _int_list(rng, rank):
    # entries 0 or 1 keep every run small; about 3% are negative, which the parser rejects
    return ",".join(str(-1 if rng.random() < 0.03 else rng.randint(0, 1)) for _ in range(rank))


def _generated_fixture(rng):
    """A fixture over a random graph with random suites, options and bounds, lines shuffled."""
    rank = rng.randint(1, 3)
    lines = [f"name generated {rng.randint(0, 99)}"]
    if rng.random() < 0.45:
        lines.append(f"graph grid size={_int_list(rng, rank)}")
    elif rng.random() < 0.9:
        top = 2 if rank < 3 else 1
        squares = rng.choice(["", " squares=commute", " squares=flip"])
        same = rng.randint(1, top)  # flip squares need equal nonzero counts
        counts = [same if squares.endswith("flip") else rng.randint(0, top) for _ in range(rank)]
        lines.append(f"graph loops counts={','.join(map(str, counts))}{squares}")

    def shape():  # of the graph's rank, or one coordinate off
        return _int_list(rng, rank + (rng.choice((-1, 1)) if rng.random() < 0.15 else 0))

    options = {
        "validate": lambda: {"bound": shape()},
        "counterexample": lambda: {"letters": rng.choice(["a", "ab", "ba", "aab"]),
                                   "length": rng.randint(-1, 3)},
        "fock": lambda: {"relations": ",".join(rng.sample(
                             ["R1", "R2", "R3", "R4", "commutation", "R9"], rng.randint(1, 3))),
                         "bound": shape()},
        "groupoid": lambda: {"bound": shape(), "witness": shape()},
        "boundary": lambda: {"prefix": shape(), "cycle": shape()},
    }
    for suite in rng.sample(sorted(options), rng.randint(1, 3)):
        chosen = [f"{k}={v}" for k, v in options[suite]().items() if rng.random() < 0.6]
        lines.append(" ".join(["suite", suite, *chosen]))
    if rng.random() < 0.5:
        lines.append(f"bound {shape()}")
    if rng.random() < 0.5:
        lines.append(f"seed {rng.randint(-3, 9)}")
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


_RETYPED = ["1", "1,1", "0,1,1", "-1", "x", "a=b", "bound=1,1", "suite", "graph", "letters=a",
            "length=2", "=", "R1"]


def _mutant(rng, text):
    """The text with one token deleted, repeated, swapped with another, or retyped."""
    rows = [line.split() for line in text.splitlines()]
    slots = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
    i, j = rng.choice(slots)
    op = rng.choice(["delete", "repeat", "swap", "retype"])
    if op == "delete":
        del rows[i][j]
    elif op == "repeat":
        rows[i].insert(j, rows[i][j])
    elif op == "swap":
        k, m = rng.choice(slots)
        rows[i][j], rows[k][m] = rows[k][m], rows[i][j]
    else:
        rows[i][j] = rng.choice(_RETYPED)
    return "\n".join(" ".join(row) for row in rows) + "\n"


def test_exit_codes_keep_their_contract_on_generated_fixtures(tmp_path, capsys):
    """300 generated fixtures, one in four a token mutant of a shipped one, bounds cut to 1.

    Every run exits 0, 1 or 2, and exits 1 exactly when a machine record
    fails.  No option a suite reads fails inside a check body.  A fixture
    the parser rejects exits 2, its message opening with the line and
    column.  Two runs print the same bytes.
    """
    rng = random.Random(20261020)
    shipped = [p.read_text(encoding="utf-8").replace("bound=2,2", "bound=1,1")
               .replace("bound 2,2", "bound 1,1") for p in sorted(FIXTURES.glob("*.kgf"))]
    path = tmp_path / "generated.kgf"
    codes = []
    for k in range(300):
        text = _mutant(rng, rng.choice(shipped)) if k % 4 == 3 else _generated_fixture(rng)
        path.write_text(text, encoding="utf-8")
        runs = []
        for _ in range(2):
            code = main([str(path), "--format", "machine"])
            runs.append((code, *capsys.readouterr()))
        code, out, err = runs[0]
        assert runs[1] == runs[0], text
        assert code in (0, 1, 2), (text, err)
        assert (code == 1) == ("status=fail" in out), text
        assert "check raised ConfigError" not in out, text  # options resolve before checks run
        try:
            parse_fixture_text(text)
        except FixtureError as fault:
            assert code == 2 and err == f"error: {fault}\n", text
            assert str(fault).startswith(f"line {fault.line}, column {fault.column}: ")
        codes.append(code)
    assert {0, 2} <= set(codes)
