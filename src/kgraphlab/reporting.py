"""The Check record every law check returns, and the renderings of a run.

A run produces a flat list of named checks, each optionally carrying a
witness (raw evidence, folded into a finite value tree when rendered) and
a short info string.  Two renderers share that data:

* human lines carry timings and read top to bottom;
* machine lines are key=value records with no timings, so the same
  fixture and seed always produce byte-identical output.

Witness values use a tiny self-describing grammar (ints, the infinity
marker, quoted strings, booleans, none, and nested tuples).  The grammar
round-trips: parse_witness(serialize_witness(w)) == w.
"""

from __future__ import annotations

from dataclasses import dataclass

from .shapes import INF, ExtendedShape, Shape


@dataclass(frozen=True)
class Check:
    """One verdict: pass/fail, a raw witness, an info string, sub-checks.

    Every law check in the package returns this record.  A composite
    verdict (graph validation, groupoid axioms, exactness) carries its
    parts in checks.  The witness stays the raw evidence object; it is
    folded into the witness grammar only when rendered.
    """

    name: str
    ok: bool
    witness: object = None
    info: str = ""
    elapsed: float = 0.0
    checks: tuple["Check", ...] = ()

    def __bool__(self):
        return self.ok

    def failing(self) -> tuple["Check", ...]:
        return tuple(c for c in self.checks if not c.ok)


@dataclass(frozen=True)
class RunReport:
    fixture: str
    seed: int | None
    results: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


# -- witness normalization ----------------------------------------------------------

def normalize_witness(obj) -> object:
    """Fold arbitrary check evidence into grammar values.

    Grammar values are None, bool, int, str, the INF object, and tuples
    thereof.  Shapes become coordinate tuples; an INF coordinate stays the
    INF object here, and the writer prints it as inf.  Exceptions become
    "Type: message"; anything else is rendered through repr.
    """
    if obj is None or isinstance(obj, bool) or isinstance(obj, str):
        return obj
    if obj is INF:
        return INF
    if isinstance(obj, int):
        return obj
    if isinstance(obj, (Shape, ExtendedShape)):
        return tuple(normalize_witness(c) for c in obj.coords)
    if isinstance(obj, (tuple, list)):
        return tuple(normalize_witness(v) for v in obj)
    if isinstance(obj, dict):
        return tuple(
            (normalize_witness(k), normalize_witness(v))
            for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))
        )
    if isinstance(obj, BaseException):
        return f"{type(obj).__name__}: {obj}"
    return repr(obj)


# -- witness grammar ----------------------------------------------------------------

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def serialize_witness(value) -> str:
    """Render a grammar value as one line of text."""
    value = normalize_witness(value)
    return _write(value)


def _write(value) -> str:
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is INF:
        return "inf"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        body = "".join(_ESCAPES.get(ch, ch) for ch in value)
        return f'"{body}"'
    if isinstance(value, tuple):
        return "(" + ", ".join(_write(v) for v in value) + ")"
    raise ValueError(f"not a grammar value: {value!r}")


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


# -- renderers ----------------------------------------------------------------------

def human_lines(report: RunReport) -> list[str]:
    lines = [f"fixture: {report.fixture}"]
    if report.seed is not None:
        lines.append(f"seed: {report.seed}")
    for r in report.results:
        status = "PASS" if r.ok else "FAIL"
        line = f"{status}  {r.name}  ({r.elapsed:.3f}s)"
        if r.info:
            line += f"  {r.info}"
        lines.append(line)
        if r.witness is not None:
            lines.append(f"      witness: {serialize_witness(r.witness)}")
    passed = sum(1 for r in report.results if r.ok)
    lines.append(f"result: {passed}/{len(report.results)} checks passed")
    return lines


def machine_lines(report: RunReport) -> list[str]:
    # no timings here: identical fixture + seed must give identical bytes
    lines = [
        "record=run"
        f" fixture={_write(report.fixture)}"
        f" seed={_write(report.seed)}"
        f" checks={len(report.results)}"
    ]
    for r in report.results:
        lines.append(
            "record=check"
            f" name={_write(r.name)}"
            f" status={'pass' if r.ok else 'fail'}"
            f" witness={serialize_witness(r.witness)}"
            f" info={_write(r.info)}"
        )
    lines.append(f"record=summary ok={_write(report.ok)}")
    return lines


def render(report: RunReport, fmt: str) -> str:
    if fmt == "human":
        return "\n".join(human_lines(report))
    if fmt == "machine":
        return "\n".join(machine_lines(report))
    if fmt == "both":
        return "\n".join(human_lines(report) + machine_lines(report))
    raise ValueError(f"unknown format {fmt!r}")
