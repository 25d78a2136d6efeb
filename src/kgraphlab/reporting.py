"""The Check record every law check returns, and the renderings of a run.

A run produces a flat list of named checks, each optionally carrying a
witness (raw evidence, folded into a finite value tree when rendered) and
a short info string.  Two renderers share that data:

* human lines carry timings and read top to bottom;
* machine lines are key=value records with no timings, so the same
  fixture and seed always produce byte-identical output.

Witness values use a tiny self-describing grammar (ints, the infinity
marker, quoted strings, booleans, none, and nested tuples).  Nothing in
the package reads it back; the CLI tests parse every written witness to
check that the grammar round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass

from .shapes import INF, ExtendedShape

CAP = 3  # offenders a witness lists, counterexamples a report keeps


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
    if isinstance(obj, ExtendedShape):
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
