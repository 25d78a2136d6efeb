"""The Check record every law check returns, and the renderings of a run.

A run produces a flat list of named checks, each optionally carrying a
witness (the raw evidence) and a short info string.  Two renderers share
that data:

* human lines carry timings and read top to bottom;
* machine lines are key=value records with no timings, so the same
  fixture and seed always produce byte-identical output.

Witnesses, and every other value on a machine line, are written in a tiny
self-describing grammar (ints, the infinity marker, quoted strings,
booleans, none, and nested tuples) by one writer, serialize_witness, which
dispatches on the evidence once per value and recurses.  Nothing in the
package reads the grammar back; the CLI tests parse every written witness
to check that it round-trips.
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
    written in the witness grammar only when rendered.
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


# -- witness grammar ----------------------------------------------------------------

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def serialize_witness(obj) -> str:
    """Render check evidence as one line of the witness grammar.

    None, booleans, ints, INF and strings print as themselves.  Shapes
    print as coordinate tuples and lists as tuples; dicts print as pairs
    sorted by the repr of the key; exceptions print as "Type: message";
    anything else prints as its repr string.
    """
    if obj is None:
        return "none"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is INF:
        return "inf"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        body = "".join(_ESCAPES.get(ch, ch) for ch in obj)
        return f'"{body}"'
    if isinstance(obj, ExtendedShape):
        obj = obj.coords
    if isinstance(obj, dict):
        obj = sorted(obj.items(), key=lambda kv: repr(kv[0]))
    if isinstance(obj, (tuple, list)):
        return "(" + ", ".join(serialize_witness(v) for v in obj) + ")"
    if isinstance(obj, BaseException):
        return serialize_witness(f"{type(obj).__name__}: {obj}")
    return serialize_witness(repr(obj))


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
        f" fixture={serialize_witness(report.fixture)}"
        f" seed={serialize_witness(report.seed)}"
        f" checks={len(report.results)}"
    ]
    for r in report.results:
        lines.append(
            "record=check"
            f" name={serialize_witness(r.name)}"
            f" status={'pass' if r.ok else 'fail'}"
            f" witness={serialize_witness(r.witness)}"
            f" info={serialize_witness(r.info)}"
        )
    lines.append(f"record=summary ok={serialize_witness(report.ok)}")
    return lines


def render(report: RunReport, fmt: str) -> str:
    if fmt == "human":
        return "\n".join(human_lines(report))
    if fmt == "machine":
        return "\n".join(machine_lines(report))
    if fmt == "both":
        return "\n".join(human_lines(report) + machine_lines(report))
    raise ValueError(f"unknown format {fmt!r}")
