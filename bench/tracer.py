"""Outside-in span tracer for kgraphlab, installed from the benchmark only.

``install`` wraps the public functions and methods of every layer module
(plus the dunders listed in DUNDERS) at their definitions: functions in
their module, methods, class methods, properties and cached properties
on their class.  Only code written in the module's own source file is
wrapped, so dataclass-generated ``__init__``/``__eq__``/``__hash__`` stay
as they are.  It then rebinds every name other modules bound with
``from ... import`` (duality's compose/factorize, the many shapes_below
imports) and module-level dicts of functions such as the CLI suite
table, so no call into a wrapped function escapes the trace.

Each wrapped call is a span: name, start, end, parent and request id.
Spans are aggregated while they close (calls and self time per name,
self time being the span's duration minus its children's), so a traced
run holds counts, not millions of records; the first RECORD_CAP span
records are also kept in memory and written out with ``write_spans`` at
the end (later spans still count, and are tallied in ``dropped``).  A
generator function's span covers only the call that creates the
generator; its body's work lands in the spans it opens and in its
consumer.

Wrappers do nothing but time while ``on`` is set: the benchmark switches
tracing on for the timed call of a request and off for its check.
"""

from __future__ import annotations

import functools
import inspect
import time
import weakref
from array import array

LAYERS = ("shapes", "kgraph", "dynsys", "groupoid", "fock", "ideals", "duality",
          "fixtures", "cli", "reporting")
DUNDERS = frozenset({
    "__init__", "__post_init__", "__call__", "__eq__", "__ne__", "__hash__", "__contains__",
    "__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__le__", "__lt__", "__or__", "__and__",
})
RECORD_CAP = 500_000


class Tracer:
    def __init__(self):
        self.on = [False]
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.stack: list[list] = []
        self.request = 0
        self.request_self = [0.0]  # self time summed over the current request's spans
        self.counters = {"find_witness.hits": 0, "find_witness.in_compose": 0,
                         "compose.escapes": 0, "pointwise_checks": 0, "machine_bytes": 0}
        self.distinct = {"factorize": set(), "power": set()}
        self.records = {"name": array("l"), "start": array("d"), "end": array("d"),
                        "parent": array("l"), "request": array("l")}
        self.dropped = 0
        self._wrappers: dict[int, object] = {}
        self._originals: list = []  # keeps wrapped originals alive so their ids stay unique
        self._seq = weakref.WeakKeyDictionary()
        self._hooks = {
            "kgraph.KGraph.factorize": self._on_factorize,
            "dynsys.MGDS.power": self._on_power,
            "groupoid.SemidirectGroupoid.find_witness": self._on_find_witness,
            "groupoid.SemidirectGroupoid.compose": self._on_compose,
            "fock.operators_agree": self._on_operators_agree,
            "reporting.render": self._on_render,
        }

    # -- spans -------------------------------------------------------------------

    def wrap(self, fn, name):
        """The traced stand-in for fn; one per original, however often it is bound."""
        wrapper = self._wrappers.get(id(fn))
        if wrapper is not None:
            return wrapper
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        on, stack, calls, self_s = self.on, self.stack, self.calls, self.self_s
        request_self, clock = self.request_self, time.perf_counter
        hook = self._hooks.get(name)
        opener, records = self._open, self.records

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            start = clock()
            frame = [start, 0.0, opener(nid, start), nid]  # start, child time, record index, name id
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                own = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                calls[nid] += 1
                self_s[nid] += own
                request_self[0] += own
                if frame[2] >= 0:
                    records["end"][frame[2]] = end
            if hook is not None:
                hook(args, result)
            return result

        self._wrappers[id(fn)] = wrapper
        self._originals.append(fn)
        return wrapper

    def _open(self, nid, start):
        rec = self.records
        if len(rec["name"]) >= RECORD_CAP:
            self.dropped += 1
            return -1
        rec["name"].append(nid)
        rec["start"].append(start)
        rec["end"].append(0.0)
        rec["parent"].append(self.stack[-1][2] if self.stack else -1)
        rec["request"].append(self.request)
        return len(rec["name"]) - 1

    def begin(self, request_id):
        self.request = request_id
        self.request_self[0] = 0.0

    def write_spans(self, path):
        """Tab-separated span records: name, start, end, parent index, request id."""
        rec = self.records
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\trequest\n")
            for i, nid in enumerate(rec["name"]):
                fh.write(f"{i}\t{self.names[nid]}\t{rec['start'][i]!r}\t{rec['end'][i]!r}\t"
                         f"{rec['parent'][i]}\t{rec['request'][i]}\n")

    # -- counters read where the work happens -----------------------------------------

    def _seq_of(self, obj):
        """Stable per-run number of a graph or system, in order of first use."""
        n = self._seq.get(obj)
        if n is None:
            n = self._seq[obj] = len(self._seq)
        return n

    def _on_factorize(self, args, result):
        graph, p, k = args[:3]
        self.distinct["factorize"].add((self._seq_of(graph), p.word, p.base, tuple(k.coords)))

    def _on_power(self, args, result):
        system, n = args[:2]
        self.distinct["power"].add((self._seq_of(system), tuple(n)))

    def _on_find_witness(self, args, result):
        if result is not None:
            self.counters["find_witness.hits"] += 1
        if self.stack and self.names[self.stack[-1][3]] == "groupoid.SemidirectGroupoid.compose":
            self.counters["find_witness.in_compose"] += 1

    def _on_compose(self, args, result):
        if result not in args[0]._element_set:
            self.counters["compose.escapes"] += 1

    def _on_operators_agree(self, args, result):
        self.counters["pointwise_checks"] += result[1]

    def _on_render(self, args, result):
        if args[1:2] == ("machine",):
            self.counters["machine_bytes"] += len(result.encode())

    # -- derived metrics -----------------------------------------------------------

    def _sum(self, pick, which):
        values = self.calls if which == "calls" else self.self_s
        return sum(v for name, v in zip(self.names, values) if pick(name))

    def layer_metrics(self, overhead_ratio):
        """Every per-layer metric the benchmark declares, as name -> (value, unit)."""

        def named(*names):
            return lambda n: n in names

        def layer(prefix):
            return lambda n: n.startswith(prefix + ".")

        def ratio(a, b):
            return a / b if b else 0.0

        calls = functools.partial(self._sum, which="calls")
        self_s = functools.partial(self._sum, which="self")
        factorize = named("kgraph.KGraph.factorize")
        power = named("dynsys.MGDS.power")
        compose = named("groupoid.SemidirectGroupoid.compose")
        witness = named("groupoid.SemidirectGroupoid.find_witness")
        act = lambda n: n.startswith("fock.") and n.endswith(".act")
        path_eq = named("duality.RationalInfinitePath.__eq__")
        path_hash = named("duality.RationalInfinitePath.__hash__")
        shift = named(*(f"duality.{f}" for f in ("shift_infinite", "t_shift", "v_shift", "s_shift",
                                                 "w_shift", "two_sided_shift",
                                                 "two_sided_shift_inverse")))
        c = self.counters
        m = {
            "shapes.calls": (calls(layer("shapes")), "count"),
            "shapes.self_s": (self_s(layer("shapes")), "s"),
            "kgraph.compose.calls": (calls(named("kgraph.KGraph.compose")), "count"),
            "kgraph.compose.self_s": (self_s(named("kgraph.KGraph.compose")), "s"),
            "kgraph.factorize.calls": (calls(factorize), "count"),
            "kgraph.factorize.self_s": (self_s(factorize), "s"),
            "kgraph.factorize.distinct_ratio": (
                ratio(len(self.distinct["factorize"]), calls(factorize)), "1"),
            "kgraph.enumerate_paths.calls": (calls(named("kgraph.KGraph.enumerate_paths")), "count"),
            "kgraph.enumerate_paths.self_s": (self_s(named("kgraph.KGraph.enumerate_paths")), "s"),
            "kgraph.validate.calls": (calls(named("kgraph.KGraph.validate")), "count"),
            "kgraph.self_s": (self_s(layer("kgraph")), "s"),
            "dynsys.power.calls": (calls(power), "count"),
            "dynsys.power.distinct_ratio": (ratio(len(self.distinct["power"]), calls(power)), "1"),
            "dynsys.power.self_s": (self_s(power), "s"),
            "dynsys.check_dc.self_s": (self_s(named("dynsys.MGDS.check_dc")), "s"),
            "dynsys.check_commuting.self_s": (self_s(named("dynsys.MGDS.check_commuting")), "s"),
            "dynsys.exit_time.calls": (calls(named("dynsys.MGDS.exit_time")), "count"),
            "dynsys.self_s": (self_s(layer("dynsys")), "s"),
            "groupoid.build.self_s": (self_s(named("groupoid.build_semidirect")), "s"),
            "groupoid.compose.calls": (calls(compose), "count"),
            "groupoid.compose.self_s": (self_s(compose), "s"),
            "groupoid.compose.escape_ratio": (ratio(c["compose.escapes"], calls(compose)), "1"),
            "groupoid.find_witness.calls": (calls(witness), "count"),
            "groupoid.find_witness.hit_ratio": (ratio(c["find_witness.hits"], calls(witness)), "1"),
            "groupoid.witness_fallback_ratio": (
                ratio(c["find_witness.in_compose"], calls(compose)), "1"),
            "groupoid.check_axioms.self_s": (
                self_s(named("groupoid.FiniteGroupoid.check_axioms")), "s"),
            "groupoid.convolution.calls": (
                calls(named("groupoid.ConvolutionElement.__mul__")), "count"),
            "groupoid.convolution.self_s": (
                self_s(named("groupoid.ConvolutionElement.__mul__")), "s"),
            "groupoid.self_s": (self_s(layer("groupoid")), "s"),
            "fock.basis.self_s": (self_s(named("fock.fock_basis")), "s"),
            "fock.act.calls": (calls(act), "count"),
            "fock.act.self_s": (self_s(act), "s"),
            "fock.pointwise_checks": (c["pointwise_checks"], "count"),
            "fock.self_s": (self_s(layer("fock")), "s"),
            "ideals.calls": (calls(layer("ideals")), "count"),
            "ideals.self_s": (self_s(layer("ideals")), "s"),
            "duality.path_new.calls": (
                calls(named("duality.RationalInfinitePath.__post_init__")), "count"),
            "duality.path_new.self_s": (
                self_s(named("duality.RationalInfinitePath.__post_init__")), "s"),
            "duality.path_eq.calls": (calls(path_eq), "count"),
            "duality.path_eq.self_s": (self_s(path_eq), "s"),
            "duality.path_hash.calls": (calls(path_hash), "count"),
            "duality.path_hash.self_s": (self_s(path_hash), "s"),
            "duality.eq_per_hash": (ratio(calls(path_eq), calls(path_hash)), "1"),
            "duality.shift.calls": (calls(shift), "count"),
            "duality.self_s": (self_s(layer("duality")), "s"),
            "fixtures.self_s": (self_s(layer("fixtures")), "s"),
            "cli.self_s": (self_s(layer("cli")), "s"),
            "reporting.self_s": (self_s(layer("reporting")), "s"),
            "reporting.machine_bytes": (c["machine_bytes"], "B"),
            "trace.overhead_ratio": (overhead_ratio, "1"),
        }
        return m

    def counts(self):
        """Every deterministic figure of the trace: calls per span name and the counters."""
        out = {name: n for name, n in zip(self.names, self.calls) if n}
        out.update({f"counter.{k}": v for k, v in self.counters.items()})
        out.update({f"distinct.{k}": len(v) for k, v in self.distinct.items()})
        return out


# -- installation ----------------------------------------------------------------------


def _own(fn, module):
    """Whether fn is written in module's source (not imported, not generated)."""
    code = getattr(fn, "__code__", None)
    return code is not None and fn.__module__ == module.__name__ and code.co_filename == module.__file__


def _traced_name(name):
    return not name.startswith("_") or name in DUNDERS


def _wrap_class(tracer, cls, layer, module):
    for attr, value in list(vars(cls).items()):
        if not _traced_name(attr):
            continue
        if inspect.isfunction(value) and _own(value, module):
            setattr(cls, attr, tracer.wrap(value, f"{layer}.{value.__qualname__}"))
        elif isinstance(value, (classmethod, staticmethod)) and _own(value.__func__, module):
            fn = value.__func__
            setattr(cls, attr, type(value)(tracer.wrap(fn, f"{layer}.{fn.__qualname__}")))
        elif isinstance(value, property) and _own(value.fget, module):
            fget = tracer.wrap(value.fget, f"{layer}.{value.fget.__qualname__}")
            setattr(cls, attr, property(fget, value.fset, value.fdel, value.__doc__))
        elif isinstance(value, functools.cached_property) and _own(value.func, module):
            prop = functools.cached_property(tracer.wrap(value.func, f"{layer}.{value.func.__qualname__}"))
            prop.__set_name__(cls, attr)
            setattr(cls, attr, prop)


def install(tracer, package_modules):
    """Wrap every layer module of the package; package_modules maps short names to modules."""
    for layer in LAYERS:
        module = package_modules[layer]
        for attr, value in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) and _own(value, module):
                setattr(module, attr, tracer.wrap(value, f"{layer}.{value.__qualname__}"))
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                _wrap_class(tracer, value, layer, module)
    # names bound elsewhere by "from .x import y", and tables of functions
    for module in package_modules.values():
        for attr, value in list(vars(module).items()):
            if callable(value) and id(value) in tracer._wrappers:
                setattr(module, attr, tracer._wrappers[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if callable(item) and id(item) in tracer._wrappers:
                        value[key] = tracer._wrappers[id(item)]
