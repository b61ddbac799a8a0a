"""Per-layer tracing from outside the package.

Timing wrappers are installed on the names each caller looks up: the
modules use ``from .x import y``, so ``ontoweave.devgraph.weaker_than`` is
a binding of its own and is wrapped beside ``ontoweave.consequence.
weaker_than``. The recursive ``translate`` and ``substitute_back`` are never
wrapped inside ``ontoweave.morphisms``, where they call themselves.

Spans (name, start, end, parent span, op id) are kept in flat arrays and
written out when the run ends. A layer's self time is its span's duration
minus the time its direct child spans cover; its busy time counts only the
outermost span of that name, so a layer that calls itself is not counted
twice.
"""

from __future__ import annotations

import gc
import gzip
import importlib
import time
from array import array
from collections import defaultdict

from ontoweave.syntax import Formula

MODULES = ("consequence", "syntax", "morphisms", "fibring", "ontology", "devgraph", "dsl", "cli")

# (defining module, function, span name)
FUNCTIONS = [
    ("syntax", "enumerate_formulas", "syntax.enumerate"),
    ("consequence", "derives", "consequence.derives"),
    ("consequence", "weaker_than", "consequence.weaker_than"),
    ("consequence", "check_operator_laws", "consequence.laws"),
    ("consequence", "check_structural", "consequence.laws"),
    ("morphisms", "translate", "morphisms.translate"),
    ("morphisms", "substitute_back", "morphisms.back"),
    ("fibring", "fibred_derives", "fibring.query"),
    ("fibring", "_side_closure", "fibring.side_closure"),
    ("ontology", "validate_ontology", "ontology.validate"),
    ("ontology", "check_ecsy_morphism", "ontology.ecsy"),
    ("devgraph", "check_splitting_morphism", "devgraph.splitting_check"),
    ("devgraph", "add_node", "devgraph.add_node"),
    ("devgraph", "add_link", "devgraph.add_link"),
    ("devgraph", "verify_decomposition", "devgraph.verify"),
    ("devgraph", "verify_homogeneous_refinement", "devgraph.verify"),
    ("devgraph", "verify_heterogeneous_refinement", "devgraph.verify"),
    ("devgraph", "verify_integration", "devgraph.verify"),
    ("devgraph", "load_graph", "devgraph.load"),
    ("devgraph", "save_graph", "devgraph.save"),
    ("dsl", "parse_document", "dsl.parse"),
    ("cli", "main", "cli.main"),
]
# wrapping these in their own module would time every recursive step
RECURSIVE = {("morphisms", "translate"), ("morphisms", "substitute_back")}

# (module, class, method, span name). derives runs the engine without going
# through closure_bounded, so the engine's run method is the one boundary
# every bounded closure crosses.
METHODS = [
    ("consequence", "_Engine", "run", "consequence.closure"),
    ("cli", "Workspace", "commit", "cli.commit"),
]

SPAN_NAMES = sorted({name for *_, name in FUNCTIONS + METHODS})
# transfer scans and the position of their fuel argument
TRANSFER_SCANS = {"consequence.weaker_than": 3, "ontology.ecsy": 4, "devgraph.splitting_check": 4}

EXTRA_METRICS = [
    ("consequence.closure.members", "count"),
    ("consequence.closure.cap_hit_ratio", "ratio"),
    ("consequence.closure.repeat_ratio", "ratio"),
    ("consequence.closure.retries", "count"),
    ("consequence.derives.derived_ratio", "ratio"),
    ("fibring.side_closure.cap_hit_ratio", "ratio"),
    ("morphisms.back.translatable_ratio", "ratio"),
    ("dsl.parse.bytes", "bytes"),
    ("cli.manifest.bytes_read", "bytes"),
    ("cli.manifest.bytes_written", "bytes"),
    ("syntax.live_formulas", "count"),
    ("trace.overhead_s", "s"),
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.raised"] = "count"
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    def __init__(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.stack: list[int] = []
        self.active = defaultdict(int)
        self.op = -1
        self.counts = defaultdict(float)
        self.closure_keys: set[int] = set()
        self.scan_fuel: dict[int, object] = {}

    # -- installation

    def install(self) -> None:
        mods = {m: importlib.import_module(f"ontoweave.{m}") for m in MODULES}
        hooks = {
            "consequence.derives": self._after_derives,
            "consequence.closure": self._after_closure,
            "dsl.parse": self._after_parse,
            "cli.commit": self._after_commit,
        }
        for home, func, name in FUNCTIONS:
            original = getattr(mods[home], func)
            wrapped = self._wrap(original, name, hooks.get(name))
            for mod_name, mod in mods.items():
                if (mod_name, func) in RECURSIVE or getattr(mod, func, None) is not original:
                    continue
                setattr(mod, func, wrapped)
        for home, cls_name, meth, name in METHODS:
            cls = getattr(mods[home], cls_name)
            setattr(cls, meth, self._wrap(getattr(cls, meth), name, hooks.get(name)))
        # counted, not spanned: one call per closure member
        check = mods["morphisms"].is_back_translatable
        counts = self.counts

        def is_back_translatable(t, phi):
            ok = check(t, phi)
            counts["back_checks"] += 1
            counts["back_ok"] += ok
            return ok

        setattr(mods["fibring"], "is_back_translatable", is_back_translatable)
        load = mods["cli"].load_graph

        def load_graph(data):
            counts["manifest_read"] += len(data)
            return load(data)

        setattr(mods["cli"], "load_graph", load_graph)

    def _wrap(self, original, name, after):
        name_id = self.name_ids[name]
        stack, active, counts = self.stack, self.active, self.counts
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end, span_outer = self.span_start, self.span_end, self.span_outer
        clock = time.perf_counter
        fuel_at = TRANSFER_SCANS.get(name)
        raised_key = f"{name}.raised"

        def traced(*args, **kwargs):
            span = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_op.append(self.op)
            span_outer.append(active[name_id] == 0)
            span_end.append(0.0)
            if fuel_at is not None:
                self.scan_fuel[span] = args[fuel_at] if len(args) > fuel_at else kwargs["fuel"]
            stack.append(span)
            active[name_id] += 1
            span_start.append(clock())
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span_end[span] = clock()
                counts[raised_key] += 1
                raise
            else:
                span_end[span] = clock()
            finally:
                active[name_id] -= 1
                stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    # -- per-layer counters, taken after the span has closed

    def _after_derives(self, span, args, kwargs, verdict) -> None:
        self.counts["derived"] += verdict.is_derived

    def _after_closure(self, span, args, kwargs, result) -> None:
        engine = args[0]
        gamma = args[1]
        watch = args[2] if len(args) > 2 else kwargs.get("watch")
        members = result[0]
        counts = self.counts
        counts["members"] += len(members)
        cap_hit = len(members) >= engine.set_cap
        counts["cap_hits"] += cap_hit
        key = hash((engine.cal, engine.fuel, frozenset(gamma), frozenset(engine.seed_exempt), watch))
        if key in self.closure_keys:
            counts["repeats"] += 1
        self.closure_keys.add(key)
        parent = self.span_parent[span]
        if parent >= 0 and SPAN_NAMES[self.span_name[parent]] == "fibring.side_closure":
            counts["side_cap_hits"] += cap_hit
        while parent >= 0 and parent not in self.scan_fuel:
            parent = self.span_parent[parent]
        if parent >= 0 and engine.fuel == self.scan_fuel[parent].escalated():
            counts["retries"] += 1

    def _after_parse(self, span, args, kwargs, doc) -> None:
        self.counts["parse_bytes"] += len(args[0].encode("utf-8"))

    def _after_commit(self, span, args, kwargs, result) -> None:
        self.counts["manifest_written"] += args[0].manifest.stat().st_size

    # -- results

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, except trace.overhead_s, which needs the
        untraced run and is added by run.py."""
        n = len(self.span_start)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(SPAN_NAMES)
        busy = [0.0] * len(SPAN_NAMES)
        own = [0.0] * len(SPAN_NAMES)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            own[k] += dur[i] - child[i]
            if self.span_outer[i]:
                busy[k] += dur[i]
        c = self.counts
        out: dict[str, float] = {}
        for k, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.busy_s"] = busy[k]
            out[f"{name}.self_s"] = own[k]
            out[f"{name}.raised"] = int(c[f"{name}.raised"])

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        closures = calls[self.name_ids["consequence.closure"]]
        side = calls[self.name_ids["fibring.side_closure"]]
        derives = calls[self.name_ids["consequence.derives"]]

        out.update(
            {
                "consequence.closure.members": int(c["members"]),
                "consequence.closure.cap_hit_ratio": ratio(c["cap_hits"], closures),
                "consequence.closure.repeat_ratio": ratio(c["repeats"], closures),
                "consequence.closure.retries": int(c["retries"]),
                "consequence.derives.derived_ratio": ratio(c["derived"], derives),
                "fibring.side_closure.cap_hit_ratio": ratio(c["side_cap_hits"], side),
                "morphisms.back.translatable_ratio": ratio(c["back_ok"], c["back_checks"]),
                "dsl.parse.bytes": int(c["parse_bytes"]),
                "cli.manifest.bytes_read": int(c["manifest_read"]),
                "cli.manifest.bytes_written": int(c["manifest_written"]),
                "syntax.live_formulas": sum(1 for o in gc.get_objects() if type(o) is Formula),
            }
        )
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{SPAN_NAMES[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )
