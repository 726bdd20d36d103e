"""In-memory span tracer for the planrep benchmark.

The tracer wraps planrep's public functions at every module attribute that
holds them, so calls made from inside the package (``experiments`` reaching
``oracles.count_optimal_plans``, ``representations`` reaching
``oracles.optplan_length``, ``grammar.macro_access`` reaching
``macro_lengths``) are seen as well as the benchmark's own calls.

Each call becomes a span with a name, start, end, parent span and operation
id.  Per-item calls (one emission of a sequential representation, one random
access, one descent, one step of a generator) would make millions of spans,
so they are aggregated: one span per (name, parent, operation) that counts
its calls and sums their busy time.  Self time is a span's busy time minus
the busy time of its children; spans of one thread never overlap, so that is
the time its children cover.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# How a wrapped function is recorded.
CALL = "call"  # one span per call
HOT = "hot"  # aggregated per (name, parent, operation)
GEN = "gen"  # returns an iterator; each step is an aggregated span
REP = "rep"  # returns a representation; each emission or access is aggregated

TARGETS = {
    "oracles.bfs_solve": CALL,
    "oracles.count_optimal_plans": CALL,
    "oracles.optplan_length": CALL,
    "ffp.ground_view": CALL,
    "ffp.is_deterministic": CALL,
    "ffp.is_reversible": CALL,
    "constructions.counter_instance": CALL,
    "constructions.indexed_plans_instance": CALL,
    "constructions.all_instances_instance": CALL,
    "constructions.sat_verifier_instance": CALL,
    "constructions.plan_from_choice_bits": CALL,
    "constructions.block_constants": CALL,
    "sat3.is_satisfiable": CALL,
    "sat3.enumerate_clauses": CALL,
    "model.validate_plan": CALL,
    "model.parse_plan": CALL,
    "grammar.induce_grammar": CALL,
    "grammar.macro_validate": CALL,
    "grammar.expand": CALL,
    "grammar.macro_lengths": HOT,
    "grammar.macro_access": HOT,
    "grammar.iter_expansion": GEN,
    "representations.compute_advice": CALL,
    "representations.verify_representation": CALL,
    "representations.counter_macro": CALL,
    "representations.reversible_csar": REP,
    "representations.c26_csar": REP,
    "representations.c16_csar": REP,
    "representations.c16_crar": REP,
    "representations.counter_crar": REP,
    "representations.grammar_crar": REP,
    "representations.macro_stream": REP,
    "experiments.run_experiment": CALL,
    "cli.main": CALL,
}


def _span_name(name: str, args: tuple) -> str:
    """Experiments and CLI commands are named after what they run."""
    if name == "experiments.run_experiment":
        return f"experiments.{args[0]}"
    if name == "cli.main":
        return f"cli.{args[0][0]}"
    return name


def _observe(name: str, span: "Span", args: tuple, kwargs: dict, result) -> None:
    """Work counts taken where the work happens, from arguments and results."""
    c = span.counters
    if name == "oracles.bfs_solve":
        c["states_expanded"] = c.get("states_expanded", 0) + result.states_expanded
    elif name == "ffp.is_reversible":
        c["states"] = c.get("states", 0) + (1 << args[0].n_atoms)
    elif name == "model.validate_plan":
        c["actions"] = c.get("actions", 0) + len(args[1])
    elif name == "representations.verify_representation":
        c["steps"] = c.get("steps", 0) + result.steps
    elif name == "grammar.induce_grammar":
        c["symbols"] = c.get("symbols", 0) + len(args[0])
        c["rules"] = c.get("rules", 0) + len(result.macros)
        c["grammar_symbols"] = c.get("grammar_symbols", 0) + result.symbol_count()
    elif name == "grammar.macro_access":
        stats = kwargs.get("stats")
        if stats is not None:
            c["symbols_inspected"] = c.get("symbols_inspected", 0) + stats["symbols_inspected"]
            c["descent_depth_max"] = max(c.get("descent_depth_max", 0), stats["descent_depth"])


class Span:
    __slots__ = ("id", "name", "op", "parent", "start", "end", "calls", "busy", "errors", "counters")

    def __init__(self, sid: int, name: str, op: int, parent: int, start: float):
        self.id = sid
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        self.calls = 0
        self.busy = 0.0
        self.errors = 0
        self.counters: dict[str, int] = {}

    def as_dict(self, origin: float) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "op": self.op,
            "parent": self.parent,
            "start": self.start - origin,
            "end": self.end - origin,
            "calls": self.calls,
            "busy": self.busy,
            "errors": self.errors,
            "counters": self.counters,
        }


class _TracedIterator:
    def __init__(self, tracer: "Tracer", name: str, it):
        self._tracer = tracer
        self._name = name
        self._next = it.__next__

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.call(self._name, True, self._next, (), {})


class Tracer:
    """Spans kept in memory; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._hot: dict[tuple, Span] = {}
        self._patches: list[tuple] = []

    def call(self, name: str, hot: bool, fn, args: tuple, kwargs: dict, observe=None):
        parent = self._stack[-1] if self._stack else -1
        start = perf_counter()
        span = self._hot.get((name, parent, self.op)) if hot else None
        if span is None:
            span = Span(len(self.spans), name, self.op, parent, start)
            self.spans.append(span)
            if hot:
                self._hot[(name, parent, self.op)] = span
        self._stack.append(span.id)
        try:
            result = fn(*args, **kwargs)
        except StopIteration:
            self._stack.pop()  # end of a generator: not a call that produced work
            span.end = perf_counter()
            span.busy += span.end - start
            raise
        except Exception:
            span.errors += 1
            self._close(span, start)
            raise
        self._close(span, start)
        if observe is not None:
            observe(span, args, kwargs, result)
        return result

    def _close(self, span: Span, start: float) -> None:
        self._stack.pop()
        end = perf_counter()
        span.end = end
        span.calls += 1
        span.busy += end - start

    def _wrap(self, name: str, kind: str, fn):
        tracer = self
        observe = functools.partial(_observe, name)

        def wrapper(*args, **kwargs):
            span_name = _span_name(name, args)
            if kind == GEN:
                return _TracedIterator(tracer, span_name, fn(*args, **kwargs))
            result = tracer.call(span_name, kind == HOT, fn, args, kwargs, observe)
            if kind == REP:
                tracer._instrument(span_name, result)
            return result

        wrapper.__wrapped__ = fn
        if hasattr(fn, "cache_clear"):  # an lru_cache keeps its cache control
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _instrument(self, name: str, rep) -> None:
        """Time each emission or access of a representation built while
        tracing; the wrapper sits on the instance, which its iterator uses."""
        method = "access" if hasattr(rep, "access") else "next"
        bound = getattr(rep, method)
        item = f"{name}.{'access' if method == 'access' else 'emit'}"
        setattr(rep, method, lambda *a: self.call(item, True, bound, a, {}))

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "planrep" or key.startswith("planrep.")]
        for name, kind in TARGETS.items():
            module_name, attr = name.rsplit(".", 1)
            original = getattr(sys.modules[f"planrep.{module_name}"], attr)
            wrapper = self._wrap(name, kind, original)
            for module in modules:
                if vars(module).get(attr) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self._hot.clear()

    def summary(self, first: int = 0, stop: int | None = None) -> dict[str, dict]:
        """Totals per span name over ``spans[first:stop]``: calls, busy and
        self seconds, errors and summed counters (``*_max`` counters take
        the max)."""
        spans = self.spans[first:stop]
        child_busy: dict[int, float] = {}
        for s in spans:
            if s.parent >= 0:
                child_busy[s.parent] = child_busy.get(s.parent, 0.0) + s.busy
        out: dict[str, dict] = {}
        for s in spans:
            row = out.setdefault(s.name, {"calls": 0, "busy": 0.0, "self": 0.0, "errors": 0, "counters": {}})
            row["calls"] += s.calls
            row["busy"] += s.busy
            row["self"] += s.busy - child_busy.get(s.id, 0.0)
            row["errors"] += s.errors
            for key, value in s.counters.items():
                if key.endswith("_max"):
                    row["counters"][key] = max(row["counters"].get(key, 0), value)
                else:
                    row["counters"][key] = row["counters"].get(key, 0) + value
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s.as_dict(self.origin)) + "\n")
