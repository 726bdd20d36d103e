"""planrep benchmark: one workload per process, one caller, closed loop.

    python3 bench/run.py --workload {search,sweep,grammar} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The benchmark imports planrep from ``src/``
(a pure-Python package: there is nothing to build), sets the workload up
several times, then repeats one fixed-size round of the workload until
``--seconds`` have passed.  Every output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` untraced and
traced rounds alternate; the metrics are the per-layer metrics, and the
spans are written to ``bench/out/``.  The lines above the JSON object list
every metric of the run with its unit.  See bench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
LAYERS = ("model", "ffp", "constructions", "sat3", "oracles", "grammar", "representations", "experiments", "cli")
SETUPS = 5
# End-to-end times are scaled to a machine on which the reference kernel
# takes REFERENCE_S: each set-up or round time is multiplied by REFERENCE_S
# over the kernel's time, measured just before and just after it.  The
# kernel took 0.055-0.13 s on the 2-vCPU machine the benchmark was built on,
# whose speed drifted by up to 1.8x within minutes; scaled times spread far
# less between runs than wall times did.
REFERENCE_S = 0.08
MIN_ROUNDS = 3
# Constructors whose self time makes up ``constructions.build``.
BUILDERS = (
    "constructions.counter_instance",
    "constructions.indexed_plans_instance",
    "constructions.all_instances_instance",
    "constructions.sat_verifier_instance",
    "constructions.plan_from_choice_bits",
)


class Round:
    """Measurements and check results of one round."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = {}
        self.samples: list[int] = []
        self.stream_actions = 0
        self.compress_symbols = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[tuple[str, str]] = []
        self._label = ""
        self._op_failed = False

    @contextmanager
    def op(self, layer: str, label: str):
        """One checked operation; an exception fails it and is recorded."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op += 1
        self._label, self._op_failed = label, False
        try:
            yield
        except Exception as exc:
            self._fail(layer, f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=-3)}")
        if self._op_failed:
            self.failed += 1

    def expect(self, layer: str, ok: bool, message: str) -> None:
        if not ok:
            self._fail(layer, message)

    def _fail(self, layer: str, message: str) -> None:
        self.failures.append((layer, f"{self._label}: {message}"))
        self._op_failed = True

    def tally(self, layer: str, attempted: int, failed: int, label: str) -> None:
        """Many small operations checked in bulk, such as random accesses."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append((layer, f"{label}: {failed}/{attempted} wrong"))

    def close_samples(self) -> None:
        """Reduce the round's access latencies to its percentiles, so that
        memory does not grow with the number of rounds."""
        samples = sorted(self.samples)
        self.samples = []
        self.access_samples = len(samples)
        self.access_us_p50 = percentile(samples, 50) / 1000 if samples else 0.0
        self.access_us_p99 = percentile(samples, tail_percentile(len(samples))) / 1000 if len(samples) > 10 else 0.0

    def count(self, key: str, value: int) -> None:
        """An exact work count; it must repeat in every round."""
        self.counts[key] = max(value, self.counts.get(key, value))


def reference_s() -> float:
    """Time of a fixed pure-Python kernel with the mix of work planrep does:
    a breadth-first search over a dict of int states, string building and
    digram counting.  It is benchmark code, so no change to planrep moves
    it; only the speed of the machine does."""
    t = perf_counter()
    parents = {0: None}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for bit in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192):
                u = v ^ bit
                if u not in parents:
                    parents[u] = (v, "a%d" % bit.bit_length())
                    nxt.append(u)
        frontier = nxt
    pairs: dict[tuple[str, str], int] = {}
    previous = ""
    for i in range(1, 100000):
        name = f"a{(i & -i).bit_length()}"
        pairs[previous, name] = pairs.get((previous, name), 0) + 1
        previous = name
    return perf_counter() - t


def fresh_import() -> SimpleNamespace:
    """Import planrep from src/ as a user's process would, from scratch."""
    for key in [k for k in sys.modules if k == "planrep" or k.startswith("planrep.")]:
        del sys.modules[key]
    modules = {layer: importlib.import_module(f"planrep.{layer}") for layer in LAYERS}
    origin = Path(sys.modules["planrep"].__file__).resolve()
    if SRC not in origin.parents:
        raise RuntimeError(f"planrep imported from {origin}, not from {SRC}")
    return SimpleNamespace(**modules)


def percentile(sorted_values: list[int], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it, capped at 99."""
    return min(99.0, 100.0 * (1 - 10 / n))


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def workload_metrics(rounds: list[Round]) -> dict[str, float]:
    """Metrics of the untraced rounds, as medians over rounds.  The
    end-to-end times and rates are scaled to the reference speed; ``wall.*``
    are the same figures unscaled."""
    med = statistics.median
    m = {
        "run_s": med(r.wall * REFERENCE_S / r.ref for r in rounds),
        "stream_actions_per_s": med(rate(r.stream_actions, r.times["stream"]) * r.ref / REFERENCE_S for r in rounds),
        "wall.run_s": med(r.wall for r in rounds),
        "wall.stream_actions_per_s": med(rate(r.stream_actions, r.times["stream"]) for r in rounds),
        "reference.kernel_s": med(r.ref for r in rounds),
        "verdict_s": med(r.times["verdict"] for r in rounds),
        "solve_states_per_s": med(
            rate(sum(v for k, v in r.counts.items() if k.startswith("oracles.bfs_solve.states_expanded")), r.times["solve"])
            for r in rounds
        ),
        "compress_symbols_per_s": med(rate(r.compress_symbols, r.times["compress"]) for r in rounds),
    }
    m["access_samples"] = med(r.access_samples for r in rounds)
    m["access_us_p50"] = med(r.access_us_p50 for r in rounds)
    m["access_us_p99"] = med(r.access_us_p99 for r in rounds)
    return m


def layer_metrics(sm: dict[str, dict]) -> dict[str, float]:
    """Per-layer metrics of one traced round, from its span summary."""

    def field(name: str, key: str) -> float:
        return sm.get(name, {}).get(key, 0)

    def counter(name: str, key: str) -> int:
        return sm.get(name, {}).get("counters", {}).get(key, 0)

    def us_per_call(name: str) -> float:
        return 1e6 * rate(field(name, "busy"), field(name, "calls"))

    m = {}
    for name in (
        "oracles.bfs_solve", "oracles.optplan_length", "ffp.ground_view", "grammar.macro_access",
        "sat3.is_satisfiable", "sat3.enumerate_clauses", "model.validate_plan",
    ):
        m[f"{name}.calls"] = field(name, "calls")
    for name in (
        "oracles.bfs_solve", "oracles.count_optimal_plans", "oracles.optplan_length", "ffp.ground_view",
        "ffp.is_deterministic", "ffp.is_reversible", "grammar.induce_grammar", "sat3.is_satisfiable",
        "sat3.enumerate_clauses", "constructions.sat_verifier_instance", "constructions.block_constants",
        "model.validate_plan", "model.parse_plan", "experiments.lemma11", "experiments.lemma17",
        "experiments.lemma27", "cli.stream", "cli.compress",
    ):
        m[f"{name}.self_s"] = field(name, "self")
    for rep in ("reversible_csar", "c26_csar", "c16_csar", "macro_stream"):
        m[f"representations.{rep}.emit_us"] = us_per_call(f"representations.{rep}.emit")
    for rep in ("c16_crar", "counter_crar", "grammar_crar"):
        m[f"representations.{rep}.access_us"] = us_per_call(f"representations.{rep}.access")
    m["oracles.bfs_solve.states_per_s"] = rate(counter("oracles.bfs_solve", "states_expanded"), field("oracles.bfs_solve", "self"))
    m["ffp.is_reversible.states_per_s"] = rate(counter("ffp.is_reversible", "states"), field("ffp.is_reversible", "self"))
    m["representations.verify_representation.steps_per_s"] = rate(
        counter("representations.verify_representation", "steps"), field("representations.verify_representation", "self")
    )
    m["model.validate_plan.actions_per_s"] = rate(counter("model.validate_plan", "actions"), field("model.validate_plan", "self"))
    m["grammar.macro_access.us_per_call"] = us_per_call("grammar.macro_access")
    m["grammar.macro_access.symbols_inspected_mean"] = rate(
        counter("grammar.macro_access", "symbols_inspected"), field("grammar.macro_access", "calls")
    )
    m["grammar.macro_access.descent_depth_max"] = counter("grammar.macro_access", "descent_depth_max")
    m["grammar.iter_expansion.symbols_per_s"] = rate(field("grammar.iter_expansion", "calls"), field("grammar.iter_expansion", "busy"))
    m["grammar.induce_grammar.symbols_per_s"] = rate(counter("grammar.induce_grammar", "symbols"), field("grammar.induce_grammar", "self"))
    m["grammar.induce_grammar.rules"] = counter("grammar.induce_grammar", "rules")
    m["grammar.induce_grammar.grammar_symbols"] = counter("grammar.induce_grammar", "grammar_symbols")
    return m


def setup_metrics(sm: dict[str, dict]) -> dict[str, float]:
    """Self time of the layers a set-up pays for, from one traced set-up."""

    def self_s(name: str) -> float:
        return sm.get(name, {}).get("self", 0.0)

    return {
        "grammar.macro_lengths.self_s": self_s("grammar.macro_lengths"),
        "grammar.macro_validate.self_s": self_s("grammar.macro_validate"),
        "representations.compute_advice.self_s": self_s("representations.compute_advice"),
        "constructions.build.self_s": sum(self_s(name) for name in BUILDERS),
    }


def count_metrics(counts: dict[str, int]) -> dict[str, float]:
    """Exact work counts of a round, summed over the cases of each kind.
    ``c16_crar`` charges a flat m+n per access: declared, not measured."""
    totals: dict[str, float] = defaultdict(int)
    for key, value in counts.items():
        base = key.split("[", 1)[0]
        if base.endswith("max_step_cost") or base.endswith("max_step_cost_declared") or base.endswith("max_stack_depth"):
            totals[base] = max(totals[base], value)
        else:
            totals[base] += value
    names = (
        "oracles.bfs_solve.states_expanded", "oracles.bfs_solve.plan_length",
        "representations.reversible_csar.emitted", "representations.reversible_csar.max_step_cost",
        "representations.c26_csar.max_step_cost", "representations.c16_csar.max_step_cost",
        "representations.c16_crar.max_step_cost_declared", "representations.grammar_crar.max_step_cost",
        "representations.counter_crar.max_step_cost", "representations.macro_stream.max_step_cost",
        "grammar.iter_expansion.max_stack_depth", "check.lemma27_n4_blocks",
    )
    return {name: totals.get(name, 0) for name in names}


def set_up(workload, seed: int, tracer: Tracer | None):
    """Import and set up SETUPS times from scratch; the last one is kept
    and, when tracing, traced."""
    times, scales = [], []
    ref = reference_s()
    for k in range(SETUPS):
        rng = random.Random(f"{workload.name}:{seed}")
        t = perf_counter()
        P = fresh_import()
        traced = tracer is not None and k == SETUPS - 1
        if traced:
            tracer.install()
        try:
            state = workload.setup(P, rng)
        finally:
            if traced:
                tracer.uninstall()
        times.append(perf_counter() - t)
        after = reference_s()
        scales.append(2 * REFERENCE_S / (ref + after))
        ref = after
    return P, state, times, scales


def run_rounds(workload, P, state, seconds: float, tracer: Tracer | None):
    """Repeat the round until ``seconds`` have passed; when tracing,
    untraced and traced rounds alternate."""
    plain: list[Round] = []
    traced_rounds: list[Round] = []
    begin = perf_counter()
    ref = reference_s()
    while True:
        traced = tracer is not None and len(plain) > len(traced_rounds)
        r = Round(tracer if traced else None)
        if traced:
            first = len(tracer.spans)
            tracer.install()
        t = perf_counter()
        try:
            workload.round(P, state, r)
        finally:
            r.wall = perf_counter() - t
            if traced:
                tracer.uninstall()
        after = reference_s()
        r.ref = (ref + after) / 2
        ref = after
        r.close_samples()
        if traced:
            r.layers = tracer.summary(first)
            traced_rounds.append(r)
        else:
            plain.append(r)
        enough = len(plain) >= MIN_ROUNDS and (tracer is None or len(traced_rounds) >= MIN_ROUNDS)
        if enough and perf_counter() - begin >= seconds:
            return plain, traced_rounds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "planrep" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a planrep checkout; {SRC}/planrep or {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    P, state, setup_times, setup_scales = set_up(workload, args.seed, tracer)
    setup_spans = len(tracer.spans) if tracer else 0
    try:
        plain, traced_rounds = run_rounds(workload, P, state, args.seconds, tracer)
    finally:
        if hasattr(workload, "teardown"):
            workload.teardown(state)

    rounds = plain + traced_rounds
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    # Exact work counts and span counts repeat in every round.
    shape = lambda r: {k: (v["calls"], v["counters"]) for k, v in r.layers.items()}
    repeats = [r.counts == rounds[0].counts for r in rounds[1:]]
    repeats += [shape(r) == shape(traced_rounds[0]) for r in traced_rounds[1:]]
    # A workload's control layers must not run at all.
    absent = [name for r in traced_rounds for name in r.layers if name.split(".", 1)[0] in workload.ABSENT]
    for ok in repeats + [not absent]:
        attempted += 1
        failed += not ok
    if not all(repeats):
        failures.append(("bench", "work or span counts differ between rounds"))
    if absent:
        failures.append(("bench", f"control layers ran: {sorted(set(absent))}"))

    values = workload_metrics(plain)
    values["setup_s"] = statistics.median(t * k for t, k in zip(setup_times, setup_scales))
    values["wall.setup_s"] = statistics.median(setup_times)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["fail_ratio"] = failed / attempted
    values["attempted"] = attempted
    values["failed"] = failed
    values.update(count_metrics(rounds[0].counts))
    if tracer is not None:
        per_round = [layer_metrics(r.layers) for r in traced_rounds]
        for key in per_round[0]:
            values[key] = statistics.median(m[key] for m in per_round)
        values.update(setup_metrics(tracer.summary(0, setup_spans)))
        traced_run_s = statistics.median(r.wall * REFERENCE_S / r.ref for r in traced_rounds)
        values["trace.overhead_s"] = traced_run_s - values["run_s"]
        values["trace.overhead_pct"] = 100 * values["trace.overhead_s"] / values["run_s"]
        errors = defaultdict(int)
        for name, row in tracer.summary(0).items():
            errors[name.split(".", 1)[0]] += row["errors"]
        for layer, _ in failures:
            errors[layer] += 1
        for layer in LAYERS:
            values[f"{layer}.errors"] = errors[layer]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload.name}-{args.seed}.jsonl")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"# workload={workload.name} seed={args.seed} rounds={len(plain)}+{len(traced_rounds)} traced")
    print("# round wall s: " + " ".join(f"{r.wall:.3f}" for r in plain))
    digest = hashlib.sha256(json.dumps(rounds[0].counts, sort_keys=True).encode()).hexdigest()[:16]
    print(f"# work counts digest: {digest} (equal for equal seeds)")
    for name in sorted(values):
        print(f"{name:<58} {values[name]:>16.6g} {units.get(name, '')}")
    for layer, message in failures[:20]:
        print(f"FAIL [{layer}] {message}", file=sys.stderr)
    listed = spec["per_layer"] if tracer is not None else spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
