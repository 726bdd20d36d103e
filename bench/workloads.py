"""The three benchmark workloads.

Each workload has a ``setup(P, rng)`` that builds its inputs (the part a
user pays once) and a ``round(P, s, r)`` that runs the timed work once at
fixed sizes and checks every output against an expectation computed
independently of the code under test.  ``P`` holds the freshly imported
planrep modules; calls go through module attributes so that the tracer,
when installed, sees them.  Sizes are fixed; the seed chooses targets,
clause subsets, plans and indices, never how much work there is.
"""

from __future__ import annotations

import io
import math
import os
from contextlib import redirect_stdout
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace


def ruler(i: int) -> str:
    """The i-th action of the binary-counter plan, by trailing zeros."""
    return f"a{(i & -i).bit_length()}"


def timed_accesses(rep, indices: list[int], samples: list[int]) -> list[str]:
    """Access ``rep`` at each index, appending each latency in ns."""
    access = rep.access
    got = []
    for i in indices:
        t = perf_counter_ns()
        name = access(i)
        samples.append(perf_counter_ns() - t)
        got.append(name)
    return got


def mismatches(got: list[str], expected: list[str]) -> int:
    return sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))


# ---------------------------------------------------------------------------


class Search:
    """Breadth-first search, plan counting, determinism and reversibility
    checks and the stutter-paced generator; never touches ``grammar``."""

    name = "search"
    ABSENT = ("grammar",)
    COUNTER_BITS = 16
    GRAY_BITS = 14
    INDEXED_BITS = 14
    LEMMA11_N = 12
    REVERSIBLE_GRAY_BITS = 12
    STUTTER_BITS = 8
    STUTTER_LOW = 160  # stutter targets lie in [STUTTER_LOW, 2^bits - 1]

    def setup(self, P, rng) -> SimpleNamespace:
        C = P.constructions
        top = (1 << self.COUNTER_BITS) - 1
        gray_top = (1 << self.GRAY_BITS) - 1
        # Complementary targets keep the states expanded per round fixed;
        # drawing them near the middle keeps the largest search, and so the
        # peak memory, nearly fixed too.
        t1 = rng.randint(top // 2 - top // 16, top // 2 + top // 16)
        t2 = rng.randint(gray_top // 2 - gray_top // 16, gray_top // 2 + gray_top // 16)
        cases = [
            (f"counter{self.COUNTER_BITS} t={t}", C.counter_instance(C.CounterSpec(self.COUNTER_BITS, t)), t)
            for t in (t1, top - t1)
        ] + [
            (f"gray{self.GRAY_BITS} t={t}", C.counter_instance(C.CounterSpec(self.GRAY_BITS, t, "gray")), t)
            for t in (t2, gray_top - t2)
        ]
        cases.append(
            (f"indexed{self.INDEXED_BITS}", C.indexed_plans_instance(self.INDEXED_BITS), (1 << self.INDEXED_BITS) - 1)
        )
        # The generator's work grows with the square of its target, so the
        # targets come in pairs with a fixed sum of squares.
        high = (1 << self.STUTTER_BITS) - 1
        square_sum = self.STUTTER_LOW**2 + high**2
        stutter = []
        for _ in range(2):
            a = rng.randint(self.STUTTER_LOW, high)
            stutter += [a, round(math.sqrt(square_sum - a * a))]
        s = SimpleNamespace(
            cases=cases,
            stutter_targets=stutter,
            allinst=C.all_instances_instance(3),
            gray_rev=C.counter_instance(C.CounterSpec(self.REVERSIBLE_GRAY_BITS, rng.randint(0, 4095), "gray")),
        )
        # Warm-up on objects the timed phase never uses, so no memo is warm.
        P.oracles.bfs_solve(C.counter_instance(C.CounterSpec(8, 200)))
        P.experiments.run_experiment("lemma11", 4)
        P.ffp.is_deterministic(C.counter_instance(C.CounterSpec(6, 63)))
        P.ffp.is_reversible(C.counter_instance(C.CounterSpec(6, 5, "gray")))
        list(P.representations.reversible_csar(C.counter_instance(C.CounterSpec(5, 21, "gray"))))
        return s

    def round(self, P, s, r) -> None:
        C, O, M = P.constructions, P.oracles, P.model
        for label, instance, target in s.cases:
            with r.op("oracles", f"bfs_solve {label}"):
                t = perf_counter()
                res = O.bfs_solve(instance)
                r.times["solve"] += perf_counter() - t
                r.count(f"oracles.bfs_solve.states_expanded[{label}]", res.states_expanded)
                r.count(f"oracles.bfs_solve.plan_length[{label}]", len(res.plan))
                r.expect("oracles", res.optimal_length == target and len(res.plan) == target, "length != target")
                r.expect("model", M.validate_plan(instance, res.plan).valid, "plan does not validate")

        with r.op("experiments", f"lemma11 n={self.LEMMA11_N}"):
            t = perf_counter()
            report = P.experiments.run_experiment("lemma11", self.LEMMA11_N)
            r.times["verdict"] += perf_counter() - t
            want = [(k, str(2 ** (2**k - 1))) for k in range(1, self.LEMMA11_N + 1)]
            r.expect("oracles", [(row.case, row.observed) for row in report.rows] == want, "count != 2^(2^k-1)")
            r.expect("experiments", report.all_passed, "rows failed")

        with r.op("ffp", "is_deterministic allinst3"):
            r.expect("ffp", P.ffp.is_deterministic(s.allinst) is True, "not deterministic")
        with r.op("ffp", f"is_reversible gray{self.REVERSIBLE_GRAY_BITS}"):
            r.expect("ffp", P.ffp.is_reversible(s.gray_rev) is True, "not reversible")

        for target in s.stutter_targets:
            with r.op("representations", f"reversible_csar gray{self.STUTTER_BITS} t={target}"):
                # A fresh instance: optplan_length memoises on the instance.
                instance = C.counter_instance(C.CounterSpec(self.STUTTER_BITS, target, "gray"))
                rep = P.representations.reversible_csar(instance)
                t = perf_counter()
                plan = list(rep)
                r.times["stream"] += perf_counter() - t
                r.stream_actions += len(plan)
                r.count(f"representations.reversible_csar.emitted[t={target}]", len(plan))
                r.count("representations.reversible_csar.max_step_cost", rep.meta.max_step_cost)
                r.expect("representations", M.validate_plan(instance, plan).valid, "stutter plan invalid")
                r.expect("representations", rep.emission_kinds.count("chosen") == target, "core != target")


# ---------------------------------------------------------------------------


class Sweep:
    """The deterministic all-instances sweep, the verifier family, the
    lemma17/lemma27 experiments and the ``stream`` CLI path."""

    name = "sweep"
    ABSENT = ()
    N4_PREFIX = 30000
    C16_N = 6
    C16_CASES = 50
    C16_MAX_CLAUSES = 40

    def setup(self, P, rng) -> SimpleNamespace:
        C, S, R = P.constructions, P.sat3, P.representations
        allinst3 = C.all_instances_instance(3)
        consts4 = C.block_constants(4, calibrate=False)
        blocks4 = range((self.N4_PREFIX - consts4.offset) // consts4.stride + 1)
        m6 = S.clause_count(self.C16_N)
        cases = []
        for case in range(self.C16_CASES):
            # Clause counts spread evenly over 1..C16_MAX_CLAUSES; which
            # clauses, and so which verdict, is the seed's choice.
            k = 1 + case * (self.C16_MAX_CLAUSES - 1) // (self.C16_CASES - 1)
            i = sum(1 << j for j in rng.sample(range(m6), k))
            cases.append((i, C.sat_verifier_instance(self.C16_N, i), R.compute_advice(self.C16_N, i)))
        s = SimpleNamespace(
            allinst3=allinst3,
            allinst4=C.all_instances_instance(4),
            # The independent simulator is the reference plan for n=3.
            plan3=list(C.simulate_unique_plan(allinst3)),
            sat3=[S.is_satisfiable(S.instance_from_index(3, i))[0] for i in range(1 << S.clause_count(3))],
            consts4=consts4,
            sat4={i: S.is_satisfiable(S.instance_from_index(4, i))[0] for i in blocks4},
            cases=cases,
            clear_block_constants=C.block_constants.cache_clear,
        )
        # Warm-up on n=2 and n=3 objects the timed phase does not reuse.
        P.experiments.run_experiment("lemma17", 2)
        P.experiments.run_experiment("lemma27", 2)
        R.verify_representation(C.all_instances_instance(2), R.c26_csar(2))
        adv = R.compute_advice(3, 255)
        list(R.c16_csar(3, 255, adv))
        crar = R.c16_crar(3, 255, adv)
        [crar.access(p) for p in range(1, crar.length + 1)]
        return s

    def round(self, P, s, r) -> None:
        M, R, S, E = P.model, P.representations, P.sat3, P.experiments

        with r.op("representations", "verify_representation c26 n=3"):
            rep = R.c26_csar(3)
            verdict = R.verify_representation(s.allinst3, rep)
            r.count("representations.verify_representation.steps", verdict.steps)
            r.expect("representations", verdict.is_valid and verdict.steps == len(s.plan3), "verdict")

        with r.op("representations", "stream c26 n=3"):
            rep = R.c26_csar(3)
            t = perf_counter()
            plan3 = list(rep)
            r.times["stream"] += perf_counter() - t
            r.stream_actions += len(plan3)
            r.count("representations.c26_csar.max_step_cost", rep.meta.max_step_cost)
            r.expect("representations", plan3 == s.plan3, "stream != simulation")
            r.expect("model", M.validate_plan(s.allinst3, plan3).valid, "plan invalid")

        with r.op("cli", "stream builtin:c26-csar?n=3"):
            sink = io.StringIO()
            with redirect_stdout(sink):
                code = P.cli.main(["stream", "--rep", "builtin:c26-csar?n=3", "--force"])
            r.expect("cli", code == 0 and sink.getvalue() == "".join(a + "\n" for a in plan3), "CLI != API")

        with r.op("representations", f"c26 n=4 prefix {self.N4_PREFIX}"):
            rep = R.c26_csar(4)
            t = perf_counter()
            prefix = rep.take(self.N4_PREFIX)
            r.times["stream"] += perf_counter() - t
            r.stream_actions += len(prefix)
            trace = M.validate_plan(s.allinst4, prefix)
            # Every action applies; only the goal is still missing.
            r.expect("model", trace.failure_step == len(prefix) + 1 == self.N4_PREFIX + 1, "prefix does not execute")
            # Lemma 27 at n=4: verdict for subset i at stride*i + offset.
            wrong = [
                i
                for i, sat in s.sat4.items()
                if prefix[s.consts4.stride * i + s.consts4.offset - 1] != ("ais" if sat else "aiu")
            ]
            r.expect("representations", not wrong, f"lemma27 n=4 wrong verdict at blocks {wrong[:5]}")
            r.count("check.lemma27_n4_blocks", len(s.sat4))

        with r.op("experiments", "lemma17 n=3"):
            t = perf_counter()
            report = E.run_experiment("lemma17", 3)
            r.times["verdict"] += perf_counter() - t
            want = [(i, "acs" if sat else "acu") for i, sat in enumerate(s.sat3)]
            r.expect("experiments", report.all_passed, "rows failed")
            r.expect("representations", [(row.case, row.observed) for row in report.rows] == want, "first actions")

        with r.op("experiments", "lemma27 n=3"):
            s.clear_block_constants()  # a CLI user pays the calibration
            t = perf_counter()
            report = E.run_experiment("lemma27", 3)
            r.times["verdict"] += perf_counter() - t
            want = [(i, "ais" if sat else "aiu") for i, sat in enumerate(s.sat3)]
            r.expect("experiments", report.all_passed, "rows failed")
            r.expect("representations", [(row.case, row.observed) for row in report.rows] == want, "verdicts")

        n = self.C16_N
        for i, instance, adv in s.cases:
            with r.op("representations", f"c16 n={n} i={i:#x}"):
                rep = R.c16_csar(n, i, adv)
                t = perf_counter()
                plan = list(rep)
                r.times["stream"] += perf_counter() - t
                r.stream_actions += len(plan)
                sat = S.is_satisfiable(S.instance_from_index(n, i))[0]
                r.expect("model", M.validate_plan(instance, plan).valid, "c16 plan invalid")
                r.expect("representations", plan[:1] == ["acs" if sat else "acu"], "first action != sat3 verdict")
                crar = R.c16_crar(n, i, adv)
                got = timed_accesses(crar, range(1, crar.length + 1), r.samples)
                r.expect("representations", got == plan, "c16_crar != c16_csar")
                r.count(f"representations.c16_csar.max_step_cost[{i:#x}]", rep.meta.max_step_cost)
                r.count(f"representations.c16_crar.max_step_cost_declared[{i:#x}]", crar.meta.max_step_cost)


# ---------------------------------------------------------------------------


class Grammar:
    """Grammar induction (writes) and grammar-backed random access and
    streaming (reads); never touches ``oracles`` or ``ffp``."""

    name = "grammar"
    ABSENT = ("oracles", "ffp")
    RANDOM_SIZES = (2000, 4000)
    ALPHABET = 8
    CHOICE_BITS = 12
    COUNTER_PLAN_BITS = 14
    READ_BITS = 20
    MACRO_ACCESSES = 20000
    COUNTER_ACCESSES = 20000
    INDUCED_ACCESSES = 5000
    STREAM_SYMBOLS = 1_000_000

    def setup(self, P, rng) -> SimpleNamespace:
        C, G, R = P.constructions, P.grammar, P.representations
        alphabet = [f"a{k}" for k in range(1, self.ALPHABET + 1)]
        plans = {f"random{n}": [rng.choice(alphabet) for _ in range(n)] for n in self.RANDOM_SIZES}
        length = (1 << self.CHOICE_BITS) - 1
        bits = "".join(rng.choice("01") for _ in range(length))
        plans[f"choice{self.CHOICE_BITS}"] = C.plan_from_choice_bits(self.CHOICE_BITS, bits)
        plans[f"counter{self.COUNTER_PLAN_BITS}"] = [ruler(i) for i in range(1, 1 << self.COUNTER_PLAN_BITS)]

        names = [f"a{k}" for k in range(1, self.READ_BITS + 2)]
        top = (1 << self.READ_BITS) - 1
        macro = R.counter_macro(self.READ_BITS)
        R.grammar_crar(macro)  # fills the grammar's length table: warm by design
        macro_idx = [rng.randint(1, top) for _ in range(self.MACRO_ACCESSES)]
        counter_idx = [rng.randint(1, top) for _ in range(self.COUNTER_ACCESSES)]
        induced_idx = {k: [rng.randint(1, len(p)) for _ in range(self.INDUCED_ACCESSES)] for k, p in plans.items()}

        cli_plan = f"random{self.RANDOM_SIZES[0]}"
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", f"compress-{os.getpid()}.plan")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(a + "\n" for a in plans[cli_plan]))

        s = SimpleNamespace(
            plans=plans,
            macro=macro,
            macro_idx=macro_idx,
            macro_expected=[names[(i & -i).bit_length() - 1] for i in macro_idx],
            counter_idx=counter_idx,
            counter_expected=[names[(i & -i).bit_length() - 1] for i in counter_idx],
            induced_idx=induced_idx,
            induced_expected={k: [plans[k][i - 1] for i in idx] for k, idx in induced_idx.items()},
            stream_expected=[names[(i & -i).bit_length() - 1] for i in range(1, self.STREAM_SYMBOLS + 1)],
            cli_plan=cli_plan,
            cli_path=path,
        )
        # Warm-up on small grammars the timed phase does not reuse.
        small = [rng.choice(alphabet) for _ in range(300)]
        G.expand(G.induce_grammar(small))
        crar = R.grammar_crar(R.counter_macro(8))
        [crar.access(i) for i in range(1, 256)]
        R.counter_crar(8).access(12)
        R.macro_stream(R.counter_macro(8)).take(255)
        return s

    def round(self, P, s, r) -> None:
        G, R = P.grammar, P.representations
        induced = {}
        for label, plan in s.plans.items():
            with r.op("grammar", f"induce_grammar {label}"):
                t = perf_counter()
                g = G.induce_grammar(plan)
                r.times["compress"] += perf_counter() - t
                r.compress_symbols += len(plan)
                induced[label] = g
                r.count(f"grammar.induce_grammar.rules[{label}]", len(g.macros))
                r.count(f"grammar.induce_grammar.grammar_symbols[{label}]", g.symbol_count())
                r.expect("grammar", G.expand(g) == plan, "expand(induce(p)) != p")

        with r.op("cli", f"compress {s.cli_plan}"):
            sink = io.StringIO()
            with redirect_stdout(sink):
                code = P.cli.main(["compress", "-p", s.cli_path])
            text = sink.getvalue()
            r.expect("cli", code == 0 and text == G.serialize_grammar(induced[s.cli_plan]), "CLI != API")
            r.expect("grammar", G.expand(G.parse_grammar(text)) == s.plans[s.cli_plan], "CLI grammar round trip")

        reads = [
            ("grammar_crar", f"counter_macro{self.READ_BITS}", s.macro, s.macro_idx, s.macro_expected),
            ("counter_crar", f"counter{self.READ_BITS}", self.READ_BITS, s.counter_idx, s.counter_expected),
        ] + [
            ("grammar_crar", f"induced {k}", induced.get(k), s.induced_idx[k], s.induced_expected[k])
            for k in s.plans
        ]
        for kind, label, arg, indices, expected in reads:
            with r.op("representations", f"{kind} {label}"):
                rep = getattr(R, kind)(arg)
                got = timed_accesses(rep, indices, r.samples)
                r.tally("representations", len(indices), mismatches(got, expected), f"{kind} {label}")
                r.count(f"representations.{kind}.max_step_cost[{label}]", rep.meta.max_step_cost)

        with r.op("representations", f"macro_stream counter_macro{self.READ_BITS}"):
            rep = R.macro_stream(s.macro)
            t = perf_counter()
            out = rep.take(self.STREAM_SYMBOLS)
            r.times["stream"] += perf_counter() - t
            r.stream_actions += len(out)
            r.expect("representations", out == s.stream_expected, "stream != closed form")
            r.count("grammar.iter_expansion.max_stack_depth", rep.stats["max_stack_depth"])
            r.count("representations.macro_stream.max_step_cost", rep.meta.max_step_cost)

    def teardown(self, s) -> None:
        if os.path.exists(s.cli_path):
            os.remove(s.cli_path)


WORKLOADS = {w.name: w for w in (Search(), Sweep(), Grammar())}
