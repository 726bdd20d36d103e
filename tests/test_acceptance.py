"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line and enforcing its stated time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from planrep import (
    CounterSpec,
    all_instances_instance,
    bfs_solve,
    block_constants,
    c16_crar,
    c16_csar,
    causal_graph,
    compute_advice,
    count_optimal_plans,
    counter_crar,
    counter_instance,
    counter_macro,
    crar_to_csar,
    expand,
    grammar_crar,
    indexed_plans_instance,
    induce_grammar,
    is_unary,
    macro_access,
    macro_stream,
    refined_causal_graph,
    reversible_csar,
    sat_verifier_instance,
    scc_and_acyclicity,
    serialize_instance,
    to_unary,
    validate_plan,
    verify_representation,
)
from planrep.errors import CalibrationMismatchError
from planrep.model import step
from planrep.sat3 import clause_count, instance_from_index, is_satisfiable

from conftest import PAPER_GRAY_16, PAPER_RULER_16, small_corpus


@contextmanager
def criterion(number: int, description: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{description}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
        )
    print(f"criterion {number:2d} [{description}]: PASS ({elapsed:.2f}s)")


def test_criterion_01_optimal_plan_counts():
    with criterion(1, "choice-family optimal plan counts", 10.0):
        expected = {1: 2, 2: 8, 3: 128, 4: 32768}
        for n, count in expected.items():
            assert count_optimal_plans(indexed_plans_instance(n)) == count


def test_criterion_02_counter_fidelity():
    with criterion(2, "counter reference sequences", 1.0):
        binary = counter_instance(CounterSpec(5, 16, "binary"))
        assert bfs_solve(binary).plan == PAPER_RULER_16
        gray = counter_instance(CounterSpec(5, 16, "gray"))
        assert validate_plan(gray, PAPER_GRAY_16).valid
        assert bfs_solve(gray).optimal_length == 16


def test_criterion_03_triple_oracle_agreement():
    with criterion(3, "closed form = grammar = simulation", 5.0):
        for n in range(1, 11):
            inst = counter_instance(CounterSpec(n, (1 << n) - 1, "binary"))
            simulated = bfs_solve(inst).plan
            assert simulated is not None and len(simulated) == (1 << n) - 1
            rep = counter_crar(n)
            grammar = counter_macro(n)
            assert rep.length == len(simulated)
            for i, action in enumerate(simulated, start=1):
                assert rep.access(i) == action
                assert macro_access(grammar, i) == action


def test_criterion_04_first_action_sweep():
    with criterion(4, "verifier stream validates, first action = verdict", 30.0):
        passed = 0
        for i in range(256):
            inst = sat_verifier_instance(3, i)
            advice = compute_advice(3, i)
            plan = list(c16_csar(3, i, advice))
            sat, _ = is_satisfiable(instance_from_index(3, i))
            assert validate_plan(inst, plan).valid
            assert (plan[0] == "acs") == sat and (plan[0] == "acu") == (not sat)
            passed += 1
        assert passed == 256


def test_criterion_05_verdict_position_law():
    with criterion(5, "sweep length and verdict positions", 60.0):
        try:
            constants = block_constants(3)
        except CalibrationMismatchError as exc:  # must not fire
            raise AssertionError(f"calibration mismatch: {exc}") from exc
        assert (constants.offset, constants.stride) == (90, 91)
        from planrep import c26_csar

        plan = list(c26_csar(3))
        assert len(plan) == 23296
        for i in range(256):
            sat, _ = is_satisfiable(instance_from_index(3, i))
            action = plan[constants.stride * i + constants.offset - 1]
            assert action == ("ais" if sat else "aiu"), f"subset {i}"


def test_criterion_06_random_access_equals_stream():
    with criterion(6, "verifier random access = stream, pointwise", 60.0):
        for i in range(256):
            advice = compute_advice(3, i)
            streamed = list(c16_csar(3, i, advice))
            rep = c16_crar(3, i, advice)
            assert rep.length == len(streamed)
            for k, action in enumerate(streamed, start=1):
                assert rep.access(k) == action, (i, k)


def test_criterion_07_adapter_reproduces_streams():
    with criterion(7, "counter-driven adapter over every built-in random access"):
        for n in range(1, 7):
            source = counter_crar(n)
            assert list(crar_to_csar(source)) == [
                source.access(i) for i in range(1, source.length + 1)
            ]
            grammar_source = grammar_crar(counter_macro(n))
            assert list(crar_to_csar(grammar_source)) == expand(counter_macro(n))
        for i in (0, 1, 5, 128, 254, 255):
            advice = compute_advice(3, i)
            assert list(crar_to_csar(c16_crar(3, i, advice))) == list(
                c16_csar(3, i, advice)
            )


def test_criterion_08_stutter_paced_generator():
    with criterion(8, "reversible generator: valid, paired, optimal core", 10.0):
        for n in range(1, 5):
            target = (1 << n) - 1
            inst = counter_instance(CounterSpec(n, target, "gray"))
            rep = reversible_csar(inst, delay_budget=1)
            output = list(rep)
            kinds = rep.emission_kinds
            assert verify_representation(
                inst, reversible_csar(inst, delay_budget=1)
            ).is_valid
            # stutter emissions come in adjacent inverse pairs returning
            # to the pre-pair state; the rest is the core
            state = inst.init
            core = []
            i = 0
            while i < len(output):
                if kinds[i] == "stutter":
                    assert kinds[i + 1] == "stutter"
                    middle = step(state, inst.action(output[i]))
                    assert step(middle, inst.action(output[i + 1])) == state
                    i += 2
                else:
                    core.append(output[i])
                    state = step(state, inst.action(output[i]))
                    i += 1
            assert len(core) == bfs_solve(inst).optimal_length


def test_criterion_09_unary_reduction_corpus():
    with criterion(9, "unary reduction: solvability preserved, unary output"):
        for name, inst in small_corpus():
            unary = to_unary(inst)
            assert is_unary(unary), name
            assert (bfs_solve(inst).plan is None) == (bfs_solve(unary).plan is None), name


def test_criterion_10_grammar_properties():
    with criterion(10, "grammar round-trip, sizes, depth, measured compactness"):
        rng = random.Random(424242)
        alphabet = ["a1", "a2", "a3", "b1", "b2", "load", "store"]
        for _ in range(200):
            plan = [rng.choice(alphabet) for _ in range(rng.randint(1, 80))]
            assert expand(induce_grammar(plan)) == plan
        for n in (1, 2, 5, 10):
            assert counter_macro(n).symbol_count() == 3 * n - 2
        grammar = counter_macro(9)
        height = grammar.height()
        for i in (1, 2, 100, 511):
            stats: dict = {}
            macro_access(grammar, i, stats=stats)
            assert stats["descent_depth"] <= height
        stream_stats: dict = {}
        from planrep.grammar import iter_expansion

        list(iter_expansion(grammar, stats=stream_stats))
        assert stream_stats["max_stack_depth"] <= height
        for n in range(1, 7):
            counter_bits = 8 * len(
                serialize_instance(counter_instance(CounterSpec(n, (1 << n) - 1, "binary")))
            )
            assert counter_crar(n).meta.serialized_bits <= 64 * counter_bits
            assert macro_stream(counter_macro(n)).meta.serialized_bits <= 64 * counter_bits
            sweep_bits = 8 * len(serialize_instance(all_instances_instance(n)))
            from planrep import c26_csar

            assert c26_csar(n).meta.serialized_bits <= 64 * sweep_bits
            for i in [0] if n < 3 else [0, (1 << clause_count(n)) - 1]:
                verifier_bits = 8 * len(serialize_instance(sat_verifier_instance(n, i)))
                advice = compute_advice(n, i)
                assert c16_csar(n, i, advice).meta.serialized_bits <= 64 * verifier_bits
                assert c16_crar(n, i, advice).meta.serialized_bits <= 64 * verifier_bits


def test_criterion_11_dependency_graph_structure():
    with criterion(11, "dependency-graph shape across n in 3..6"):
        for n in range(3, 7):
            binary = counter_instance(CounterSpec(n, 0, "binary"))
            components, acyclic = scc_and_acyclicity(causal_graph(binary))
            assert components == (tuple(range(n)),) and not acyclic
            gray = counter_instance(CounterSpec(n, 0, "gray"))
            assert scc_and_acyclicity(causal_graph(gray))[1]
            verifier_components, _ = scc_and_acyclicity(
                causal_graph(sat_verifier_instance(n, 0))
            )
            assert max(len(c) for c in verifier_components) > 1
            for inst in (binary, gray):
                assert scc_and_acyclicity(refined_causal_graph(inst))[1]
