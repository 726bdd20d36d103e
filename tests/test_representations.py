"""Stream and indexed representations: counter closed form, recursive
grammar, verifier family with advice, deterministic sweep, the adapter,
the stutter-paced generator for reversible instances, and verification."""

from __future__ import annotations

import itertools
import random

import pytest

from planrep import (
    AdviceBits,
    CounterSpec,
    MacroGrammar,
    RepMeta,
    SequentialRep,
    Verdict,
    all_instances_instance,
    as_random_access,
    as_stream,
    bfs_solve,
    block_constants,
    c16_crar,
    c16_csar,
    c26_csar,
    compute_advice,
    counter_crar,
    counter_instance,
    counter_macro,
    crar_to_csar,
    deterministic_csar,
    grammar_crar,
    induce_grammar,
    macro_access,
    macro_lengths,
    macro_stream,
    parse_grammar,
    resolve_builtin,
    reversible_csar,
    sat_verifier_instance,
    serialize_grammar,
    serialize_instance,
    strips_to_ffp,
    truncate,
    validate_plan,
    verify_representation,
)
from planrep.errors import (
    IndexOutOfRangeError,
    NoFalsifiedClauseError,
    NotReversibleObservedError,
    StuckError,
)
from planrep.constructions import simulate_unique_plan
from planrep.model import LiteralSet, StripsAction, StripsInstance, step
from planrep.representations import _BUILTINS
from planrep.sat3 import clause_count, instance_from_index, is_satisfiable

from conftest import PAPER_RULER_16


def simulated_counter_plan(n):
    """Explicit simulation oracle: run the binary counter to all-ones."""
    inst = counter_instance(CounterSpec(n, (1 << n) - 1, "binary"))
    plan = bfs_solve(inst).plan
    assert plan is not None
    return plan


class TestCounterRepresentations:
    def test_closed_form_reference_positions(self):
        rep = counter_crar(5)
        assert rep.access(8) == "a4"
        assert rep.access(16) == "a5"
        assert rep.length == 31

    @pytest.mark.parametrize("n", range(1, 7))
    def test_triple_oracle_agreement(self, n):
        simulated = simulated_counter_plan(n)
        rep = counter_crar(n)
        grammar = counter_macro(n)
        assert rep.length == len(simulated)
        for i in range(1, len(simulated) + 1):
            assert rep.access(i) == simulated[i - 1]
            assert macro_access(grammar, i) == simulated[i - 1]

    def test_access_bounds(self):
        with pytest.raises(IndexOutOfRangeError):
            counter_crar(3).access(0)
        with pytest.raises(IndexOutOfRangeError):
            counter_crar(3).access(8)

    @pytest.mark.parametrize("build", [counter_crar, counter_macro])
    def test_no_counter_bits_refused(self, build):
        with pytest.raises(ValueError, match="^need at least one counter bit$"):
            build(0)

    def test_macro_symbol_count_is_linear(self):
        for n in (1, 2, 5, 10):
            assert counter_macro(n).symbol_count() == 3 * n - 2

    def test_macro_stream_paper_prefix(self):
        rep = macro_stream(counter_macro(5))
        assert rep.take(16) == PAPER_RULER_16
        assert rep.cursor == 16


class TestAdvice:
    def test_empty_subset(self):
        advice = compute_advice(3, 0)
        assert advice.sat and advice.assignment == 0

    def test_full_subset(self):
        assert not compute_advice(3, 255).sat

    def test_witness_is_smallest(self):
        assert compute_advice(3, 1) == AdviceBits(True, 0b001)


class TestVerifierRepresentations:
    def test_stream_lengths(self):
        assert len(list(c16_csar(3, 0, compute_advice(3, 0)))) == 11
        assert len(list(c16_csar(3, 255, compute_advice(3, 255)))) == 17

    def test_first_action_matches_verdict(self):
        for i in (0, 1, 37, 254, 255):
            advice = compute_advice(3, i)
            first = next(iter(c16_csar(3, i, advice)))
            assert (first == "acs") == advice.sat
            assert (first == "acu") == (not advice.sat)

    def test_streamed_plans_validate(self):
        for i in (0, 3, 128, 255):
            inst = sat_verifier_instance(3, i)
            plan = list(c16_csar(3, i, compute_advice(3, i)))
            assert validate_plan(inst, plan).valid

    def test_random_access_endpoints(self):
        advice = compute_advice(3, 255)
        rep = c16_crar(3, 255, advice)
        assert rep.access(1) == "acu"
        assert rep.access(17) == "agu"

    def test_random_access_equals_stream_for_all_subsets(self):
        # the flipped advice too: wrong sat advice gives one invalid plan
        # both ways, wrong unsat advice ends the stream where access fails
        for i in range(256):
            right = compute_advice(3, i)
            for advice in (right, AdviceBits(not right.sat, right.assignment)):
                rep = c16_crar(3, i, advice)
                accessed, error = [], None
                for k in range(1, rep.length + 1):
                    try:
                        accessed.append(rep.access(k))
                    except NoFalsifiedClauseError as exc:
                        error = exc
                        break
                assert (error is not None) == (advice is not right and not advice.sat)
                stream = c16_csar(3, i, advice)
                if error is None:
                    plan = list(stream)
                    assert rep.length == len(plan)
                    assert accessed == plan
                else:
                    assert stream.take(len(accessed)) == accessed
                    with pytest.raises(NoFalsifiedClauseError) as raised:
                        stream.next()
                    assert str(raised.value) == str(error)

    def test_costs_pinned_at_n3(self):
        # m + n per access; a stream emission adds 1 for its position counter
        declared = clause_count(3) + 3
        for i in (0, 255):  # satisfiable, unsatisfiable
            advice = compute_advice(3, i)
            stream, indexed = c16_csar(3, i, advice), c16_crar(3, i, advice)
            assert stream.meta.max_step_cost == indexed.meta.max_step_cost == 0
            indexed.access(2)
            assert indexed.meta.max_step_cost == declared
            stream.next()
            assert stream.meta.max_step_cost == declared + 1

    def test_wrong_unsat_advice_raises(self):
        # subset 0 is satisfiable: claiming unsat leaves nothing to falsify
        with pytest.raises(NoFalsifiedClauseError):
            list(c16_csar(3, 0, AdviceBits(False, 0)))

    def test_wrong_sat_advice_yields_detectably_invalid_plan(self):
        # subset 255 is unsatisfiable: any claimed assignment fails validation
        inst = sat_verifier_instance(3, 255)
        plan = list(c16_csar(3, 255, AdviceBits(True, 0)))
        assert not validate_plan(inst, plan).valid

    def test_degenerate_width(self):
        advice = compute_advice(1, 0)
        assert list(c16_csar(1, 0, advice)) == ["acs", "avt_0", "ags"]
        assert validate_plan(sat_verifier_instance(1, 0), ["acs", "avt_0", "ags"]).valid

    def test_no_variables_refused_before_any_advice_is_computed(self, monkeypatch):
        def brute_force(inst):
            raise AssertionError("advice brute-forced for n < 1")

        monkeypatch.setattr("planrep.sat3.is_satisfiable", brute_force)
        with pytest.raises(ValueError, match="^need at least one variable$"):
            compute_advice(0, 1)

    @pytest.mark.parametrize("build", [c16_csar, c16_crar])
    def test_no_variables_refused_as_the_instance_family_refuses(self, build):
        with pytest.raises(ValueError, match="^need at least one variable$"):
            sat_verifier_instance(0, 0)
        with pytest.raises(ValueError, match="^need at least one variable$"):
            build(0, 0, compute_advice(0, 0))


class TestDeterministicSweep:
    def test_first_emission(self):
        assert next(iter(c26_csar(3))) == "abi"

    def test_verdict_probe_positions(self):
        # blocks 0..255: at n=4, 144,127 actions, and block 255 is the
        # first unsatisfiable subset
        for n in (3, 4):
            constants = block_constants(n)
            plan = c26_csar(n).take(constants.stride * 255 + constants.offset)
            for i in range(256):
                sat, _ = is_satisfiable(instance_from_index(n, i))
                assert plan[constants.stride * i + constants.offset - 1] == ("ais" if sat else "aiu"), (n, i)

    def test_whole_sweep_solves_its_instance(self):
        inst = all_instances_instance(2)
        assert validate_plan(inst, list(c26_csar(2))).valid

    def test_the_functional_view_streams_the_same_sweep(self):
        inst = all_instances_instance(2)
        rep = deterministic_csar(strips_to_ffp(inst))
        assert list(rep) == list(c26_csar(2))
        assert rep.meta.max_step_cost == len(inst.actions)

    def test_stuck_on_dead_instance(self):
        dead = StripsInstance(["x1"], [], 0, LiteralSet(pos=1))
        with pytest.raises(StuckError):
            list(deterministic_csar(dead))

    def test_n4_prefix_equals_the_independent_simulation(self):
        prefix = 30000
        expected = list(itertools.islice(simulate_unique_plan(all_instances_instance(4)), prefix))
        assert c26_csar(4).take(prefix) == expected

    def test_charged_once_before_the_first_emission(self):
        rep = c26_csar(3)
        assert rep.meta.max_step_cost == 0
        assert rep.next() == "abi" and rep.meta.max_step_cost == len(all_instances_instance(3).actions) == 59
        assert len(rep.take(30000)) == 23295 and rep.meta.max_step_cost == 59

    @pytest.mark.parametrize(
        "read",
        [list, lambda rep: rep.take(3), lambda rep: rep.next(), lambda rep: list(rep.chunks())],
        ids=["iter", "take", "next", "chunks"],
    )
    def test_stuck_before_the_first_emission_stays_uncharged(self, read):
        # the only action needs x1, which is false at the initial state
        blocked = StripsAction("a", LiteralSet(pos=1), LiteralSet(neg=1))
        rep = deterministic_csar(StripsInstance(["x1"], [blocked], 0, LiteralSet(pos=1)))
        with pytest.raises(StuckError):
            read(rep)
        assert rep.cursor == 0 and rep.meta.max_step_cost == 0

    def test_goal_at_the_initial_state_stays_uncharged(self):
        noop = StripsAction("a", LiteralSet(), LiteralSet())
        rep = deterministic_csar(StripsInstance(["x1"], [noop], 1, LiteralSet(pos=1)))
        assert list(rep) == [] and rep.cursor == 0 and rep.meta.max_step_cost == 0

    def test_two_applicable_actions_named_in_declaration_order(self):
        # 10 atoms, so the kernel reads two state bytes; at the initial
        # state "b", "a" and "d" apply, "c" does not
        atoms = [f"x{i}" for i in range(10)]
        actions = [
            StripsAction("c", LiteralSet(pos=1 << 9), LiteralSet(neg=1 << 9)),
            StripsAction("b", LiteralSet(neg=1 << 9), LiteralSet(pos=1)),
            StripsAction("a", LiteralSet(neg=1 << 1), LiteralSet(pos=2)),
            StripsAction("d", LiteralSet(), LiteralSet(pos=4)),
        ]
        inst = StripsInstance(atoms, actions, 0, LiteralSet(pos=1 << 8))
        with pytest.raises(ValueError, match=r"^instance not deterministic: b and a both apply$"):
            list(deterministic_csar(inst))


class TestAdapter:
    def test_counter_stream_prefix(self):
        rep = crar_to_csar(counter_crar(5))
        assert rep.take(16) == PAPER_RULER_16

    def test_access_charged_before_it_is_handed_out(self):
        rep = crar_to_csar(counter_crar(5))
        assert rep.take(1) == ["a1"]
        assert rep.meta.max_step_cost == 2  # the access's 1, plus 1 for the counter

    def test_zero_length(self):
        source = counter_crar(1)
        assert list(crar_to_csar(source)) == ["a1"]
        empty = truncate(crar_to_csar(counter_crar(1)), 0)
        assert list(empty) == []
        from planrep import RandomAccessRep, RepMeta

        nothing = RandomAccessRep(0, lambda i: "x", RepMeta(8))
        assert list(crar_to_csar(nothing)) == []

    def test_truncate_pulls_nothing_past_the_bound(self):
        # the first emission of this stream raises: no action ever applies
        stuck = StripsInstance(["x1"], [], 0, LiteralSet(pos=1))
        with pytest.raises(StuckError):
            list(truncate(deterministic_csar(stuck), 1))
        assert list(truncate(deterministic_csar(stuck), 0)) == []
        assert list(truncate(deterministic_csar(stuck), -2)) == []

    @pytest.mark.parametrize("chunk, first_pull", [(4096, 10), (4, 4), (3, 3)])
    def test_truncate_reads_its_inner_rep_in_lists(self, monkeypatch, chunk, first_pull):
        from planrep import representations

        monkeypatch.setattr(representations, "_CHUNK", chunk)
        inner = c26_csar(3)
        rep = truncate(inner, 10)
        assert inner.cursor == 0
        assert rep.next() == "abi" and inner.cursor == first_pull
        assert len(rep.take(100)) == 9 and inner.cursor == 10
        assert rep.next() is None and list(rep) == [] and inner.cursor == 10
        assert rep.cursor == 10 and rep.meta.max_step_cost == 59

    def test_truncate_shares_its_inner_reps_work_records(self):
        inner = macro_stream(counter_macro(6))
        rep = truncate(inner, 10)
        assert list(rep) == PAPER_RULER_16[:10]
        assert rep.stats is inner.stats and rep.stats == {"max_stack_depth": 6}
        inner = reversible_csar(counter_instance(CounterSpec(3, 6, "gray")), delay_budget=2)
        rep = truncate(inner, 5)
        assert len(list(rep)) == 5
        assert rep.emission_kinds is inner.emission_kinds
        assert rep.emission_kinds == ["stutter", "stutter", "chosen", "stutter", "stutter"]

    def test_adapter_matches_stream_for_verifier_family(self):
        advice = compute_advice(3, 255)
        assert list(crar_to_csar(c16_crar(3, 255, advice))) == list(
            c16_csar(3, 255, advice)
        )

    def test_size_grows_only_by_the_counter(self):
        source = counter_crar(6)
        adapted = crar_to_csar(source)
        assert adapted.meta.serialized_bits <= source.meta.serialized_bits + 64


class TestReversible:
    def gray(self, n, target):
        return counter_instance(CounterSpec(n, target, "gray"))

    def test_core_is_optimal_after_stripping_stutters(self):
        inst = self.gray(2, 3)
        rep = reversible_csar(inst, delay_budget=1)
        out = list(rep)
        core = [a for a, kind in zip(out, rep.emission_kinds) if kind == "chosen"]
        assert len(core) == bfs_solve(inst).optimal_length == 3

    def test_output_is_a_valid_plan(self):
        for n, target in ((1, 1), (2, 3), (3, 5)):
            inst = self.gray(n, target)
            verdict = verify_representation(inst, reversible_csar(inst, 1))
            assert verdict.is_valid

    def test_stutter_pairs_are_adjacent_inverses(self):
        inst = self.gray(3, 6)
        rep = reversible_csar(inst, delay_budget=1)
        out = list(rep)
        kinds = rep.emission_kinds
        state = inst.init
        i = 0
        while i < len(out):
            if kinds[i] == "stutter":
                assert kinds[i + 1] == "stutter"
                u = step(state, inst.action(out[i]))
                assert step(u, inst.action(out[i + 1])) == state
                i += 2
            else:
                state = step(state, inst.action(out[i]))
                i += 1

    def test_goal_satisfied_initially_yields_empty_output(self):
        assert list(reversible_csar(self.gray(2, 0), 1)) == []

    def test_larger_delay_budget_emits_fewer_stutters(self):
        inst = self.gray(3, 7)
        eager = reversible_csar(inst, delay_budget=1)
        lazy = reversible_csar(inst, delay_budget=10)
        n_eager = sum(1 for k in zip(list(eager), eager.emission_kinds) if k[1] == "stutter")
        n_lazy = sum(1 for k in zip(list(lazy), lazy.emission_kinds) if k[1] == "stutter")
        assert n_lazy < n_eager

    def test_works_on_functional_view(self):
        inst = self.gray(2, 3)
        functional = reversible_csar(strips_to_ffp(inst), 1)
        assert list(functional) == list(reversible_csar(inst, 1))
        assert verify_representation(inst, reversible_csar(strips_to_ffp(inst), 1)).is_valid

    def test_delay_budget_below_one_refused(self):
        with pytest.raises(ValueError, match="^delay budget must be at least 1$"):
            reversible_csar(self.gray(2, 3), delay_budget=0)

    def test_unreachable_goal_refused(self):
        stuck = StripsInstance(["x1"], [], 0, LiteralSet(pos=1))
        with pytest.raises(ValueError, match="^goal unreachable"):
            list(reversible_csar(stuck, 1))

    def test_irreversible_instance_detected(self):
        with pytest.raises(NotReversibleObservedError):
            list(reversible_csar(counter_instance(CounterSpec(2, 3, "binary")), 1))


class TestVerifyRepresentation:
    def test_truncated_counter_stream_is_valid(self):
        inst = counter_instance(CounterSpec(5, 16, "binary"))
        rep = truncate(crar_to_csar(counter_crar(5)), 16)
        assert verify_representation(inst, rep).is_valid

    def test_full_counter_stream_overshoots(self):
        inst = counter_instance(CounterSpec(5, 16, "binary"))
        verdict = verify_representation(inst, crar_to_csar(counter_crar(5)))
        assert verdict.status == "invalid"

    def test_swapped_symbol_detected_at_step_two(self):
        inst = counter_instance(CounterSpec(5, 31, "binary"))
        grammar = counter_macro(5)
        tampered = {
            name: tuple("a3" if s == "a2" else s for s in exp)
            for name, exp in grammar.macros.items()
        }
        bad = MacroGrammar(list(tampered.items()), grammar.root)
        verdict = verify_representation(inst, macro_stream(bad))
        assert verdict.status == "invalid" and verdict.failure_step == 2

    def test_budget_exceeded(self):
        inst = counter_instance(CounterSpec(5, 16, "binary"))
        verdict = verify_representation(inst, crar_to_csar(counter_crar(5)), budget=1)
        assert verdict.status == "budget-exceeded"
        indexed = verify_representation(inst, counter_crar(5), budget=1)
        assert indexed.status == "budget-exceeded"

    def test_stream_budget_boundaries(self):
        inst = counter_instance(CounterSpec(4, 15, "binary"))  # plan length 15
        verdict = verify_representation(inst, crar_to_csar(counter_crar(4)), budget=15)
        assert verdict.is_valid and verdict.steps == 15
        rep = crar_to_csar(counter_crar(4))
        verdict = verify_representation(inst, rep, budget=14)
        assert (verdict.status, verdict.steps) == ("budget-exceeded", 14)
        assert rep.cursor == 15  # one name past the budget is read, no more
        for budget in (0, -1):
            verdict = verify_representation(inst, crar_to_csar(counter_crar(4)), budget=budget)
            assert (verdict.status, verdict.steps) == ("budget-exceeded", 0)
        # a goal miss at the budget is invalid at length + 1, not over budget
        short = truncate(crar_to_csar(counter_crar(4)), 14)
        verdict = verify_representation(inst, short, budget=14)
        assert (verdict.status, verdict.failure_step, verdict.steps) == ("invalid", 15, 14)

    @pytest.mark.parametrize("chunk", [1, 4, 7, 20])
    def test_stream_budget_over_several_chunks(self, monkeypatch, chunk):
        from planrep import representations

        monkeypatch.setattr(representations, "_CHUNK", chunk)
        inst = counter_instance(CounterSpec(6, 63, "binary"))  # plan length 63
        rep = crar_to_csar(counter_crar(6))
        verdict = verify_representation(inst, rep, budget=20)
        assert (verdict.status, verdict.steps, rep.cursor) == ("budget-exceeded", 20, 21)
        rep = crar_to_csar(counter_crar(6))
        verdict = verify_representation(inst, rep, budget=63)
        assert (verdict.status, verdict.steps, rep.cursor) == ("valid", 63, 63)

    @pytest.mark.parametrize("chunk, budget, pulled", [(8, None, 8), (8, 5, 6), (4096, None, 31), (4096, 20, 21)])
    def test_invalid_stream_source_work_past_the_failure(self, monkeypatch, chunk, budget, pulled):
        from planrep import representations

        monkeypatch.setattr(representations, "_CHUNK", chunk)
        inst = counter_instance(CounterSpec(5, 31, "binary"))
        plan = crar_to_csar(counter_crar(5)).take(31)
        plan[2] = "a3"  # step 3 does not apply
        meta = RepMeta(8)

        def source():
            for i, name in enumerate(plan, 1):
                meta.charge(i)  # the source's work grows with every action
                yield name

        rep = SequentialRep(source(), meta)
        verdict = verify_representation(inst, rep, budget=budget)
        assert (verdict.status, verdict.failure_step, verdict.steps) == ("invalid", 3, 3)
        # the whole list holding the failure was pulled, but never past budget + 1
        assert (rep.cursor, meta.max_step_cost) == (pulled, pulled)

    @pytest.mark.parametrize("budget", [2, 3, 31])
    def test_stream_failure_inside_the_budget(self, budget):
        inst = counter_instance(CounterSpec(5, 31, "binary"))
        # a2 renamed a3, so step 2 does not apply
        bad = MacroGrammar([("P", ("a1", "a3", "a1", "a3"))], "P")
        verdict = verify_representation(inst, macro_stream(bad), budget=budget)
        assert (verdict.status, verdict.failure_step, verdict.steps) == ("invalid", 2, 2)

    def test_random_access_budget_is_compared_up_front(self):
        inst = counter_instance(CounterSpec(4, 15, "binary"))
        assert verify_representation(inst, counter_crar(4), budget=15).is_valid
        verdict = verify_representation(inst, counter_crar(4), budget=14)
        assert (verdict.status, verdict.steps) == ("budget-exceeded", 0)

    def test_unknown_action_name_is_invalid_not_an_error(self):
        inst = counter_instance(CounterSpec(2, 3, "binary"))
        grammar_rep = macro_stream(counter_macro(3))  # a3 does not exist here
        verdict = verify_representation(inst, grammar_rep)
        assert verdict.status == "invalid"

    def test_random_access_verification(self):
        inst = counter_instance(CounterSpec(4, 15, "binary"))
        assert verify_representation(inst, counter_crar(4)).is_valid

    @pytest.mark.parametrize(
        "inst, build",
        [
            (counter_instance(CounterSpec(4, 15, "binary")), lambda: counter_crar(4)),  # valid
            (counter_instance(CounterSpec(5, 16, "binary")), lambda: counter_crar(5)),  # misses the goal
            (counter_instance(CounterSpec(4, 15, "gray")), lambda: counter_crar(4)),  # step 1 fails
            (sat_verifier_instance(3, 255), lambda: c16_crar(3, 255, compute_advice(3, 255))),
            (sat_verifier_instance(3, 255), lambda: c16_crar(3, 255, AdviceBits(True, 0))),
        ],
    )
    def test_random_access_verified_as_its_adapted_stream(self, inst, build):
        length = build().length
        for budget in (None, 0, length - 1, length, length + 1):
            rep = build()
            verdict = verify_representation(inst, rep, budget=budget)
            if budget is not None and budget < length:  # refused up front, before any access
                assert verdict == Verdict("budget-exceeded", steps=0) and rep.meta.max_step_cost == 0
            else:
                assert verdict == verify_representation(inst, crar_to_csar(build()), budget=budget)

    @pytest.mark.parametrize(
        "inst, grammar",
        [
            (counter_instance(CounterSpec(4, 15, "binary")), counter_macro(4)),  # valid
            (counter_instance(CounterSpec(5, 31, "binary")), induce_grammar(simulated_counter_plan(5))),
            # an undeclared name at step 1
            (
                counter_instance(CounterSpec(2, 3, "binary")),
                MacroGrammar([("Q", ("a1", "a2")), ("P", ("nope", "Q", "a1"))], "P"),
            ),
        ],
        ids=["counter_macro", "re-pair", "undeclared-at-step-1"],
    )
    def test_grammar_verified_as_its_random_access(self, inst, grammar):
        length = macro_lengths(grammar)[grammar.root]
        for budget in (None, 0, length - 1, length, length + 1):
            verdict = verify_representation(inst, grammar, budget=budget)
            assert verdict == verify_representation(inst, grammar_crar(grammar), budget=budget)
            if budget is None or budget >= length:
                assert verdict == verify_representation(inst, macro_stream(grammar), budget=budget)
            else:  # the length is known: refused before any action is executed
                assert verdict == Verdict("budget-exceeded", steps=0)

    @pytest.mark.parametrize("budget", [None, 17])
    def test_wrong_unsat_advice_raises_through_random_access(self, budget):
        # subset 0 is satisfiable: claiming unsat leaves nothing to falsify
        rep = c16_crar(3, 0, AdviceBits(False, 0))
        with pytest.raises(NoFalsifiedClauseError):
            verify_representation(sat_verifier_instance(3, 0), rep, budget=budget)


class TestBuiltinUris:
    @pytest.mark.parametrize(
        "uri, first",
        [
            ("builtin:counter-crar?n=5", "a1"),
            ("builtin:counter-macro?n=5", "a1"),
            ("builtin:c16-csar?n=3&i=255", "acu"),
            ("builtin:c16-crar?n=3&i=0", "acs"),
            ("builtin:c26-csar?n=1", "abi"),
        ],
    )
    def test_resolution(self, uri, first):
        rep = resolve_builtin(uri)
        if isinstance(rep, MacroGrammar):  # counter-macro names the grammar itself
            assert macro_access(rep, 1) == first
        elif hasattr(rep, "access"):
            assert rep.access(1) == first
        else:
            assert rep.take(1) == [first]

    @pytest.mark.parametrize(
        "uri, known",
        [
            ("builtin:counter-macro?n=5", True),
            ("builtin:counter-crar?n=5", True),
            ("builtin:c16-crar?n=3&i=255", True),
            ("builtin:c16-csar?n=3&i=255", False),
            ("builtin:c26-csar?n=2", False),
            ("builtin:reversible?file={gray}&k=2", False),
        ],
        ids=["counter-macro", "counter-crar", "c16-crar", "c16-csar", "c26-csar", "reversible"],
    )
    def test_as_stream_knows_the_length_of_what_reads_by_position(self, tmp_path, uri, known):
        gray = tmp_path / "gray.strips"
        gray.write_text(serialize_instance(counter_instance(CounterSpec(2, 3, "gray"))))
        rep = resolve_builtin(uri.format(gray=gray))
        stream, length = as_stream(rep)
        emitted = len(list(stream))
        assert length == (emitted if known else None)
        if known:
            assert as_random_access(rep).length == emitted
        else:
            with pytest.raises(ValueError, match="^representation has no random access; use 'stream'$"):
                as_random_access(rep)

    def test_as_stream_of_a_grammar_file(self, tmp_path):
        path = tmp_path / "plan.grammar"
        path.write_text(serialize_grammar(_repair_grammar()))
        grammar = parse_grammar(path.read_text())
        stream, length = as_stream(grammar)
        assert list(stream) == [as_random_access(grammar).access(i) for i in range(1, length + 1)]
        assert length == 300

    def test_reversible_uri(self, tmp_path):
        inst = counter_instance(CounterSpec(2, 3, "gray"))
        path = tmp_path / "gray.strips"
        path.write_text(serialize_instance(inst))
        rep = resolve_builtin(f"builtin:reversible?file={path}&k=2")
        assert verify_representation(inst, rep).is_valid

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            resolve_builtin("builtin:nope?n=1")
        with pytest.raises(ValueError):
            resolve_builtin("builtin:counter-crar")
        with pytest.raises(ValueError, match="^not a builtin representation URI"):
            resolve_builtin("counter-crar?n=5")
        with pytest.raises(ValueError, match="needs parameter file="):
            resolve_builtin("builtin:reversible?k=2")

    def test_counter_macro_is_the_grammar(self):
        g = resolve_builtin("builtin:counter-macro?n=4")
        assert (g.macros, g.root) == (counter_macro(4).macros, counter_macro(4).root)

    @pytest.mark.parametrize(
        "query, message",
        [
            ("n=5&n=3", "parameter 'n' given twice"),
            ("n=5&n=3&bogus=1", "parameter 'n' given twice"),
            ("n=5&bogus=1", "does not read parameter 'bogus'"),
            ("n=5&", "does not read parameter ''"),
        ],
    )
    def test_query_keys_read_once(self, query, message):
        with pytest.raises(ValueError, match=message):
            resolve_builtin(f"builtin:counter-crar?{query}")

    # each builtin's query and the direct build it must equal
    DIRECT = {
        "counter-crar": ("n=4", lambda gray: counter_crar(4)),
        "counter-macro": ("n=4", lambda gray: counter_macro(4)),
        "c16-csar": ("n=3&i=255", lambda gray: c16_csar(3, 255, compute_advice(3, 255))),
        "c16-crar": ("i=5&n=3", lambda gray: c16_crar(3, 5, compute_advice(3, 5))),
        "c26-csar": ("n=2", lambda gray: c26_csar(2)),
        "reversible": ("file={path}&k=2", lambda gray: reversible_csar(gray, delay_budget=2)),
    }

    @pytest.mark.parametrize("name", list(_BUILTINS))
    def test_each_entry_builds_what_its_builder_builds(self, tmp_path, name):
        gray = counter_instance(CounterSpec(3, 6, "gray"))
        path = tmp_path / "gray.strips"
        path.write_text(serialize_instance(gray))
        query, direct = self.DIRECT[name]
        got, want = resolve_builtin(f"builtin:{name}?{query.format(path=path)}"), direct(gray)
        assert type(got) is type(want)
        if isinstance(want, MacroGrammar):
            assert (got.macros, got.root) == (want.macros, want.root)
        elif isinstance(want, SequentialRep):
            assert list(got) == list(want) and got.emission_kinds == want.emission_kinds
        else:
            positions = range(1, want.length + 1)
            assert got.length == want.length
            assert list(map(got.access, positions)) == list(map(want.access, positions))
        assert getattr(got, "meta", None) == getattr(want, "meta", None)

    def test_unread_reversible_key_refused(self, tmp_path):
        # "K" is not "k": refused, not read as the default delay k=1
        path = tmp_path / "gray.strips"
        path.write_text(serialize_instance(counter_instance(CounterSpec(2, 3, "gray"))))
        with pytest.raises(ValueError, match="builtin reversible does not read parameter 'K'"):
            resolve_builtin(f"builtin:reversible?file={path}&K=3")


class TestMeasuredCompactness:
    def test_serialized_bits_within_linear_bound(self):
        # measured stand-in for the size criterion: each built-in
        # representation's parameter record stays within 64x the size of
        # the instance it represents
        for n in range(1, 7):
            inst_bits = 8 * len(
                serialize_instance(counter_instance(CounterSpec(n, (1 << n) - 1, "binary")))
            )
            assert counter_crar(n).meta.serialized_bits <= 64 * inst_bits
            assert macro_stream(counter_macro(n)).meta.serialized_bits <= 64 * inst_bits
            c26_bits = 8 * len(serialize_instance(all_instances_instance(n)))
            assert c26_csar(n).meta.serialized_bits <= 64 * c26_bits

    def test_verifier_family_bits(self):
        for n in range(1, 7):
            masks = [0] if n < 3 else [0, 255]
            for i in masks:
                inst_bits = 8 * len(serialize_instance(sat_verifier_instance(n, i)))
                advice = compute_advice(n, i)
                assert c16_csar(n, i, advice).meta.serialized_bits <= 64 * inst_bits
                assert c16_crar(n, i, advice).meta.serialized_bits <= 64 * inst_bits

    def test_access_updates_step_cost(self):
        rep = counter_crar(5)
        assert rep.meta.max_step_cost == 0
        rep.access(16)
        assert rep.meta.max_step_cost >= 1

    def test_stream_charges_its_first_emission(self):
        rep = macro_stream(counter_macro(3))
        assert rep.meta.max_step_cost == 0
        assert rep.next() == "a1" and rep.meta.max_step_cost == 1
        single = macro_stream(MacroGrammar([("P", ("a",))], "P"))
        assert single.take(2) == ["a"] and single.meta.max_step_cost == 1


class TestPullsGoThroughNext:
    """Iteration and ``take`` pull through the instance's ``next``, as a
    wrapper set on the instance (the benchmark's emission timer) needs."""

    def test_spy_on_next_sees_every_pull(self):
        rep = macro_stream(counter_macro(3))
        pull, seen = rep.next, []

        def spy():
            seen.append(pull())
            return seen[-1]

        rep.next = spy
        plan = ["a1", "a2", "a1", "a3", "a1", "a2", "a1"]
        assert rep.take(-1) == [] and rep.take(0) == [] and seen == []
        assert rep.take(2) == plan[:2] and seen == plan[:2] and rep.cursor == 2
        for name in rep:
            break
        assert name == plan[2] and seen == plan[:3] and rep.cursor == 3
        assert rep.take(2) == plan[3:5] and rep.cursor == 5
        assert list(rep) == plan[5:] and rep.cursor == 7
        assert seen == plan + [None]
        assert rep.next() is None and rep.next() is None and rep.take(3) == []
        assert rep.cursor == 7 and rep.meta.max_step_cost == 1


def _gray(n, target):
    return counter_instance(CounterSpec(n, target, "gray"))


def _repair_grammar():
    rng = random.Random(16)
    return induce_grammar([rng.choice("abc") for _ in range(300)])


# every builder of a sequential rep; truncate cuts c26 n=3 (23296 actions)
SEQUENTIAL_BUILDERS = {
    "macro_stream counter": lambda: macro_stream(counter_macro(6)),
    "macro_stream re-pair": lambda: macro_stream(_repair_grammar()),
    "c16 sat": lambda: c16_csar(3, 5, compute_advice(3, 5)),
    "c16 unsat": lambda: c16_csar(3, 255, compute_advice(3, 255)),
    "c26 n=3": lambda: c26_csar(3),
    "crar_to_csar": lambda: crar_to_csar(counter_crar(6)),
    "reversible": lambda: reversible_csar(_gray(3, 6), delay_budget=2),
    "truncate": lambda: truncate(c26_csar(3), 1000),
    "first_charge": lambda: SequentialRep(iter("abcde"), RepMeta(8), first_charge=5),
}


def _read_whole(rep):
    return list(rep)


def _read_in_uneven_pieces(rep):
    out = []
    for k in itertools.cycle((0, 1, 7, -1, 3, 50)):
        piece = rep.take(k)
        assert rep.cursor == len(out) + len(piece)
        out += piece
        if len(piece) < k:
            return out


def _read_with_breaks(rep):
    out = []
    for stop in (1, 2, 5, 40):
        for name in rep:
            out.append(name)
            assert rep.cursor == len(out)
            if len(out) >= stop:
                break
        assert rep.cursor == len(out)
    return out + list(rep)


def _read_in_chunks(rep):
    from planrep import representations

    out = []
    # limits 0, 1 and negative, sizes that do not divide their limit, a
    # read abandoned after its first list, then the rest without a limit
    for size, limit in ((1, 0), (3, -1), (1, 1), (5, 1), (4, 10), (7, 3), (3, None), (6, None)):
        before = len(out)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(representations, "_CHUNK", size)
            for chunk in rep.chunks(limit):
                assert 0 < len(chunk) <= size
                out += chunk
                assert rep.cursor == len(out)
                if (size, limit) == (3, None):
                    break
        assert limit is None or len(out) - before <= max(limit, 0)
    return out


def _spy_on_next(rep):
    """Wrap the instance's ``next``; the returned list records every pull."""
    pull, seen = rep.next, []

    def spy():
        seen.append(pull())
        return seen[-1]

    rep.next = spy
    return seen


def _read_through_a_spy(rep):
    seen = _spy_on_next(rep)
    out = rep.take(3)
    for name in rep:
        out.append(name)
        break
    out += list(rep)
    assert seen == out + [None]
    return out


def _read_in_chunks_through_a_spy(rep):
    seen = _spy_on_next(rep)
    out = _read_in_chunks(rep)
    # every read after the end pulls once more and sees the end
    assert seen[: len(out)] == out and set(seen[len(out):]) == {None}
    return out


class TestBulkPulls:
    """Without a wrapper on the instance, ``take`` and ``chunks`` pull
    from the source in bulk; every way of reading gives the same actions,
    cursor and charge as pulling through ``next``."""

    @pytest.mark.parametrize("build", SEQUENTIAL_BUILDERS.values(), ids=SEQUENTIAL_BUILDERS.keys())
    def test_every_read_agrees(self, build):
        readings = []
        for read in (
            _read_whole,
            _read_in_uneven_pieces,
            _read_with_breaks,
            _read_in_chunks,
            _read_through_a_spy,
            _read_in_chunks_through_a_spy,
        ):
            rep = build()
            actions = read(rep)
            readings.append((actions, rep.cursor, rep.meta.max_step_cost, rep.stats, rep.emission_kinds))
            assert rep.cursor == len(actions) > 0
            assert rep.take(5) == [] and list(rep) == [] and rep.next() is None
            assert rep.cursor == len(actions)
        assert all(reading == readings[0] for reading in readings)

    def test_source_error_leaves_cursor_at_the_actions_delivered(self):
        # subset 254 is satisfiable: the unsat branch has nothing to
        # falsify at the second position
        chunks = []
        for read in (
            lambda rep: rep.take(100),
            list,
            lambda rep: [rep.take(1), rep.take(3)],
            lambda rep: chunks.extend(rep.chunks()),
        ):
            rep = c16_csar(3, 254, AdviceBits(False))
            with pytest.raises(NoFalsifiedClauseError):
                read(rep)
            assert rep.cursor == 1 and rep.meta.max_step_cost == clause_count(3) + 3 + 1
        assert chunks == [["acu"]]  # the action before the error, then the error

    def test_error_after_several_actions(self):
        def source():
            yield from "abc"
            raise RuntimeError("source failed")

        rep = SequentialRep(source(), RepMeta(8))
        got = []
        with pytest.raises(RuntimeError):
            for name in rep:
                got.append(name)
        assert got == ["a", "b", "c"] and rep.cursor == 3 and rep.meta.max_step_cost == 1
        rep = SequentialRep(source(), RepMeta(8))
        assert rep.take(2) == ["a", "b"]
        with pytest.raises(RuntimeError):
            rep.take(5)
        assert rep.cursor == 3 and rep.meta.max_step_cost == 1

    def test_first_charge_before_the_consumer_has_the_action(self):
        rep = SequentialRep(iter("ab"), RepMeta(8))
        for name in rep:
            assert (name, rep.cursor, rep.meta.max_step_cost) == ("a", 1, 1)
            break

    @pytest.mark.parametrize(
        "read",
        [
            _read_whole,
            _read_in_uneven_pieces,
            _read_with_breaks,
            _read_in_chunks,
            _read_through_a_spy,
            _read_in_chunks_through_a_spy,
            lambda rep: [rep.next()],
        ],
        ids=["whole", "uneven", "breaks", "chunks", "spy", "chunks-spy", "next"],
    )
    def test_declared_first_charge(self, read):
        rep = SequentialRep(iter("abcde"), RepMeta(8), first_charge=5)
        assert rep.meta.max_step_cost == 0
        assert read(rep)[0] == "a" and rep.meta.max_step_cost == 5
