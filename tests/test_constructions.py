"""Instance generators: counters, the choice-counter family and its plan
bijection, both verifier families, block constants, and the unary
reduction."""

from __future__ import annotations

import functools
import operator

import pytest

from planrep import (
    CounterSpec,
    all_instances_instance,
    bfs_solve,
    block_constants,
    choice_bits_from_plan,
    counter_instance,
    count_optimal_plans,
    gray_code,
    indexed_plans_instance,
    is_deterministic,
    is_unary,
    plan_from_choice_bits,
    sat_verifier_instance,
    to_unary,
    validate_plan,
)
from planrep import constructions, sat3
from planrep.constructions import simulate_unique_plan
from planrep.errors import (
    BadLengthError,
    CalibrationMismatchError,
    IndexOutOfRangeError,
    InvalidPlanError,
    StuckError,
    TargetTooLargeError,
)
from planrep.model import LiteralSet, StripsAction, StripsInstance, satisfies
from planrep.sat3 import instance_from_index, is_satisfiable

from conftest import PAPER_GRAY_16, PAPER_RULER_16, enumerate_plans_of_length, plan_states


class TestCounters:
    def test_binary_unique_optimal_plan_is_the_ruler_sequence(self):
        inst = counter_instance(CounterSpec(5, 16, "binary"))
        assert bfs_solve(inst).plan == PAPER_RULER_16

    def test_gray_reference_sequence_validates_and_is_optimal(self):
        inst = counter_instance(CounterSpec(5, 16, "gray"))
        assert validate_plan(inst, PAPER_GRAY_16).valid
        assert bfs_solve(inst).optimal_length == 16

    def test_single_bit(self):
        inst = counter_instance(CounterSpec(1, 1, "binary"))
        assert bfs_solve(inst).plan == ["a1"]

    def test_goal_pins_every_bit(self):
        inst = counter_instance(CounterSpec(4, 6, "binary"))
        assert inst.goal.atoms == inst.full_mask
        gray = counter_instance(CounterSpec(4, 6, "gray"))
        assert gray.goal.pos == gray_code(6)

    def test_target_too_large(self):
        with pytest.raises(TargetTooLargeError):
            CounterSpec(3, 8, "binary")

    def test_binary_has_unique_applicable_action_everywhere(self):
        assert is_deterministic(counter_instance(CounterSpec(4, 11, "binary")))
        # counting to all-ones: exactly one enabled action per non-goal state
        from planrep.model import action_applicable

        inst = counter_instance(CounterSpec(4, 15, "binary"))
        for s in range(16):
            enabled = sum(action_applicable(s, a) for a in inst.actions)
            assert enabled == (0 if satisfies(s, inst.goal) else 1)

    def test_gray_simulation_counts_in_gray_code(self):
        inst = counter_instance(CounterSpec(3, 7, "gray"))
        plan = bfs_solve(inst).plan
        assert validate_plan(inst, plan).valid
        assert plan_states(inst, plan) == [gray_code(v) for v in range(8)]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CounterSpec(0, 0), "counter needs at least one bit"),
        (lambda: CounterSpec(2, 0, "unary"), "unknown encoding: unary"),
        (lambda: indexed_plans_instance(0), "need at least one counter bit"),
        (lambda: plan_from_choice_bits(2, "012"), "choice bits must be 0/1, got '2'"),
        (lambda: plan_from_choice_bits(0, ""), "need at least one counter bit"),
        (lambda: plan_from_choice_bits(-1, ""), "need at least one counter bit"),
        (lambda: choice_bits_from_plan(-1, []), "need at least one counter bit"),
        (lambda: all_instances_instance(0), "need at least one variable"),
    ],
    ids=[
        "counter-bits", "encoding", "indexed-bits", "choice-bit", "choice-bits-zero",
        "choice-bits-negative", "choice-plan-negative", "allinst-variables",
    ],
)
def test_bad_parameters_refused(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


class TestIndexedPlans:
    def test_every_plan_has_the_same_length(self):
        # no plans at any other length up to a slack bound
        for length in range(6):
            plans = enumerate_plans_of_length(indexed_plans_instance(2), length)
            assert bool(plans) == (length == 3)

    def test_optimal_plan_counts(self):
        assert count_optimal_plans(indexed_plans_instance(1)) == 2
        assert count_optimal_plans(indexed_plans_instance(2)) == 8

    def test_bijection_corners(self):
        assert plan_from_choice_bits(2, "000") == ["a1", "a2", "a1"]
        assert plan_from_choice_bits(2, "111") == ["b1", "b2", "b1"]

    def test_bijection_round_trip_exhaustive(self):
        for i in range(8):
            bits = format(i, "03b")
            plan = plan_from_choice_bits(2, bits)
            assert validate_plan(indexed_plans_instance(2), plan).valid
            assert choice_bits_from_plan(2, plan) == bits

    def test_bad_length(self):
        with pytest.raises(BadLengthError):
            plan_from_choice_bits(2, "0000")

    def test_invalid_plan_rejected(self):
        with pytest.raises(InvalidPlanError):
            choice_bits_from_plan(2, ["a1", "a1", "a2"])
        with pytest.raises(InvalidPlanError):
            choice_bits_from_plan(2, ["a1"])

    def test_undeclared_action_is_an_invalid_plan(self):
        with pytest.raises(InvalidPlanError, match="step 2"):
            choice_bits_from_plan(2, ["a1", "nope", "a1"])


class TestSatVerifier:
    def test_empty_subset_plan_shape(self):
        inst = sat_verifier_instance(3, 0)
        plan = ["acs", "avt_0"] + [f"avt_{j}_0" for j in range(1, 9)] + ["ags"]
        assert len(plan) == 11
        assert validate_plan(inst, plan).valid

    def test_full_subset_unsat_plan_shape(self):
        inst = sat_verifier_instance(3, 255)
        # alternating falsified-witness / increment form, h = 2^n - 1
        plan = ["acu"]
        for value in range(8):
            # assignment value falsifies exactly the clause matching its bits
            plan.append(f"avf_{value + 1}")
            if value < 7:
                nxt = value + 1
                plan.append(f"aix_{(nxt & -nxt).bit_length()}")
        plan.append("agu")
        assert len(plan) == 17
        assert validate_plan(inst, plan).valid

    def test_commit_actions_block_each_other(self):
        inst = sat_verifier_instance(3, 0)
        state = inst.init
        from planrep.model import action_applicable, apply_update

        after_acs = apply_update(state, inst.action("acs").post)
        assert not action_applicable(after_acs, inst.action("acu"))

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            sat_verifier_instance(3, 256)

    def test_degenerate_widths_have_single_trivial_subset(self):
        for n in (1, 2):
            inst = sat_verifier_instance(n, 0)
            plan = ["acs", "avt_0", "ags"]
            assert validate_plan(inst, plan).valid


class TestAllInstances:
    def test_deterministic(self):
        assert is_deterministic(all_instances_instance(1))
        assert is_deterministic(all_instances_instance(3))

    def test_smallest_width_block_structure(self):
        plan = list(simulate_unique_plan(all_instances_instance(1)))
        assert len(plan) == 9
        assert plan[0] == "abi"
        assert plan[7] == "ais"  # the only embedded subset is satisfiable
        assert plan[8] == "ari"

    def test_block_constants_formula(self):
        assert block_constants(1) == block_constants(1).__class__(8, 9)
        assert (block_constants(3).offset, block_constants(3).stride) == (90, 91)
        # beyond the calibrated range the closed form is used directly
        c4 = block_constants(4, calibrate=False)
        assert c4.offset == (1 << 4) * (32 + 3) + 2 and c4.stride == c4.offset + 1

    def test_verdict_positions_match_oracle(self):
        constants = block_constants(3)
        plan = list(simulate_unique_plan(all_instances_instance(3)))
        assert len(plan) == 256 * constants.stride
        for i in (0, 1, 17, 128, 255):
            expected = "ais" if is_satisfiable(instance_from_index(3, i))[0] else "aiu"
            assert plan[constants.stride * i + constants.offset - 1] == expected

    def test_calibration_stops_after_the_second_verdict(self, monkeypatch):
        pulled = []

        def counting(p):
            for name in simulate_unique_plan(p):
                pulled.append(name)
                yield name

        monkeypatch.setattr(constructions, "simulate_unique_plan", counting)
        block_constants.cache_clear()
        try:
            constants = block_constants(3)
        finally:
            block_constants.cache_clear()
        assert len(pulled) == constants.offset + constants.stride == 181
        assert pulled[-1] in ("ais", "aiu")

    def test_calibration_mismatch_raised(self, monkeypatch):
        m = sat3.clause_count(3)
        monkeypatch.setattr(sat3, "clause_count", lambda n: m + 1)
        block_constants.cache_clear()
        try:
            with pytest.raises(
                CalibrationMismatchError,
                match=r"^first verdict action at position 90, formula says 98$",
            ):
                block_constants(3)
        finally:
            block_constants.cache_clear()

    def test_calibration_spacing_mismatch_raised(self, monkeypatch):
        def padded(p):
            # one extra action after the first verdict shifts the second
            for name in simulate_unique_plan(p):
                yield name
                if name in ("ais", "aiu"):
                    yield "pad"

        monkeypatch.setattr(constructions, "simulate_unique_plan", padded)
        with pytest.raises(
            CalibrationMismatchError, match=r"^verdict spacing 92, formula says 91$"
        ):
            block_constants.__wrapped__(3, True)

    def test_simulation_raises_when_stuck(self):
        dead = StripsInstance(
            ["x1"], [], 0, LiteralSet(pos=1)
        )
        with pytest.raises(StuckError):
            list(simulate_unique_plan(dead))

    def test_simulation_rejects_nondeterminism(self):
        with pytest.raises(ValueError):
            list(simulate_unique_plan(indexed_plans_instance(2)))


class TestToUnary:
    def test_action_counts(self):
        two_post = StripsInstance(
            ["p", "q"],
            [StripsAction("mk", LiteralSet(), LiteralSet(pos=0b11))],
            0,
            LiteralSet(pos=0b11),
        )
        assert len(to_unary(two_post).actions) == 4  # begin, two setters, end
        counter = counter_instance(CounterSpec(2, 3, "binary"))
        assert len(to_unary(counter).actions) == 7  # 3 for a1, 4 for a2

    def test_solvability_preserved_both_ways(self, corpus):
        for name, inst in corpus:
            unary = to_unary(inst)
            assert is_unary(unary), name
            assert (bfs_solve(inst).plan is None) == (bfs_solve(unary).plan is None), name

    def test_goal_releases_every_lock(self):
        inst = counter_instance(CounterSpec(2, 3, "binary"))
        unary = to_unary(inst)
        result = bfs_solve(unary)
        final = result.plan and plan_states(unary, result.plan)[-1]
        lock_mask = unary.state("lock_a1", "lock_a2")
        assert unary.goal.neg & lock_mask == lock_mask  # goal pins locks free
        assert final is not None and final & lock_mask == 0
        assert satisfies(final, unary.goal)

    def test_names_joined_by_one_underscore_unless_that_collides(self, corpus):
        for name, inst in corpus:
            unary = to_unary(inst)
            assert list(unary.atoms[len(inst.atoms):]) == [f"lock_{a.name}" for a in inst.actions], name
            assert unary.actions[0].name == f"{inst.actions[0].name}_begin", name
            # no input name holds "__", so a longer joint would show in every action
            assert not any("__" in a.name for a in unary.actions), name

    @pytest.mark.parametrize(
        "atoms, posts, joined",
        [
            # a's setter of x_end would be a_set_x_end, the end of a_set_x
            (["x", "x_end"], {"a": 0b10, "a_set_x": 0b01}, ["a__begin", "a__set_x_end", "a__end"]),
            # a's lock would be the input atom lock_a
            (["x", "lock_a"], {"a": 0b01}, ["a__begin", "a__set_x", "a__end"]),
        ],
        ids=["setter-is-an-end", "lock-is-an-input-atom"],
    )
    def test_colliding_names_get_a_longer_joint(self, atoms, posts, joined):
        actions = [StripsAction(name, LiteralSet(), LiteralSet(pos=post)) for name, post in posts.items()]
        goal = LiteralSet(pos=functools.reduce(operator.or_, posts.values()))
        inst = StripsInstance(atoms, actions, 0, goal)
        unary = to_unary(inst)
        assert is_unary(unary)
        assert [a.name for a in unary.actions[:3]] == joined
        assert list(unary.atoms[len(atoms):]) == [f"lock__{name}" for name in posts]
        plan = bfs_solve(unary).plan
        assert plan is not None and len(plan) == 3 * len(posts)
        assert bfs_solve(inst).optimal_length == len(posts)

    def test_unsolvable_stays_unsolvable(self):
        dead = StripsInstance(["x1"], [], 0, LiteralSet(pos=1))
        assert bfs_solve(to_unary(dead)).plan is None
