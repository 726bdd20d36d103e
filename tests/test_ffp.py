"""Functional view: the STRIPS adapter's semantic agreement and the
determinism and reversibility checks."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import assume, example, given, strategies as st

from planrep import (
    CounterSpec,
    FfpAction,
    FfpInstance,
    all_instances_instance,
    counter_instance,
    deterministic_csar,
    indexed_plans_instance,
    induce_grammar,
    is_deterministic,
    is_reversible,
    macro_stream,
    strips_to_ffp,
    verify_representation,
)
from planrep.errors import ExplorationCapExceededError, NotApplicableError, StuckError, UnknownActionError
from planrep.ffp import ground_view
from planrep.model import (
    LiteralSet,
    StripsAction,
    StripsInstance,
    action_applicable,
    apply_update,
    satisfies,
    step,
    validate_plan,
)

from conftest import random_instance, reachable_states


def as_tuple(mask, n):
    return tuple((mask >> i) & 1 for i in range(n))


@pytest.mark.parametrize(
    "instance",
    [
        counter_instance(CounterSpec(3, 5, "binary")),
        counter_instance(CounterSpec(4, 9, "gray")),
        indexed_plans_instance(2),
    ],
    ids=["binary-3", "gray-4", "indexed-2"],
)
def test_strips_to_ffp_agrees_on_every_state(instance):
    functional = strips_to_ffp(instance)
    n = instance.n_atoms
    assert functional.init == as_tuple(instance.init, n)
    for mask in range(1 << n):
        state = as_tuple(mask, n)
        assert functional.goal(state) == satisfies(mask, instance.goal)
        for strips_action, ffp_action in zip(instance.actions, functional.actions):
            applicable = action_applicable(mask, strips_action)
            assert ffp_action.pre(state) == applicable
            if applicable:
                successor = apply_update(mask, strips_action.post)
                assert ffp_action.post(state) == as_tuple(successor, n)


def test_strips_to_ffp_shape():
    functional = strips_to_ffp(counter_instance(CounterSpec(2, 3, "binary")))
    assert functional.variables == (("x1", 2), ("x2", 2))


def test_strips_to_ffp_agrees_on_sampled_corpus_states(corpus):
    import random

    rng = random.Random(5)
    for name, inst in corpus:
        if inst.n_atoms > 16:
            continue
        functional = strips_to_ffp(inst)
        strips_kernel = ground_view(inst)
        ffp_kernel = ground_view(functional)
        n = inst.n_atoms
        samples = {inst.init} | {rng.getrandbits(n) for _ in range(64)}
        for mask in samples:
            state = as_tuple(mask, n)
            assert functional.goal(state) == satisfies(mask, inst.goal), name
            expected = []
            for strips_action, ffp_action in zip(inst.actions, functional.actions):
                applicable = action_applicable(mask, strips_action)
                assert ffp_action.pre(state) == applicable, name
                if applicable:
                    successor = apply_update(mask, strips_action.post)
                    assert ffp_action.post(state) == as_tuple(successor, n), name
                    expected.append((strips_action.name, successor))
            assert strips_kernel.successors(mask) == expected, name
            assert ffp_kernel.successors(state) == [(a, as_tuple(t, n)) for a, t in expected], name


def _successors_by_definition(inst, s):
    return [
        (a.name, apply_update(s, a.post)) for a in inst.actions if action_applicable(s, a)
    ]


@st.composite
def strips_frames(draw):
    """A random frame of 0-40 atoms (byte edges weighted in), or of 63,
    64, 65 or 80 atoms (8-10 state bytes), 0-12 actions and a goal with
    sparse literal sets, plus in-frame states; most states are forced to
    meet some actions' preconditions, so that often two or more actions
    apply."""
    n = draw(
        st.one_of(
            st.sampled_from([0, 7, 8, 9, 16, 17, 63, 64, 65, 80]), st.integers(0, 40)
        )
    )

    def literal_set():
        pos = neg = 0
        if n:
            for i in draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True)):
                if draw(st.booleans()):
                    pos |= 1 << i
                else:
                    neg |= 1 << i
        return LiteralSet(pos, neg)

    actions = [
        StripsAction(f"op{k}", literal_set(), literal_set())
        for k in range(draw(st.integers(0, 12)))
    ]
    inst = StripsInstance([f"p{i}" for i in range(n)], actions, 0, literal_set())
    states = []
    for _ in range(draw(st.integers(1, 6))):
        s = draw(st.integers(0, inst.full_mask))
        if actions:
            for k in draw(st.lists(st.integers(0, len(actions) - 1), max_size=3)):
                s = apply_update(s, actions[k].pre)
        states.append(s)
    return inst, states


class TestByteSlicedKernel:
    @given(strips_frames())
    def test_successors_match_ground_semantics(self, frame):
        inst, states = frame
        kernel = ground_view(inst)
        for s in states:
            assert kernel.successors(s) == _successors_by_definition(inst, s)

    def test_several_actions_apply_in_the_last_partial_byte(self):
        # 17 atoms: three bytes, the last holding only p16
        atoms = [f"p{i}" for i in range(17)]
        actions = [
            StripsAction("z", LiteralSet(pos=1 << 16), LiteralSet(neg=1 << 16)),
            StripsAction("y", LiteralSet(neg=1 << 16), LiteralSet(pos=1)),
            StripsAction("x", LiteralSet(pos=(1 << 16) | (1 << 8)), LiteralSet(neg=1 << 8)),
            StripsAction("w", LiteralSet(), LiteralSet(pos=1 << 7)),
            StripsAction("v", LiteralSet(pos=1 << 3, neg=1 << 9), LiteralSet()),
        ]
        inst = StripsInstance(atoms, actions, 0, LiteralSet())
        kernel = ground_view(inst)
        for s in range(0, inst.full_mask + 1, 37):
            assert kernel.successors(s) == _successors_by_definition(inst, s)
        s = (1 << 16) | (1 << 8) | (1 << 3)
        assert [name for name, _ in kernel.successors(s)] == ["z", "x", "w", "v"]


@st.composite
def plans_on_frames(draw):
    """An instance of :func:`strips_frames`, sometimes moved to one of its
    states by ``with_init``, and a plan of 0-12 names: mostly an action
    applicable where the plan has got to, sometimes any action, sometimes
    an unknown name (``unknown<position>``)."""
    inst, states = draw(strips_frames())
    if draw(st.booleans()):
        moved = inst.with_init(draw(st.sampled_from(states)))
        assert moved.step_table is inst.step_table
        inst = moved
    s, plan = inst.init, []
    for pos in range(1, draw(st.integers(0, 12)) + 1):
        applicable = [a for a in inst.actions if action_applicable(s, a)]
        pick = draw(st.sampled_from(["applicable"] * 6 + ["any"] * 3 + ["unknown"]))
        if pick == "applicable" and applicable:
            a = draw(st.sampled_from(applicable))
        elif pick == "any" and inst.actions:
            a = draw(st.sampled_from(inst.actions))
        else:
            plan.append(f"unknown{pos}")
            continue
        plan.append(a.name)
        if action_applicable(s, a):
            s = apply_update(s, a.post)
    return inst, plan


def _trace_by_steps(inst, plan):
    """(valid, failure_step, steps) of ``plan`` by ``model.step``; an
    undeclared name is a step that fails at its position."""
    s = inst.init
    for pos, name in enumerate(plan, start=1):
        try:
            s = step(s, inst.action(name))
        except (NotApplicableError, UnknownActionError):
            return False, pos, pos
    if not satisfies(s, inst.goal):
        return False, len(plan) + 1, len(plan)
    return True, None, len(plan)


class TestCompiledValidatePlan:
    @given(plans_on_frames())
    def test_matches_stepping_by_definition(self, case):
        inst, plan = case
        trace = validate_plan(inst, plan)
        assert (trace.valid, trace.failure_step, trace.steps) == _trace_by_steps(inst, plan)

    @given(plans_on_frames())
    def test_verify_representation_agrees_with_validate_plan(self, case):
        inst, plan = case
        assume(plan)
        verdict = verify_representation(inst, macro_stream(induce_grammar(plan)))
        trace = validate_plan(inst, plan)
        assert (verdict.is_valid, verdict.failure_step, verdict.steps) == (
            trace.valid, trace.failure_step, trace.steps
        )


@st.composite
def walk_instances(draw):
    """A random instance of 0-20 atoms (0-3 state bytes) and 0-6 actions
    whose literal sets hold 1-4 literals each (none without atoms), with
    byte-edge atoms weighted in.  Most actions' preconditions take in the
    effect of the action declared before them, the initial state mostly
    meets the first one's, and the goal is often the last one's effect,
    so that walks run; a walk may end at the goal, get stuck, branch or
    cycle."""
    n = draw(st.one_of(st.sampled_from([0, 7, 8, 9, 16, 17, 20]), st.integers(0, 20)))

    edges = [i for i in (7, 8, 15, 16) if i < n]  # the atoms at byte edges
    atom = st.one_of(st.integers(0, n - 1), st.sampled_from(edges)) if edges else st.integers(0, n - 1)

    def literal_set(least=1):
        pos = neg = 0
        for i in draw(st.lists(atom, min_size=least, max_size=4, unique=True)) if n else ():
            if draw(st.booleans()):
                pos |= 1 << i
            else:
                neg |= 1 << i
        return LiteralSet(pos, neg)

    def taking_in(pre, effect):
        return LiteralSet(pre.pos & ~effect.neg | effect.pos, pre.neg & ~effect.pos | effect.neg)

    actions = []
    for k in range(draw(st.integers(0, 6))):
        pre, post = literal_set(), literal_set()
        if actions and draw(st.integers(0, 3)):  # the previous effect enables it
            pre = taking_in(literal_set(0), actions[-1].post)
        if pre.atoms and draw(st.integers(0, 3)):  # it disables itself
            bit = 1 << draw(st.sampled_from([i for i in range(n) if pre.atoms >> i & 1]))
            post = taking_in(post, LiteralSet(pre.neg & bit, pre.pos & bit))
        actions.append(StripsAction(f"op{k}", pre, post))
    if len(actions) > 1 and draw(st.booleans()):  # a ring: the last enables the first
        actions[0] = StripsAction("op0", taking_in(actions[0].pre, actions[-1].post), actions[0].post)
    init = draw(st.integers(0, (1 << n) - 1))
    if actions and draw(st.integers(0, 3)):
        init = apply_update(init, actions[0].pre)
    goal = actions[-1].post if actions and draw(st.booleans()) else literal_set()
    if goal.atoms and satisfies(init, goal) and draw(st.integers(0, 3)):  # mostly unmet at init
        bit = 1 << draw(st.sampled_from([i for i in range(n) if goal.atoms >> i & 1]))
        goal = LiteralSet(goal.pos ^ bit, goal.neg ^ bit)
    return StripsInstance([f"p{i}" for i in range(n)], actions, init, goal)


def _walk_by_successors(view):
    """The unique path of a view, one ``successors`` call per step."""
    s = view.init
    while not view.is_goal(s):
        moves = view.successors(s)
        if not moves:
            raise StuckError(s)
        if len(moves) > 1:
            raise ValueError(f"instance not deterministic: {moves[0][0]} and {moves[1][0]} both apply")
        name, s = moves[0]
        yield name


def _outcome(exc):
    return type(exc), getattr(exc, "state", None), str(exc)


def _first_64(make_rep):
    """The first 64 emissions of a fresh rep, read with ``take``, then the
    type, state and message of the error that ended them sooner, if any."""
    rep = make_rep()
    try:
        return rep.take(64), None, None, None
    except (StuckError, ValueError) as exc:
        return make_rep().take(rep.cursor), *_outcome(exc)


def _first_64_by_successors(view):
    emitted = []
    try:
        emitted.extend(itertools.islice(_walk_by_successors(view), 64))
    except (StuckError, ValueError) as exc:
        return emitted, *_outcome(exc)
    return emitted, None, None, None


# op0 writes only the top bit of byte 0 and op1 writes both bytes, each
# enabling the next action: a stale byte entry changes the walk
EDGE_WALK = StripsInstance(
    [f"p{i}" for i in range(16)],
    [
        StripsAction("op0", LiteralSet(neg=1 << 7 | 1 << 15), LiteralSet(pos=1 << 7)),
        StripsAction("op1", LiteralSet(pos=1 << 7, neg=1 << 15), LiteralSet(pos=1 << 15, neg=1 << 7)),
        StripsAction("op2", LiteralSet(pos=1 << 15), LiteralSet(pos=1 << 8)),
    ],
    0,
    LiteralSet(pos=1 << 8),
)


class TestUniquePathKernel:
    # a walk may cycle, so both sides stop after 64 emissions
    @given(walk_instances())
    @example(EDGE_WALK)
    def test_agrees_with_a_walk_over_successors(self, inst):
        assert _first_64(lambda: deterministic_csar(inst)) == _first_64_by_successors(ground_view(inst))

    @given(walk_instances())
    @example(EDGE_WALK)
    def test_the_functional_view_walks_the_same_path(self, inst):
        emitted, error, state, message = _first_64(lambda: deterministic_csar(inst))
        f_emitted, f_error, f_state, f_message = _first_64(lambda: deterministic_csar(strips_to_ffp(inst)))
        assert (f_emitted, f_error) == (emitted, error)
        if error is StuckError:  # a functional state is a tuple of bits
            assert f_state == as_tuple(state, inst.n_atoms)
        else:
            assert f_message == message


class TestIsDeterministic:
    def test_all_instances_family(self):
        assert is_deterministic(all_instances_instance(3))

    def test_choice_family_is_not(self):
        assert not is_deterministic(indexed_plans_instance(2))

    def test_binary_counter(self):
        assert is_deterministic(counter_instance(CounterSpec(3, 7, "binary")))

    def test_works_on_ffp_instances(self):
        assert is_deterministic(strips_to_ffp(counter_instance(CounterSpec(3, 7, "binary"))))

    def test_cap(self):
        with pytest.raises(ExplorationCapExceededError):
            is_deterministic(counter_instance(CounterSpec(4, 15, "binary")), state_cap=3)

    def test_cap_boundary_on_a_chain(self):
        chain = counter_instance(CounterSpec(4, 15, "binary"))  # 16 states
        with pytest.raises(ExplorationCapExceededError):
            is_deterministic(chain, state_cap=15)
        assert is_deterministic(chain, state_cap=16)

    def test_matches_ground_semantics_on_random_instances(self):
        rng = random.Random(4)
        verdicts = []
        for _ in range(150):
            inst = random_instance(rng, max_actions=rng.choice((2, 4, 8)))
            expected = all(
                sum(action_applicable(s, a) for a in inst.actions) <= 1
                for s in reachable_states(inst)
            )
            assert is_deterministic(inst) == expected
            assert is_deterministic(strips_to_ffp(inst)) == expected
            verdicts.append(expected)
        assert any(verdicts) and not all(verdicts)


class TestIsReversible:
    def test_gray_counter(self):
        assert is_reversible(counter_instance(CounterSpec(3, 7, "gray")))

    def test_binary_counter_is_not(self):
        # the very first increment has no inverse action
        assert not is_reversible(counter_instance(CounterSpec(2, 3, "binary")))

    def test_vacuous_without_actions(self):
        empty = FfpInstance((("v", 2),), (), (0,), lambda s: True)
        assert is_reversible(empty)

    def test_cap(self):
        with pytest.raises(ExplorationCapExceededError):
            is_reversible(counter_instance(CounterSpec(5, 0, "gray")), state_cap=8)


def test_ground_view_refuses_what_is_not_an_instance():
    with pytest.raises(TypeError, match="^not a planning instance: int$"):
        ground_view(42)


def test_ffp_init_validation():
    with pytest.raises(ValueError):
        FfpInstance((("v", 2),), (), (2,), lambda s: True)
    with pytest.raises(ValueError):
        FfpInstance((("v", 2),), (), (0, 0), lambda s: True)


def test_ffp_custom_instance_round():
    # three-valued dial that must reach 2, stepping by one
    def bump(state):
        return (state[0] + 1,)

    dial = FfpInstance(
        (("dial", 3),),
        (FfpAction("bump", lambda s: s[0] < 2, bump),),
        (0,),
        lambda s: s[0] == 2,
    )
    assert is_deterministic(dial)
    assert not is_reversible(dial)
