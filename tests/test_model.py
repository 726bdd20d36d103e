"""Ground semantics: update operator, applicability, stepping, plan
validation, unary predicate, and the instance/plan text formats."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from planrep import (
    CounterSpec,
    LiteralSet,
    StripsAction,
    StripsInstance,
    action_applicable,
    apply_update,
    counter_instance,
    is_unary,
    parse_instance,
    parse_plan,
    serialize_instance,
    serialize_plan,
    step,
    to_unary,
    validate_plan,
)
from planrep.errors import (
    FormatError,
    NotApplicableError,
    UnknownActionError,
)
from planrep.model import _bits, satisfies
from planrep.oracles import optplan_length

from conftest import PAPER_RULER_16, plan_states


def tiny_frame():
    return StripsInstance(
        ["x1", "x2", "x3"],
        [StripsAction("noop", LiteralSet(), LiteralSet())],
        0,
        LiteralSet(),
    )


class TestApplyUpdate:
    def test_read_set_and_clear(self):
        p = tiny_frame()
        s = p.state("x1", "x2")
        y = p.literals("!x1", "x3")
        assert p.atom_names(apply_update(s, y)) == ("x2", "x3")

    def test_empty_update_is_identity(self):
        p = tiny_frame()
        s = p.state("x1", "x2")
        assert apply_update(s, LiteralSet()) == s

    def test_undeclared_literal_rejected(self):
        with pytest.raises(ValueError, match="undeclared atom: x9"):
            tiny_frame().literals("x1", "!x9")
        with pytest.raises(ValueError, match="^undeclared atom: nope$"):
            tiny_frame().state("x1", "nope")

    def test_update_of_empty_state(self):
        p = tiny_frame()
        assert apply_update(0, p.literals("x1")) == p.state("x1")

    def test_input_state_unmodified(self):
        s = 0b101
        apply_update(s, LiteralSet(pos=0b010, neg=0b001))
        assert s == 0b101


masks = st.integers(min_value=0, max_value=(1 << 12) - 1)


@given(s=masks, pos=masks, neg=masks)
def test_update_laws(s, pos, neg):
    # drop the overlap so the literal set is consistent
    pos &= ~neg
    y = LiteralSet(pos, neg)
    result = apply_update(s, y)
    assert result & y.pos == y.pos
    assert result & y.neg == 0
    assert apply_update(result, y) == result  # idempotent


def test_inconsistent_literal_set_rejected():
    with pytest.raises(ValueError):
        LiteralSet(pos=0b1, neg=0b1)


@pytest.mark.parametrize("pos, neg", [(-1, -1), (-2, -2), (-1, 1), (1, -2)])
def test_negative_literal_masks_rejected(pos, neg):
    # checked before the overlap, whose bit walk needs nonnegative masks
    with pytest.raises(ValueError, match="^literal masks must be nonnegative$"):
        LiteralSet(pos, neg)


class TestApplicabilityAndStep:
    def setup_method(self):
        self.counter = counter_instance(CounterSpec(2, 3, "binary"))
        self.a1 = self.counter.action("a1")
        self.a2 = self.counter.action("a2")

    def test_negative_precondition_on_empty_state(self):
        assert action_applicable(0, self.a1)

    def test_missing_positive_precondition(self):
        assert not action_applicable(0, self.a2)

    def test_step_increments(self):
        assert step(0, self.a1) == self.counter.state("x1")
        assert step(self.counter.state("x1"), self.a2) == self.counter.state("x2")

    def test_step_rejects_and_names_violations(self):
        with pytest.raises(NotApplicableError) as err:
            step(self.counter.state("x1"), self.a1)
        assert err.value.forbidden == (0,)  # x1 must be false


class TestValidatePlan:
    def test_paper_counter_sequence(self):
        inst = counter_instance(CounterSpec(5, 16, "binary"))
        trace = validate_plan(inst, PAPER_RULER_16)
        assert trace.valid and trace.steps == 16
        # the same plan stepped by definition applies throughout and ends in the goal
        states = plan_states(inst, PAPER_RULER_16)
        assert len(states) == 17 and states[0] == inst.init
        assert satisfies(states[-1], inst.goal)

    def test_empty_plan_when_init_satisfies_goal(self):
        inst = counter_instance(CounterSpec(3, 0, "binary"))
        trace = validate_plan(inst, [])
        assert trace.valid and trace.steps == 0

    def test_first_violation_reported(self):
        inst = counter_instance(CounterSpec(2, 3, "binary"))
        trace = validate_plan(inst, ["a2"])
        assert not trace.valid and trace.failure_step == 1

    def test_goal_violation_reported_past_the_end(self):
        inst = counter_instance(CounterSpec(2, 3, "binary"))
        trace = validate_plan(inst, ["a1"])
        assert not trace.valid and trace.failure_step == 2

    def test_unknown_action(self):
        # an undeclared name is a step that never applies, at its own position
        inst = counter_instance(CounterSpec(2, 3, "binary"))
        trace = validate_plan(inst, ["nope"])
        assert (trace.valid, trace.failure_step) == (False, 1)
        trace = validate_plan(inst, ["a1", "nope", "a1"])
        assert (trace.valid, trace.failure_step, trace.steps) == (False, 2, 2)
        with pytest.raises(UnknownActionError):
            inst.action("nope")


class TestIsUnary:
    def test_gray_counter_is_unary(self):
        for n in (1, 3, 5):
            assert is_unary(counter_instance(CounterSpec(n, 0, "gray")))

    def test_binary_counter_is_not(self):
        assert not is_unary(counter_instance(CounterSpec(2, 0, "binary")))
        assert is_unary(counter_instance(CounterSpec(1, 0, "binary")))

    def test_unary_reduction_output_is_unary(self):
        assert is_unary(to_unary(counter_instance(CounterSpec(3, 5, "binary"))))


class TestTextFormats:
    def test_round_trip(self, corpus):
        for name, inst in corpus:
            text = serialize_instance(inst)
            back = parse_instance(text)
            assert back.atoms == inst.atoms
            assert back.init == inst.init
            assert back.goal == inst.goal
            assert back.actions == inst.actions
            assert serialize_instance(back) == text

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "strips v1\n# a comment\n\natoms: x1 x2  # trailing\n"
            "action a1\n  pre: !x1\n  post: x1\ninit:\ngoal: x1\n"
        )
        inst = parse_instance(text)
        assert inst.atoms == ("x1", "x2") and len(inst.actions) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "strips v2\natoms: x\ninit:\ngoal:\n",
            "strips v1\ninit:\ngoal:\n",
            "strips v1\natoms: x\naction a\n  pre:\ninit:\ngoal:\n",
            "strips v1\natoms: x\ninit: y\ngoal:\n",
            "strips v1\natoms: x\ninit: !x\ngoal:\n",
            "strips v1\natoms: x x\ninit:\ngoal:\n",
            "strips v1\natoms: x\ninit:\ngoal: x\nbogus directive\n",
            "strips v1\naction a\n  pre:\n  post:\natoms: x\ninit:\ngoal:\n",
            "strips v1\natoms: x\naction a\n  pre: y\n  post:\ninit:\ngoal:\n",
            "strips v1\natoms: x\naction a b\n  pre:\n  post:\ninit:\ngoal:\n",
        ],
    )
    def test_malformed_instances_rejected(self, text):
        with pytest.raises(FormatError):
            parse_instance(text)

    def test_init_refuses_an_undeclared_atom_as_literals_do(self):
        with pytest.raises(FormatError, match="^undeclared atom: x9$"):
            parse_instance("strips v1\natoms: x\ninit: x9\ngoal:\n")

    @pytest.mark.parametrize("key", ["atoms", "init", "goal"])
    def test_each_declaration_exactly_once(self, key):
        lines = ["strips v1", "atoms: x", "init:", "goal: x"]
        declaration = next(line for line in lines if line.startswith(key + ":"))
        with pytest.raises(FormatError, match=f"^line 5: duplicate {key} declaration$"):
            parse_instance("\n".join(lines + [declaration]))
        with pytest.raises(FormatError, match=f"^missing {key} declaration$"):
            parse_instance("\n".join(line for line in lines if line != declaration))

    def test_plan_round_trip(self):
        plan = ["a1", "a2", "a1"]
        assert parse_plan(serialize_plan(plan)) == plan
        assert parse_plan("# lead\na1\n\na2 # tail\n") == ["a1", "a2"]
        with pytest.raises(FormatError):
            parse_plan("a1 a2\n")

    @pytest.mark.parametrize("plan", [["#x", "c"], ["", "a"], ["a b"], ["a\nb"], ["x#1"]])
    def test_plan_writer_refuses_names_it_cannot_write(self, plan):
        with pytest.raises(ValueError, match="invalid action name"):
            serialize_plan(plan)

    @given(st.lists(st.text(st.characters(codec="utf-8"), max_size=4), max_size=6))
    def test_plan_writer_refuses_or_round_trips(self, plan):
        try:
            text = serialize_plan(plan)
        except ValueError:
            return
        assert parse_plan(text) == plan


# names an instance file could mistake for syntax, or could not write
tricky_names = st.one_of(
    st.sampled_from(
        ["x", "y", "atoms:", "action", "pre:", "post:", "init:", "goal:", "strips", "v1",
         "", "a b", "#", "x#", "!a"]
    ),
    st.text(max_size=3),
)


@st.composite
def drawn_instances(draw):
    """Constructor arguments over drawn names: atoms, actions, init, goal."""
    atoms = draw(st.lists(tricky_names, max_size=4))
    masks = st.integers(0, (1 << len(atoms)) - 1)

    def literal_set():
        pos = draw(masks)
        return LiteralSet(pos, draw(masks) & ~pos)

    names = draw(st.lists(tricky_names, max_size=3))
    actions = [StripsAction(name, literal_set(), literal_set()) for name in names]
    return atoms, actions, draw(masks), literal_set()


@given(drawn_instances())
def test_instance_writer_refuses_or_round_trips(parts):
    # the constructor is where an unwritable name is refused
    try:
        p = StripsInstance(*parts)
    except ValueError:
        return
    back = parse_instance(serialize_instance(p))
    assert (back.atoms, back.actions, back.init, back.goal) == (p.atoms, p.actions, p.init, p.goal)


def test_duplicate_action_names_rejected():
    act = StripsAction("a", LiteralSet(), LiteralSet())
    with pytest.raises(ValueError):
        StripsInstance(["x"], [act, act], 0, LiteralSet())


@pytest.mark.parametrize(
    "what, door",
    [
        ("initial state", lambda p, x: StripsInstance(p.atoms, p.actions, x, p.goal)),
        ("goal", lambda p, x: StripsInstance(p.atoms, p.actions, 0, LiteralSet(neg=x))),
        ("action a", lambda p, x: StripsInstance(p.atoms, [StripsAction("a", p.goal, LiteralSet(neg=x))], 0, p.goal)),
        ("initial state", lambda p, x: p.with_init(x)),
        ("initial state", lambda p, x: p.with_init(-1)),
        ("state", lambda p, x: optplan_length(p, x)),
    ],
    ids=["init", "goal", "action", "with_init-high", "with_init-negative", "optplan_length"],
)
def test_every_door_refuses_a_state_outside_the_frame_alike(what, door):
    p = tiny_frame()
    with pytest.raises(ValueError, match=f"^{what} references undeclared atoms$"):
        door(p, 1 << p.n_atoms)


def test_undeclared_atom_references_rejected():
    act = StripsAction("a", LiteralSet(pos=0b10), LiteralSet())
    with pytest.raises(ValueError):
        StripsInstance(["x"], [act], 0, LiteralSet())
    with pytest.raises(ValueError, match="^initial state references undeclared atoms$"):
        StripsInstance(["x"], [], 0b10, LiteralSet())
    with pytest.raises(ValueError, match="^goal references undeclared atoms$"):
        StripsInstance(["x"], [], 0, LiteralSet(neg=0b10))


@pytest.mark.parametrize(
    "name", ["", " ", "x 1", " x1", "x1\n", "x\t1", "x\u20031", "\x1cx", "x ", "!x", "x#1"]
)
def test_names_the_parser_could_not_read_back_are_rejected(name):
    act = StripsAction("a", LiteralSet(), LiteralSet())
    with pytest.raises(ValueError, match="invalid atom name"):
        StripsInstance([name], [act], 0, LiteralSet())
    with pytest.raises(ValueError, match="invalid action name"):
        StripsInstance(["x"], [StripsAction(name, LiteralSet(), LiteralSet())], 0, LiteralSet())


@given(st.text(min_size=1, max_size=6))
def test_name_check_is_the_tokenizer_rule(name):
    # accepted iff it has no whitespace character, no leading "!" and no "#"
    act = StripsAction(name, LiteralSet(), LiteralSet())
    readable = not any(c.isspace() for c in name) and name[0] != "!" and "#" not in name
    if readable:
        StripsInstance([name], [act], 0, LiteralSet())
    else:
        with pytest.raises(ValueError):
            StripsInstance([name], [act], 0, LiteralSet())


class TestBits:
    @given(st.integers(0, 1 << 300))
    def test_ascending_set_bit_indices(self, mask):
        assert list(_bits(mask)) == [i for i in range(mask.bit_length()) if (mask >> i) & 1]

    @given(st.sets(st.integers(0, 299), max_size=6))
    def test_sparse_wide_masks(self, indices):
        assert list(_bits(sum(1 << i for i in indices))) == sorted(indices)
