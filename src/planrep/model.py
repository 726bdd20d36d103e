"""Ground propositional planning: atoms, literal sets, states, actions,
plan execution and validation, plus the whitespace-tokenized text formats
for instances and plans.

A state over a frame with k declared atoms is an int bitmask: bit i holds
the truth value of the atom declared at position i.  Updating a state with
a literal set computes ``(state - negatives) | positives``.  All types are
immutable after construction and all operations are pure functions, so
values can be shared freely across threads.

Plan positions are 1-indexed everywhere.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import FormatError, NotApplicableError, UnknownActionError

State = int

# The step of a name the instance does not declare: it needs every bit,
# which no state (a nonnegative int) has, so it applies nowhere.
NEVER = (-1, 0, 0, 0)


@dataclass(frozen=True)
class LiteralSet:
    """Consistent set of literals as positive/negative atom bitmasks."""

    pos: State = 0
    neg: State = 0

    def __post_init__(self):
        if self.pos < 0 or self.neg < 0:  # before _bits, which needs a mask >= 0
            raise ValueError("literal masks must be nonnegative")
        if self.pos & self.neg:
            raise ValueError(
                f"inconsistent literal set: atoms {list(_bits(self.pos & self.neg))} "
                "appear both positive and negative"
            )

    @property
    def atoms(self) -> State:
        """Bitmask of all atoms mentioned, in either polarity."""
        return self.pos | self.neg

    def __len__(self) -> int:
        return (self.pos | self.neg).bit_count()


@dataclass(frozen=True)
class StripsAction:
    """Named action with consistent literal-set pre- and postcondition."""

    name: str
    pre: LiteralSet
    post: LiteralSet


class StripsInstance:
    """Ground planning instance: atom list, actions, initial state, goal.

    The atom declaration order fixes the bit layout of every state and
    literal set of the instance.
    """

    def __init__(
        self,
        atoms: Sequence[str],
        actions: Sequence[StripsAction],
        init: State,
        goal: LiteralSet,
    ):
        self.atoms: tuple[str, ...] = tuple(atoms)
        self.actions: tuple[StripsAction, ...] = tuple(actions)
        self.init: State = init
        self.goal: LiteralSet = goal
        self.n_atoms: int = len(self.atoms)
        self.full_mask: State = (1 << self.n_atoms) - 1

        self.index: dict[str, int] = {}
        for i, name in enumerate(self.atoms):
            _check_token(name, "atom")
            if name in self.index:
                raise ValueError(f"duplicate atom name: {name}")
            self.index[name] = i

        self.action_index: dict[str, StripsAction] = {}
        # name -> (pre.pos, pre.neg, ~post.neg, post.pos), in declaration order
        self.step_table: dict[str, tuple[State, State, State, State]] = {}
        for a in self.actions:
            _check_token(a.name, "action")
            if a.name in self.action_index:
                raise ValueError(f"duplicate action name: {a.name}")
            self.check_state(a.pre.atoms | a.post.atoms, f"action {a.name}")
            self.action_index[a.name] = a
            self.step_table[a.name] = (a.pre.pos, a.pre.neg, ~a.post.neg, a.post.pos)

        self.check_state(init, "initial state")
        self.check_state(goal.atoms, "goal")

    def check_state(self, s: State, what: str = "state") -> None:
        """Raise ValueError, naming ``s`` as ``what``, unless ``s`` is in ``0 .. full_mask``."""
        if s & ~self.full_mask:  # a negative s has every high bit set
            raise ValueError(f"{what} references undeclared atoms")

    def with_init(self, state: State) -> StripsInstance:
        """The same instance from another initial state.

        The copy shares this instance's validated atom, action and step tables,
        so only ``state`` is checked, by :meth:`check_state` as the
        constructor checks its initial state.
        """
        self.check_state(state, "initial state")
        other = copy.copy(self)
        other.init = state
        return other

    def action(self, name: str) -> StripsAction:
        try:
            return self.action_index[name]
        except KeyError:
            raise UnknownActionError(name) from None

    def state(self, *names: str) -> State:
        """Bitmask of the state in which exactly the named atoms hold."""
        mask = 0
        for name in names:
            mask |= _atom_bit(self.index, name)
        return mask

    def literals(self, *tokens: str) -> LiteralSet:
        """Literal set from tokens; a ``!`` prefix negates."""
        return _literals_from_tokens(tokens, self.index)

    def atom_names(self, mask: State) -> tuple[str, ...]:
        return tuple(self.atoms[i] for i in _bits(mask))


@dataclass(frozen=True)
class PlanTrace:
    """Outcome of executing a plan.

    ``steps`` counts the plan positions read.  When ``valid``,
    ``failure_step`` is None.  Otherwise it is the 1-indexed position of
    the violating action, whether it does not apply or the instance does
    not declare it; a plan whose final state misses the goal reports
    position ``steps + 1``.
    """

    valid: bool
    failure_step: int | None = None
    steps: int = 0


def apply_update(s: State, y: LiteralSet) -> State:
    """Revise state ``s`` with literal set ``y``: clear its negatives,
    set its positives."""
    return (s & ~y.neg) | y.pos


def satisfies(s: State, y: LiteralSet) -> bool:
    """True iff every positive of ``y`` holds in ``s`` and no negative does."""
    return (s & y.pos) == y.pos and (s & y.neg) == 0


def action_applicable(s: State, a: StripsAction) -> bool:
    """True iff ``s`` satisfies the precondition of ``a``."""
    return (s & a.pre.pos) == a.pre.pos and (s & a.pre.neg) == 0


def step(s: State, a: StripsAction) -> State:
    """Apply ``a`` to ``s``; raises NotApplicableError on a violated
    precondition, listing the offending atom ids."""
    if not action_applicable(s, a):
        missing = tuple(_bits(a.pre.pos & ~s))
        forbidden = tuple(_bits(a.pre.neg & s))
        raise NotApplicableError(a.name, missing, forbidden)
    return apply_update(s, a.post)


def validate_plan(p: StripsInstance, plan: Sequence[str]) -> PlanTrace:
    """Execute ``plan`` from the initial state of ``p``.

    The plan is valid iff every action is applicable in turn and the final
    state satisfies the goal; an undeclared action name applies nowhere.
    """
    return _execute(p, plan)


def _execute(p: StripsInstance, names: Iterable[str]) -> PlanTrace:
    """The one plan executor, shared by :func:`validate_plan` and
    ``representations.verify_representation``.

    Each step reads the instance's ``step_table``, an undeclared name
    through :data:`NEVER`.  ``names`` is read once and no memory is kept
    per step, so it may be a stream.
    """
    steps = p.step_table
    s = p.init
    pos = 0
    for pos, name in enumerate(names, start=1):
        need, forbid, keep, add = steps.get(name, NEVER)
        if (s & need) != need or s & forbid:
            return PlanTrace(False, pos, pos)
        s = (s & keep) | add
    if not satisfies(s, p.goal):
        return PlanTrace(False, pos + 1, pos)
    return PlanTrace(True, None, pos)


def is_unary(p: StripsInstance) -> bool:
    """True iff every action posts exactly one literal."""
    return all(len(a.post) == 1 for a in p.actions)


# ---------------------------------------------------------------------------
# Text formats.
#
# Instance files (version tag "strips v1"):
#   strips v1
#   atoms: x1 x2
#   action a1
#     pre: !x1
#     post: x1
#   init: x1
#   goal: x2 !x1
# "#" starts a comment anywhere; "!" prefixes a negated literal.
# Plan files carry one action name per line with the same comment rule.


_DECLARATIONS = ("atoms:", "init:", "goal:")  # each declared exactly once


def parse_instance(text: str) -> StripsInstance:
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty instance file")
    lineno, tokens = lines[0]
    if tokens != ["strips", "v1"]:
        raise FormatError(f"line {lineno}: expected header 'strips v1'")

    decl: dict[str, list[str]] = {}
    index: dict[str, int] | None = None
    actions: list[StripsAction] = []

    i = 1
    while i < len(lines):
        lineno, tokens = lines[i]
        key = tokens[0]
        if key in _DECLARATIONS:
            if key in decl:
                raise FormatError(f"line {lineno}: duplicate {key[:-1]} declaration")
            decl[key] = tokens[1:]
            if key == "atoms:":
                index = {name: k for k, name in enumerate(tokens[1:])}
            i += 1
        elif key == "action":
            if len(tokens) != 2:
                raise FormatError(f"line {lineno}: expected 'action <name>'")
            name = tokens[1]
            pre_tokens = _expect_field(lines, i + 1, "pre:")
            post_tokens = _expect_field(lines, i + 2, "post:")
            actions.append(_build_action(name, pre_tokens, post_tokens, index, lineno))
            i += 3
        else:
            raise FormatError(f"line {lineno}: unexpected directive {key!r}")

    for key in _DECLARATIONS:
        if key not in decl:
            raise FormatError(f"missing {key[:-1]} declaration")
    atoms, init_tokens, goal_tokens = (decl[key] for key in _DECLARATIONS)

    try:
        init = 0
        for tok in init_tokens:
            if tok.startswith("!"):
                raise FormatError("init lists atoms, not literals")
            init |= _atom_bit(index, tok)
        goal = _literals_from_tokens(goal_tokens, index)
        return StripsInstance(atoms, actions, init, goal)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def serialize_instance(p: StripsInstance) -> str:
    out = ["strips v1", "atoms: " + " ".join(p.atoms)]
    for a in p.actions:
        out.append(f"action {a.name}")
        out.append("  pre: " + _literal_tokens(a.pre, p.atoms))
        out.append("  post: " + _literal_tokens(a.post, p.atoms))
    out.append(("init: " + " ".join(p.atom_names(p.init))).rstrip())
    out.append("goal: " + _literal_tokens(p.goal, p.atoms))
    return "\n".join(out) + "\n"


def parse_plan(text: str) -> list[str]:
    plan = []
    for lineno, tokens in _content_lines(text):
        if len(tokens) != 1:
            raise FormatError(f"line {lineno}: expected one action name per line")
        plan.append(tokens[0])
    return plan


def serialize_plan(plan: Sequence[str]) -> str:
    """The plan file of ``plan``, one action name per line.  A name that
    is not a valid action name (empty, holding whitespace or "#", or
    starting with "!") raises ValueError, so ``parse_plan`` reads back
    every plan this writes."""
    for name in plan:
        _check_token(name, "action")
    return "".join(name + "\n" for name in plan)


def _build_action(name, pre_tokens, post_tokens, index, lineno):
    if index is None:
        raise FormatError(f"line {lineno}: action declared before atoms")
    try:
        return StripsAction(
            name,
            _literals_from_tokens(pre_tokens, index),
            _literals_from_tokens(post_tokens, index),
        )
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None


def _literals_from_tokens(tokens: Sequence[str], index: dict[str, int]) -> LiteralSet:
    pos = neg = 0
    for tok in tokens:
        negated = tok.startswith("!")
        name = tok[1:] if negated else tok
        bit = _atom_bit(index, name)
        if negated:
            neg |= bit
        else:
            pos |= bit
    return LiteralSet(pos, neg)


def _atom_bit(index: dict[str, int], name: str) -> State:
    """The bit of atom ``name`` in ``index``; ValueError if it is undeclared."""
    try:
        return 1 << index[name]
    except KeyError:
        raise ValueError(f"undeclared atom: {name}") from None


def _literal_tokens(y: LiteralSet, atoms: tuple[str, ...]) -> str:
    toks = []
    for i in _bits(y.pos | y.neg):
        toks.append(atoms[i] if (y.pos >> i) & 1 else "!" + atoms[i])
    return " ".join(toks)


def _expect_field(lines, i, key):
    if i >= len(lines) or lines[i][1][0] != key:
        where = f"line {lines[i][0]}" if i < len(lines) else "end of file"
        raise FormatError(f"{where}: expected '{key}' line")
    return lines[i][1][1:]


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    """Non-blank lines as (line number, tokens), comments stripped."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if tokens:
            out.append((lineno, tokens))
    return out


def _reads_back(tokens: list[str]) -> bool:
    """True iff the line ``" ".join(tokens)`` reads back through
    :func:`_content_lines` as exactly ``tokens``: no token is empty or
    holds whitespace or "#".  The one name rule of every file writer."""
    line = " ".join(tokens)
    return "#" not in line and line.split() == tokens


def _check_token(name: str, kind: str) -> None:
    """Refuse a name that does not read back, and an atom or action name
    starting with "!", which negates in literal lists."""
    if not _reads_back([name]) or name.startswith("!"):
        raise ValueError(f"invalid {kind} name: {name!r}")


def _bits(mask: int):
    """Ascending indices of the set bits of ``mask``.  Each step strips
    the lowest set bit, so the cost grows with the number of set bits,
    not with the bit length."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
