"""Finite-domain planning with evaluable conditions.

Variables range over ``0 .. domain_size - 1`` and a state is a tuple of
values in declaration order.  Action preconditions, postconditions, and
the goal are arbitrary pure Python callables over states.

The module also provides the adapter from ground STRIPS instances to the
binary-domain functional view, the kernels of :func:`ground_view`, the one
generic breadth-first explorer (:func:`_explore`, which a STRIPS view's
fused ``shortest_path`` matches cap for cap), and the exhaustive
determinism and reversibility checks, which fail loudly at their
exploration caps rather than truncating.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, NoReturn

from . import model
from .errors import ExplorationCapExceededError, StuckError
from .model import StripsInstance

FfpState = tuple[int, ...]

DEFAULT_STATE_CAP = 1 << 20
DEFAULT_EDGE_CAP = 1 << 26


@dataclass(frozen=True)
class FfpAction:
    name: str
    pre: Callable[[FfpState], bool]
    post: Callable[[FfpState], FfpState]


@dataclass(frozen=True)
class FfpInstance:
    variables: tuple[tuple[str, int], ...]  # (name, domain size)
    actions: tuple[FfpAction, ...]
    init: FfpState
    goal: Callable[[FfpState], bool]

    def __post_init__(self):
        self.check_state(self.init, "initial state")

    def check_state(self, s: FfpState, what: str = "state") -> None:
        """Raise ValueError unless ``s`` holds one value per variable, each
        inside its variable's domain."""
        if len(s) != len(self.variables):
            raise ValueError(f"{what} width {len(s)} does not match {len(self.variables)} variables")
        for value, (name, size) in zip(s, self.variables):
            if not 0 <= value < size:
                raise ValueError(f"{what} value {value} outside domain of {name}")


def strips_to_ffp(p: StripsInstance) -> FfpInstance:
    """Binary-domain functional view agreeing with the ground semantics of
    ``p`` on every state: applicability, successors, and the goal test all
    coincide under the bitmask/tuple correspondence."""
    n = p.n_atoms

    def to_mask(t: FfpState) -> int:
        mask = 0
        for i, v in enumerate(t):
            if v:
                mask |= 1 << i
        return mask

    def to_tuple(mask: int) -> FfpState:
        return tuple((mask >> i) & 1 for i in range(n))

    def make_pre(action):
        def pre(t: FfpState) -> bool:
            return model.action_applicable(to_mask(t), action)

        return pre

    def make_post(action):
        def post(t: FfpState) -> FfpState:
            return to_tuple(model.apply_update(to_mask(t), action.post))

        return post

    actions = tuple(FfpAction(a.name, make_pre(a), make_post(a)) for a in p.actions)
    goal = p.goal

    def goal_fn(t: FfpState) -> bool:
        return model.satisfies(to_mask(t), goal)

    variables = tuple((name, 2) for name in p.atoms)
    return FfpInstance(variables, actions, to_tuple(p.init), goal_fn)


@dataclass(frozen=True)
class GroundView:
    """Uniform grounded interface over STRIPS and functional instances:
    hashable states, the initial state, a goal test, the full state space
    and three kernels.  ``successors(s)``, which :func:`_explore` walks,
    lists ``(name, t)`` for every action applicable in ``s``, in
    declaration order.  ``unique_path()``, which deterministic streams
    walk, yields the names on the path from ``init`` that fires the one
    applicable action until the goal holds (else :func:`_refuse`).
    ``shortest_path(start, state_cap, edge_cap)``, which the optimal-plan
    oracles call, returns what ``_explore([start], successors, is_goal,
    state_cap, edge_cap)`` returns, or raises where it raises.  A plan is
    checked without a view, by ``model.validate_plan``.

    For a STRIPS instance all three are byte-sliced: one 256-entry table
    per byte c of the state, read at ``s >> 8c & 255``, decides every
    action's applicability with ⌈atoms/8⌉ lookups and ANDs (see
    :func:`_applicability_tables`); their updates read ``step_table``.
    ``unique_path`` keeps each byte's entry for the current state and
    looks up only the bytes a step writes.  ``shortest_path`` is one
    breadth-first loop with the lookups, the updates and the goal test
    inline, so it builds no move list.  States must lie in the frame.
    An FFP view's ``unique_path`` and ``shortest_path`` walk its
    ``successors``.
    """

    init: Hashable
    is_goal: Callable[[Hashable], bool]
    successors: Callable[[Hashable], list[tuple[str, Hashable]]]
    all_states: Callable[[], Iterable[Hashable]]
    space_size: int
    unique_path: Callable[[], Iterator[str]]
    shortest_path: Callable[[Hashable, int, int], tuple[dict, int]]


def _refuse(s, moves: list) -> NoReturn:
    """Refuse state s of a unique path, where ``moves`` holds none or several."""
    if not moves:
        raise StuckError(s)
    raise ValueError(f"instance not deterministic: {moves[0][0]} and {moves[1][0]} both apply")


def _applicability_tables(p: StripsInstance) -> list[list[int]]:
    """Per byte c of the state, the 256 bitsets whose entry v has bit k
    set iff action k's precondition allows byte c to have value v.

    Actions are numbered in declaration order.  Each byte's table is
    doubled over its 8 atoms, lowest first; an atom no precondition
    mentions, or a bit above the last atom, repeats the table, so the
    repeated entries are shared, not copied.  The tables hold
    256·⌈atoms/8⌉ ints of |A| bits, about 4·atoms·|A| bytes, and the
    build does at most 510 ANDs of |A|-bit ints per byte, plus one pass over the
    preconditions.
    """
    everyone = (1 << len(p.actions)) - 1
    width = -(-p.n_atoms // 8)
    need_true = [0] * (8 * width)
    need_false = [0] * (8 * width)
    for k, a in enumerate(p.actions):
        for i in model._bits(a.pre.pos):
            need_true[i] |= 1 << k
        for i in model._bits(a.pre.neg):
            need_false[i] |= 1 << k
    tables = []
    for base in range(0, 8 * width, 8):
        table = [everyone]
        for i in range(base, base + 8):
            if need_true[i] | need_false[i]:
                if_false, if_true = everyone ^ need_true[i], everyone ^ need_false[i]
                table = [e & if_false for e in table] + [e & if_true for e in table]
            else:
                table *= 2
        tables.append(table)
    return tables


def ground_view(p: StripsInstance | FfpInstance) -> GroundView:
    """The grounded view of ``p``.  For a STRIPS instance this builds the
    applicability tables once; they cost about 4·atoms·|A| bytes (0.15 MiB
    for ``all_instances_instance(4)``, 1.5 MiB for
    ``sat_verifier_instance(6, ·)``) and a few milliseconds at those
    sizes.  Its updates read ``p.step_table``, as ``validate_plan`` does.
    An FFP view evaluates its callables in declaration order."""
    if isinstance(p, StripsInstance):
        goal_pos, goal_atoms = p.goal.pos, p.goal.atoms
        shifted = [(table, 8 * c) for c, table in enumerate(_applicability_tables(p))]
        everyone = (1 << len(p.actions)) - 1
        updates = [(name, keep, add) for name, (_, _, keep, add) in p.step_table.items()]

        def successors(s):
            allowed = everyone
            for table, shift in shifted:
                allowed &= table[s >> shift & 255]
            moves = []
            while allowed:  # lowest set bit first: declaration order
                low = allowed & -allowed
                name, keep, qp = updates[low.bit_length() - 1]
                moves.append((name, (s & keep) | qp))
                allowed ^= low
            return moves

        def shortest_path(start, state_cap, edge_cap):
            parents = {start: None}
            if start & goal_atoms == goal_pos:
                return parents, 0
            queue = [start]  # a FIFO read by one iterator as it grows
            edges = 0
            for expanded, s in enumerate(queue, 1):
                if expanded > state_cap:
                    raise ExplorationCapExceededError(state_cap, "state")
                allowed = everyone
                for table, shift in shifted:
                    allowed &= table[s >> shift & 255]
                while allowed:
                    low = allowed & -allowed
                    allowed ^= low
                    edges += 1
                    if edges > edge_cap:
                        raise ExplorationCapExceededError(edge_cap, "edge")
                    name, keep, add = updates[low.bit_length() - 1]
                    t = s & keep | add
                    if t not in parents:
                        parents[t] = (s, name)
                        if t & goal_atoms == goal_pos:
                            return parents, expanded
                        queue.append(t)
            return parents, len(queue)

        def unique_path():
            s = p.init
            entries = [table[s >> shift & 255] for table, shift in shifted]
            # keyed by the action's own bit, with the bytes it writes (~keep | add)
            steps = {1 << k: (name, keep, add, [(c, table, shift) for c, (table, shift) in enumerate(shifted)
                                                 if (~keep | add) >> shift & 255])
                     for k, (name, keep, add) in enumerate(updates)}
            while s & goal_atoms != goal_pos:
                allowed = everyone
                for entry in entries:
                    allowed &= entry
                step = steps.get(allowed)  # None unless exactly one applies
                if step is None:
                    _refuse(s, successors(s))
                name, keep, add, writes = step
                s = s & keep | add
                for c, table, shift in writes:
                    entries[c] = table[s >> shift & 255]
                yield name

        return GroundView(p.init, lambda s: s & goal_atoms == goal_pos, successors,
                          lambda: range(1 << p.n_atoms), 1 << p.n_atoms, unique_path, shortest_path)
    if isinstance(p, FfpInstance):
        def successors(s):
            return [(a.name, a.post(s)) for a in p.actions if a.pre(s)]

        def unique_path():
            s = p.init
            while not p.goal(s):
                moves = successors(s)
                if len(moves) != 1:
                    _refuse(s, moves)
                name, s = moves[0]
                yield name

        def shortest_path(start, state_cap, edge_cap):
            return _explore([start], successors, p.goal, state_cap, edge_cap)

        domains = [range(size) for _, size in p.variables]
        return GroundView(p.init, p.goal, successors, lambda: itertools.product(*domains),
                          math.prod(len(d) for d in domains), unique_path, shortest_path)
    raise TypeError(f"not a planning instance: {type(p).__name__}")


def _explore(
    starts,
    successors,
    is_goal=None,
    state_cap: int = DEFAULT_STATE_CAP,
    edge_cap: int = DEFAULT_EDGE_CAP,
) -> tuple[dict, int]:
    """Breadth-first exploration from every state in ``starts`` at once,
    over any successor function; a STRIPS view's ``shortest_path`` fuses
    the same search into its kernel and must agree with it exactly.

    Returns the parent map and the number of states expanded.  The map
    lists every visited state in visiting order, mapping a start to None
    and any other state to the (state, action name) pair that first
    reached it; ties go to queue order, then successor order.  With
    ``is_goal``, exploration stops at the first goal state visited, which
    is then the map's last entry.  Expanding more than ``state_cap``
    states, or following more than ``edge_cap`` transitions, raises.
    """
    parents: dict = dict.fromkeys(starts)
    if is_goal is not None and any(map(is_goal, parents)):
        return parents, 0
    queue = deque(parents)
    expanded = 0
    edges = 0
    while queue:
        s = queue.popleft()
        expanded += 1
        if expanded > state_cap:
            raise ExplorationCapExceededError(state_cap, "state")
        for name, t in successors(s):
            edges += 1
            if edges > edge_cap:
                raise ExplorationCapExceededError(edge_cap, "edge")
            if t in parents:
                continue
            parents[t] = (s, name)
            if is_goal is not None and is_goal(t):
                return parents, expanded
            queue.append(t)
    return parents, expanded


def is_deterministic(
    p: StripsInstance | FfpInstance, state_cap: int = DEFAULT_STATE_CAP
) -> bool:
    """True iff at most one action applies in every state reachable from
    the initial state.  Reachability is computed by explicit search."""
    view = ground_view(p)
    branching = []

    def successors(s):
        moves = view.successors(s)
        if len(moves) > 1:
            branching.append(s)
            return []
        return moves

    _explore([view.init], successors, state_cap=state_cap)
    return not branching


def is_reversible(
    p: StripsInstance | FfpInstance, state_cap: int = DEFAULT_STATE_CAP
) -> bool:
    """True iff every transition of the frame has an inverse transition:
    whenever some action leads from s to t, some action leads from t to s.
    Checked by brute force over the full state space."""
    view = ground_view(p)
    if view.space_size > state_cap:
        raise ExplorationCapExceededError(state_cap, "state")
    for s in view.all_states():
        for _, t in view.successors(s):
            if t != s and all(back != s for _, back in view.successors(t)):
                return False
    return True
