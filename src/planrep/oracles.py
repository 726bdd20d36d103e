"""Brute-force ground truth: breadth-first optimal planning, optimal-plan
counting, shortest-plan distances, and atom-dependency graph analysis.

A shortest plan (:func:`bfs_solve`, :func:`optplan_length`) comes from
the view's own breadth-first kernel, ``GroundView.shortest_path``: for a
STRIPS instance one fused loop over the byte tables of
:func:`planrep.ffp.ground_view`, for a functional one the explorer
``planrep.ffp._explore``, which plan counting, goal distances and the
strongly connected components walk; both count the hard exploration
caps alike.  The oracles certify desk-scale claims only;
they enumerate states explicitly and break ties by action declaration
order so results are reproducible byte for byte.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass

from .ffp import DEFAULT_EDGE_CAP, DEFAULT_STATE_CAP, FfpInstance, GroundView, _explore, ground_view
from .model import StripsInstance, _bits


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an optimal-plan search; ``plan`` is None when the
    instance is unsolvable."""

    plan: list[str] | None
    optimal_length: int | None
    states_expanded: int


def _shortest_plan(p, start, state_cap: int, edge_cap: int = DEFAULT_EDGE_CAP):
    """Shortest action sequence from ``start`` (None: the initial state)
    to a goal state, or None when no goal is reachable, plus the number
    of states expanded: the view's search, read back from the goal."""
    view = ground_view(p)
    start = view.init if start is None else start
    parents, expanded = view.shortest_path(start, state_cap, edge_cap)
    t = next(reversed(parents))
    if not view.is_goal(t):
        return None, expanded
    plan: list[str] = []
    while parents[t] is not None:
        t, name = parents[t]
        plan.append(name)
    plan.reverse()
    return plan, expanded


def _depths(parents: dict) -> dict:
    """Breadth-first depth of every state of a parent map, which lists
    each state after its parent."""
    depth: dict = {}
    for t, link in parents.items():
        depth[t] = 0 if link is None else depth[link[0]] + 1
    return depth


def bfs_solve(
    p: StripsInstance | FfpInstance,
    state_cap: int = DEFAULT_STATE_CAP,
    edge_cap: int = DEFAULT_EDGE_CAP,
) -> SearchResult:
    """Breadth-first search from the initial state; returns a shortest
    plan with deterministic tie-breaking (queue order, then action
    declaration order)."""
    plan, expanded = _shortest_plan(p, None, state_cap, edge_cap)
    return SearchResult(plan, None if plan is None else len(plan), expanded)


def optplan_length(
    p: StripsInstance | FfpInstance,
    s=None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> int | None:
    """Length of the shortest plan from state ``s`` (default: the initial
    state) to the goal, or None when unreachable.  Each call searches
    afresh; :func:`goal_distances` answers for every state at once.
    A STRIPS state outside ``0 .. p.full_mask``, or a functional state
    that :meth:`FfpInstance.check_state` refuses, raises ValueError."""
    if s is not None and isinstance(p, FfpInstance):
        p.check_state(s)
    elif s is not None and isinstance(p, StripsInstance) and not 0 <= s <= p.full_mask:
        raise ValueError(f"state {s} is outside the frame of {p.n_atoms} atoms")
    plan, _ = _shortest_plan(p, s, state_cap)
    return None if plan is None else len(plan)


def goal_distances(p: StripsInstance | FfpInstance) -> dict:
    """Shortest-plan length to the goal from every state reachable from
    the initial state; states that cannot reach the goal are absent."""
    return _goal_distances(ground_view(p))


def _goal_distances(view: GroundView) -> dict:
    """:func:`goal_distances` over a view already built: one forward
    exploration records every transition's reverse as it expands a state,
    then the same explorer runs backwards from every reachable goal state
    over those reversed edges."""
    predecessors: dict = {}

    def successors(s):
        moves = view.successors(s)
        for name, t in moves:
            predecessors.setdefault(t, []).append((name, s))
        return moves

    forward, _ = _explore([view.init], successors)
    backward, _ = _explore(filter(view.is_goal, forward), lambda s: predecessors.get(s, ()))
    return _depths(backward)


def count_optimal_plans(
    p: StripsInstance | FfpInstance,
    state_cap: int = DEFAULT_STATE_CAP,
    edge_cap: int = DEFAULT_EDGE_CAP,
) -> int:
    """Number of distinct optimal action sequences, counted by dynamic
    programming over the breadth-first layering during the one
    exploration: a state's count is final when it is expanded, because
    every state one layer up is expanded before it, and is then dropped
    unless the state is a goal.

    Sequences are counted, not state paths: distinct actions between the
    same state pair multiply the count.  Unsolvable instances count 0; an
    initial state already satisfying the goal counts the empty plan.
    """
    view = ground_view(p)
    depth: dict = {view.init: 0}
    counts: dict = {view.init: 1}

    def successors(s):
        moves = view.successors(s)
        d, c = depth[s] + 1, (counts[s] if view.is_goal(s) else counts.pop(s))
        for _, t in moves:
            if depth.setdefault(t, d) == d:
                counts[t] = counts.get(t, 0) + c
        return moves

    _explore([view.init], successors, None, state_cap, edge_cap)
    # every state is expanded, so only goal counts are left
    optimum = min((depth[s] for s in counts), default=None)
    return sum(c for s, c in counts.items() if depth[s] == optimum)


_DECIMAL_BOUND = 10**4300  # the least count with 4301 digits


def format_count(count: int) -> str:
    """Decimal up to 4300 digits (CPython's default limit for ``str``),
    past that ``2^e`` for a power of two and hex otherwise.  The decimal
    goes through ``Decimal``, which the interpreter's int-to-string digit
    limit does not bound, so the text depends on the count alone."""
    if count < _DECIMAL_BOUND:
        return str(decimal.Decimal(count))
    return f"2^{count.bit_length() - 1}" if count & (count - 1) == 0 else hex(count)


# ---------------------------------------------------------------------------
# Atom-dependency graphs


@dataclass(frozen=True)
class CausalGraph:
    """Directed atom-dependency graph over a frame; nodes are the frame's
    atom names in declaration order, edges are (source id, target id)."""

    nodes: tuple[str, ...]
    edges: frozenset[tuple[int, int]]
    refined: bool


def causal_graph(p: StripsInstance) -> CausalGraph:
    """Edge u -> v whenever some action mentions u in its precondition or
    postcondition and writes v (u != v)."""
    edges = set()
    for a in p.actions:
        pre_atoms = a.pre.atoms
        post_atoms = a.post.atoms
        for u in _bits(pre_atoms | post_atoms):
            for v in _bits(post_atoms):
                if u != v:
                    edges.add((u, v))
    return CausalGraph(p.atoms, frozenset(edges), refined=False)


def refined_causal_graph(p: StripsInstance) -> CausalGraph:
    """Refined dependency graph: a read-only precondition atom points at
    every written atom, and two co-written atoms u, v connect only when
    some action writes u without v (or no action writes v without u)."""
    writers: dict[int, int] = {}  # atom -> bitset of the actions writing it
    for k, a in enumerate(p.actions):
        for u in _bits(a.post.atoms):
            writers[u] = writers.get(u, 0) | 1 << k
    edges = set()
    for a in p.actions:
        pre_only = a.pre.atoms & ~a.post.atoms
        post_atoms = a.post.atoms
        for u in _bits(pre_only):
            for v in _bits(post_atoms):
                if u != v:
                    edges.add((u, v))
        for u in _bits(post_atoms):
            for v in _bits(post_atoms):
                if u == v or (u, v) in edges:
                    continue
                if writers[u] & ~writers[v] or not writers[v] & ~writers[u]:
                    edges.add((u, v))
    return CausalGraph(p.atoms, frozenset(edges), refined=True)


def scc_and_acyclicity(g: CausalGraph) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Strongly connected components (sorted members, components ordered
    by smallest member) and whether the graph is acyclic.

    Only atoms that touch an edge become component members; the graphs
    here never carry self-loops, so acyclicity is every component being a
    singleton.
    """
    out: dict[int, list[int]] = {node: [] for edge in g.edges for node in edge}
    into: dict[int, list[int]] = {node: [] for node in out}
    for u, v in g.edges:
        out[u].append(v)
        into[v].append(u)

    # an atom's component is what it reaches both ways among unclaimed atoms:
    # a path inside a component never leaves it, so claimed ones can be skipped
    claimed: set[int] = set()
    components: list[tuple[int, ...]] = []
    for atom in sorted(out):  # the smallest unclaimed atom starts each component
        if atom not in claimed:
            forward, _ = _explore([atom], lambda s: [(None, t) for t in out[s] if t not in claimed])
            backward, _ = _explore([atom], lambda s: [(None, t) for t in into[s] if t not in claimed])
            members = sorted(forward.keys() & backward.keys())
            claimed.update(members)
            components.append(tuple(members))
    return tuple(components), all(len(c) == 1 for c in components)
