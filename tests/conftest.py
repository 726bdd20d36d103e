"""Shared fixtures: the small-instance corpus and independent test-side
oracles (naive plan enumeration, a plan's states by folding
``model.step``, the reachable states by a ground-semantics walk, the
per-assignment satisfiability oracle and a second, set-based one,
per-clause subset helpers, a set-based dependency-graph evaluator, the
reference grammar inducer, the keep-every-count plan counter)."""

from __future__ import annotations

import itertools
import random

import pytest

from planrep import (
    CounterSpec,
    MacroGrammar,
    StripsAction,
    LiteralSet,
    StripsInstance,
    all_instances_instance,
    counter_instance,
    indexed_plans_instance,
    sat_verifier_instance,
)
from planrep.ffp import DEFAULT_EDGE_CAP, DEFAULT_STATE_CAP, _explore, ground_view
from planrep.model import action_applicable, apply_update, satisfies, step
from planrep.sat3 import ThreeSatInstance, enumerate_clauses, instance_from_index

# The optimal plans of the paper's 4-bit counters from 0 to 1111: the ruler
# sequence of the binary counter and the set/reset steps of the Gray code
PAPER_RULER_16 = [
    "a1", "a2", "a1", "a3", "a1", "a2", "a1", "a4",
    "a1", "a2", "a1", "a3", "a1", "a2", "a1", "a5",
]
PAPER_GRAY_16 = [
    "s1", "s2", "r1", "s3", "s1", "r2", "r1", "s4",
    "s1", "s2", "r1", "r3", "s1", "r2", "r1", "s5",
]


def small_corpus() -> list[tuple[str, StripsInstance]]:
    """Every generator at its smallest sizes; all BFS-solvable quickly."""
    entries = [
        ("counter-1", counter_instance(CounterSpec(1, 1, "binary"))),
        ("counter-2", counter_instance(CounterSpec(2, 3, "binary"))),
        ("counter-3", counter_instance(CounterSpec(3, 5, "binary"))),
        ("gray-1", counter_instance(CounterSpec(1, 1, "gray"))),
        ("gray-2", counter_instance(CounterSpec(2, 3, "gray"))),
        ("gray-3", counter_instance(CounterSpec(3, 6, "gray"))),
        ("indexed-1", indexed_plans_instance(1)),
        ("indexed-2", indexed_plans_instance(2)),
        ("satverify-3-0", sat_verifier_instance(3, 0)),
        ("satverify-3-5", sat_verifier_instance(3, 5)),
        ("satverify-3-255", sat_verifier_instance(3, 255)),
        ("allinst-1", all_instances_instance(1)),
    ]
    return entries


@pytest.fixture(scope="session")
def corpus():
    return small_corpus()


def plan_states(p: StripsInstance, plan) -> list[int]:
    """The states ``plan`` visits from the initial state of ``p``, the
    initial state first, by folding ``model.step``: an action that does
    not apply raises NotApplicableError, an undeclared name
    UnknownActionError."""
    return list(
        itertools.accumulate(plan, lambda s, name: step(s, p.action(name)), initial=p.init)
    )


def reachable_states(p: StripsInstance) -> set[int]:
    """States reachable from the initial state of ``p``, by a depth-first
    walk over the ground semantics of ``p.actions`` rather than the
    successor kernel."""
    seen, stack = {p.init}, [p.init]
    while stack:
        s = stack.pop()
        for a in p.actions:
            if action_applicable(s, a):
                t = apply_update(s, a.post)
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return seen


def enumerate_plans_of_length(p: StripsInstance, length: int) -> list[tuple[str, ...]]:
    """Naive depth-bounded DFS listing every valid plan of exactly the
    given length; the independent counting oracle, written on the ground
    semantics of ``model`` rather than on the successor kernel."""
    found: list[tuple[str, ...]] = []

    def recurse(state, prefix):
        if len(prefix) == length:
            if satisfies(state, p.goal):
                found.append(tuple(prefix))
            return
        for a in p.actions:
            if action_applicable(state, a):
                prefix.append(a.name)
                recurse(apply_update(state, a.post), prefix)
                prefix.pop()

    recurse(p.init, [])
    return found


def reference_count_optimal_plans(
    p, state_cap: int = DEFAULT_STATE_CAP, edge_cap: int = DEFAULT_EDGE_CAP
) -> int:
    """Optimal-plan counting as first written: the count of every reached
    state is kept until the exploration ends.  A counter that frees
    counts must agree with it, caps included."""
    view = ground_view(p)
    depth: dict = {view.init: 0}
    counts: dict = {view.init: 1}

    def successors(s):
        moves = view.successors(s)
        d, c = depth[s] + 1, counts[s]
        for _, t in moves:
            if depth.setdefault(t, d) == d:
                counts[t] = counts.get(t, 0) + c
        return moves

    _explore([view.init], successors, None, state_cap, edge_cap)
    optimum = next((d for s, d in depth.items() if view.is_goal(s)), None)
    return sum(c for s, c in counts.items() if depth[s] == optimum and view.is_goal(s))


def reference_is_satisfiable(inst: ThreeSatInstance) -> tuple[bool, int | None]:
    """Per-assignment satisfiability: every enabled clause is tested
    against each assignment in increasing order, so the first assignment
    that passes is the numerically smallest witness."""
    clauses = enumerate_clauses(inst.n)
    enabled = [clauses[j - 1] for j in inst.enabled_indices()]
    for assignment in range(1 << inst.n):
        if all(c.satisfied_by(assignment) for c in enabled):
            return True, assignment
    return False, None


def index_from_instance(inst: ThreeSatInstance) -> int:
    """The clause-subset index of an instance: its enabled-clause mask."""
    return inst.mask


def enabled_atoms(n: int, i: int) -> set[int]:
    """Indices j of the enabling atoms seeded true for subset i."""
    return set(instance_from_index(n, i).enabled_indices())


def satisfies_all(inst: ThreeSatInstance, assignment: int) -> bool:
    """True iff the assignment satisfies every enabled clause, tested
    clause by clause."""
    clauses = enumerate_clauses(inst.n)
    return all(
        clauses[j - 1].satisfied_by(assignment) for j in inst.enabled_indices()
    )


def double_loop_satisfiable(n: int, mask: int) -> bool:
    """Second satisfiability oracle, coded with set semantics instead of
    bit tests: a clause holds when its literal set meets the assignment's
    true/false literal sets."""
    import itertools

    clause_pool = []
    for vs in itertools.combinations(range(1, n + 1), 3):
        for pol in range(8):
            clause_pool.append(
                frozenset(
                    (v, "neg" if (pol >> b) & 1 else "pos")
                    for b, v in enumerate(vs)
                )
            )
    enabled = [c for j, c in enumerate(clause_pool) if (mask >> j) & 1]
    for bits in itertools.product([False, True], repeat=n):
        truth = {(v, "pos" if bits[v - 1] else "neg") for v in range(1, n + 1)}
        if all(clause & truth for clause in enabled):
            return True
    return False


def random_instance(rng: random.Random, max_atoms=6, max_actions=8) -> StripsInstance:
    """Seeded random small instance for fuzz checks."""
    n = rng.randint(1, max_atoms)
    atoms = [f"p{i}" for i in range(n)]

    def random_literals(max_size):
        pos = neg = 0
        for i in rng.sample(range(n), rng.randint(0, min(max_size, n))):
            if rng.random() < 0.5:
                pos |= 1 << i
            else:
                neg |= 1 << i
        return LiteralSet(pos, neg)

    actions = [
        StripsAction(f"op{k}", random_literals(3), random_literals(3))
        for k in range(rng.randint(1, max_actions))
    ]
    init = rng.getrandbits(n)
    goal = random_literals(3)
    return StripsInstance(atoms, actions, init, goal)


def reference_induce_grammar(plan) -> MacroGrammar:
    """The repeated-digram inducer as first written: a full rescan per
    rule, with the most frequent digram chosen by an explicit
    (-count, first occurrence) key.  Any faster inducer must produce the
    same grammar, rule for rule."""
    if not plan:
        raise ValueError("cannot induce a grammar for the empty plan")
    prefix = _reference_fresh_prefix(plan)
    seq = list(plan)
    macros = []
    counter = 1
    while True:
        best = _reference_most_frequent_digram(seq)
        if best is None:
            break
        name = f"{prefix}{counter}"
        counter += 1
        macros.append((name, best))
        seq = _reference_replace_digram(seq, best, name)
    if len(seq) == 1 and any(name == seq[0] for name, _ in macros):
        root = seq[0]
    else:
        root = f"{prefix}{counter}"
        macros.append((root, tuple(seq)))
    return MacroGrammar(macros, root)


def _reference_most_frequent_digram(seq):
    counts = {}
    last_end = {}
    first_seen = {}
    for i in range(len(seq) - 1):
        pair = (seq[i], seq[i + 1])
        if last_end.get(pair, -1) >= i:  # overlaps the occurrence just counted
            continue
        counts[pair] = counts.get(pair, 0) + 1
        last_end[pair] = i + 1
        first_seen.setdefault(pair, i)
    best = None
    for pair, count in counts.items():
        if count < 2:
            continue
        key = (-count, first_seen[pair])
        if best is None or key < best[0]:
            best = (key, pair)
    return None if best is None else best[1]


def _reference_replace_digram(seq, pair, name):
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == pair[0] and seq[i + 1] == pair[1]:
            out.append(name)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def _reference_fresh_prefix(plan):
    names = set(plan)
    prefix = "M"
    while any(
        name.startswith(prefix) and name[len(prefix):].isdigit() for name in names
    ):
        prefix += "M"
    return prefix
