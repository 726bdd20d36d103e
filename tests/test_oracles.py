"""Search oracles and dependency-graph analysis, including the
independent double-oracle checks for plan counting and the refined graph."""

from __future__ import annotations

import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from planrep import (
    CounterSpec,
    bfs_solve,
    causal_graph,
    count_optimal_plans,
    counter_instance,
    indexed_plans_instance,
    optplan_length,
    refined_causal_graph,
    sat_verifier_instance,
    scc_and_acyclicity,
    validate_plan,
)
from planrep.errors import ExplorationCapExceededError
from planrep.ffp import DEFAULT_EDGE_CAP, DEFAULT_STATE_CAP, _explore, ground_view, strips_to_ffp
from planrep.model import LiteralSet, StripsAction, StripsInstance
from planrep.oracles import CausalGraph, SearchResult, format_count, goal_distances

from conftest import (
    enumerate_plans_of_length,
    random_instance,
    reachable_states,
    reference_count_optimal_plans,
)


class TestBfsSolve:
    def test_choice_family_optimum(self):
        assert bfs_solve(indexed_plans_instance(2)).optimal_length == 3

    def test_gray_counter_optimum(self):
        inst = counter_instance(CounterSpec(5, 16, "gray"))
        assert bfs_solve(inst).optimal_length == 16

    def test_unsolvable(self):
        dead = StripsInstance(["x1"], [], 0, LiteralSet(pos=1))
        result = bfs_solve(dead)
        assert result.plan is None and result.optimal_length is None

    def test_plans_returned_always_validate(self, corpus):
        for name, inst in corpus:
            result = bfs_solve(inst)
            assert result.plan is not None, name
            trace = validate_plan(inst, result.plan)
            assert trace.valid and len(result.plan) == result.optimal_length, name

    def test_deterministic_tie_breaking(self):
        inst = indexed_plans_instance(3)
        assert bfs_solve(inst).plan == bfs_solve(inst).plan
        # first-declared variant wins every tie
        assert bfs_solve(inst).plan == ["a1", "a2", "a1", "a3", "a1", "a2", "a1"]

    def test_state_cap(self):
        # 63 increments pop 63 states; the goal is found on the last one's move
        inst = counter_instance(CounterSpec(6, 63, "binary"))
        with pytest.raises(ExplorationCapExceededError, match="^state cap of 62 exceeded$"):
            bfs_solve(inst, state_cap=62)
        assert bfs_solve(inst, state_cap=63).states_expanded == 63

    def test_edge_cap(self):
        inst = indexed_plans_instance(3)
        with pytest.raises(ExplorationCapExceededError, match="^edge cap of 22 exceeded$"):
            bfs_solve(inst, edge_cap=22)
        assert bfs_solve(inst, edge_cap=23).optimal_length == 7


class TestShortestPathKernel:
    """A STRIPS view's fused ``shortest_path`` against the reference: the
    generic explorer over the same view's ``successors``."""

    @settings(deadline=None)  # some drawn 12-atom instances take about 300 ms
    @given(st.randoms(use_true_random=False))
    def test_agrees_with_the_explorer_from_every_reachable_start(self, rng):
        inst = random_instance(rng, max_atoms=12)  # one or two state bytes
        assert bfs_solve(inst) == _reference_search(inst, inst.init)[0]
        for s in reachable_states(inst):
            start = inst.with_init(s)
            want, edges = _reference_search(inst, s)
            assert bfs_solve(start) == want
            assert optplan_length(inst, s) == want.optimal_length
            # every cap up to one past what the reference needs
            for kind, needed in (("state_cap", want.states_expanded), ("edge_cap", edges)):
                for cap in range(needed + 2):
                    capped = _outcome(lambda: _reference_search(inst, s, **{kind: cap})[0])
                    assert _outcome(lambda: bfs_solve(start, **{kind: cap})) == capped
                    if kind == "state_cap":
                        assert _outcome(lambda: optplan_length(inst, s, state_cap=cap)) == getattr(
                            capped, "optimal_length", capped
                        )


class TestOptplanLength:
    def test_goal_state_distance_zero(self):
        inst = counter_instance(CounterSpec(3, 5, "binary"))
        assert optplan_length(inst, inst.state("x1", "x3")) == 0

    def test_two_increments_remaining(self):
        inst = counter_instance(CounterSpec(3, 7, "binary"))
        assert optplan_length(inst, inst.state("x1", "x3")) == 2

    def test_unreachable_goal(self):
        dead = StripsInstance(["x1"], [], 0, LiteralSet(pos=1))
        assert optplan_length(dead, 0) is None

    def test_distance_zero_exactly_at_goal_states(self):
        inst = counter_instance(CounterSpec(3, 6, "gray"))
        from planrep.model import satisfies

        for s in range(8):
            assert (optplan_length(inst, s) == 0) == satisfies(s, inst.goal)

    def test_distance_drops_by_at_most_one_per_step(self):
        inst = counter_instance(CounterSpec(3, 6, "gray"))
        from planrep.model import action_applicable, apply_update

        for s in range(8):
            d = optplan_length(inst, s)
            if d is None:
                continue
            for a in inst.actions:
                if action_applicable(s, a):
                    t = apply_update(s, a.post)
                    dt = optplan_length(inst, t)
                    assert dt is not None and dt >= d - 1

    def test_leaves_no_state_on_instance(self):
        inst = counter_instance(CounterSpec(3, 7, "binary"))
        attributes = set(vars(inst))
        assert optplan_length(inst, 0) == 7
        assert optplan_length(inst, 0) == 7
        assert set(vars(inst)) == attributes

    @pytest.mark.parametrize("state", [(0, 0), (0, 0, 0, 0), (2, 0, 0), (0, -1, 0)])
    def test_functional_state_outside_the_domains_rejected(self, state):
        inst = strips_to_ffp(counter_instance(CounterSpec(3, 7, "binary")))
        with pytest.raises(ValueError, match="^state (width|value) "):
            optplan_length(inst, state)
        assert optplan_length(inst, (0, 0, 0)) == 7

    @pytest.mark.parametrize("state", [1 << 12, -1, (1 << 13) - 1, 1 << 64])
    def test_state_outside_the_frame_rejected(self, state):
        inst = counter_instance(CounterSpec(12, 4095, "binary"))
        with pytest.raises(ValueError, match="outside the frame of 12 atoms"):
            optplan_length(inst, state)

    def test_state_in_the_last_partial_byte(self):
        inst = counter_instance(CounterSpec(12, 4095, "binary"))  # 12 atoms: 1.5 bytes
        s = inst.state("x9", "x12")
        assert s == (1 << 8) | (1 << 11)
        assert optplan_length(inst, s) == 4095 - s == goal_distances(inst)[s]
        assert optplan_length(inst, inst.full_mask) == 0


class TestGoalDistances:
    def test_agrees_with_optplan_length_on_every_reachable_state(self):
        rng = random.Random(31)
        instances = [
            counter_instance(CounterSpec(n, target, encoding))
            for n in range(1, 6)
            for encoding in ("binary", "gray")
            for target in (0, 1 << (n - 1), (1 << n) - 1)
        ] + [random_instance(rng) for _ in range(60)]
        unreachable = 0
        for inst in instances:
            distances = goal_distances(inst)
            for s in reachable_states(inst):
                assert distances.get(s) == optplan_length(inst, s)
                unreachable += s not in distances
        assert unreachable  # the corpus includes dead ends


class TestCountOptimalPlans:
    def test_reference_counts(self):
        assert count_optimal_plans(indexed_plans_instance(3)) == 128

    def test_empty_plan_counts_once(self):
        inst = counter_instance(CounterSpec(2, 0, "binary"))
        assert count_optimal_plans(inst) == 1

    def test_deterministic_instance_counts_once(self):
        assert count_optimal_plans(counter_instance(CounterSpec(3, 7, "binary"))) == 1

    def test_unsolvable_counts_zero(self):
        dead = StripsInstance(["x1"], [], 0, LiteralSet(pos=1))
        assert count_optimal_plans(dead) == 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_agrees_with_naive_enumeration_on_choice_family(self, n):
        inst = indexed_plans_instance(n)
        optimum = bfs_solve(inst).optimal_length
        assert count_optimal_plans(inst) == len(enumerate_plans_of_length(inst, optimum))

    def test_agrees_with_naive_enumeration_on_fuzzed_instances(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 50:
            inst = random_instance(rng)
            result = bfs_solve(inst)
            if result.plan is None or result.optimal_length > 6:
                continue
            naive = len(enumerate_plans_of_length(inst, result.optimal_length))
            assert count_optimal_plans(inst) == naive
            checked += 1

    def test_parallel_actions_multiply_counts(self):
        # two distinct actions between the same state pair: 2 sequences
        twin = StripsInstance(
            ["g"],
            [
                StripsAction("left", LiteralSet(neg=1), LiteralSet(pos=1)),
                StripsAction("right", LiteralSet(neg=1), LiteralSet(pos=1)),
            ],
            0,
            LiteralSet(pos=1),
        )
        assert count_optimal_plans(twin) == 2

    @settings(deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 64))
    def test_freeing_counts_agrees_with_keeping_them(self, rng, cap):
        inst = random_instance(rng, max_atoms=10)
        assert count_optimal_plans(inst) == reference_count_optimal_plans(inst)
        for kind in ("state_cap", "edge_cap"):
            got = _outcome(lambda: count_optimal_plans(inst, **{kind: cap}))
            assert got == _outcome(lambda: reference_count_optimal_plans(inst, **{kind: cap}))

    def test_counts_of_expanded_states_are_freed(self):
        # the choice family at k = 15 has 2^15 + 1 states whose counts grow
        # to 2^15 bits: kept until the end they peaked at 152 MiB of traced
        # allocations, freed once expanded at 11.5 MiB
        inst = indexed_plans_instance(15)
        tracemalloc.start()
        try:
            assert count_optimal_plans(inst) == 1 << 32767
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 << 20


class TestFormatCount:
    def test_decimal_while_str_prints_it(self):
        assert [format_count(c) for c in (0, 1, 128, 10**4299)] == ["0", "1", "128", str(10**4299)]

    def test_past_the_digit_limit_a_power_of_two_is_an_exponent(self):
        assert format_count(1 << 16383) == "2^16383"
        assert format_count(1 << 32767) == "2^32767"

    def test_past_the_digit_limit_anything_else_is_hex(self):
        assert format_count(3 << 16383) == hex(3 << 16383)
        assert format_count(10**4300) == hex(10**4300)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-string digit limit")
    def test_decimal_whatever_the_interpreters_digit_limit(self):
        expected = str(2**4095)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            got = format_count(2**4095)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(got) == 1233 and got == expected


class TestCausalGraphs:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_binary_counter_graph_is_one_component(self, n):
        components, acyclic = scc_and_acyclicity(
            causal_graph(counter_instance(CounterSpec(n, 0, "binary")))
        )
        assert not acyclic
        assert components == (tuple(range(n)),)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_gray_counter_graph_is_acyclic(self, n):
        _, acyclic = scc_and_acyclicity(
            causal_graph(counter_instance(CounterSpec(n, 0, "gray")))
        )
        assert acyclic

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_refined_graphs_of_both_counters_acyclic(self, n):
        for encoding in ("binary", "gray"):
            _, acyclic = scc_and_acyclicity(
                refined_causal_graph(counter_instance(CounterSpec(n, 0, encoding)))
            )
            assert acyclic, encoding

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_verifier_family_has_a_big_component(self, n):
        components, _ = scc_and_acyclicity(causal_graph(sat_verifier_instance(n, 0)))
        assert max(len(c) for c in components) > 1

    def test_refined_edges_match_literal_definition_on_fuzz(self):
        rng = random.Random(99)
        for _ in range(40):
            inst = random_instance(rng)
            assert refined_causal_graph(inst).edges == _refined_edges_by_definition(inst)

    def test_knoblock_edges_match_literal_definition_on_fuzz(self):
        rng = random.Random(100)
        for _ in range(40):
            inst = random_instance(rng)
            assert causal_graph(inst).edges == _knoblock_edges_by_definition(inst)


class TestScc:
    def test_empty_graph(self):
        components, acyclic = scc_and_acyclicity(
            CausalGraph(("a",), frozenset(), refined=False)
        )
        assert components == () and acyclic

    def test_two_node_cycle(self):
        g = CausalGraph(("a", "b"), frozenset({(0, 1), (1, 0)}), refined=False)
        components, acyclic = scc_and_acyclicity(g)
        assert components == ((0, 1),) and not acyclic

    def test_chain(self):
        g = CausalGraph(("a", "b", "c"), frozenset({(0, 1), (1, 2)}), refined=False)
        components, acyclic = scc_and_acyclicity(g)
        assert acyclic and components == ((0,), (1,), (2,))

    @given(
        st.sets(
            st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda e: e[0] != e[1])
        )
    )
    def test_components_are_mutual_reachability_classes(self, edges):
        nodes = {x for edge in edges for x in edge}
        reach = {u: {v for w, v in edges if w == u} for u in nodes}
        for k in nodes:  # Warshall's transitive closure
            for u in nodes:
                if k in reach[u]:
                    reach[u] |= reach[k]
        classes = {tuple(sorted({u} | {v for v in reach[u] if u in reach[v]})) for u in nodes}

        g = CausalGraph(tuple(f"a{i}" for i in range(12)), frozenset(edges), refined=False)
        components, acyclic = scc_and_acyclicity(g)
        assert set(components) == classes and len(components) == len(classes)
        assert all(list(c) == sorted(c) for c in components)
        assert [c[0] for c in components] == sorted(c[0] for c in components)
        assert acyclic == (not any(u in reach[u] for u in nodes))


def _reference_search(inst, start, state_cap=DEFAULT_STATE_CAP, edge_cap=DEFAULT_EDGE_CAP):
    """The search result of ``_explore`` over the view's successors from
    ``start``, read back from the goal, and the number of edges it
    followed."""
    view = ground_view(inst)
    edges = 0

    def successors(s):
        nonlocal edges
        for move in view.successors(s):
            edges += 1
            yield move

    parents, expanded = _explore([start], successors, view.is_goal, state_cap, edge_cap)
    t = next(reversed(parents))
    if not view.is_goal(t):
        return SearchResult(None, None, expanded), edges
    plan = []
    while parents[t] is not None:
        t, name = parents[t]
        plan.append(name)
    return SearchResult(plan[::-1], len(plan), expanded), edges


def _outcome(search):
    """What ``search()`` returns, or the message of the cap it exceeds."""
    try:
        return search()
    except ExplorationCapExceededError as exc:
        return str(exc)


def _as_sets(inst):
    per_action = []
    for a in inst.actions:
        pre = {i for i in range(inst.n_atoms) if (a.pre.atoms >> i) & 1}
        post = {i for i in range(inst.n_atoms) if (a.post.atoms >> i) & 1}
        per_action.append((pre, post))
    return per_action


def _knoblock_edges_by_definition(inst):
    """Direct transcription with set semantics: u before/after, v after."""
    edges = set()
    for pre, post in _as_sets(inst):
        for u in pre | post:
            for v in post:
                if u != v:
                    edges.add((u, v))
    return frozenset(edges)


def _refined_edges_by_definition(inst):
    """Direct transcription of the refined rule, quantifying over all
    atom pairs and actions with set semantics."""
    table = _as_sets(inst)
    edges = set()
    for u in range(inst.n_atoms):
        for v in range(inst.n_atoms):
            if u == v:
                continue
            cond1 = any(u in pre - post and v in post for pre, post in table)
            cond2 = any(
                u in post and v in post for _, post in table
            ) and (
                any(u in post and v not in post for _, post in table)
                or not any(u not in post and v in post for _, post in table)
            )
            if cond1 or cond2:
                edges.add((u, v))
    return frozenset(edges)
