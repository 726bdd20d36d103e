"""Clause enumeration convention and the bit-sliced satisfiability
oracle, cross-checked against the per-assignment reference oracle and an
independently coded set-based one."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from planrep.errors import CapExceededError, IndexOutOfRangeError
from planrep.sat3 import (
    Clause,
    ThreeSatInstance,
    clause_count,
    enumerate_clauses,
    instance_from_index,
    is_satisfiable,
)

from conftest import (
    double_loop_satisfiable,
    enabled_atoms,
    index_from_instance,
    reference_is_satisfiable,
    satisfies_all,
)


@st.composite
def subsets(draw):
    """(n, mask) for n = 0..8, with the mask empty, sparse (a few clauses),
    dense (all but a few), full, or any subset at all."""
    n = draw(st.integers(0, 8))
    m = clause_count(n)
    full = (1 << m) - 1
    few = sum(1 << j for j in draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=min(m, 24))))
    kind = draw(st.sampled_from(["empty", "sparse", "dense", "full", "any"]))
    if kind == "any":
        return n, draw(st.integers(0, full))
    return n, {"empty": 0, "sparse": few, "dense": full & ~few, "full": full}[kind]


class TestEnumeration:
    def test_no_clauses_below_three_variables(self):
        assert enumerate_clauses(0) == []
        assert enumerate_clauses(2) == []
        assert clause_count(2) == 0

    def test_n3_bookends(self):
        clauses = enumerate_clauses(3)
        assert len(clauses) == 8
        assert clauses[0].literals == ((1, False), (2, False), (3, False))
        assert clauses[-1].literals == ((1, True), (2, True), (3, True))

    def test_counts_match_binomial_bound(self):
        assert clause_count(4) == 32 <= 8 * 4**3
        for n in range(13):
            assert clause_count(n) == 8 * math.comb(n, 3) <= 8 * n**3
            assert len(enumerate_clauses(n)) == clause_count(n)

    def test_enumeration_is_deterministic(self):
        assert enumerate_clauses(5) == enumerate_clauses(5)

    def test_clause_invariants(self):
        for clause in enumerate_clauses(4):
            variables = [v for v, _ in clause.literals]
            assert sorted(variables) == variables
            assert len(set(variables)) == 3

    def test_clause_rejects_repeated_variables(self):
        with pytest.raises(ValueError):
            Clause(((1, False), (1, True), (2, False)))


class TestIndexBijection:
    def test_empty_and_full(self):
        assert instance_from_index(3, 0).enabled_indices() == []
        assert instance_from_index(3, 255).enabled_indices() == list(range(1, 9))

    def test_enabled_indices_match_per_clause_scan_exhaustive_n3(self):
        for i in range(256):
            inst = instance_from_index(3, i)
            assert inst.enabled_indices() == [j for j in range(1, 9) if inst.enabled(j)]

    @given(st.integers(4, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << clause_count(n)) - 1))))
    def test_enabled_indices_match_per_clause_scan(self, subset):
        inst = instance_from_index(*subset)
        scan = [j for j in range(1, clause_count(inst.n) + 1) if inst.enabled(j)]
        assert inst.enabled_indices() == scan

    def test_round_trip_exhaustive_n3(self):
        for i in range(256):
            assert index_from_instance(instance_from_index(3, i)) == i

    def test_round_trip_sampled_n4(self):
        rng = random.Random(7)
        for _ in range(200):
            i = rng.randrange(1 << clause_count(4))
            assert index_from_instance(instance_from_index(4, i)) == i

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            instance_from_index(3, 256)
        with pytest.raises(IndexOutOfRangeError):
            instance_from_index(3, -1)

    def test_enabled_atoms(self):
        assert enabled_atoms(3, 0) == set()
        assert enabled_atoms(3, 255) == set(range(1, 9))
        assert enabled_atoms(3, 5) == {1, 3}


class TestSatisfiability:
    def test_empty_set_trivially_satisfiable(self):
        sat, witness = is_satisfiable(instance_from_index(3, 0))
        assert sat and witness == 0

    def test_full_set_unsatisfiable(self):
        # every assignment falsifies the clause complementing its bits
        sat, witness = is_satisfiable(instance_from_index(3, 255))
        assert not sat and witness is None

    def test_single_clause_smallest_witness(self):
        # clause 1 is {x1, x2, x3}; the smallest satisfying assignment
        # sets only x1 (binary 001)
        sat, witness = is_satisfiable(instance_from_index(3, 1))
        assert sat and witness == 0b001

    def test_witness_satisfies_every_enabled_clause(self):
        for i in range(256):
            inst = instance_from_index(3, i)
            sat, witness = is_satisfiable(inst)
            if sat:
                assert satisfies_all(inst, witness)

    def test_agrees_with_independent_double_loop(self):
        for i in range(256):
            sat, _ = is_satisfiable(instance_from_index(3, i))
            assert sat == double_loop_satisfiable(3, i)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            is_satisfiable(ThreeSatInstance(30, 0))

    def test_default_cap_refuses_25_variables(self):
        with pytest.raises(CapExceededError, match="cap of 24"):
            is_satisfiable(ThreeSatInstance(25, 0))

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match="^variable count must be nonnegative$"):
            ThreeSatInstance(-1, 0)
        with pytest.raises(ValueError, match="^variable count must be nonnegative$"):
            instance_from_index(-1, 0)


class TestAgainstReference:
    """Verdicts and witnesses equal the per-assignment reference oracle's."""

    def test_every_subset_at_n3(self):
        for i in range(256):
            inst = instance_from_index(3, i)
            assert is_satisfiable(inst) == reference_is_satisfiable(inst)

    @settings(deadline=None)  # the reference scans up to 256 x 448 clauses at n=8
    @given(subsets())
    @example((0, 0))
    @example((8, 0))
    @example((8, (1 << clause_count(8)) - 1))
    def test_drawn_subsets(self, subset):
        inst = ThreeSatInstance(*subset)
        assert is_satisfiable(inst) == reference_is_satisfiable(inst)


class TestLiteralMasks:
    """``Clause.masks`` and ``Clause.first_true`` against literal semantics:
    (v, negated) is true iff bit v-1 of the assignment differs from negated."""

    @staticmethod
    def literal_true(assignment, var, negated):
        return ((assignment >> (var - 1)) & 1) == (0 if negated else 1)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_clause_and_assignment(self, n):
        for clause in enumerate_clauses(n):
            assert len(clause.masks) == 3
            for (var, negated), (pos, neg) in zip(clause.literals, clause.masks):
                assert (pos, neg) == ((0, 1 << (var - 1)) if negated else (1 << (var - 1), 0))
            for assignment in range(1 << n):
                truths = [self.literal_true(assignment, v, neg) for v, neg in clause.literals]
                for truth, (pos, neg) in zip(truths, clause.masks):
                    assert truth == (assignment & pos == pos and assignment & neg == 0)
                expected = truths.index(True) + 1 if any(truths) else None
                assert clause.first_true(assignment) == expected
                assert clause.satisfied_by(assignment) == (clause.first_true(assignment) is not None)

    def test_masks_are_computed_once_per_clause(self):
        clause = enumerate_clauses(3)[5]
        assert clause.masks is clause.masks
        assert clause == Clause(clause.literals)  # the cache is not a field


class TestClauseTable:
    """One clause table per n: every call returns a fresh list of the same
    shared clauses."""

    @pytest.mark.parametrize("n", [0, 3, 4, 6])
    def test_fresh_list_of_shared_clauses(self, n):
        first, second = enumerate_clauses(n), enumerate_clauses(n)
        assert isinstance(first, list) and first is not second
        assert len(first) == clause_count(n)
        assert all(a is b for a, b in zip(first, second, strict=True))

    def test_callers_cannot_mutate_the_table(self):
        clauses = enumerate_clauses(4)
        clauses.reverse()
        clauses.append(clauses[0])
        fresh = enumerate_clauses(4)
        assert len(fresh) == 32
        assert fresh[0].literals == ((1, False), (2, False), (3, False))

    def test_masks_are_shared_across_calls(self):
        assert enumerate_clauses(5)[17].masks is enumerate_clauses(5)[17].masks

    def test_table_matches_the_stated_order(self):
        for n in range(7):
            expected = [
                Clause(tuple((v, bool((polarity >> b) & 1)) for b, v in enumerate(triple)))
                for triple in itertools.combinations(range(1, n + 1), 3)
                for polarity in range(8)
            ]
            assert enumerate_clauses(n) == expected

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            enumerate_clauses(-1)
