"""Fixed double enumeration of three-literal clauses and clause-subset
instances, with a bit-sliced satisfiability oracle.

Clauses over variables x_1..x_n use exactly three pairwise-distinct
variables, stored in ascending variable order.  The clause enumeration is
deterministic and polynomial-time computable: variable triples (i, j, k)
with i < j < k in lexicographic order; within a triple, the eight polarity
combinations ordered by the 3-bit number whose bit b, when set, negates
the (b+1)-th variable of the triple.  Clause j of the enumeration is
1-indexed.

An instance is the pair (n, mask): bit j-1 of ``mask`` enables clause j,
so mask 0 is the empty (trivially satisfiable) clause set.  Assignments
are int bitmasks with bit k-1 holding the value of x_k.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import CapExceededError, IndexOutOfRangeError
from .model import _bits

Assignment = int

DEFAULT_SAT_CAP = 24


@dataclass(frozen=True)
class Clause:
    """Three literals as (variable, negated) pairs, variables ascending."""

    literals: tuple[tuple[int, bool], tuple[int, bool], tuple[int, bool]]

    def __post_init__(self):
        vs = [v for v, _ in self.literals]
        if len(set(vs)) != 3 or sorted(vs) != vs or min(vs) < 1:
            raise ValueError(f"clause needs three distinct ascending variables: {vs}")

    def satisfied_by(self, assignment: Assignment) -> bool:
        return self.first_true(assignment) is not None

    @functools.cached_property
    def masks(self) -> tuple[tuple[int, int], ...]:
        """Per literal, the (pos, neg) assignment masks that make it true:
        x_k is bit k-1, set in ``pos`` for x_k and in ``neg`` for !x_k."""
        return tuple(
            (0, 1 << (v - 1)) if negated else (1 << (v - 1), 0) for v, negated in self.literals
        )

    def first_true(self, assignment: Assignment) -> int | None:
        """1-based index of the first literal the assignment makes true,
        or None when it falsifies the clause."""
        for k, (pos, neg) in enumerate(self.masks, start=1):
            if assignment & (pos | neg) == pos:
                return k
        return None


def clause_count(n: int) -> int:
    """m(n): number of clauses in the enumeration over n variables."""
    return 8 * math.comb(n, 3) if n >= 3 else 0


def enumerate_clauses(n: int) -> list[Clause]:
    """The full clause enumeration c_1 .. c_m(n), in order, as a fresh
    list of the clauses shared by every call with the same n."""
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    return list(_clause_table(n))


@functools.cache
def _clause_table(n: int) -> tuple[Clause, ...]:
    """The clause enumeration over n variables, built once per n, so each
    clause computes its ``masks`` once."""
    return tuple(
        Clause(tuple((v, bool((polarity >> b) & 1)) for b, v in enumerate(triple)))
        for triple in itertools.combinations(range(1, n + 1), 3)
        for polarity in range(8)
    )


@dataclass(frozen=True)
class ThreeSatInstance:
    """Clause-subset instance: n variables, enabled-clause bitmask."""

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 0:  # clause_count(n) is 0 below three variables
            raise ValueError("variable count must be nonnegative")
        if not 0 <= self.mask < (1 << clause_count(self.n)):  # the one refusal of a subset index
            raise IndexOutOfRangeError(f"subset index {self.mask} out of range for n={self.n}")

    def enabled(self, j: int) -> bool:
        """Whether clause j (1-indexed) is part of the instance."""
        return bool((self.mask >> (j - 1)) & 1)

    def enabled_indices(self) -> list[int]:
        """The enabled clause indices, ascending: the set bits of
        ``mask``, lowest first (bit j-1 is clause j)."""
        return [j + 1 for j in _bits(self.mask)]


def instance_from_index(n: int, i: int) -> ThreeSatInstance:
    """The i-th clause subset over n variables (bitmask convention)."""
    return ThreeSatInstance(n, i)


def is_satisfiable(inst: ThreeSatInstance) -> tuple[bool, Assignment | None]:
    """Satisfiability over all 2^n assignments at once, bit-sliced.

    Bit a of column k is bit k-1 of assignment a.  A clause is falsified
    exactly on the AND of its literal columns, each complemented when
    the literal is positive; the instance is satisfiable iff the OR of
    those sets over the enabled clauses leaves a zero among the low 2^n
    bits.  Its lowest zero (Knuth, TAOCP 4A, 7.1.3) is the witness.

    Returns (True, witness) with the numerically smallest satisfying
    assignment, or (False, None).  Widths past ``DEFAULT_SAT_CAP`` are
    refused before any column is built: n columns of 2^n bits take 48 MiB at n=24.
    """
    if inst.n > DEFAULT_SAT_CAP:
        raise CapExceededError(DEFAULT_SAT_CAP, "assignment enumeration width")
    columns: list[int] = []
    width = 1
    for _ in range(inst.n):  # double every column, then add the next one
        columns = [c | c << width for c in columns]
        columns.append(((1 << width) - 1) << width)
        width <<= 1
    everything = (1 << width) - 1
    clauses = enumerate_clauses(inst.n)
    falsified = 0
    for j in inst.enabled_indices():
        falsifies = everything
        for v, negated in clauses[j - 1].literals:
            falsifies &= columns[v - 1] if negated else everything ^ columns[v - 1]
        falsified |= falsifies
    lowest_zero = ~falsified & (falsified + 1)
    if lowest_zero > everything:
        return False, None
    return True, lowest_zero.bit_length() - 1
