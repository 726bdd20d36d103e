"""Generators for the instance families used throughout the package:
binary and Gray-code counters, the choice-counter family with doubly
exponentially many optimal plans, the single-instance satisfiability
verifier, the all-instances sweep, and the unary-action reduction.

Action names follow a fixed rendering: counter families use bare indexed
names (a1, b1, s1, r1) while the verifier families use underscore-joined
indices (aset_1, avt_2_0, aix_1, aii_3).  Plans over these instances are
therefore stable, human-checkable strings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import sat3
from .errors import (
    BadLengthError,
    CalibrationMismatchError,
    InvalidPlanError,
    StuckError,
    TargetTooLargeError,
)
from .model import LiteralSet, StripsAction, StripsInstance, _bits, validate_plan


@dataclass(frozen=True)
class CounterSpec:
    """Counter family request: bit count, count target, encoding."""

    n: int
    target: int
    encoding: str = "binary"  # "binary" | "gray"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("counter needs at least one bit")
        if self.encoding not in ("binary", "gray"):
            raise ValueError(f"unknown encoding: {self.encoding}")
        if not 0 <= self.target < (1 << self.n):
            raise TargetTooLargeError(
                f"target {self.target} does not fit in {self.n} bits"
            )


@dataclass(frozen=True)
class BlockConstants:
    """Offset and stride locating per-instance verdict actions inside the
    all-instances plan: the verdict for subset i sits at stride*i + offset."""

    offset: int
    stride: int


def gray_code(value: int) -> int:
    return value ^ (value >> 1)


def _increment(name: str, k: int, base: int = 0, guard: int = 0, post=LiteralSet()) -> StripsAction:
    """Binary-counter increment of bit k (1-based) of a counter whose bit 1
    is atom ``base``: bit k false and every bit below it true, set bit k
    and clear the bits below.  ``guard`` joins the positive precondition
    and ``post`` joins the effect."""
    bit = 1 << (base + k - 1)
    below = ((1 << (k - 1)) - 1) << base
    return StripsAction(
        name,
        LiteralSet(pos=guard | below, neg=bit),
        LiteralSet(pos=bit | post.pos, neg=below | post.neg),
    )


def counter_instance(spec: CounterSpec) -> StripsInstance:
    """Counter frame plus an exact-encoding goal pinning all n bits.

    Binary counters use one increment action per bit; Gray-code counters
    use a set/reset action pair per bit and have only unary actions.
    """
    n = spec.n
    atoms = [f"x{i}" for i in range(1, n + 1)]
    if spec.encoding == "binary":
        actions = [_increment(f"a{i}", i) for i in range(1, n + 1)]
        encoded = spec.target
    else:
        sets, resets = [], []
        for i in range(1, n + 1):
            bit = 1 << (i - 1)
            lead = bit >> 1  # x_{i-1} must hold (none for i = 1)
            rest = lead - 1 if lead else 0  # x_{i-2} .. x_1 must not
            sets.append(StripsAction(f"s{i}", LiteralSet(lead, bit | rest), LiteralSet(pos=bit)))
            resets.append(StripsAction(f"r{i}", LiteralSet(bit | lead, rest), LiteralSet(neg=bit)))
        actions = sets + resets
        encoded = gray_code(spec.target)

    full = (1 << n) - 1
    goal = LiteralSet(pos=encoded, neg=full & ~encoded)
    return StripsInstance(atoms, actions, 0, goal)


def indexed_plans_instance(n: int) -> StripsInstance:
    """Binary counter with a free choice atom y: each increment comes in a
    y-clearing (a_i) and a y-setting (b_i) variant, so the instance has
    2^(2^n - 1) optimal plans, one per choice bitstring."""
    if n < 1:
        raise ValueError("need at least one counter bit")
    atoms = [f"x{i}" for i in range(1, n + 1)] + ["y"]
    y = 1 << n
    actions = []
    for i in range(1, n + 1):
        actions.append(_increment(f"a{i}", i, post=LiteralSet(neg=y)))
        actions.append(_increment(f"b{i}", i, post=LiteralSet(pos=y)))
    goal = LiteralSet(pos=(1 << n) - 1)
    return StripsInstance(atoms, actions, 0, goal)


def plan_from_choice_bits(n: int, bits: str) -> list[str]:
    """Decode a choice bitstring into a plan for the indexed-plans family:
    step k flips counter bit tz(k)+1 and uses the b-variant iff bit k of the
    string (1-indexed) is set."""
    if n < 1:
        raise ValueError("need at least one counter bit")
    length = (1 << n) - 1
    if len(bits) != length:
        raise BadLengthError(f"need exactly {length} choice bits, got {len(bits)}")
    plan = []
    for k in range(1, length + 1):
        idx = (k & -k).bit_length()
        choice = bits[k - 1]
        if choice == "0":
            plan.append(f"a{idx}")
        elif choice == "1":
            plan.append(f"b{idx}")
        else:
            raise ValueError(f"choice bits must be 0/1, got {choice!r}")
    return plan


def choice_bits_from_plan(n: int, plan: Sequence[str]) -> str:
    """Inverse of plan_from_choice_bits; rejects plans that do not solve
    the indexed-plans instance."""
    if n < 1:
        raise ValueError("need at least one counter bit")
    length = (1 << n) - 1
    if len(plan) != length:
        raise InvalidPlanError(f"optimal plans have length {length}, got {len(plan)}")
    trace = validate_plan(indexed_plans_instance(n), plan)
    if not trace.valid:
        raise InvalidPlanError(f"plan fails at step {trace.failure_step}")
    return "".join("1" if name.startswith("b") else "0" for name in plan)


def sat_verifier_instance(n: int, i: int) -> StripsInstance:
    """Instance whose plans prove the satisfiability verdict of clause
    subset i over n variables: every plan starts with acs when the subset
    is satisfiable and with acu otherwise.

    The initial state enables exactly the subset's clauses.  The acs
    branch sets one assignment and chains a per-clause check v_0 -> v_m;
    the acu branch alternates counter increments with falsified-clause
    witnesses through all 2^n assignments.

    Subsets differ only in their initial state, so the action table is
    built and validated once per n; every subset's instance shares it
    through ``StripsInstance.with_init``.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    sat3.instance_from_index(n, i)  # refuses an index out of range
    # e_j follows the x atoms and is true iff bit j-1 of i is set
    return _verifier_template(n).with_init(i << n)


@lru_cache(maxsize=None)
def _verifier_template(n: int) -> StripsInstance:
    """The verifier over n variables with no clause enabled, built once
    per n."""
    clauses = sat3.enumerate_clauses(n)
    m = len(clauses)

    atoms = (
        [f"x{k}" for k in range(1, n + 1)]
        + [f"e{j}" for j in range(1, m + 1)]
        + ["cts", "ctu", "goal", "inc"]
        + [f"v{j}" for j in range(m + 1)]
    )
    e = lambda j: 1 << (n + j - 1)
    cts = 1 << (n + m)
    ctu = 1 << (n + m + 1)
    goal_atom = 1 << (n + m + 2)
    inc = 1 << (n + m + 3)
    v = lambda j: 1 << (n + m + 4 + j)

    actions = [
        StripsAction("acs", LiteralSet(neg=ctu), LiteralSet(pos=cts)),
        StripsAction("acu", LiteralSet(neg=cts), LiteralSet(pos=ctu)),
    ]
    for k in range(1, n + 1):
        actions.append(
            StripsAction(
                f"aset_{k}", LiteralSet(pos=cts, neg=v(0)), LiteralSet(pos=1 << (k - 1))
            )
        )
    actions.append(StripsAction("avt_0", LiteralSet(pos=cts), LiteralSet(pos=v(0))))
    for j, clause in enumerate(clauses, start=1):
        actions.append(
            StripsAction(
                f"avt_{j}_0",
                LiteralSet(pos=cts | v(j - 1), neg=e(j)),
                LiteralSet(pos=v(j)),
            )
        )
        for k, (pos, neg) in enumerate(clause.masks, start=1):
            actions.append(
                StripsAction(
                    f"avt_{j}_{k}",
                    LiteralSet(pos=cts | e(j) | v(j - 1) | pos, neg=neg),
                    LiteralSet(pos=v(j)),
                )
            )
    actions.append(
        StripsAction("ags", LiteralSet(pos=cts | v(m)), LiteralSet(pos=goal_atom))
    )
    for j, clause in enumerate(clauses, start=1):
        # all three literals false: positives absent, negatives present
        # (the variables are distinct, so each sum is a union of bits)
        true_pos, true_neg = map(sum, zip(*clause.masks))
        actions.append(
            StripsAction(
                f"avf_{j}",
                LiteralSet(pos=ctu | e(j) | true_neg, neg=inc | true_pos),
                LiteralSet(pos=inc),
            )
        )
    for k in range(1, n + 1):
        actions.append(_increment(f"aix_{k}", k, guard=ctu | inc, post=LiteralSet(neg=inc)))
    actions.append(
        StripsAction(
            "agu",
            LiteralSet(pos=ctu | inc | ((1 << n) - 1)),
            LiteralSet(pos=goal_atom),
        )
    )

    return StripsInstance(atoms, actions, 0, LiteralSet(pos=goal_atom))


def all_instances_instance(n: int) -> StripsInstance:
    """Deterministic instance whose unique plan sweeps every clause subset
    over n variables, testing all assignments for each and recording the
    verdict with an ais/aiu action at a fixed per-subset position.

    The enabling atoms double as a binary counter enumerating subsets; the
    x atoms count through assignments inside each subset block.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    clauses = sat3.enumerate_clauses(n)
    m = len(clauses)

    atoms = (
        [f"x{k}" for k in range(1, n + 1)]
        + [f"e{j}" for j in range(1, m + 1)]
        + [f"v{j}" for j in range(m + 1)]
        + ["svi", "sva", "sia", "sii", "sti", "t", "f", "goal"]
    )
    x_all = (1 << n) - 1
    e = lambda j: 1 << (n + j - 1)
    e_all = ((1 << m) - 1) << n
    v = lambda j: 1 << (n + m + j)
    v_rest = sum(1 << (n + m + j) for j in range(1, m + 1))
    base = n + 2 * m + 1
    svi, sva, sia, sii, sti, t_atom, f_atom, goal_atom = (
        1 << (base + k) for k in range(8)
    )

    actions = [
        StripsAction(
            "abi",
            LiteralSet(neg=svi | sva | sia | sii | sti),
            LiteralSet(pos=svi, neg=t_atom),
        ),
        StripsAction(
            "aba",
            LiteralSet(pos=svi, neg=sva | sia),
            LiteralSet(pos=sva | v(0), neg=f_atom | v_rest),
        ),
    ]
    for j, clause in enumerate(clauses, start=1):
        # one verifier per clause and case, guarded so exactly one applies:
        # avt_j_k needs literal k true and literals below k false, avf_j
        # needs all three false, avs_j covers the disabled clause
        false_pos = false_neg = 0
        for k, (lit_pos, lit_neg) in enumerate(clause.masks, start=1):
            actions.append(
                StripsAction(
                    f"avt_{j}_{k}",
                    LiteralSet(
                        pos=sva | e(j) | v(j - 1) | lit_pos | false_neg,
                        neg=v(j) | lit_neg | false_pos,
                    ),
                    LiteralSet(pos=v(j)),
                )
            )
            false_pos |= lit_pos
            false_neg |= lit_neg
        actions.append(
            StripsAction(
                f"avf_{j}",
                LiteralSet(pos=sva | e(j) | v(j - 1) | false_neg, neg=v(j) | false_pos),
                LiteralSet(pos=v(j) | f_atom),
            )
        )
        actions.append(
            StripsAction(
                f"avs_{j}",
                LiteralSet(pos=sva | v(j - 1), neg=v(j) | e(j)),
                LiteralSet(pos=v(j)),
            )
        )
    actions.append(
        StripsAction(
            "aaf",
            LiteralSet(pos=sva | v(m) | f_atom),
            LiteralSet(pos=sia, neg=sva),
        )
    )
    actions.append(
        StripsAction(
            "aat",
            LiteralSet(pos=sva | v(m), neg=f_atom),
            LiteralSet(pos=sia | t_atom, neg=sva),
        )
    )
    for k in range(1, n + 1):
        actions.append(_increment(f"aix_{k}", k, guard=sia, post=LiteralSet(neg=sia)))
    actions.append(
        StripsAction(
            "arx",
            LiteralSet(pos=sia | x_all),
            LiteralSet(pos=sti, neg=sia | svi | x_all),
        )
    )
    actions.append(
        StripsAction("ais", LiteralSet(pos=sti | t_atom), LiteralSet(pos=sii, neg=sti))
    )
    actions.append(
        StripsAction("aiu", LiteralSet(pos=sti, neg=t_atom), LiteralSet(pos=sii, neg=sti))
    )
    for j in range(1, m + 1):
        actions.append(_increment(f"aii_{j}", j, base=n, guard=sii, post=LiteralSet(neg=sii)))
    actions.append(
        StripsAction("ari", LiteralSet(pos=sii | e_all), LiteralSet(pos=goal_atom))
    )

    return StripsInstance(atoms, actions, 0, LiteralSet(pos=goal_atom))


def simulate_unique_plan(p: StripsInstance):
    """Yield the actions of a deterministic instance's plan by repeatedly
    firing the single applicable action until the goal holds.

    Raises StuckError in a dead non-goal state and ValueError if two
    actions ever apply at once.  This is the calibration oracle for
    block_constants, independent of the representation machinery.
    """
    compiled = [(a.name, a.pre.pos, a.pre.neg, a.post.pos, a.post.neg) for a in p.actions]
    goal_pos, goal_neg = p.goal.pos, p.goal.neg
    s = p.init
    while not ((s & goal_pos) == goal_pos and (s & goal_neg) == 0):
        chosen = None
        for name, pp, pn, qp, qn in compiled:
            if (s & pp) == pp and (s & pn) == 0:
                if chosen is not None:
                    raise ValueError(
                        f"instance not deterministic: {chosen[0]} and {name} "
                        f"both apply in state {s:#x}"
                    )
                chosen = (name, (s & ~qn) | qp)
        if chosen is None:
            raise StuckError(s)
        yield chosen[0]
        s = chosen[1]


@lru_cache(maxsize=None)
def block_constants(n: int, calibrate: bool | None = None) -> BlockConstants:
    """Verdict-position constants for the all-instances family:
    offset = 2^n (m(n) + 3) + 2 and stride = offset + 1.

    For small n (default: n <= 3) the closed forms are cross-checked
    against a simulation of the unique plan up to its second verdict
    action; a disagreement means the clause-enumeration convention drifted
    and raises CalibrationMismatchError.
    """
    m = sat3.clause_count(n)
    offset = (1 << n) * (m + 3) + 2
    stride = offset + 1
    if calibrate is None:
        calibrate = n <= 3
    if calibrate:
        verdicts = (
            pos
            for pos, name in enumerate(simulate_unique_plan(all_instances_instance(n)), 1)
            if name in ("ais", "aiu")
        )
        verdict_positions = list(itertools.islice(verdicts, 2))
        if not verdict_positions or verdict_positions[0] != offset:
            seen = verdict_positions[0] if verdict_positions else None
            raise CalibrationMismatchError(
                f"first verdict action at position {seen}, formula says {offset}"
            )
        if len(verdict_positions) > 1 and verdict_positions[1] - verdict_positions[0] != stride:
            raise CalibrationMismatchError(
                f"verdict spacing {verdict_positions[1] - verdict_positions[0]}, "
                f"formula says {stride}"
            )
    return BlockConstants(offset, stride)


def to_unary(p: StripsInstance) -> StripsInstance:
    """Equi-solvable instance in which every action posts one literal.

    Each original action a becomes a locked block: a begin action claims
    a's lock (all locks must be free), one setter per post literal fires
    under the lock, and an end action checks post(a) and releases.  The
    goal additionally requires every lock free.

    The block's actions are named a + j + ``begin``, ``set_x``,
    ``clear_x`` (x the atom) and ``end``, and a's lock atom ``lock`` + j +
    a, where the joint j is the shortest run of underscores under which
    the generated action names are distinct and no lock atom is an input
    atom: ``_`` unless that collides.  A run longer than every run of
    underscores in the input's names never collides.
    """
    n = len(p.atoms)
    lock = lambda k: 1 << (n + k)
    all_locks = ((1 << len(p.actions)) - 1) << n

    steps = []  # (action name, suffix, pre, post) in output order
    for k, a in enumerate(p.actions):
        held = LiteralSet(pos=lock(k))
        steps.append((a.name, "begin", LiteralSet(pos=a.pre.pos, neg=a.pre.neg | all_locks), held))
        for i in _bits(a.post.pos | a.post.neg):
            if (a.post.pos >> i) & 1:
                steps.append((a.name, f"set_{p.atoms[i]}", held, LiteralSet(pos=1 << i)))
            else:
                steps.append((a.name, f"clear_{p.atoms[i]}", held, LiteralSet(neg=1 << i)))
        end_pre = LiteralSet(pos=a.post.pos | lock(k), neg=a.post.neg)
        steps.append((a.name, "end", end_pre, LiteralSet(neg=lock(k))))

    joint = "_"
    while True:
        names = [f"{name}{joint}{suffix}" for name, suffix, _, _ in steps]
        lock_atoms = [f"lock{joint}{a.name}" for a in p.actions]
        if len(set(names)) == len(names) and set(p.atoms).isdisjoint(lock_atoms):
            break
        joint += "_"

    actions = [StripsAction(name, pre, post) for name, (_, _, pre, post) in zip(names, steps)]
    goal = LiteralSet(pos=p.goal.pos, neg=p.goal.neg | all_locks)
    return StripsInstance(list(p.atoms) + lock_atoms, actions, p.init, goal)
