"""Executable compact plan representations.

Two access disciplines are provided.  A sequential representation hands
out the actions of one fixed plan in order with bounded work per emission;
a random-access representation answers "which action sits at position i"
for 1 <= i <= length.  Both carry metadata: the bit length of the
serialized parameter record that, together with the fixed interpreter code
in this module, reproduces the representation, and the largest declared
per-access charge so far (:class:`RepMeta`).

Builders cover the counter families (closed form and recursive-schema
grammar), the satisfiability-verifier family driven by a sat-flag-plus-
assignment advice record, the deterministic all-instances sweep, the
random-access-to-sequential adapter, and the stutter-paced generator for
reversible instances.  The verifier family's stream and random access
read one plan layout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import grammar as grammar_mod
from . import model, oracles, sat3
from .constructions import all_instances_instance
from .errors import (
    IndexOutOfRangeError,
    NoFalsifiedClauseError,
    NotReversibleObservedError,
)
from .ffp import FfpInstance, ground_view
from .grammar import MacroGrammar
from .model import StripsInstance

# names per list when a consumer in this package reads a stream in bulk
_CHUNK = 4096


@dataclass
class RepMeta:
    """Size and access-cost metadata.

    ``serialized_bits`` is the bit length of the parameter record that
    fully determines the representation; ``max_step_cost`` is the largest
    charge any single access or emission has made so far.  Builders charge
    declared formulas, not counted work: ``counter_crar`` tz + 1 (tz the
    position's trailing zeros); ``grammar_crar`` the probe bounds of the
    descent's levels, summed; ``c16_crar`` m + n (m clauses, n variables);
    ``crar_to_csar`` the inner cost + 1.  A stream charges its
    ``SequentialRep.first_charge`` at its first emission, and nothing
    before it: 1 unless the builder declares more, ``c16_csar`` m + n + 1,
    ``deterministic_csar`` and ``c26_csar`` |A| (a step decides all
    actions, however few state bytes the unique-path kernel reads).
    """

    serialized_bits: int
    max_step_cost: int = 0

    def charge(self, units: int) -> None:
        if units > self.max_step_cost:
            self.max_step_cost = units


def _record_meta(record: str) -> RepMeta:
    return RepMeta(serialized_bits=8 * len(record))


@dataclass(eq=False)
class SequentialRep:
    """Single-consumer action stream; ``next()`` returns the next action
    name or None at end of plan.  ``cursor`` counts the actions delivered
    so far, and the first delivery charges ``first_charge`` (see
    :class:`RepMeta`).  Builders that measure their own work fill
    ``stats`` (named values) and ``emission_kinds`` (one tag per emission)
    as the stream runs.

    ``take`` and ``chunks`` pull from the source in bulk, with no Python
    call per action; iteration counts ``cursor`` one action at a time.
    When ``next`` is set on the instance (a timer, a spy), all three pull
    through it instead, so that wrapper sees every pull.  A bulk read
    pulls a whole list before its consumer sees the first name, so a
    consumer that stops early (at an invalid step, say) may leave
    ``cursor``, ``meta``, ``stats`` and ``emission_kinds`` up to one list
    past where it stopped."""

    _source: Iterator[str]
    meta: RepMeta
    stats: dict = field(default_factory=dict)
    emission_kinds: list[str] = field(default_factory=list)
    first_charge: int = 1
    cursor: int = field(default=0, init=False)

    def next(self) -> str | None:
        name = next(self._source, None)
        if name is not None:
            self._delivered(1)
        return name

    def __iter__(self) -> Iterator[str]:
        if "next" in vars(self):
            return iter(self.next, None)
        return self._pull()

    def take(self, k: int) -> list[str]:
        """The next k actions (fewer at the end of the plan, none when k
        is negative)."""
        names, error = self._fill(max(k, 0))
        if error is not None:
            raise error
        return names

    def chunks(self, limit: int | None = None) -> Iterator[list[str]]:
        """The remaining actions as lists of at most ``_CHUNK`` names, at
        most ``limit`` names in all (none when ``limit`` is negative); no
        action past the limit is pulled.  On a source error the names
        pulled before it are yielded first, then the error is raised."""
        left = math.inf if limit is None else max(limit, 0)
        while left:
            want = min(_CHUNK, left)
            names, error = self._fill(want)
            left -= len(names)
            if names:
                yield names
            if error is not None:
                raise error
            if len(names) < want:
                return

    def _fill(self, k: int) -> tuple[list[str], Exception | None]:
        """Pull up to k actions, returned with the error the source raised
        after them, if any: both bulk reads share this one path."""
        wrapped = "next" in vars(self)  # a wrapped pull counts itself
        names: list[str] = []
        try:
            names.extend(itertools.islice(iter(self.next, None) if wrapped else self._source, k))
        except Exception as error:  # extend keeps what it appended before it
            return names, error
        finally:
            if not wrapped:
                self._delivered(len(names))
        return names, None

    def _pull(self) -> Iterator[str]:
        for name in self._source:
            self._delivered(1)
            yield name
            break
        for name in self._source:  # cursor > 0 here, so nothing is charged
            self.cursor += 1
            yield name

    def _delivered(self, k: int) -> None:
        """Count k more actions handed to the consumer; the first charges
        ``first_charge``."""
        if k and not self.cursor:
            self.meta.charge(self.first_charge)
        self.cursor += k


class RandomAccessRep:
    """Indexed plan access on 1..length; repeated queries agree."""

    def __init__(self, length: int, fetch: Callable[[int], str], meta: RepMeta):
        self.length = length
        self._fetch = fetch
        self.meta = meta

    def access(self, i: int) -> str:
        if not 1 <= i <= self.length:
            raise IndexOutOfRangeError(f"index {i} outside 1..{self.length}")
        return self._fetch(i)


@dataclass(frozen=True)
class AdviceBits:
    """Verdict advice for the satisfiability-verifier family: the sat flag
    plus a satisfying assignment (meaningful only when sat)."""

    sat: bool
    assignment: int = 0


@dataclass(frozen=True)
class Verdict:
    """Outcome of representation verification."""

    status: str  # "valid" | "invalid" | "budget-exceeded"
    failure_step: int | None = None
    steps: int = 0

    @property
    def is_valid(self) -> bool:
        return self.status == "valid"


# ---------------------------------------------------------------------------
# Counter family


def counter_crar(n: int) -> RandomAccessRep:
    """Closed-form random access into the full binary-counter plan: the
    i-th increment flips the bit above the trailing zeros of i."""
    if n < 1:
        raise ValueError("need at least one counter bit")
    meta = _record_meta(f"counter-crar n={n}")

    def fetch(i: int) -> str:
        tz = (i & -i).bit_length() - 1
        meta.charge(tz + 1)
        return f"a{tz + 1}"

    return RandomAccessRep((1 << n) - 1, fetch, meta)


def counter_macro(n: int) -> MacroGrammar:
    """Recursive-schema grammar for the full binary-counter plan:
    P_1 -> a1 and P_k -> P_{k-1} a_k P_{k-1}, rooted at P_n."""
    if n < 1:
        raise ValueError("need at least one counter bit")
    macros: list[tuple[str, tuple[str, ...]]] = [("P1", ("a1",))]
    for k in range(2, n + 1):
        macros.append((f"P{k}", (f"P{k-1}", f"a{k}", f"P{k-1}")))
    return MacroGrammar(macros, f"P{n}")


# ---------------------------------------------------------------------------
# Grammar-backed representations


def macro_stream(g: MacroGrammar) -> SequentialRep:
    """Stream a grammar's whole expansion with memory bounded by its
    height plus at most ``symbol_count()`` cached terminals (the short
    macros' expansions, held in the leaf nodes that :func:`grammar_crar`
    descends); a consumer that wants a prefix stops pulling.  A whole
    leaf's terminals are handed out as one run, its compiled tuple, and
    a split leaf's one terminal at a time: a leaf is split when its
    height could raise the stream's maximum depth, at most height leaves
    in all.  Built, the rep reads only the compiled nodes, never the
    grammar's macro table.

    The rep's ``stats["max_stack_depth"]`` records the deepest
    descent-stack level once streaming begins.  Building the rep compiles
    the grammar's read tables, which validates it once.  ValueError when
    built, as :func:`grammar_crar` raises: for an invalid grammar (a
    cycle, an unknown root, an empty expansion), then for what
    ``serialize_grammar`` refuses: a name or symbol that is empty or holds
    whitespace or "#".
    """
    grammar_mod.macro_lengths(g)
    stats: dict = {"max_stack_depth": 0}
    return SequentialRep(
        grammar_mod.iter_expansion(g, stats=stats),
        _record_meta(grammar_mod.serialize_grammar(g)),
        stats=stats,
    )


def grammar_crar(g: MacroGrammar) -> RandomAccessRep:
    """Random access into a grammar's expansion via top-down descent.
    ValueError for an invalid grammar (a cycle, an unknown root, an empty
    expansion), then for what ``serialize_grammar`` refuses: a name or
    symbol that is empty or holds whitespace or "#"."""
    lengths = grammar_mod.macro_lengths(g)
    meta = _record_meta(grammar_mod.serialize_grammar(g))

    def fetch(i: int) -> str:
        stats: dict = {}
        name = grammar_mod.macro_access(g, i, stats=stats)
        meta.charge(stats["symbols_inspected"])
        return name

    return RandomAccessRep(lengths[g.root], fetch, meta)


# ---------------------------------------------------------------------------
# Satisfiability-verifier family


def compute_advice(n: int, i: int) -> AdviceBits:
    """Brute-force the advice record for clause subset i: the verdict flag
    and, when satisfiable, the smallest satisfying assignment."""
    sat, witness = sat3.is_satisfiable(sat3.instance_from_index(n, i))
    return AdviceBits(sat, witness if sat else 0)


def _advice_record(kind: str, n: int, i: int, adv: AdviceBits) -> str:
    return f"{kind} n={n} i={i} sat={int(adv.sat)} assignment={adv.assignment:0{n}b}"


def _first_falsified(enabled, n: int, assignment: int) -> int:
    """First j among the enabled ``(j, clause)`` pairs falsified by the assignment."""
    for j, clause in enabled:
        if not clause.satisfied_by(assignment):
            return j
    raise NoFalsifiedClauseError(
        f"assignment {assignment:0{n}b} satisfies every enabled clause; "
        "the unsat advice is wrong"
    )


def _c16_plan(n: int, i: int, adv: AdviceBits, meta: RepMeta) -> tuple[int, Callable[[int], str]]:
    """The verifier plan of (n, i) under the advice record: its length and
    a fetch of the action at position p, charging ``meta`` the declared
    m + n per fetch.

    The sat branch is the commit action, the assignment block, and one
    chain action per clause: 0 for a disabled clause, else its smallest
    true literal, or its first literal when the assignment falsifies it,
    so that wrong sat advice fails validation there.  The unsat branch
    alternates counter increments, from the trailing zeros of the
    assignment ordinal, with the smallest enabled clause the assignment
    falsifies; wrong unsat advice raises NoFalsifiedClauseError at the
    first satisfying assignment.  ValueError for n < 1, as
    ``constructions.sat_verifier_instance`` raises.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    inst = sat3.instance_from_index(n, i)
    clauses = sat3.enumerate_clauses(n)
    m = len(clauses)
    cost = m + n

    if adv.sat:
        set_bits = [k for k in range(1, n + 1) if (adv.assignment >> (k - 1)) & 1]
        h = len(set_bits)
        length = h + m + 3

        def fetch(p: int) -> str:
            meta.charge(cost)
            if p == 1:
                return "acs"
            if p <= h + 1:
                return f"aset_{set_bits[p - 2]}"
            if p == h + 2:
                return "avt_0"
            if p == length:
                return "ags"
            j = p - h - 2
            if not inst.enabled(j):
                return f"avt_{j}_0"
            return f"avt_{j}_{clauses[j - 1].first_true(adv.assignment) or 1}"

    else:
        enabled = [(j, clauses[j - 1]) for j in inst.enabled_indices()]
        h = (1 << n) - 1
        length = 2 * h + 3

        def fetch(p: int) -> str:
            meta.charge(cost)
            if p == 1:
                return "acu"
            if p == length:
                return "agu"
            if p % 2 == 1:  # increment to ordinal (p - 1) / 2
                value = (p - 1) // 2
                return f"aix_{(value & -value).bit_length()}"
            assignment = (p - 2) // 2
            return f"avf_{_first_falsified(enabled, n, assignment)}"

    return length, fetch


def c16_csar(n: int, i: int, adv: AdviceBits) -> SequentialRep:
    """Stream the verifier plan of (n, i) position by position from the
    advice record, charged as :func:`crar_to_csar` charges: the fetch's
    m + n plus 1 for the position counter, declared as the first charge."""
    meta = _record_meta(_advice_record("c16-csar", n, i, adv))
    length, fetch = _c16_plan(n, i, adv, meta)
    return SequentialRep(
        map(fetch, range(1, length + 1)), meta, first_charge=sat3.clause_count(n) + n + 1
    )


def c16_crar(n: int, i: int, adv: AdviceBits) -> RandomAccessRep:
    """Random access into the plan c16_csar streams, reconstructing the
    action at a position from the advice record alone."""
    meta = _record_meta(_advice_record("c16-crar", n, i, adv))
    return RandomAccessRep(*_c16_plan(n, i, adv, meta), meta)


# ---------------------------------------------------------------------------
# Deterministic instances


def deterministic_csar(p: StripsInstance | FfpInstance, meta: RepMeta | None = None) -> SequentialRep:
    """Stream the unique plan of a deterministic instance, walked by its
    view's unique-path kernel (:attr:`ffp.GroundView.unique_path`).  The
    first emission charges |A|, which every step's decision covers; a
    stream that emits nothing charges nothing.

    Raises StuckError in a dead non-goal state; two simultaneously
    applicable actions reveal the instance is not deterministic.
    """
    if meta is None:
        meta = _record_meta(f"deterministic n_actions={len(p.actions)}")
    return SequentialRep(ground_view(p).unique_path(), meta, first_charge=len(p.actions))


def c26_csar(n: int) -> SequentialRep:
    """Sequential representation of the unique all-instances sweep plan."""
    return deterministic_csar(
        all_instances_instance(n), _record_meta(f"c26-csar n={n}")
    )


# ---------------------------------------------------------------------------
# Adapters


def crar_to_csar(r: RandomAccessRep) -> SequentialRep:
    """Drive a random-access representation with a position counter to
    obtain the sequential discipline; size grows only by the counter."""
    counter_bits = max(1, r.length.bit_length())
    meta = RepMeta(serialized_bits=r.meta.serialized_bits + counter_bits)

    def gen() -> Iterator[str]:
        for i in range(1, r.length + 1):
            name = r.access(i)
            meta.charge(r.meta.max_step_cost + 1)  # before the consumer has it
            yield name

    return SequentialRep(gen(), meta)


def as_stream(rep: SequentialRep | RandomAccessRep | MacroGrammar) -> tuple[SequentialRep, int | None]:
    """Any rep read in order, with its length, None for a stream: a grammar
    through :func:`macro_stream`, random access through :func:`crar_to_csar`."""
    if isinstance(rep, MacroGrammar):
        return macro_stream(rep), grammar_mod.macro_lengths(rep)[rep.root]
    if isinstance(rep, RandomAccessRep):
        return crar_to_csar(rep), rep.length
    return rep, None


def as_random_access(rep: SequentialRep | RandomAccessRep | MacroGrammar) -> RandomAccessRep:
    """Any rep read by position, a grammar through :func:`grammar_crar`;
    ValueError for a stream, which has no random access."""
    if isinstance(rep, SequentialRep):
        raise ValueError("representation has no random access; use 'stream'")
    return grammar_crar(rep) if isinstance(rep, MacroGrammar) else rep


def truncate(rep: SequentialRep, limit: int) -> SequentialRep:
    """Pass through at most ``limit`` emissions of a sequential rep (none
    when ``limit`` is negative), sharing its ``meta``, ``stats`` and
    ``emission_kinds``.  The inner rep is read in lists
    (:meth:`SequentialRep.chunks`), so one pull may move its cursor and
    those three a list ahead, but never past ``limit``."""
    names = itertools.chain.from_iterable(rep.chunks(limit))
    return SequentialRep(names, rep.meta, rep.stats, rep.emission_kinds)


# ---------------------------------------------------------------------------
# Reversible instances


def reversible_csar(
    p: StripsInstance | FfpInstance, delay_budget: int = 1
) -> SequentialRep:
    """Stutter-paced plan generator for solvable, reversible instances.

    Each outer iteration follows the shortest-plan oracle: from a state
    at distance d it steps to the first successor (declaration order) at
    distance d - 1, which a state at distance d > 0 always has and no
    successor is nearer.  The distances come from one
    :func:`oracles.goal_distances` table over the rep's own view,
    computed when streaming begins; an iteration counts one oracle
    invocation for the state and one per applicable successor.  After every
    ``delay_budget`` oracle invocations one stutter pair is emitted: the
    first applicable action (declaration order) that has an inverse at its
    successor, followed by that inverse, returning to the pre-pair state.
    The chosen action follows.  The rep's ``emission_kinds`` tags every
    output "stutter" or "chosen".

    Callers are responsible for the reversibility and solvability
    preconditions; a missing inverse pair raises
    NotReversibleObservedError.
    """
    if delay_budget < 1:
        raise ValueError("delay budget must be at least 1")
    view = ground_view(p)
    meta = _record_meta(f"reversible k={delay_budget} n_actions={len(p.actions)}")
    emission_kinds: list[str] = []

    def stutter_pair(s):
        for name1, u in view.successors(s):
            for name2, back in view.successors(u):
                if back == s:
                    return name1, name2
        raise NotReversibleObservedError(s)

    def gen() -> Iterator[str]:
        distances = oracles._goal_distances(view)
        s = view.init
        calls = 0
        while not view.is_goal(s):
            d = distances.get(s)
            if d is None:
                raise ValueError("goal unreachable; instance violates the precondition")
            moves = view.successors(s)
            # one oracle invocation for s and one per successor; a stutter
            # pair is due at every multiple of the delay budget
            stutters = (calls + 1 + len(moves)) // delay_budget - calls // delay_budget
            calls += 1 + len(moves)
            for stutter_action in stutter_pair(s) * stutters if stutters else ():
                emission_kinds.append("stutter")
                yield stutter_action
            for name, t in moves:  # s is d > 0 steps from the goal: one is d - 1 away
                if distances.get(t) == d - 1:
                    break
            emission_kinds.append("chosen")
            yield name
            s = t

    return SequentialRep(gen(), meta, emission_kinds=emission_kinds)


# ---------------------------------------------------------------------------
# Verification


def verify_representation(
    p: StripsInstance,
    rep: SequentialRep | RandomAccessRep | MacroGrammar,
    budget: int | None = None,
) -> Verdict:
    """Decide whether a representation's action sequence is a plan for p.

    Streams the actions, read through :func:`as_stream`, through the
    executor of ``model.validate_plan``, so an undeclared action name is a
    step that never applies.  A sequence longer than ``budget`` actions
    aborts with a budget-exceeded verdict: before any action is read,
    reported as 0 steps, when its length is known (a grammar, random
    access); else once the run reads action ``budget`` + 1, applied or
    not, reported as ``budget`` steps (0 when negative).

    The stream is read in lists (:meth:`SequentialRep.chunks`), so it may
    be pulled up to one list past an invalid step, but never past
    ``budget`` + 1 actions: its ``cursor`` and the work its source records
    (``meta``, ``stats``, ``emission_kinds``, the accesses of random
    access) may then cover actions that were never checked.
    """
    rep, length = as_stream(rep)
    if budget is not None and length is not None and length > budget:
        return Verdict("budget-exceeded", steps=0)
    limit = None if budget is None else max(budget, 0)
    # one name past the budget tells a longer stream from one that ends there
    names = rep.chunks(None if limit is None else limit + 1)
    trace = model._execute(p, itertools.chain.from_iterable(names))
    if limit is not None and trace.steps > limit:
        return Verdict("budget-exceeded", steps=limit)
    return Verdict("valid" if trace.valid else "invalid", trace.failure_step, trace.steps)


# ---------------------------------------------------------------------------
# Built-in representation URIs


def resolve_builtin(uri: str) -> SequentialRep | RandomAccessRep | MacroGrammar:
    """Build a representation from a builtin URI such as
    builtin:counter-crar?n=5 or builtin:c16-csar?n=3&i=255.

    ``counter-macro`` names a grammar and resolves to the
    :class:`MacroGrammar` itself, read as a grammar file is read.  The c16
    representations compute their own advice record; reversible
    representations load the named instance file.  Each is one
    ``_BUILTINS`` entry.  ValueError for a query key given twice, one the
    builtin needs but lacks, or one it does not read.
    """
    if not uri.startswith("builtin:"):
        raise ValueError(f"not a builtin representation URI: {uri}")
    name, _, query = uri[len("builtin:"):].partition("?")
    params: dict[str, str] = {}
    if query:
        for part in query.split("&"):
            key, _, value = part.partition("=")
            if key in params:
                raise ValueError(f"builtin {name}: parameter {key!r} given twice")
            params[key] = value

    def param(key: str, default: str | None = None) -> str:
        """The value of key, consumed: a key left unread is refused."""
        if key not in params and default is None:
            raise ValueError(f"builtin {name} needs parameter {key}=<value>")
        return params.pop(key, default)

    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin representation: {name}")
    rep = _BUILTINS[name](param)
    if params:
        raise ValueError(f"builtin {name} does not read parameter {min(params)!r}")
    return rep


def _c16_builtin(build, n: int, i: int) -> SequentialRep | RandomAccessRep:
    return build(n, i, compute_advice(n, i))


def _reversible_builtin(path: str, k: int) -> SequentialRep:
    with open(path, encoding="utf-8") as handle:
        return reversible_csar(model.parse_instance(handle.read()), delay_budget=k)


# Each builtin's builder: it reads its query through param, in order, and looks
# its builders up when called, so a patched module attribute is what runs
_BUILTINS = {
    "counter-crar": lambda param: counter_crar(int(param("n"))),
    "counter-macro": lambda param: counter_macro(int(param("n"))),
    "c16-csar": lambda param: _c16_builtin(c16_csar, int(param("n")), int(param("i"))),
    "c16-crar": lambda param: _c16_builtin(c16_crar, int(param("n")), int(param("i"))),
    "c26-csar": lambda param: c26_csar(int(param("n"))),
    "reversible": lambda param: _reversible_builtin(param("file"), int(param("k", "1"))),
}
