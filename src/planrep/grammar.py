"""Acyclic single-production grammars over action names: validation,
symbolic lengths, read tables compiled once per grammar, indexed access
by top-down descent through those tables with a binary search per level
(O(height × log width) per access), bounded-memory streaming (a stack of
at most height iterators plus ``symbol_count()`` cached terminals; a
leaf passes as one run unless its height could raise the maximum depth,
then one terminal at a time, which splits at most height leaves),
and a Re-Pair inducer that compresses a plan into such a grammar in
near-linear time, most frequent digram first, ties to the digram whose
first occurrence is leftmost.

The read tables (``_compile``) hold every macro's expansion length and
one node per symbol, which both reads walk.  A macro the descent enters
holds its prefix sums, its children's nodes and its probe bound.  A
terminal, and each of the shortest macros, is a leaf: its terminals,
held once, with the levels and probes below each, and its height.  Both
reads walk the nodes alone: the macro table is read only to validate
and compile a grammar, once, and to serialize it.

A grammar maps each macro name to one non-empty expansion (a sequence of
macro or terminal symbols) and names a root macro.  Symbols resolve
macro-first; anything else is a terminal.  The terminal expansion of the
root is the represented plan.

Grammar files (version tag "grammar v1"):

    grammar v1
    macro P1 = a1
    macro P2 = P1 a2 P1
    root P2

"#" starts a comment anywhere.
"""

from __future__ import annotations

import graphlib
import heapq
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import NamedTuple, Sequence

from .errors import FormatError, IndexOutOfRangeError
from .model import _content_lines, _reads_back

class MacroGrammar:
    """Ordered macro table plus root; immutable by convention after
    construction (its compiled read tables are cached on first use)."""

    def __init__(
        self,
        macros: Sequence[tuple[str, Sequence[str]]] | dict[str, Sequence[str]],
        root: str,
    ):
        items = macros.items() if isinstance(macros, dict) else macros
        self.macros: dict[str, tuple[str, ...]] = {}
        for name, expansion in items:
            if name in self.macros:
                raise ValueError(f"duplicate macro: {name}")
            self.macros[name] = tuple(expansion)
        self.root = root
        self._compiled: _Compiled | None = None

    def is_macro(self, symbol: str) -> bool:
        return symbol in self.macros

    def symbol_count(self) -> int:
        """Total number of symbols over all expansions."""
        return sum(len(exp) for exp in self.macros.values())

    def height(self) -> int:
        """Derivation-tree height: terminals sit at depth 0, a macro one
        level above its deepest expansion symbol.  Read from the compiled
        tables (``_compile``), which hold the root's height."""
        return _compile(self).height


@dataclass(frozen=True)
class GrammarCheck:
    """Validation verdict: topological macro order on success, else the
    offending cycle, unknown root or macro with an empty expansion."""

    ok: bool
    order: tuple[str, ...] | None = None
    cycle: tuple[str, ...] | None = None
    unknown: str | None = None
    empty: str | None = None

    @property
    def reason(self) -> str:
        if self.ok:
            return "ok"
        if self.cycle is not None:
            return f"cycle through {list(self.cycle)}"
        if self.empty is not None:
            return f"macro {self.empty!r} expands to no symbol"
        return f"unknown symbol {self.unknown!r}"


def macro_validate(g: MacroGrammar) -> GrammarCheck:
    """Check that the root is a macro, that no expansion is empty, and
    acyclicity; any symbol that is not a macro is a terminal.

    Acyclicity comes from ``graphlib.TopologicalSorter`` over the map from
    each macro to the macros its expansion references; it is iterative, so
    a deep grammar cannot overflow the interpreter's recursion depth.  On
    success the returned order lists every macro after the macros its
    expansion references.  A reported cycle runs in reference direction:
    each member's expansion references the next, and the last references
    the first.
    """
    if not g.is_macro(g.root):
        return GrammarCheck(False, unknown=g.root)
    for name, expansion in g.macros.items():
        if not expansion:
            return GrammarCheck(False, empty=name)
    references = {
        name: [sym for sym in expansion if g.is_macro(sym)]
        for name, expansion in g.macros.items()
    }
    try:
        order = tuple(graphlib.TopologicalSorter(references).static_order())
    except graphlib.CycleError as exc:
        # graphlib lists the cycle from each macro to one that references it
        return GrammarCheck(False, cycle=tuple(reversed(exc.args[1][1:])))
    return GrammarCheck(True, order=order)


def macro_lengths(g: MacroGrammar) -> dict[str, int]:
    """Expansion length of every macro, keyed in ``macro_validate``'s
    order: the length table of the compiled tables (``_compile``), so the
    grammar is validated once, when it is compiled."""
    return _compile(g).lengths


class _Compiled(NamedTuple):
    """A grammar's read tables, compiled once by ``_compile``, with one
    node per symbol for both reads.  A macro the descent enters has the
    node (prefix sums, child nodes, probe bound).  A terminal or a cached
    macro has a leaf node (None, (terminals, levels entered, probes
    summed), height), each tuple one entry per position of its terminal
    expansion; a terminal's leaf is itself, at 0 levels and 0 probes."""

    root: tuple  # nodes[root], so that an access starts without a lookup
    length: int  # lengths[root], likewise
    height: int  # the root's height
    nodes: dict[str, tuple]  # every symbol's node
    lengths: dict[str, int]  # every macro's expansion length


def _compile(g: MacroGrammar) -> _Compiled:
    """Validate g and compile its read tables, cached on the grammar on
    first use; ValueError ``invalid grammar: ...`` for what
    ``macro_validate`` refuses, with nothing cached.  Every macro's
    expansion length is summed bottom-up in ``macro_validate``'s order.
    Then macros are taken in order of expansion length, ties in that
    order, so every macro comes after the macros it references.  Each gets
    its height (1 + its sub-symbols' highest, terminals 0) and one node.

    The shortest macros are cached: they stop before the macro that would
    take their total terminals past ``symbol_count()``.  A cached macro's
    leaf node is built from its children's leaves and holds its height
    for the stream; its references are no longer and come first, so they
    are cached too.  Every other macro's node holds its prefix sums, its
    children's own nodes and its probe bound, the most probes a binary
    search over the sums makes: ``len(prefix sums).bit_length()``.  The
    tables hold O(|G|) entries in all."""
    if g._compiled is not None:
        return g._compiled
    check = macro_validate(g)
    if not check.ok:
        raise ValueError(f"invalid grammar: {check.reason}")
    lengths: dict[str, int] = {}
    for name in check.order:  # a macro's references come before it
        lengths[name] = sum(lengths.get(s, 1) for s in g.macros[name])
    budget = g.symbol_count()
    heights: dict[str, int] = {}
    nodes: dict[str, tuple] = {}  # macros and terminals seen so far
    for name in sorted(lengths, key=lengths.__getitem__):  # stable: ties keep the order
        expansion = g.macros[name]
        for sym in expansion:
            if sym not in nodes:  # every macro named here has its node already
                nodes[sym] = (None, ((sym,), (0,), (0,)), 0)
        heights[name] = height = 1 + max(heights.get(sym, 0) for sym in expansion)
        probes = len(expansion).bit_length()
        budget -= lengths[name]
        if budget >= 0:
            leaves = [nodes[sym][1] for sym in expansion]
            nodes[name] = (None, (
                tuple(t for terminals, _, _ in leaves for t in terminals),
                tuple(k + 1 for _, levels, _ in leaves for k in levels),
                tuple(k + probes for _, _, inspected in leaves for k in inspected),
            ), height)
        else:
            ends = list(accumulate(lengths.get(sym, 1) for sym in expansion))
            nodes[name] = (ends, [nodes[sym] for sym in expansion], probes)
    g._compiled = _Compiled(nodes[g.root], lengths[g.root], heights[g.root], nodes, lengths)
    return g._compiled


def macro_access(g: MacroGrammar, i: int, stats: dict | None = None) -> str:
    """The i-th terminal (1-indexed) of the root's full expansion, found by
    top-down descent through the compiled nodes (``_compile``): at each
    macro a binary search over its prefix sums picks the child node that
    covers i, until a leaf (a terminal, or a cached macro) gives the
    terminal, with its levels and probes, at one index.  An access costs
    O(height × log(widest expansion)).

    When given, ``stats`` receives the descent depth (macros entered, the
    root included) and the number of symbols inspected, counted per level
    as ``len(prefix sums).bit_length()``: the most probes a binary search
    over that table makes.  Both are as for a level-by-level descent to
    the terminal; a leaf holds the levels and probes below its macro.
    """
    root, length, _, _, _ = g._compiled or _compile(g)
    if not 1 <= i <= length:
        raise IndexOutOfRangeError(f"index {i} outside 1..{length}")
    ends, below, probes = root
    depth = inspected = 0
    while ends is not None:
        depth += 1
        inspected += probes
        k = bisect_left(ends, i)
        if k:
            i -= ends[k - 1]
        ends, below, probes = below[k]
    terminals, levels, probes = below
    i -= 1
    if stats is not None:
        stats["descent_depth"] = depth + levels[i]
        stats["symbols_inspected"] = inspected + probes[i]
    return terminals[i]


def iter_expansion(g: MacroGrammar, stats: dict | None = None):
    """The root's terminal expansion left to right, ``_runs`` chained: a
    whole leaf's terminals pass as one run, its compiled tuple, with no
    Python frame per terminal, and a leaf whose height could raise the
    maximum depth one terminal at a time, which lifts the maximum to its
    depth plus height: at most height leaves are split.  Memory is bounded
    by the height plus ``symbol_count()`` cached terminals.  The first pull
    validates the grammar.  ``stats["max_stack_depth"]``, when given, is
    the deepest level reached, the emission just yielded included: a run
    is pulled only once the run before it is used up."""
    return chain.from_iterable(_runs(g, {} if stats is None else stats))


def _runs(g: MacroGrammar, stats: dict):
    """The runs ``iter_expansion`` chains, from a stack of node iterators:
    a whole leaf's compiled terminal tuple, or a split leaf's terminals
    as 1-tuples."""
    deepest = 0
    stack = [iter((_compile(g).root,))]  # the frame below the root, at depth 0
    while stack:
        depth = len(stack) - 1
        for ends, below, height in stack[-1]:  # an entered macro's third field is its probe bound
            if ends is not None:  # a macro the descent enters
                stack.append(iter(below))
                break
            if depth + height <= deepest:
                yield below[0]
            else:
                for terminal, level in zip(below[0], below[1]):
                    stats["max_stack_depth"] = deepest = max(deepest, depth + level)
                    yield (terminal,)
        else:
            stack.pop()


def expand(g: MacroGrammar) -> list[str]:
    """Full terminal expansion; the brute-force counterpart of
    macro_access and the round-trip oracle for induce_grammar."""
    return list(iter_expansion(g))


def induce_grammar(plan: Sequence[str]) -> MacroGrammar:
    """Compress a plan by Re-Pair (Larsson and Moffat, Proc. IEEE 88(11),
    2000): replace the most frequent digram by a fresh macro until no
    digram occurs twice; the result's expansion is exactly the plan.

    Occurrences are counted and replaced greedily left to right, so a run
    of k equal symbols holds k // 2 occurrences of its digram.  Ties
    between equally frequent digrams go to the one whose first occurrence
    is leftmost.  The grammar equals the one a full rescan per rule would
    choose, but each pass touches only the occurrences it replaces: the
    plan stays in a fixed array with holes, linked both ways, and every
    digram that occurs at least twice has one heap entry holding its
    count, its first position and its candidate positions, left to right.

    A digram is recorded once, from the plan or in the pass that makes
    the newest macro it holds, and from then on can only lose
    occurrences: a pass makes only digrams that hold its fresh macro.  So
    an entry's count is an upper bound and its first position a lower
    bound.  The top entry is recounted from its live positions until it
    is exact, and then it is the best.
    """
    if not plan:
        raise ValueError("cannot induce a grammar for the empty plan")
    prefix = _fresh_prefix(plan)
    names = list(dict.fromkeys(plan))  # symbol id -> name; macros follow terminals
    n_terminals, n = len(names), len(plan)
    base = n_terminals + n  # digram (a, b) is keyed a * base + b; every id is below base
    ids = {name: k for k, name in enumerate(names)}
    sym = [ids[s] for s in plan] + [-1]  # -1: a hole, or the sentinel at n (and at -1)
    nxt = list(range(1, n + 1))
    prv = list(range(-1, n))

    def entry(key: int, ps: list[int]) -> tuple[int, int, int, list[int]] | None:
        """The heap entry (-count, first position, key, live positions) of
        the digram key from its candidate positions ps, left to right, or
        None when it occurs less than twice."""
        x, y = divmod(key, base)
        live = [p for p in ps if sym[p] == x and sym[nxt[p]] == y]
        c, partner = len(live), -1
        if x == y:  # in a run, a position right after a counted one overlaps it
            for p in live:
                if p == partner:
                    c -= 1
                else:
                    partner = nxt[p]
        return (-c, live[0], key, live) if c >= 2 else None

    initial = defaultdict(list)
    for i in range(n - 1):
        initial[sym[i] * base + sym[i + 1]].append(i)
    heap = [e for key, ps in initial.items() if (e := entry(key, ps))]
    heapq.heapify(heap)
    macros: list[tuple[str, tuple[str, ...]]] = []
    while heap:
        # an entry only ever flatters its digram: recount the top until it is exact
        top = heap[0]
        key = top[2]
        exact = entry(key, top[3])
        if exact is None:
            heapq.heappop(heap)
            continue
        if exact[0] != top[0] or exact[1] != top[1]:  # it lost occurrences
            heapq.heapreplace(heap, exact)
            continue
        heapq.heappop(heap)
        a, b = divmod(key, base)
        m = len(names)
        names.append(f"{prefix}{len(macros) + 1}")
        macros.append((names[m], (names[a], names[b])))
        born = defaultdict(list)  # positions of each new digram (x, m) and (m, y)
        for p in exact[3]:
            q = nxt[p]
            if sym[p] != a or sym[q] != b:  # consumed earlier in this pass
                continue
            before, after = prv[p], nxt[q]
            x, y = sym[before], sym[after]
            if x >= 0:
                born[x * base + m].append(before)
            if y >= 0:  # never m: the pass has not reached after yet
                born[m * base + y].append(p)
            sym[p], sym[q] = m, -1
            nxt[p], prv[after] = after, p
        for key, ps in born.items():
            if e := entry(key, ps):
                heapq.heappush(heap, e)
    seq, p = [], 0
    while p < n:
        seq.append(sym[p])
        p = nxt[p]
    # a pass leaves at least two copies of its macro, so the root is fresh
    root = f"{prefix}{len(macros) + 1}"
    macros.append((root, tuple(names[s] for s in seq)))
    return MacroGrammar(macros, root)


def _fresh_prefix(plan: Sequence[str]) -> str:
    names = set(plan)
    prefix = "M"
    while any(
        name.startswith(prefix) and name[len(prefix):].isdigit() for name in names
    ):
        prefix += "M"
    return prefix


def parse_grammar(text: str) -> MacroGrammar:
    macros: list[tuple[str, tuple[str, ...]]] = []
    root = None
    lines = _content_lines(text)
    if not lines or lines[0][1] != ["grammar", "v1"]:
        raise FormatError("expected header 'grammar v1'")
    for no, toks in lines[1:]:
        if toks[0] == "macro":
            if len(toks) < 4 or toks[2] != "=":
                raise FormatError(f"line {no}: expected 'macro <name> = <sym>...'")
            macros.append((toks[1], tuple(toks[3:])))
        elif toks[0] == "root":
            if len(toks) != 2 or root is not None:
                raise FormatError(f"line {no}: expected one 'root <name>' line")
            root = toks[1]
        else:
            raise FormatError(f"line {no}: unexpected directive {toks[0]!r}")
    if root is None:
        raise FormatError("missing root declaration")
    try:
        return MacroGrammar(macros, root)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def serialize_grammar(g: MacroGrammar) -> str:
    """The grammar file of g.  ValueError for an empty expansion, and for a
    ``macro`` or ``root`` line that does not read back as its own tokens
    (``model._reads_back``: a name or symbol that is empty or holds
    whitespace or "#").  Symbols may start with "!"; no grammar syntax
    gives it a meaning."""
    out = ["grammar v1"]
    for name, expansion in g.macros.items():
        tokens = ["macro", name, "=", *expansion]
        if not expansion or not _reads_back(tokens):
            raise ValueError(
                f"macro {name!r}: empty expansion, or a symbol that is empty or holds whitespace or '#'"
            )
        out.append(" ".join(tokens))
    if not _reads_back(["root", g.root]):
        raise ValueError(f"root symbol {g.root!r} is empty or holds whitespace or '#'")
    out.append(f"root {g.root}")
    return "\n".join(out) + "\n"
