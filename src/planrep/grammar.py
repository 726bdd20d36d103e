"""Acyclic single-production grammars over action names: validation,
symbolic length computation, indexed access by top-down descent, bounded-
memory streaming, and a repeated-digram inducer that compresses a plan
into such a grammar.

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
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import FormatError, IndexOutOfRangeError
from .model import _content_lines


class MacroGrammar:
    """Ordered macro table plus root; immutable by convention after
    construction (derived tables are cached on first use)."""

    def __init__(
        self,
        macros: Sequence[tuple[str, Sequence[str]]] | dict[str, Sequence[str]],
        root: str,
        terminals: Iterable[str] | None = None,
    ):
        items = macros.items() if isinstance(macros, dict) else macros
        self.macros: dict[str, tuple[str, ...]] = {}
        for name, expansion in items:
            if name in self.macros:
                raise ValueError(f"duplicate macro: {name}")
            self.macros[name] = tuple(expansion)
        self.root = root
        self.terminals: frozenset[str] | None = (
            None if terminals is None else frozenset(terminals)
        )
        self._lengths: dict[str, int] | None = None

    def is_macro(self, symbol: str) -> bool:
        return symbol in self.macros

    def symbol_count(self) -> int:
        """Total number of symbols over all expansions."""
        return sum(len(exp) for exp in self.macros.values())

    def height(self) -> int:
        """Derivation-tree height: terminals sit at depth 0, a macro one
        level above its deepest expansion symbol.  The validated length
        table lists each macro after the macros it references."""
        h: dict[str, int] = {}
        for name in macro_lengths(self):
            h[name] = 1 + max(h.get(s, 0) for s in self.macros[name])
        return h[self.root]


@dataclass(frozen=True)
class GrammarCheck:
    """Validation verdict: topological macro order on success, else the
    offending cycle or unknown symbol."""

    ok: bool
    order: tuple[str, ...] | None = None
    cycle: tuple[str, ...] | None = None
    unknown: str | None = None

    @property
    def reason(self) -> str:
        if self.ok:
            return "ok"
        if self.cycle is not None:
            return f"cycle through {list(self.cycle)}"
        return f"unknown symbol {self.unknown!r}"


def macro_validate(g: MacroGrammar) -> GrammarCheck:
    """Check acyclicity, non-empty expansions, and symbol resolution.

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
            return GrammarCheck(False, unknown=name)
        if g.terminals is not None:
            for sym in expansion:
                if not g.is_macro(sym) and sym not in g.terminals:
                    return GrammarCheck(False, unknown=sym)
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
    """Expansion length of every macro, computed bottom-up in one pass and
    cached on the grammar, keyed in ``macro_validate``'s order.  No other
    read calls ``macro_validate``, so a grammar is validated once."""
    if g._lengths is not None:
        return g._lengths
    check = macro_validate(g)
    if not check.ok:
        raise ValueError(f"invalid grammar: {check.reason}")
    lengths: dict[str, int] = {}
    for name in check.order:  # a macro's references come before it
        lengths[name] = sum(lengths.get(s, 1) for s in g.macros[name])
    g._lengths = lengths
    return lengths


def macro_access(g: MacroGrammar, i: int, stats: dict | None = None) -> str:
    """The i-th terminal (1-indexed) of the root's full expansion, found by
    top-down descent: one length-table lookup per symbol gives its width
    (1 for a terminal), and the descent stops at the first terminal.

    When given, ``stats`` receives the descent depth and the number of
    symbols inspected.
    """
    lengths = macro_lengths(g)
    if not 1 <= i <= lengths[g.root]:
        raise IndexOutOfRangeError(f"index {i} outside 1..{lengths[g.root]}")
    symbol = g.root
    depth = inspected = 0
    while symbol in lengths:
        depth += 1
        for symbol in g.macros[symbol]:
            inspected += 1
            width = lengths.get(symbol, 1)
            if i <= width:
                break
            i -= width
    if stats is not None:
        stats["descent_depth"] = depth
        stats["symbols_inspected"] = inspected
    return symbol


def iter_expansion(g: MacroGrammar, stats: dict | None = None):
    """Yield the root's terminal expansion left to right from a stack of
    one iterator per open macro; memory is bounded by the grammar height,
    independent of the expansion length.  The stream has no bound of its
    own: a consumer that wants a prefix stops pulling.  The first pull
    validates the grammar through its cached length table.
    ``stats["max_stack_depth"]``, when given, holds the deepest stack level
    reached so far, the emission just yielded included."""
    macro_lengths(g)
    if stats is None:
        stats = {}
    stats["max_stack_depth"] = deepest = 1
    macros = g.macros
    stack = [iter(macros[g.root])]
    while stack:
        for sym in stack[-1]:
            if sym in macros:
                stack.append(iter(macros[sym]))
                if len(stack) > deepest:
                    stats["max_stack_depth"] = deepest = len(stack)
                break
            yield sym
        else:
            stack.pop()


def expand(g: MacroGrammar) -> list[str]:
    """Full terminal expansion; the brute-force counterpart of
    macro_access and the round-trip oracle for induce_grammar."""
    return list(iter_expansion(g))


def induce_grammar(plan: Sequence[str]) -> MacroGrammar:
    """Compress a plan by repeated most-frequent-digram replacement until
    no digram occurs twice; the result's expansion is exactly the plan.

    Occurrences are counted and replaced greedily left to right, so runs
    like a a a contribute one occurrence of (a, a).  Ties between equally
    frequent digrams go to the one whose first occurrence is leftmost.
    """
    if not plan:
        raise ValueError("cannot induce a grammar for the empty plan")
    prefix = _fresh_prefix(plan)
    seq: list[str] = list(plan)
    macros: list[tuple[str, tuple[str, ...]]] = []
    counter = 1
    while True:
        best = _most_frequent_digram(seq)
        if best is None:
            break
        name = f"{prefix}{counter}"
        counter += 1
        macros.append((name, best))
        seq = _replace_digram(seq, best, name)
    if len(seq) == 1 and any(name == seq[0] for name, _ in macros):
        root = seq[0]
    else:
        root = f"{prefix}{counter}"
        macros.append((root, tuple(seq)))
    return MacroGrammar(macros, root, terminals=set(plan))


def _most_frequent_digram(seq: list[str]) -> tuple[str, str] | None:
    counts: dict[tuple[str, str], int] = {}
    last_end: dict[tuple[str, str], int] = {}
    for i in range(len(seq) - 1):
        pair = (seq[i], seq[i + 1])
        if last_end.get(pair, -1) >= i:  # overlaps the occurrence just counted
            continue
        counts[pair] = counts.get(pair, 0) + 1
        last_end[pair] = i + 1
    # counts is in first-occurrence order and max keeps the first maximum
    best = max(counts, key=counts.__getitem__, default=None)
    return best if best is not None and counts[best] >= 2 else None


def _replace_digram(seq: list[str], pair: tuple[str, str], name: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == pair[0] and seq[i + 1] == pair[1]:
            out.append(name)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


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
    out = ["grammar v1"]
    for name, expansion in g.macros.items():
        out.append(f"macro {name} = " + " ".join(expansion))
    out.append(f"root {g.root}")
    return "\n".join(out) + "\n"
