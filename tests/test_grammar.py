"""Grammar validation, symbolic lengths, indexed access, bounded-memory
streaming, grammar induction, and the grammar file format."""

from __future__ import annotations

import random
import re
from collections.abc import Mapping
from itertools import accumulate

import pytest
from conftest import reference_induce_grammar
from hypothesis import assume, example, given, strategies as st

from planrep import grammar as grammar_mod
from planrep.constructions import plan_from_choice_bits
from planrep.errors import FormatError, IndexOutOfRangeError
from planrep.grammar import (
    MacroGrammar,
    expand,
    induce_grammar,
    iter_expansion,
    macro_access,
    macro_lengths,
    macro_validate,
    parse_grammar,
    serialize_grammar,
)
from planrep.representations import c26_csar, counter_macro, grammar_crar, macro_stream


def counter_plan(n):
    return [f"a{(i & -i).bit_length()}" for i in range(1, 1 << n)]


# symbols a grammar file could mistake for syntax, or could not write;
# a leading "!" means nothing in a grammar
tricky_symbols = st.one_of(
    st.sampled_from(["a", "b", "P", "", "a b", "#", "!a", "=", "macro", "root", "grammar"]),
    st.text(max_size=3),
)


def _token(symbol: str) -> bool:
    return bool(symbol) and not any(c.isspace() for c in symbol) and "#" not in symbol


class TestValidate:
    def test_single_production(self):
        check = macro_validate(MacroGrammar([("P1", ("a1",))], "P1"))
        assert check.ok and check.order == ("P1",) and check.reason == "ok"

    def test_self_cycle(self):
        check = macro_validate(MacroGrammar([("P", ("P",))], "P"))
        assert not check.ok and check.cycle == ("P",)

    def test_longer_cycle_path(self):
        g = MacroGrammar([("A", ("B",)), ("B", ("C",)), ("C", ("A",))], "A")
        check = macro_validate(g)
        assert not check.ok and set(check.cycle) == {"A", "B", "C"}
        for k, name in enumerate(check.cycle):  # reference direction
            assert check.cycle[(k + 1) % 3] in g.macros[name]

    def test_topological_order_dependencies_first(self):
        g = MacroGrammar(
            [("P3", ("P2", "a3", "P2")), ("P2", ("P1", "a2", "P1")), ("P1", ("a1",))],
            "P3",
        )
        check = macro_validate(g)
        assert check.ok and check.order == ("P1", "P2", "P3")

    def test_unknown_root(self):
        check = macro_validate(MacroGrammar([("P", ("a",))], "Q"))
        assert not check.ok and check.unknown == "Q"

    def test_empty_expansion_rejected(self):
        check = macro_validate(MacroGrammar([("P", ())], "P"))
        assert not check.ok

    @given(
        st.integers(1, 7).flatmap(
            lambda k: st.lists(
                st.lists(
                    st.sampled_from(["t1", "t2"] + [f"G{j}" for j in range(k)]),
                    min_size=1,
                    max_size=4,
                ),
                min_size=k,
                max_size=k,
            )
        )
    )
    def test_verdict_order_and_cycle_on_random_grammars(self, expansions):
        g = MacroGrammar([(f"G{j}", exp) for j, exp in enumerate(expansions)], "G0")
        refs = {name: {s for s in exp if g.is_macro(s)} for name, exp in g.macros.items()}
        reach = {name: set(r) for name, r in refs.items()}
        changed = True
        while changed:  # transitive closure of the reference relation
            changed = False
            for name in reach:
                grown = reach[name].union(*(refs[r] for r in reach[name]))
                changed |= grown != reach[name]
                reach[name] = grown
        acyclic = all(name not in reach[name] for name in reach)

        check = macro_validate(g)
        assert check.ok == acyclic
        if check.ok:
            assert sorted(check.order) == sorted(g.macros)
            position = {name: k for k, name in enumerate(check.order)}
            for name, r in refs.items():
                assert all(position[m] < position[name] for m in r)
        else:
            cycle = check.cycle
            assert cycle and all(g.is_macro(name) for name in cycle)
            for k, name in enumerate(cycle):
                assert cycle[(k + 1) % len(cycle)] in refs[name]


class TestLengths:
    def test_counter_grammar_lengths(self):
        lengths = macro_lengths(counter_macro(3))
        assert (lengths["P1"], lengths["P2"], lengths["P3"]) == (1, 3, 7)

    def test_single_terminal(self):
        assert macro_lengths(MacroGrammar([("P", ("a",))], "P"))["P"] == 1

    def test_closed_form_without_expanding(self):
        assert macro_lengths(counter_macro(20))["P20"] == (1 << 20) - 1


class TestAccess:
    def test_reference_position(self):
        assert macro_access(counter_macro(3), 4) == "a3"

    def test_first_terminal(self):
        assert macro_access(counter_macro(5), 1) == "a1"

    def test_agrees_with_full_expansion(self):
        g = counter_macro(10)
        reference = expand(g)
        assert reference == counter_plan(10)
        assert [macro_access(g, i) for i in range(1, len(reference) + 1)] == reference

    def test_repeated_queries_agree(self):
        g = counter_macro(6)
        assert macro_access(g, 37) == macro_access(g, 37)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            macro_access(counter_macro(3), 0)
        with pytest.raises(IndexOutOfRangeError):
            macro_access(counter_macro(3), 8)

    @pytest.mark.parametrize("length", [1, 50, 2000])
    def test_access_cost_bounded_by_height_times_log_width(self, length):
        """Macro plans have favourable access properties: no read of an
        induced grammar costs more than height × log2 of its widest
        expansion, however long the plan and its root."""
        rng = random.Random(length)
        plan = [f"a{rng.randint(1, 8)}" for _ in range(length)]
        g = induce_grammar(plan)
        rep = grammar_crar(g)
        assert [rep.access(i) for i in range(1, length + 1)] == plan
        widest = max(len(expansion) for expansion in g.macros.values())
        assert rep.meta.max_step_cost <= g.height() * widest.bit_length()

    def test_descent_depth_bounded_by_height(self):
        g = counter_macro(8)
        height = g.height()
        for i in (1, 100, 255):
            stats = {}
            macro_access(g, i, stats=stats)
            assert stats["descent_depth"] <= height


class TestStream:
    def test_stream_equals_expansion_on_random_grammars(self):
        rng = random.Random(11)
        for _ in range(20):
            g = _random_grammar(rng)
            assert list(iter_expansion(g)) == _expand_by_substitution(g)

    def test_stack_depth_never_exceeds_height(self):
        g = counter_macro(9)
        stats = {}
        list(iter_expansion(g, stats=stats))
        assert stats["max_stack_depth"] <= g.height()

    def test_deep_chain_grammar_from_text(self):
        depth = 5000
        lines = ["grammar v1", f"root P{depth}", "macro P1 = a1"]
        lines += [f"macro P{k} = P{k - 1} a{k}" for k in range(2, depth + 1)]
        g = parse_grammar("\n".join(lines) + "\n")
        check = macro_validate(g)
        assert check.ok and len(check.order) == depth
        lengths = macro_lengths(g)
        assert all(lengths[f"P{k}"] == k for k in range(1, depth + 1))
        stats = {}
        assert list(iter_expansion(g, stats=stats)) == [f"a{k}" for k in range(1, depth + 1)]
        assert stats["max_stack_depth"] == depth == g.height()


class TestValidatedOnce:
    """Every grammar read validates through the cached compiled tables."""

    def test_every_read_validates_one_grammar_once(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g)
            return macro_validate(g)

        monkeypatch.setattr(grammar_mod, "macro_validate", counting)
        g = MacroGrammar([("P1", ("a1", "a2")), ("P2", ("P1", "a3", "P1"))], "P2")
        plan = ["a1", "a2", "a3", "a1", "a2"]
        assert expand(g) == plan
        assert g.height() == 2
        assert list(iter_expansion(g)) == plan
        assert macro_stream(g).take(3) == plan[:3]
        assert grammar_crar(g).access(3) == "a3"
        assert macro_access(g, 5) == "a2"
        assert macro_lengths(g) == {"P1": 2, "P2": 5}
        assert calls == [g]

    @pytest.mark.parametrize("build", [macro_stream, grammar_crar])
    def test_grammar_reps_refuse_an_invalid_grammar_when_built(self, build):
        g = MacroGrammar([("P", ("Q",)), ("Q", ("P",))], "P")
        with pytest.raises(ValueError, match=re.escape("invalid grammar: cycle through")):
            build(g)

    @pytest.mark.parametrize("build", [macro_stream, grammar_crar])
    def test_an_empty_expansion_is_named_as_such(self, build):
        # Q is a declared macro, not an unknown symbol
        g = MacroGrammar([("P", ("Q",)), ("Q", ())], "P")
        with pytest.raises(ValueError, match=r"^invalid grammar: macro 'Q' expands to no symbol$"):
            build(g)

    @pytest.mark.parametrize(
        "g",
        [
            MacroGrammar([("P", ("a", "Q")), ("Q", ("P",))], "P"),
            MacroGrammar([("P", ("a",))], "R"),
        ],
        ids=["cyclic", "unknown-root"],
    )
    def test_invalid_grammar_raises_on_every_read(self, g):
        message = re.escape(f"invalid grammar: {macro_validate(g).reason}")
        stream = iter_expansion(g)  # nothing is checked before the first pull
        with pytest.raises(ValueError, match=message):
            list(stream)
        with pytest.raises(ValueError, match=message):
            expand(g)
        with pytest.raises(ValueError, match=message):
            macro_stream(g).take(1)
        with pytest.raises(ValueError, match=message):
            g.height()
        with pytest.raises(ValueError, match=message):
            macro_lengths(g)


@st.composite
def acyclic_grammars(draw):
    """Up to 7 macros G0..G6, each referencing only earlier ones, declared
    in shuffled order, with a random root; terminals mix in names that look
    like macros but are not (G7, G8, P1)."""
    terminals = draw(
        st.lists(st.sampled_from(["t1", "t2", "G7", "G8", "P1"]), min_size=1, max_size=3, unique=True)
    )
    macros = []
    for k in range(draw(st.integers(1, 7))):
        pool = terminals + [name for name, _ in macros]
        macros.append((f"G{k}", tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)))))
    root = draw(st.sampled_from([name for name, _ in macros]))
    return MacroGrammar(draw(st.permutations(macros)), root)


def _reference_descent(g: MacroGrammar, widths: dict[str, int], i: int):
    """The i-th terminal with the stats a top-down descent should report:
    macros entered (root included) and, per macro, the most probes a
    binary search over its expansion's prefix sums makes."""
    symbol, depth, inspected = g.root, 0, 0
    while g.is_macro(symbol):
        depth += 1
        inspected += len(g.macros[symbol]).bit_length()
        for sym in g.macros[symbol]:
            width = widths[sym] if g.is_macro(sym) else 1
            if i <= width:
                symbol = sym
                break
            i -= width
    return symbol, {"descent_depth": depth, "symbols_inspected": inspected}


def _chain_grammar(depth: int) -> MacroGrammar:
    lines = ["grammar v1", f"root P{depth}", "macro P1 = a1"]
    lines += [f"macro P{k} = P{k - 1} a{k}" for k in range(2, depth + 1)]
    return parse_grammar("\n".join(lines) + "\n")


def _widths(g: MacroGrammar) -> dict[str, int]:
    return {name: len(_expand_by_substitution(MacroGrammar(g.macros, name))) for name in g.macros}


class TestReadsOnRandomGrammars:
    @given(acyclic_grammars())
    def test_access_and_stream_agree_with_substitution(self, g):
        plan = _expand_by_substitution(g)
        widths = _widths(g)
        assert macro_lengths(g) == widths
        stats: dict = {}
        stream = iter_expansion(g, stats=stats)
        deepest = 0
        for i, expected in enumerate(plan, 1):
            got: dict = {}
            terminal, reference = _reference_descent(g, widths, i)
            assert macro_access(g, i, stats=got) == terminal == expected
            assert got == reference
            # the stack holds one entry per macro on the path to the emission
            deepest = max(deepest, reference["descent_depth"])
            assert next(stream) == expected
            assert stats == {"max_stack_depth": deepest}
        assert next(stream, None) is None
        assert stats["max_stack_depth"] == g.height()

    def test_access_at_both_ends_of_a_deep_chain(self):
        g = _chain_grammar(5000)
        stats: dict = {}
        assert macro_access(g, 1, stats=stats) == "a1"
        assert stats == {"descent_depth": 5000, "symbols_inspected": 2 * 4999 + 1}
        assert macro_access(g, 5000, stats=stats) == "a5000"
        assert stats == {"descent_depth": 1, "symbols_inspected": 2}


class _RefusingMapping(Mapping):
    """A macro table whose every method raises."""

    def _refuse(self, *args):
        raise AssertionError("the macro table was read after compiling")

    __getitem__ = __iter__ = __len__ = __contains__ = _refuse


def _assert_reads_need_no_macro_table(g: MacroGrammar) -> None:
    """Read g, swap its macro table for one that refuses every read, and
    read it again: once compiled, no grammar read touches the table."""

    def access(i: int) -> tuple[str, dict]:
        got: dict = {}
        return macro_access(g, i, stats=got), got

    rep, crar = macro_stream(g), grammar_crar(g)  # both serialize the table when built
    plan = expand(g)
    positions = range(1, len(plan) + 1)
    stats: dict = {}
    stream = list(iter_expansion(g, stats=stats))
    accessed = [access(i) for i in positions]
    height, lengths = g.height(), dict(macro_lengths(g))
    g.macros = _RefusingMapping()
    assert list(rep) == plan == stream and rep.stats == stats
    assert [crar.access(i) for i in positions] == plan
    assert expand(g) == plan
    assert [access(i) for i in positions] == accessed
    assert g.height() == height and macro_lengths(g) == lengths


class TestReadsWithoutTheMacroTable:
    def test_counter_macro(self):
        _assert_reads_need_no_macro_table(counter_macro(12))

    def test_repair_grammar(self):
        rng = random.Random(3)
        _assert_reads_need_no_macro_table(induce_grammar([rng.choice("abcd") for _ in range(2000)]))

    @given(acyclic_grammars())
    def test_random_grammars(self, g):
        _assert_reads_need_no_macro_table(g)


def _cached(g: MacroGrammar) -> dict[str, tuple[tuple[str, ...], int]]:
    """The cached macros of g's compiled nodes, in the order they were
    compiled: {macro: (terminal expansion, height)} for every macro whose
    node is a leaf."""
    return {
        name: (node[1][0], node[2])
        for name, node in grammar_mod._compile(g).nodes.items()
        if node[0] is None and g.is_macro(name)
    }


class TestDescentTable:
    """Access walks tables compiled once per grammar; its terminal and
    stats are those of a level-by-level descent."""

    def test_compiled_once_and_cached(self):
        g = counter_macro(12)
        table = grammar_mod._compile(g)
        assert macro_access(g, 2048) == "a12"
        assert g.height() == 12
        assert list(iter_expansion(g)) == counter_plan(12)
        assert grammar_mod._compile(g) is table  # cached on the grammar
        assert table.root is table.nodes[g.root]  # the descent starts in the node table
        assert macro_lengths(g) is table.lengths

    def test_first_access_to_a_cyclic_grammar_raises(self):
        g = MacroGrammar([("P", ("a", "Q")), ("Q", ("P",))], "P")
        for _ in range(2):  # nothing is cached by a refused access
            with pytest.raises(ValueError, match=re.escape("invalid grammar: cycle through ")):
                macro_access(g, 1)

    @pytest.mark.parametrize(
        "g",
        [
            counter_macro(12),
            MacroGrammar([("R", ("a", "A", "b")), ("A", ("c",))], "R"),
            MacroGrammar([("A", ("c",)), ("B", ("A",)), ("R", ("a", "B", "b", "A"))], "R"),
        ],
        ids=["counter12", "flat-root", "flat-root-height3"],
    )
    def test_every_position_matches_the_reference_descent(self, g):
        widths = _widths(g)
        assert (g.root in _cached(g)) == (g.root == "R")
        for i in range(1, widths[g.root] + 1):
            stats: dict = {}
            terminal, reference = _reference_descent(g, widths, i)
            assert macro_access(g, i, stats=stats) == terminal
            assert stats == reference

    @given(acyclic_grammars())
    @example(counter_macro(12))
    def test_every_symbol_has_exactly_one_node(self, g):
        nodes = grammar_mod._compile(g).nodes
        symbols = set(g.macros) | {sym for expansion in g.macros.values() for sym in expansion}
        assert set(nodes) == symbols
        for sym in symbols - set(g.macros):  # a terminal is a leaf of height 0
            assert nodes[sym] == (None, ((sym,), (0,), (0,)), 0)

    @given(acyclic_grammars())
    @example(counter_macro(12))
    @example(induce_grammar(counter_plan(9) + plan_from_choice_bits(4, "1" * 15)))
    def test_a_wide_node_spans_its_macro_expansion(self, g):
        nodes = grammar_mod._compile(g).nodes
        for name, expansion in g.macros.items():
            ends, children = nodes[name][:2]
            if ends is not None:  # a macro the descent enters
                spans = [[t for leaf in _leaf_nodes(child) for t in leaf[0]] for child in children]
                assert [t for span in spans for t in span] == _expand_by_substitution(MacroGrammar(g.macros, name))
                assert list(ends) == list(accumulate(map(len, spans)))
                assert len(children) <= max(grammar_mod._WIDTH, len(expansion))

    def test_full_read_charges_the_largest_reference_cost(self):
        g = counter_macro(12)
        widths = _widths(g)
        rep = grammar_crar(g)
        assert [rep.access(i) for i in range(1, rep.length + 1)] == counter_plan(12)
        costs = [_reference_descent(g, widths, i)[1]["symbols_inspected"] for i in range(1, rep.length + 1)]
        assert rep.meta.max_step_cost == max(costs)


class TestDeepGrammars:
    """Inlining compounds over many levels: an access still reports the
    terminal and stats of a level-by-level descent."""

    @staticmethod
    def _assert_access(g: MacroGrammar, widths: dict[str, int], positions) -> None:
        for i in positions:
            stats: dict = {}
            terminal, reference = _reference_descent(g, widths, i)
            assert (macro_access(g, i, stats=stats), stats) == (terminal, reference)

    def test_chain_of_300_levels(self):
        g = _chain_grammar(300)
        self._assert_access(g, _widths(g), range(1, 301))
        assert _assert_stream_matches_descent(g) == [f"a{k}" for k in range(1, 301)]

    def test_counter_macro_20_at_seeded_positions(self):
        g = counter_macro(20)
        widths = {f"P{k}": (1 << k) - 1 for k in range(1, 21)}
        rng = random.Random(20)
        self._assert_access(g, widths, [rng.randint(1, widths["P20"]) for _ in range(2000)])

    def test_repair_grammar_of_the_ruler_plan(self):
        plan = counter_plan(14)
        g = induce_grammar(plan)
        widths = _widths(g)
        assert widths[g.root] == len(plan)
        self._assert_access(g, widths, range(1, len(plan) + 1))


def _assert_stream_matches_descent(g: MacroGrammar) -> list[str]:
    """Stream g and check every emission and the running maximum depth
    after it against an independent top-down descent; returns the plan."""
    widths = _widths(g)
    stats: dict = {}
    stream = iter_expansion(g, stats=stats)
    plan, deepest = [], 0
    for i in range(1, widths[g.root] + 1):
        terminal, reference = _reference_descent(g, widths, i)
        deepest = max(deepest, reference["descent_depth"])
        assert (next(stream), stats) == (terminal, {"max_stack_depth": deepest})
        plan.append(terminal)
    assert next(stream, None) is None
    return plan


class TestFlatExpansions:
    """The short macros whose nodes are leaves, and whose terminal
    expansions the stream emits whole unless they can raise its maximum
    depth."""

    def test_counter_macro_caches_the_five_shortest_within_its_size(self):
        g = counter_macro(20)
        flat = _cached(g)
        assert list(flat) == ["P1", "P2", "P3", "P4", "P5"]
        assert sum(len(chunk) for chunk, _ in flat.values()) == 57 <= g.symbol_count() == 58
        assert flat["P3"] == (tuple(counter_plan(3)), 3)
        assert _cached(g)["P3"][0] is flat["P3"][0]  # cached on the grammar

    @pytest.mark.parametrize(
        "g",
        [counter_macro(20), _chain_grammar(5000), induce_grammar(counter_plan(9) + plan_from_choice_bits(4, "1" * 15))],
        ids=["counter20", "chain5000", "induced"],
    )
    def test_cached_terminals_within_symbol_count(self, g):
        flat = _cached(g)
        assert flat and g.root not in flat
        assert sum(len(chunk) for chunk, _ in flat.values()) <= g.symbol_count()
        assert max(height for _, height in flat.values()) < g.height()

    @given(acyclic_grammars())
    def test_table_is_a_shortest_first_prefix_of_exact_expansions(self, g):
        flat = _cached(g)
        lengths = macro_lengths(g)
        order = sorted(lengths, key=lengths.__getitem__)
        assert list(flat) == order[: len(flat)]
        cached = sum(lengths[name] for name in flat)
        assert cached <= g.symbol_count()
        if len(flat) < len(order):
            assert cached + lengths[order[len(flat)]] > g.symbol_count()
        widths = _widths(g)
        for name, (chunk, height) in flat.items():
            sub = MacroGrammar(g.macros, name)
            assert list(chunk) == _expand_by_substitution(sub)
            # the height is the deepest descent below the macro, itself included
            depths = [_reference_descent(sub, widths, i)[1]["descent_depth"] for i in range(1, widths[name] + 1)]
            assert height == max(depths)

    def test_root_cached_and_opened_from_depth_zero(self):
        g = MacroGrammar([("R", ("a", "A", "b")), ("A", ("c",))], "R")
        assert _cached(g)["R"] == (("a", "c", "b"), 2)
        assert _assert_stream_matches_descent(g) == ["a", "c", "b"]

    def test_root_not_cached(self):
        g = MacroGrammar([("P1", ("a1", "a2")), ("P2", ("P1", "a3", "P1"))], "P2")
        assert list(_cached(g)) == ["P1"]
        assert _assert_stream_matches_descent(g) == ["a1", "a2", "a3", "a1", "a2"]

    def test_cached_macro_opened_while_it_can_raise_the_maximum(self):
        # A is cached with height 3: y sits two levels deeper than x.  The
        # first A can raise the maximum and is emitted one terminal at a
        # time, the second cannot and is emitted whole.  P reaches one
        # level deeper than the first A, so it too is emitted one terminal
        # at a time; the maximum rises only at its y.
        g = MacroGrammar(
            [
                ("B1", ("y",)),
                ("B2", ("B1",)),
                ("A", ("x", "B2")),
                ("Q", ("q",)),
                ("P", ("Q", "A")),
                ("R", ("A", "z", "A", "z", "P")),
            ],
            "R",
        )
        flat = _cached(g)
        assert "R" not in flat and flat["A"] == (("x", "y"), 3)
        assert flat["P"] == (("q", "x", "y"), 4)
        assert _assert_stream_matches_descent(g) == ["x", "y", "z", "x", "y", "z", "q", "x", "y"]

    def test_single_symbol_macros_and_a_shared_sub_macro(self):
        g = MacroGrammar(
            [
                ("S", ("s",)),
                ("M", ("N",)),
                ("N", ("S", "b")),
                ("X", ("S", "M")),
                ("Y", ("M", "S", "M")),
                ("R", ("X", "Y", "X", "Y", "c")),
            ],
            "R",
        )
        flat = _cached(g)
        assert list(flat)[:4] == ["S", "N", "M", "X"]
        assert flat["M"] == (("s", "b"), 3)
        assert _assert_stream_matches_descent(g) == _expand_by_substitution(g)

    @pytest.mark.parametrize("seed", range(6))
    def test_induced_grammars_switch_between_whole_and_opened(self, seed):
        # nearly every macro of these grammars is cached, and the maximum
        # depth is first reached part-way into the stream
        rng = random.Random(seed)
        plan = [rng.choice("abc") for _ in range(300)]
        assert _assert_stream_matches_descent(induce_grammar(plan)) == plan


def _leaf_nodes(node):
    """The leaf nodes below a compiled node, left to right."""
    if node[0] is None:
        yield node[1]
    else:
        for child in node[1]:
            yield from _leaf_nodes(child)


class TestRuns:
    """The stream moves terminals a run at a time: a whole leaf's own
    terminal tuple, or a split leaf's terminals as 1-tuples."""

    @staticmethod
    def _assert_runs(g: MacroGrammar) -> None:
        runs = list(grammar_mod._runs(g, {}))
        assert [t for run in runs for t in run] == _expand_by_substitution(g)
        k = split = 0
        for terminals, _, _ in _leaf_nodes(grammar_mod._compile(g).root):
            if runs[k] is terminals:  # handed out whole, not copied
                k += 1
                continue
            split += 1
            assert runs[k : k + len(terminals)] == [(t,) for t in terminals]
            k += len(terminals)
        assert k == len(runs) and split <= g.height()

    @pytest.mark.parametrize("k", range(1, 13))
    def test_counter_macro(self, k):
        self._assert_runs(counter_macro(k))

    @pytest.mark.parametrize("seed", range(6))
    def test_induced_grammars(self, seed):
        rng = random.Random(seed)
        plan = [rng.choice("abc") for _ in range(300)]
        self._assert_runs(induce_grammar(plan))

    def test_counter_macro_20_in_65565_runs(self):
        assert sum(1 for _ in grammar_mod._runs(counter_macro(20), {})) == 65565


class TestInduce:
    def test_single_action_plan(self):
        g = induce_grammar(["a1"])
        assert expand(g) == ["a1"]

    def test_counter_plan_compresses_geometrically(self):
        plan = counter_plan(10)
        g = induce_grammar(plan)
        assert expand(g) == plan
        assert g.symbol_count() <= 256

    def test_no_digram_repeats_after_induction(self):
        g = induce_grammar(counter_plan(6))
        for expansion in g.macros.values():
            digrams = list(zip(expansion, expansion[1:]))
            assert len(digrams) == len(set(digrams))

    def test_macro_names_avoid_plan_alphabet(self):
        g = induce_grammar(["M1", "M2", "M1", "M2", "M1", "M2"])
        assert expand(g) == ["M1", "M2", "M1", "M2", "M1", "M2"]

    def test_run_handling(self):
        plan = ["a"] * 9
        g = induce_grammar(plan)
        assert expand(g) == plan

    @given(
        st.lists(
            st.sampled_from(["a1", "a2", "a3", "b", "c"]), min_size=1, max_size=60
        )
    )
    def test_round_trip_property(self, plan):
        assert expand(induce_grammar(plan)) == plan

    def test_rejects_empty_plan(self):
        with pytest.raises(ValueError):
            induce_grammar([])

    def test_round_trips_every_corpus_plan(self, corpus):
        from planrep import bfs_solve

        for name, inst in corpus:
            plan = bfs_solve(inst).plan
            if plan:
                assert expand(induce_grammar(plan)) == plan, name


def assert_matches_reference(plan):
    assert serialize_grammar(induce_grammar(plan)) == serialize_grammar(
        reference_induce_grammar(plan)
    ), plan


def _runs(longest: int, count: int):
    """Up to count runs over one to three symbols, each 1..longest long."""
    return st.integers(1, 3).flatmap(
        lambda k: st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"][:k]), st.integers(1, longest)),
            min_size=1,
            max_size=count,
        )
    )


class TestInduceMatchesReference:
    """The inducer's grammars equal the reference inducer's, rule for
    rule, on every corpus."""

    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.lists(
                st.sampled_from(["a", "b", "M1", "c"][:k]), min_size=1, max_size=300
            )
        )
    )
    def test_random_sequences(self, plan):
        assert_matches_reference(plan)

    @given(_runs(longest=9, count=80))
    @example([("a", 2), ("b", 1), ("a", 10), ("b", 1)])  # a run loses its right end
    @example([("a", 1), ("b", 1), ("a", 1), ("b", 5)])  # a run loses its left end
    def test_run_heavy_sequences(self, runs):
        """Runs of equal symbols, where greedy counting and replacement
        shift with a run's parity as its ends are consumed."""
        plan = [symbol for symbol, length in runs for _ in range(length)][:400]
        assert_matches_reference(plan)

    @given(_runs(longest=200, count=40))
    def test_long_run_sequences(self, runs):
        """Runs up to 200 long: a run's digram is recounted greedily as
        its ends are consumed and its inner pairs replaced."""
        plan = [symbol for symbol, length in runs for _ in range(length)][:1000]
        assert_matches_reference(plan)

    @given(
        st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=6),
            min_size=1,
            max_size=4,
        ).flatmap(
            lambda blocks: st.lists(
                st.one_of(st.sampled_from(blocks), st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=2)),
                min_size=1,
                max_size=40,
            )
        )
    )
    def test_repeated_block_sequences(self, pieces):
        """A few blocks repeated in any order with short noise between them:
        many digrams tie on count, and replacements meet at block seams."""
        plan = [symbol for piece in pieces for symbol in piece]
        assume(plan)
        assert_matches_reference(plan)

    def test_seeded_random_plan_of_4000_over_8_actions(self):
        rng = random.Random(4000)
        assert_matches_reference([f"a{rng.randint(1, 8)}" for _ in range(4000)])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_counter_plans(self, n):
        assert_matches_reference(counter_plan(n))

    def test_whole_sweep_plan_at_n3(self):
        # the all-instances plan of all 256 clause subsets at n=3
        plan = list(c26_csar(3))
        g = induce_grammar(plan)
        assert (len(plan), len(g.macros), g.symbol_count(), g.height()) == (23296, 678, 4893, 10)
        assert expand(g) == plan

    def test_choice_bit_plans(self):
        rng = random.Random(5)
        for n in range(1, 9):
            for _ in range(4):
                bits = "".join(rng.choice("01") for _ in range((1 << n) - 1))
                assert_matches_reference(plan_from_choice_bits(n, bits))


class TestGrammarFiles:
    def test_round_trip(self):
        g = counter_macro(4)
        text = serialize_grammar(g)
        back = parse_grammar(text)
        assert back.macros == g.macros and back.root == g.root
        assert serialize_grammar(back) == text

    def test_comments(self):
        g = parse_grammar("grammar v1\n# note\nmacro P = a b # tail\nroot P\n")
        assert g.macros == {"P": ("a", "b")}

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "grammar v2\nroot P\n",
            "grammar v1\nmacro P a\nroot P\n",
            "grammar v1\nmacro P = a\n",
            "grammar v1\nmacro P = a\nroot P\nroot P\n",
            "grammar v1\nmacro P = a\nmacro P = b\nroot P\n",
            "grammar v1\nwhat P = a\nroot P\n",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            parse_grammar(text)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: induce_grammar(["a", "#b", "c", "a", "#b", "c"]),
            lambda: induce_grammar(["a", "b c", "a"]),
            lambda: induce_grammar(["", "a"]),
            # one symbol lost and one split: as many tokens, another plan
            lambda: induce_grammar(["", "a b"]),
            lambda: MacroGrammar([("P", ())], "P"),
            lambda: MacroGrammar([("P", ("a",))], "a b"),
        ],
        ids=["hash", "space", "empty", "empty-and-space", "empty-expansion", "root-space"],
    )
    def test_unreadable_symbols_refused(self, build):
        # each would read back as a different grammar, or not at all
        g = build()
        for write in (serialize_grammar, macro_stream, grammar_crar):
            with pytest.raises(ValueError, match="symbol"):
                write(g)

    @given(
        st.lists(
            st.tuples(tricky_symbols, st.lists(tricky_symbols, max_size=4)),
            max_size=4,
            unique_by=lambda macro: macro[0],
        ),
        tricky_symbols,
    )
    @example([("M1", ["", "a b"])], "M1")
    def test_writer_refuses_or_round_trips(self, macros, root):
        g = MacroGrammar(macros, root)
        try:
            text = serialize_grammar(g)
        except ValueError:
            # refused only for an empty expansion or a symbol that cannot be a token
            symbols = [root] + [s for name, expansion in macros for s in (name, *expansion)]
            assert not all(expansion for _, expansion in macros) or not all(map(_token, symbols))
            return
        back = parse_grammar(text)
        assert (back.macros, back.root) == (g.macros, g.root)


def _random_grammar(rng: random.Random) -> MacroGrammar:
    terminals = ["t1", "t2", "t3"]
    names = []
    macros = []
    for k in range(rng.randint(1, 5)):
        name = f"G{k}"
        pool = terminals + names  # only earlier macros: acyclic by construction
        expansion = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
        macros.append((name, expansion))
        names.append(name)
    return MacroGrammar(macros, names[-1])


def _expand_by_substitution(g: MacroGrammar) -> list[str]:
    """Reference expansion by repeated substitution (no stack)."""
    symbols = [g.root]
    while any(g.is_macro(s) for s in symbols):
        fresh: list[str] = []
        for s in symbols:
            fresh.extend(g.macros[s]) if g.is_macro(s) else fresh.append(s)
        symbols = fresh
    return symbols
