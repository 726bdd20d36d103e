"""Command-line behaviour: subcommand wiring, exit-code contract, and
byte-determinism of output."""

from __future__ import annotations

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import planrep
from planrep import (
    CounterSpec,
    RepMeta,
    SequentialRep,
    bfs_solve,
    c26_csar,
    counter_instance,
    counter_macro,
    sat_verifier_instance,
    serialize_grammar,
    serialize_instance,
    serialize_plan,
)
from planrep.cli import main
from planrep.errors import IndexOutOfRangeError
from planrep.sat3 import instance_from_index

from conftest import PAPER_RULER_16


@pytest.fixture()
def counter_file(tmp_path):
    path = tmp_path / "counter5.strips"
    path.write_text(serialize_instance(counter_instance(CounterSpec(5, 16, "binary"))))
    return str(path)


@pytest.fixture()
def plan_file(tmp_path):
    path = tmp_path / "good.plan"
    path.write_text(serialize_plan(PAPER_RULER_16))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The options each gen family reads, named as its refusals name them
GEN_READS = {
    "counter": {"-n", "--target"},
    "gray": {"-n", "--target"},
    "indexed": {"-n"},
    "satverify": {"-n", "-i"},
    "allinst": {"-n"},
    "unary": {"-f/--file"},
}


class TestGen:
    def test_counter_round_trips_through_solver(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "counter", "-n", "5", "--target", "16")
        assert code == 0
        path = tmp_path / "c.strips"
        path.write_text(out)
        code, out, _ = run(capsys, "solve", "-i", str(path))
        assert code == 0
        assert [l for l in out.splitlines() if not l.startswith("#")] == PAPER_RULER_16

    def test_every_family_generates(self, capsys, tmp_path):
        for argv in (
            ["gen", "gray", "-n", "3"],
            ["gen", "indexed", "-n", "2"],
            ["gen", "satverify", "-n", "3", "-i", "255"],
            ["gen", "allinst", "-n", "1"],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out.startswith("strips v1\n")

    def test_unary_transform(self, capsys, counter_file):
        code, out, _ = run(capsys, "gen", "unary", "-f", counter_file)
        assert code == 0
        assert "lock_a1" in out

    def test_unary_transform_of_names_that_collide_with_one_underscore(self, capsys, tmp_path):
        source = tmp_path / "lock.strips"
        source.write_text("strips v1\natoms: x lock_a\naction a\n  pre:\n  post: x\ninit:\ngoal: x\n")
        code, out, _ = run(capsys, "gen", "unary", "-f", str(source))
        assert code == 0 and "atoms: x lock_a lock__a\n" in out
        unary = tmp_path / "unary.strips"
        unary.write_text(out)
        assert run(capsys, "solve", "-i", str(unary)) == (0, "# length: 3\na__begin\na__set_x\na__end\n", "")

    def test_missing_size_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "counter")
        assert code == 2 and "error" in err

    def test_unary_without_file_is_usage_error(self, capsys):
        code, out, err = run(capsys, "gen", "unary")
        assert code == 2 and out == "" and "gen unary needs -f/--file" in err

    def test_unknown_family_is_usage_error(self, capsys):
        assert run(capsys, "gen", "nonsense")[0] == 2

    @pytest.mark.parametrize(
        "family, flag",
        [
            (family, flag)
            for family, reads in GEN_READS.items()
            for flag in ("-n", "-i", "--target", "-f/--file")
            if flag not in reads
        ],
    )
    def test_each_family_refuses_the_options_it_does_not_read(self, capsys, counter_file, family, flag):
        needed = ["-f", counter_file] if family == "unary" else ["-n", "2"]
        given = ["--file", counter_file] if flag == "-f/--file" else [flag, "3"]
        code, out, err = run(capsys, "gen", family, *needed, *given)
        assert (code, out, err) == (2, "", f"error: gen {family} does not read {flag}\n")

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_counter_families_refuse_no_bits_alike(self, capsys, n):
        # the default target of counter and gray is not built before the rule
        for family in ("counter", "gray", "indexed"):
            assert run(capsys, "gen", family, "-n", n) == (2, "", "error: need at least one counter bit\n")

    def test_satverify_reads_a_missing_i_as_0(self, capsys):
        assert run(capsys, "gen", "satverify", "-n", "3") == run(capsys, "gen", "satverify", "-n", "3", "-i", "0")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "unary"], "gen unary needs -f/--file with the input instance"),
            (["gen", "unary", "-f", ""], "gen unary needs -f/--file with the input instance"),
            (["gen", "counter", "--target", "3"], "gen counter needs -n"),
            (["gen", "satverify", "-i", "3"], "gen satverify needs -n"),
        ],
    )
    def test_a_missing_needed_option_is_refused(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


class TestValidate:
    def test_valid_plan(self, capsys, counter_file, plan_file):
        code, out, _ = run(capsys, "validate", "-i", counter_file, "-p", plan_file)
        assert code == 0 and out == "valid\n"

    def test_invalid_plan_is_negative_verdict(self, capsys, counter_file, tmp_path):
        bad = tmp_path / "bad.plan"
        bad.write_text("a2\n")
        code, out, _ = run(capsys, "validate", "-i", counter_file, "-p", str(bad))
        assert code == 1 and out == "invalid step=1\n"

    def test_malformed_instance_is_usage_error(self, capsys, tmp_path, plan_file):
        broken = tmp_path / "broken.strips"
        broken.write_text("strips v1\natoms: x x\ninit:\ngoal:\n")
        code, _, err = run(capsys, "validate", "-i", str(broken), "-p", plan_file)
        assert code == 2

    @pytest.mark.parametrize(
        "content",
        ["", "strips v9\n", "atoms: x\n", "strips v1\natoms: x\naction a\ninit:\ngoal:\n"],
    )
    def test_fuzzed_malformed_files_always_exit_2(self, capsys, tmp_path, plan_file, content):
        path = tmp_path / "fuzz.strips"
        path.write_text(content)
        assert run(capsys, "validate", "-i", str(path), "-p", plan_file)[0] == 2

    def test_missing_file_is_usage_error(self, capsys, plan_file):
        assert run(capsys, "validate", "-i", "/does/not/exist", "-p", plan_file)[0] == 2

    @pytest.mark.parametrize("command", [["validate", "-p", "unused.plan", "-i"], ["stream", "--rep"]])
    def test_directory_as_input_is_usage_error(self, capsys, tmp_path, command):
        code, out, err = run(capsys, *command, str(tmp_path))
        assert code == 2 and out == ""
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


class TestSolve:
    def test_count_optimal(self, capsys, tmp_path):
        path = tmp_path / "indexed.strips"
        run_code, out, _ = run(capsys, "gen", "indexed", "-n", "2")
        path.write_text(out)
        code, out, _ = run(capsys, "solve", "-i", str(path), "--count-optimal")
        assert code == 0 and "# optimal plans: 8" in out

    def test_count_past_the_decimal_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "indexed14.strips"
        path.write_text(run(capsys, "gen", "indexed", "-n", "14")[1])
        code, out, err = run(capsys, "solve", "-i", str(path), "--count-optimal")
        assert code == 0 and err == "" and out.endswith("\n# optimal plans: 2^16383\n")

    def test_unsolvable_negative_verdict(self, capsys, tmp_path):
        path = tmp_path / "dead.strips"
        path.write_text("strips v1\natoms: x1\ninit:\ngoal: x1\n")
        code, out, _ = run(capsys, "solve", "-i", str(path))
        assert code == 1 and out == "# no plan\n"

    @pytest.fixture()
    def counter10(self, tmp_path):
        path = tmp_path / "c10.strips"
        path.write_text(serialize_instance(counter_instance(CounterSpec(10, 1023, "binary"))))
        return str(path)

    def test_state_cap_exceeded(self, capsys, counter10):
        for flags in ([], ["--count-optimal"]):
            assert run(capsys, "solve", "-i", counter10, "--state-cap", "1000", *flags) == (
                3, "", "error: state cap of 1000 exceeded\n"
            )

    def test_state_cap_at_or_above_the_search_changes_nothing(self, capsys, counter10):
        expanded = bfs_solve(counter_instance(CounterSpec(10, 1023, "binary"))).states_expanded
        plain = run(capsys, "solve", "-i", counter10)
        assert plain[0] == 0 and plain[1].startswith("# length: 1023\n")
        for cap in (expanded, expanded + 1, 1 << 20):
            assert run(capsys, "solve", "-i", counter10, "--state-cap", str(cap)) == plain
        # counting explores all 2^10 states, one past the search's goal
        counted = run(capsys, "solve", "-i", counter10, "--count-optimal")
        assert counted == (0, plain[1] + "# optimal plans: 1\n", "")
        for cap in (1 << 10, 1 << 20):
            assert run(capsys, "solve", "-i", counter10, "--count-optimal", "--state-cap", str(cap)) == counted

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_state_cap_below_one_is_a_usage_error(self, capsys, counter10, cap):
        assert run(capsys, "solve", "-i", counter10, "--state-cap", cap) == (
            2, "", "error: --state-cap must be at least 1\n"
        )


class TestRepresentations:
    def test_access_counter(self, capsys):
        code, out, _ = run(
            capsys, "access", "--rep", "builtin:counter-crar?n=5", "--index", "16"
        )
        assert code == 0 and out == "a5\n"

    def test_access_out_of_range_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "access", "--rep", "builtin:counter-crar?n=5", "--index", "32"
        )
        assert code == 2

    def test_access_on_a_stream_is_usage_error(self, capsys):
        code, out, err = run(capsys, "access", "--rep", "builtin:c26-csar?n=1", "--index", "1")
        assert code == 2 and out == "" and "no random access" in err

    def test_stream_limit(self, capsys):
        code, out, _ = run(
            capsys, "stream", "--rep", "builtin:counter-crar?n=5", "--limit", "16"
        )
        assert code == 0 and out.splitlines() == PAPER_RULER_16

    @pytest.mark.parametrize("source", ["builtin", "file"])
    def test_stream_limit_on_grammar(self, capsys, tmp_path, source):
        rep = "builtin:counter-macro?n=4"
        if source == "file":
            path = tmp_path / "counter4.grammar"
            path.write_text(serialize_grammar(counter_macro(4)))
            rep = str(path)
        code, out, _ = run(capsys, "stream", "--rep", rep, "--limit", "5")
        assert code == 0 and out.splitlines() == PAPER_RULER_16[:5]
        code, out, err = run(capsys, "stream", "--rep", rep, "--limit", "0")
        assert code == 0 and out == "" and err == ""

    def test_stream_limit_pulls_nothing_past_the_bound(self, capsys, tmp_path):
        # the first emission raises: a binary counter has no stutter pair
        path = tmp_path / "counter2.strips"
        path.write_text(serialize_instance(counter_instance(CounterSpec(2, 3, "binary"))))
        rep = f"builtin:reversible?file={path}"
        code, _, err = run(capsys, "stream", "--rep", rep, "--limit", "1")
        assert code == 2 and "no stutter pair found at state 0" in err
        for limit in ("0", "-2"):
            code, out, err = run(capsys, "stream", "--rep", rep, "--limit", limit)
            assert code == 0 and out == "" and err == "", limit

    def test_stream_ends_cleanly_when_its_reader_stops(self):
        # a prefix read of the 2^64 - 1 actions of counter_macro(64): the
        # writer meets a closed pipe, stops pulling and exits 0, quietly
        src = str(Path(planrep.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-m", "planrep.cli", "stream", "--rep", "builtin:counter-macro?n=64", "--force"]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
        ) as proc:
            assert [proc.stdout.readline() for _ in range(3)] == ["a1\n", "a2\n", "a1\n"]
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            assert proc.stderr.read() == ""

    def test_other_commands_keep_a_closed_stdout_as_an_error(self, monkeypatch):
        # their exit codes carry verdicts, so a closed pipe is not read as one
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(BrokenPipeError):
            main(["gen", "counter", "-n", "1"])

    def test_stream_grammar_uri(self, capsys):
        code, out, _ = run(capsys, "stream", "--rep", "builtin:counter-macro?n=3")
        assert code == 0 and out.splitlines() == ["a1", "a2", "a1", "a3", "a1", "a2", "a1"]

    @pytest.mark.parametrize("command", [["stream"], ["access", "--index", "1"]])
    def test_cyclic_grammar_file_is_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "cyclic.grammar"
        path.write_text("grammar v1\nmacro P = a Q\nmacro Q = P\nroot P\n")
        code, out, err = run(capsys, *command, "--rep", str(path))
        assert code == 2 and out == "" and "invalid grammar: cycle through" in err

    def test_verify_rep_positive(self, capsys, tmp_path):
        path = tmp_path / "c16.strips"
        path.write_text(serialize_instance(sat_verifier_instance(3, 255)))
        code, out, _ = run(
            capsys, "verify-rep", "-i", str(path), "--rep", "builtin:c16-csar?n=3&i=255"
        )
        assert code == 0 and out == "valid length=17\n"

    def test_verify_rep_negative(self, capsys, counter_file):
        # the full counter plan overshoots the target-16 goal
        code, out, _ = run(
            capsys, "verify-rep", "-i", counter_file, "--rep", "builtin:counter-crar?n=5"
        )
        assert code == 1 and out.startswith("invalid")

    def test_verify_rep_budget(self, capsys, counter_file):
        code, out, _ = run(
            capsys,
            "verify-rep", "-i", counter_file,
            "--rep", "builtin:counter-crar?n=5", "--budget", "3",
        )
        assert code == 3

    def test_verify_rep_budget_below_a_grammars_length(self, capsys, tmp_path):
        # the length is known, so nothing is executed: as for random access
        path = tmp_path / "counter10.strips"
        path.write_text(serialize_instance(counter_instance(CounterSpec(10, 1023, "binary"))))
        argv = ["verify-rep", "-i", str(path), "--budget", "5", "--rep"]
        for rep in ("builtin:counter-macro?n=64", "builtin:counter-crar?n=64"):
            assert run(capsys, *argv, rep) == (3, "budget exceeded after 0 steps\n", "")

    def test_compress_then_reuse_grammar_file(self, capsys, tmp_path, counter_file, plan_file):
        code, out, _ = run(capsys, "compress", "-p", plan_file)
        assert code == 0 and out.startswith("grammar v1\n")
        gpath = tmp_path / "plan.grammar"
        gpath.write_text(out)
        code, out, _ = run(capsys, "access", "--rep", str(gpath), "--index", "4")
        assert code == 0 and out == "a3\n"
        code, out, _ = run(capsys, "verify-rep", "-i", counter_file, "--rep", str(gpath))
        assert code == 0

    def test_reversible_uri_streams(self, capsys, tmp_path):
        path = tmp_path / "gray.strips"
        path.write_text(serialize_instance(counter_instance(CounterSpec(2, 3, "gray"))))
        code, out, _ = run(capsys, "stream", "--rep", f"builtin:reversible?file={path}&k=1")
        assert code == 0 and len(out.splitlines()) >= 3

    def test_stream_guard_without_force(self, capsys, monkeypatch):
        import planrep.cli as cli_mod

        monkeypatch.setattr(cli_mod, "STREAM_GUARD", 4)
        # known length: refused before emitting anything
        code, out, err = run(capsys, "stream", "--rep", "builtin:counter-crar?n=5")
        assert code == 2 and out == "" and "force" in err
        # unknown length: guard trips mid-stream
        code, out, err = run(capsys, "stream", "--rep", "builtin:c26-csar?n=1")
        assert code == 2 and len(out.splitlines()) == 4 and "force" in err
        code, out, _ = run(capsys, "stream", "--rep", "builtin:counter-crar?n=5", "--force")
        assert code == 0 and len(out.splitlines()) == 31

    def test_stream_guard_on_grammar_file(self, capsys, monkeypatch, tmp_path):
        import planrep.cli as cli_mod

        monkeypatch.setattr(cli_mod, "STREAM_GUARD", 4)
        path = tmp_path / "counter3.grammar"
        path.write_text(serialize_grammar(counter_macro(3)))
        code, out, err = run(capsys, "stream", "--rep", str(path))
        assert code == 2 and out == "" and "force" in err
        code, out, _ = run(capsys, "stream", "--rep", str(path), "--limit", "4")
        assert code == 0 and out.splitlines() == PAPER_RULER_16[:4]

    @pytest.mark.parametrize("flags", [[], ["--force"], ["--limit", "7"]])
    def test_stream_prints_the_actions_before_a_source_error(self, capsys, monkeypatch, flags):
        import planrep.cli as cli_mod
        from planrep import representations

        def source():
            yield from PAPER_RULER_16[:5]
            raise ValueError("source failed")

        # chunks of 3: the error falls inside the second chunk
        monkeypatch.setattr(representations, "_CHUNK", 3)
        monkeypatch.setattr(cli_mod, "_load_rep", lambda ref: SequentialRep(source(), RepMeta(8)))
        code, out, err = run(capsys, "stream", "--rep", "failing", *flags)
        assert (code, out, err) == (2, "".join(a + "\n" for a in PAPER_RULER_16[:5]), "error: source failed\n")

    def test_stream_guard_pulls_one_past_the_guard_across_chunks(self, capsys, monkeypatch):
        import planrep.cli as cli_mod
        from planrep import representations

        monkeypatch.setattr(cli_mod, "STREAM_GUARD", 4)
        monkeypatch.setattr(representations, "_CHUNK", 3)
        code, out, err = run(capsys, "stream", "--rep", "builtin:c26-csar?n=1")
        assert code == 2 and out.splitlines() == c26_csar(1).take(4) and "force" in err
        rep = SequentialRep(iter(PAPER_RULER_16), RepMeta(8))
        monkeypatch.setattr(cli_mod, "_load_rep", lambda ref: rep)
        code, out, err = run(capsys, "stream", "--rep", "ruler")
        assert code == 2 and out.splitlines() == PAPER_RULER_16[:4] and "force" in err
        assert rep.cursor == 5


class TestBuiltinRefusals:
    @pytest.mark.parametrize(
        "rep, message",
        [
            ("builtin:counter-crar", "builtin counter-crar needs parameter n=<value>"),
            ("builtin:c16-csar?n=3", "builtin c16-csar needs parameter i=<value>"),
            ("builtin:reversible?k=2", "builtin reversible needs parameter file=<value>"),
            ("builtin:c26-csar?n=1&k=2", "builtin c26-csar does not read parameter 'k'"),
            ("builtin:counter-macro?n=3&z=1&a=2", "builtin counter-macro does not read parameter 'a'"),
            ("builtin:counter-crar?n=1&n=2", "builtin counter-crar: parameter 'n' given twice"),
            ("builtin:nope?n=1", "unknown builtin representation: nope"),
            ("builtin:nope?n=1&n=1", "builtin nope: parameter 'n' given twice"),
        ],
    )
    def test_refusal_texts(self, capsys, rep, message):
        assert run(capsys, "stream", "--rep", rep) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["stream", "--rep", "builtin:c16-csar?n=0&i=0"],
            ["access", "--rep", "builtin:c16-crar?n=0&i=0", "--index", "1"],
            ["gen", "satverify", "-n", "0"],
            ["stream", "--rep", "builtin:c16-csar?n=0&i=1"],
            ["access", "--rep", "builtin:c16-crar?n=0&i=1", "--index", "1"],
            ["gen", "satverify", "-n", "0", "-i", "1"],
        ],
    )
    def test_verifier_without_variables(self, capsys, argv):
        assert run(capsys, *argv) == (2, "", "error: need at least one variable\n")

    @pytest.mark.parametrize("n, i", [(1, 1), (2, -1), (3, 256)])
    def test_one_refusal_for_a_subset_index_out_of_range(self, capsys, n, i):
        message = f"subset index {i} out of range for n={n}"
        for build in (instance_from_index, sat_verifier_instance):
            with pytest.raises(IndexOutOfRangeError, match=f"^{re.escape(message)}$"):
                build(n, i)
        for argv in (
            ["sat3", "check", "-n", str(n), "-i", str(i)],
            ["gen", "satverify", "-n", str(n), "-i", str(i)],
            ["stream", "--rep", f"builtin:c16-csar?n={n}&i={i}"],
            ["access", "--rep", f"builtin:c16-crar?n={n}&i={i}", "--index", "1"],
        ):
            assert run(capsys, *argv) == (2, "", f"error: {message}\n")


class TestGrammarUriParity:
    """``builtin:counter-macro?n=k`` names a grammar and is read exactly as
    that grammar's file is read."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_builtin_reads_like_its_grammar_file(self, capsys, monkeypatch, tmp_path, n):
        import planrep.cli as cli_mod

        grammar = tmp_path / f"c{n}.grammar"
        grammar.write_text(serialize_grammar(counter_macro(n)))
        length = (1 << n) - 1
        ruler = [f"a{(i & -i).bit_length()}" for i in range(1, length + 1)]
        valid = tmp_path / "valid.strips"
        valid.write_text(serialize_instance(counter_instance(CounterSpec(n, length, "binary"))))
        wrong = tmp_path / "wrong.strips"
        wrong.write_text(serialize_instance(counter_instance(CounterSpec(n, 0, "binary"))))

        def both(*argv):
            builtin = run(capsys, *argv, "--rep", f"builtin:counter-macro?n={n}")
            assert builtin == run(capsys, *argv, "--rep", str(grammar)), argv
            return builtin

        for index in sorted({1, (length + 1) // 2, length}):
            assert both("access", "--index", str(index))[0] == 0
        assert both("access", "--index", str(length + 1))[0] == 2
        assert both("stream")[1].splitlines() == ruler
        assert both("stream", "--limit", "0")[1] == ""
        assert both("stream", "--limit", "3")[1].splitlines() == ruler[:3]
        assert both("verify-rep", "-i", str(valid)) == (0, f"valid length={length}\n", "")
        assert both("verify-rep", "-i", str(wrong))[0] == 1
        assert both("verify-rep", "-i", str(valid), "--budget", "2")[0] == (3 if n > 1 else 0)
        monkeypatch.setattr(cli_mod, "STREAM_GUARD", 4)
        assert both("stream")[0] == (2 if length > 4 else 0)


class TestAnalyze:
    def test_causal_graph_output(self, capsys, tmp_path):
        path = tmp_path / "g.strips"
        path.write_text(serialize_instance(counter_instance(CounterSpec(3, 0, "gray"))))
        code, out, _ = run(capsys, "analyze", "-i", str(path), "--causal-graph")
        assert code == 0
        assert "x1 -> x2" in out and "acyclic=true" in out

    def test_refined_flag(self, capsys, tmp_path):
        path = tmp_path / "b.strips"
        path.write_text(serialize_instance(counter_instance(CounterSpec(3, 0, "binary"))))
        plain = run(capsys, "analyze", "-i", str(path), "--causal-graph")
        refined = run(capsys, "analyze", "-i", str(path), "--causal-graph", "--refined")
        assert "acyclic=false" in plain[1] and "acyclic=true" in refined[1]


class TestSat3Cli:
    def test_list_table(self, capsys):
        code, out, _ = run(capsys, "sat3", "list", "-n", "3")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 8
        assert lines[0] == "1 x1 x2 x3" and lines[-1] == "8 !x1 !x2 !x3"

    def test_check_sat(self, capsys):
        code, out, _ = run(capsys, "sat3", "check", "-n", "3", "-i", "1")
        assert code == 0 and out == "satisfiable witness=001\n"

    def test_check_without_variables_prints_no_witness_bit(self, capsys):
        assert run(capsys, "sat3", "check", "-n", "0", "-i", "0") == (0, "satisfiable witness=\n", "")

    def test_check_unsat_negative_verdict(self, capsys):
        code, out, _ = run(capsys, "sat3", "check", "-n", "3", "-i", "255")
        assert code == 1 and out == "unsatisfiable\n"

    def test_out_of_range_subset_is_usage_error(self, capsys):
        assert run(capsys, "sat3", "check", "-n", "3", "-i", "256")[0] == 2

    def test_width_over_brute_force_cap_exits_3(self, capsys):
        code, _, err = run(capsys, "sat3", "check", "-n", "30", "-i", "0")
        assert code == 3 and "cap" in err

    def test_negative_width_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sat3", "check", "-n", "-1", "-i", "0")
        assert code == 2 and out == "" and "variable count must be nonnegative" in err

    def test_module_entry_point(self):
        # ``python -m planrep.cli`` runs main through the module's
        # ``__main__`` guard and exits with its code
        src = str(Path(planrep.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "planrep.cli", "sat3", "check", "-n", "3", "-i", "255"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (1, "unsatisfiable\n", "")


class TestExperimentCli:
    def test_report_row_count_matches_subset_count(self, capsys):
        code, out, _ = run(capsys, "experiment", "lemma17", "-n", "2")
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert code == 0 and len(lines) - 1 == 1  # header + 2^m(2) rows

    def test_plan_count_experiment(self, capsys):
        code, out, _ = run(capsys, "experiment", "lemma11", "-n", "3")
        assert code == 0 and out.splitlines()[-1] == "# summary: 3/3 pass"

    def test_plan_counts_past_the_decimal_digit_limit(self, capsys):
        # 2^16383 has 4932 decimal digits, past what str() prints
        code, out, err = run(capsys, "experiment", "lemma11", "-n", "15")
        assert code == 0 and err == ""
        assert out.splitlines()[-3:] == ["14,2^16383,2^16383,1", "15,2^32767,2^32767,1", "# summary: 15/15 pass"]

    def test_plan_counts_whatever_the_interpreters_digit_limit(self):
        # row 12 holds 2^4095, 1233 decimal digits: past a limit of 640
        src = str(Path(planrep.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        argv = [sys.executable, "-m", "planrep.cli", "experiment", "lemma11", "-n", "12"]
        default = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        limited = subprocess.run(
            argv, capture_output=True, text=True, env={**env, "PYTHONINTMAXSTRDIGITS": "640"}, timeout=60
        )
        assert (limited.returncode, limited.stdout, limited.stderr) == (0, default.stdout, "")
        assert default.returncode == 0 and str(2**4095) in default.stdout

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_plan_count_experiment_without_counter_bits_exits_2(self, capsys, n):
        code, out, err = run(capsys, "experiment", "lemma11", "-n", n)
        assert code == 2 and out == "" and "need at least one counter bit" in err

    def test_unknown_name_usage_error(self, capsys):
        assert run(capsys, "experiment", "lemma99", "-n", "3")[0] == 2

    @pytest.mark.parametrize("name", ["lemma17", "lemma27"])
    def test_exhaustive_experiment_past_the_cap_exits_3(self, capsys, name):
        code, out, err = run(capsys, "experiment", name, "-n", "4")
        assert code == 3 and out == "" and "cap" in err


class TestArgumentRules:
    """The options and names several commands share: argparse refuses a
    missing one, and an unknown family or experiment, alike everywhere."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["validate", "-p", "x.plan"], "-i/--instance"),
            (["solve"], "-i/--instance"),
            (["verify-rep", "--rep", "x.grammar"], "-i/--instance"),
            (["analyze", "--causal-graph"], "-i/--instance"),
            (["access", "--index", "1"], "--rep"),
            (["stream"], "--rep"),
            (["verify-rep", "-i", "x.strips"], "--rep"),
            (["sat3", "list"], "-n"),
            (["sat3", "check", "-i", "0"], "-n"),
            (["experiment", "lemma11"], "-n"),
        ],
    )
    def test_a_missing_shared_option_is_refused(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.endswith(f"error: the following arguments are required: {flag}\n")

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["gen", "bogus", "-n", "1"], ["counter", "gray", "indexed", "satverify", "allinst", "unary"]),
            (["experiment", "lemma99", "-n", "1"], ["lemma11", "lemma17", "lemma27"]),
        ],
    )
    def test_an_unknown_name_lists_the_choices_in_order(self, capsys, argv, names):
        code, out, err = run(capsys, *argv)
        # some Python versions print the choices unquoted
        choices = ", ".join(f"'?{name}'?" for name in names)
        assert code == 2 and out == ""
        assert re.search(rf"invalid choice: '{argv[1]}' \(choose from {choices}\)\n", err)


def test_byte_identical_reruns(capsys, counter_file):
    first = run(capsys, "solve", "-i", counter_file)
    second = run(capsys, "solve", "-i", counter_file)
    assert first == second
    a = run(capsys, "experiment", "lemma11", "-n", "2")
    b = run(capsys, "experiment", "lemma11", "-n", "2")
    assert a == b
