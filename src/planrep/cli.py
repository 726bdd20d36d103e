"""Command-line front door.

Exit codes: 0 success or positive verdict, 1 well-formed negative verdict
(invalid plan, unsatisfiable, failed experiment row), 2 usage or input
error (an input the OS cannot read included), 3 cap or budget exceeded.
A reader that closes ``stream``'s output early ends the stream with 0.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import grammar as grammar_mod
from . import constructions, ffp, model, oracles, representations, sat3
from .errors import CapExceededError, PlanrepError
from .experiments import EXPERIMENTS, run_experiment

STREAM_GUARD = 1 << 20

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reserves 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except BrokenPipeError:  # not an input error; only stream ends cleanly on it
        raise
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (PlanrepError, OSError, ValueError) as exc:  # FormatError, unreadable inputs
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


# Options that several commands read, each declared once
_SHARED = {
    "instance": lambda command: command.add_argument("-i", "--instance", required=True),
    "rep": lambda command: command.add_argument("--rep", required=True),
    "n": lambda command: command.add_argument("-n", type=int, required=True),
}


def _command(sub, name: str, help: str, handler, *shared: str) -> argparse.ArgumentParser:
    """A subcommand that runs handler, the named shared options added
    first: usage, help and the missing-argument refusal list in that order."""
    command = sub.add_parser(name, help=help)
    command.set_defaults(handler=handler)
    for key in shared:
        _SHARED[key](command)
    return command


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planrep",
        description="Generate, validate, compress, and probe plans and "
        "their compact representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = _command(sub, "gen", "generate an instance from a built-in family", _cmd_gen)
    gen.add_argument("family", choices=_GEN_FAMILIES)
    gen.add_argument("-n", type=int, help="size parameter")
    gen.add_argument("-i", type=int, help="clause-subset index")
    gen.add_argument("--target", type=int, help="counter target (default: all ones)")
    gen.add_argument("-f", "--file", help="input instance (family 'unary')")

    val = _command(sub, "validate", "execute a plan file against an instance",
                   _cmd_validate, "instance")
    val.add_argument("-p", "--plan", required=True)

    solve = _command(sub, "solve", "breadth-first optimal search", _cmd_solve, "instance")
    solve.add_argument("--count-optimal", action="store_true")
    solve.add_argument("--state-cap", type=int, default=ffp.DEFAULT_STATE_CAP,
                       help="most states a search may expand (default: %(default)s)")

    access = _command(sub, "access", "random access into a representation", _cmd_access, "rep")
    access.add_argument("--index", type=int, required=True)

    stream = _command(sub, "stream", "stream a representation's actions", _cmd_stream, "rep")
    stream.add_argument("--limit", type=int)
    stream.add_argument("--force", action="store_true")

    compress = _command(sub, "compress", "induce a grammar from a plan file", _cmd_compress)
    compress.add_argument("-p", "--plan", required=True)

    verify = _command(sub, "verify-rep", "check a representation against an instance",
                      _cmd_verify_rep, "instance", "rep")
    verify.add_argument("--budget", type=int)

    analyze = _command(sub, "analyze", "atom-dependency graph analysis", _cmd_analyze, "instance")
    analyze.add_argument("--causal-graph", action="store_true", required=True)
    analyze.add_argument("--refined", action="store_true")

    sat = sub.add_parser("sat3", help="clause enumeration and brute-force checks")
    sat_sub = sat.add_subparsers(dest="sat_command", required=True)
    _command(sat_sub, "list", "print the clause table", _cmd_sat3_list, "n")
    sat_check = _command(sat_sub, "check", "verdict and witness for one subset",
                         _cmd_sat3_check, "n")
    sat_check.add_argument("-i", type=int, required=True)

    experiment = _command(sub, "experiment", "run a verification experiment", _cmd_experiment)
    experiment.add_argument("name", choices=EXPERIMENTS)
    _SHARED["n"](experiment)  # after the name, which the missing-argument refusal lists first

    return parser


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load_instance(path: str) -> model.StripsInstance:
    return model.parse_instance(_read(path))


def _load_rep(ref: str):
    """A builtin URI's representation, or a grammar file's grammar: a
    MacroGrammar, as ``builtin:counter-macro`` is."""
    if ref.startswith("builtin:"):
        return representations.resolve_builtin(ref)
    return grammar_mod.parse_grammar(_read(ref))


def _counter(args, encoding: str) -> model.StripsInstance:
    target = args.target if args.target is not None else (1 << args.n) - 1
    return constructions.counter_instance(constructions.CounterSpec(args.n, target, encoding))


# gen's options by parsed name, as a refusal names them; a family that reads
# one in _GEN_NEEDS refuses to run without it
_GEN_FLAGS = {"n": "-n", "i": "-i", "target": "--target", "file": "-f/--file"}
_GEN_NEEDS = {"n": "-n", "file": "-f/--file with the input instance"}

# gen's families in the order argparse lists them: the options each reads,
# and its builder of the parsed arguments
_GEN_FAMILIES = {
    "counter": (("n", "target"), lambda args: _counter(args, "binary")),
    "gray": (("n", "target"), lambda args: _counter(args, "gray")),
    "indexed": (("n",), lambda args: constructions.indexed_plans_instance(args.n)),
    "satverify": (("n", "i"), lambda args: constructions.sat_verifier_instance(args.n, args.i or 0)),
    "allinst": (("n",), lambda args: constructions.all_instances_instance(args.n)),
    "unary": (("file",), lambda args: constructions.to_unary(_load_instance(args.file))),
}


def _cmd_gen(args) -> int:
    reads, build = _GEN_FAMILIES[args.family]
    for option, flag in _GEN_FLAGS.items():
        given = getattr(args, option) not in (None, "")  # an empty path is no file
        if given and option not in reads:
            raise ValueError(f"gen {args.family} does not read {flag}")
        if not given and option in reads and option in _GEN_NEEDS:
            raise ValueError(f"gen {args.family} needs {_GEN_NEEDS[option]}")
    sys.stdout.write(model.serialize_instance(build(args)))
    return EXIT_OK


def _cmd_validate(args) -> int:
    instance = _load_instance(args.instance)
    plan = model.parse_plan(_read(args.plan))
    trace = model.validate_plan(instance, plan)
    if trace.valid:
        print("valid")
        return EXIT_OK
    print(f"invalid step={trace.failure_step}")
    return EXIT_NEGATIVE


def _cmd_solve(args) -> int:
    if args.state_cap < 1:
        raise ValueError("--state-cap must be at least 1")
    instance = _load_instance(args.instance)
    result = oracles.bfs_solve(instance, state_cap=args.state_cap)
    if result.plan is None:
        print("# no plan")
        return EXIT_NEGATIVE
    print(f"# length: {result.optimal_length}")
    sys.stdout.write(model.serialize_plan(result.plan))
    if args.count_optimal:
        count = oracles.count_optimal_plans(instance, state_cap=args.state_cap)
        print(f"# optimal plans: {oracles.format_count(count)}")
    return EXIT_OK


def _cmd_access(args) -> int:
    print(representations.as_random_access(_load_rep(args.rep)).access(args.index))
    return EXIT_OK


def _cmd_stream(args) -> int:
    rep, length = representations.as_stream(_load_rep(args.rep))
    # without --limit or --force, a known length over the guard is refused
    # before anything is printed, an unknown one when emission guard+1 arrives
    guarded = args.limit is None and not args.force
    refusal = ValueError(f"stream exceeds {STREAM_GUARD} actions; pass --limit or --force")
    if guarded and length is not None and length > STREAM_GUARD:
        raise refusal
    try:
        for chunk in rep.chunks(STREAM_GUARD if guarded else args.limit):
            # sys.stdout is read here, not bound earlier: redirect_stdout replaces it
            sys.stdout.write("\n".join(chunk) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: stop pulling
        # the interpreter's final flush would fail again, so it goes to devnull
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_OK
    if guarded and rep.next() is not None:  # emission guard+1 is never printed
        raise refusal
    return EXIT_OK


def _cmd_compress(args) -> int:
    induced = grammar_mod.induce_grammar(model.parse_plan(_read(args.plan)))
    sys.stdout.write(grammar_mod.serialize_grammar(induced))
    return EXIT_OK


def _cmd_verify_rep(args) -> int:
    instance = _load_instance(args.instance)
    verdict = representations.verify_representation(instance, _load_rep(args.rep), budget=args.budget)
    if verdict.status == "valid":
        print(f"valid length={verdict.steps}")
        return EXIT_OK
    if verdict.status == "invalid":
        print(f"invalid step={verdict.failure_step}")
        return EXIT_NEGATIVE
    print(f"budget exceeded after {verdict.steps} steps")
    return EXIT_CAP


def _cmd_analyze(args) -> int:
    instance = _load_instance(args.instance)
    graph = (oracles.refined_causal_graph if args.refined else oracles.causal_graph)(instance)
    components, acyclic = oracles.scc_and_acyclicity(graph)
    kind = "refined causal graph" if graph.refined else "causal graph"
    print(f"# {kind}: atoms={len(graph.nodes)} edges={len(graph.edges)}")
    for u, v in sorted(graph.edges):
        print(f"{graph.nodes[u]} -> {graph.nodes[v]}")
    sizes = sorted((len(c) for c in components), reverse=True)
    print(f"# components: {len(components)} sizes={sizes} acyclic={str(acyclic).lower()}")
    return EXIT_OK


def _cmd_sat3_list(args) -> int:
    for j, clause in enumerate(sat3.enumerate_clauses(args.n), start=1):
        tokens = [("!" if negated else "") + f"x{var}" for var, negated in clause.literals]
        print(f"{j} " + " ".join(tokens))
    return EXIT_OK


def _cmd_sat3_check(args) -> int:
    sat, witness = sat3.is_satisfiable(sat3.instance_from_index(args.n, args.i))
    if sat:
        print(f"satisfiable witness={witness:0{args.n}b}")
        return EXIT_OK
    print("unsatisfiable")
    return EXIT_NEGATIVE


def _cmd_experiment(args) -> int:
    report = run_experiment(args.name, args.n)
    sys.stdout.write(report.to_csv())
    return EXIT_OK if report.all_passed else EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
