"""Command-line front end.

Subcommands wrap the library one to one: props and classify read a
relation file, solve/supports read an instance file, express builds a
gadget over a relation file, reduce and oracle consume source-problem
files. solve, supports, reduce and oracle read their file through one
helper (`_read_source`) that picks the parser by input type. Exit codes:
0 for YES or success, 1 for NO, 2 for usage, parse, or precondition
problems and unreadable files, 3 for exceeded budgets. Any other
exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .argumentation import (
    DEFAULT_MAX_KB,
    arg_exists,
    argcheck,
    argrel,
    classify_complexity,
    enumerate_minimal_supports,
    find_minimal_support,
)
from .errors import (
    BudgetExceededError,
    ConstructionError,
    ParseError,
    PreconditionError,
)
from .expressibility import GadgetTarget, express
from .formulas import (
    DEFAULT_MAX_MODELS,
    ArgInstance,
    parse_instance,
    serialize_instance,
)
from .logic import entails, is_consistent
from .reductions import (
    AbdInstance,
    CnfInput,
    REDUCTION_KINDS,
    SOURCE_PROBLEMS,
    _SOURCE_TYPES,
    parse_abduction,
    parse_dimacs,
    reduce,
    solve_source,
    source_type_of,
)
from .relations import (
    FLAG_NAMES,
    language_properties,
    parse_relations,
    serialize_relations,
)

__all__ = ["main", "run"]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def _read_source(path: str, source_type: type) -> CnfInput | AbdInstance | ArgInstance:
    """Parse a file as the given input type: DIMACS for a CnfInput, the
    abduction grammar for an AbdInstance, the instance grammar for an
    ArgInstance, with `use` paths resolved beside the file."""
    text = _read(path)
    if source_type is CnfInput:
        return parse_dimacs(text)
    parse = parse_abduction if source_type is AbdInstance else parse_instance
    return parse(text, base_dir=os.path.dirname(os.path.abspath(path)))


def _cmd_props(args: argparse.Namespace) -> int:
    flags = language_properties(parse_relations(_read(args.relfile))).as_dict()
    for name in FLAG_NAMES:
        print(f"{name}: {'true' if flags[name] else 'false'}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    report = classify_complexity(parse_relations(_read(args.relfile)))
    print(f"ARG: {report.arg}")
    print(f"ARGCHECK: {report.argcheck}")
    print(f"ARGREL: {report.argrel}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _read_source(args.instancefile, ArgInstance)
    delta = list(instance.delta)
    common = {"engine": args.engine, "max_models": args.max_models}
    if args.question == "sat":
        answer = is_consistent(delta, **common)
    elif args.question == "imp":
        answer = entails(delta, instance.alpha, **common)
    elif args.question == "arg":
        answer = arg_exists(delta, instance.alpha, max_kb=args.max_kb, **common)
    elif args.question == "check":
        answer = argcheck(delta, instance.alpha, **common)
    else:
        if instance.relevant is None:
            raise PreconditionError("solve rel needs a `relevant` line in the instance")
        answer = argrel(
            delta, instance.alpha, instance.relevant, max_kb=args.max_kb, **common
        )
    print("YES" if answer else "NO")
    return 0 if answer else 1


def _format_support(indices: Sequence[int]) -> str:
    return " ".join(str(i) for i in indices) if indices else "(empty)"


def _cmd_supports(args: argparse.Namespace) -> int:
    instance = _read_source(args.instancefile, ArgInstance)
    delta = list(instance.delta)
    common = {
        "engine": args.engine,
        "max_models": args.max_models,
        "max_kb": args.max_kb,
    }
    if args.all:
        supports = enumerate_minimal_supports(delta, instance.alpha, **common)
        if not supports:
            print("none")
            return 1
        for support in supports:
            print(_format_support(support.indices))
        return 0
    support = find_minimal_support(delta, instance.alpha, **common)
    if support is None:
        print("none")
        return 1
    print(_format_support(support.indices))
    return 0


def _cmd_express(args: argparse.Namespace) -> int:
    language = parse_relations(_read(args.relfile))
    formula = express(args.target, language, max_models=args.max_models)
    print(formula)
    print("verified: true")
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    source = _read_source(args.srcfile, source_type_of(args.kind))
    language, instance = reduce(args.kind, source)
    prefix = args.out or os.path.splitext(args.srcfile)[0] + "_" + args.kind
    rel_path = prefix + ".rel"
    arg_path = prefix + ".arg"
    with open(rel_path, "w", encoding="utf-8") as fh:
        fh.write(serialize_relations(language))
    with open(arg_path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(instance, use=os.path.basename(rel_path)))
    print(rel_path)
    print(arg_path)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    source = _read_source(args.srcfile, _SOURCE_TYPES[args.problem])
    answer = solve_source(args.problem, source)
    print("YES" if answer else "NO")
    return 0 if answer else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--max-models",
        type=int,
        default=DEFAULT_MAX_MODELS,
        metavar="N",
        help="assignment-space budget for enumeration (default 2**22)",
    )
    common.add_argument(
        "--max-kb",
        type=int,
        default=DEFAULT_MAX_KB,
        metavar="N",
        help="knowledge-base size budget (default 20) of canonical subset "
        "search. supports --all, and solve rel outside monotone languages, set "
        "that search up first, so they refuse larger bases outright. solve arg "
        "and supports without --all reach it only under --engine generic, or "
        "for an inconsistent base with more assignments than --max-models or "
        "than 2**20 / ceil(formulas / 64) that lies outside every tractable "
        "fragment or whose MCS search passes one node per formula",
    )
    common.add_argument(
        "--engine",
        choices=("auto", "generic"),
        default="auto",
        help="auto dispatches on language structure; generic forces enumeration",
    )

    parser = argparse.ArgumentParser(
        prog="argcl",
        description="Solve and classify logic-based argumentation problems "
        "over Boolean constraint languages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "props", parents=[common], help="print the property flags of a language"
    )
    p.add_argument("relfile")
    p.set_defaults(func=_cmd_props)

    p = sub.add_parser(
        "classify",
        parents=[common],
        help="print the predicted complexity class of each problem",
    )
    p.add_argument("relfile")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "solve", parents=[common], help="answer a decision problem on an instance"
    )
    p.add_argument("question", choices=("sat", "imp", "arg", "check", "rel"))
    p.add_argument("instancefile")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "supports", parents=[common], help="print minimal support indices"
    )
    p.add_argument("--all", action="store_true", help="enumerate every minimal support")
    p.add_argument("instancefile")
    p.set_defaults(func=_cmd_supports)

    p = sub.add_parser(
        "express",
        parents=[common],
        help="express a target relation over a language and verify it",
    )
    p.add_argument("target", choices=tuple(t.value for t in GadgetTarget))
    p.add_argument("relfile")
    p.set_defaults(func=_cmd_express)

    p = sub.add_parser(
        "reduce",
        parents=[common],
        help="materialize a reduction; writes <prefix>.rel and <prefix>.arg",
    )
    p.add_argument("kind", choices=REDUCTION_KINDS)
    p.add_argument("srcfile")
    p.add_argument("--out", metavar="PREFIX", help="output path prefix")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser(
        "oracle", parents=[common], help="answer a source problem by brute force"
    )
    p.add_argument("problem", choices=SOURCE_PROBLEMS)
    p.add_argument("srcfile")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        ParseError,
        PreconditionError,
        ConstructionError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """Console-script entry point."""
    return main(sys.argv[1:])
