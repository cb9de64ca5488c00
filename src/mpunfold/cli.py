"""Command line interface.

JSON on stdout for machine consumption (human tables behind --pretty),
structured JSON errors on stderr.  A result's JSON is its fields, in the
order its class declares them.  Exit codes: 0 success, 1 reachability
query answered "unreachable" (or verification found mismatches), 2 usage or
input error, 3 cap exceeded (for succ --semantics general, a state with
more successors than the cap), 4 internal error (an unexpected exception,
reported as an error of type "internal" naming the exception and the file
and function that raised it, "(at file.py in func)": no line number, so the
message stays put when the code around it moves).  The default exploration
cap is 10^6 states; the MPU_CAP environment variable overrides it, an
explicit --cap wins.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback

from .expr import BnetParseError, _format
from .network import infer_regulatory_graph, parse_bnet_file, print_bnet
from .oracle import MAX_EQUIV_N, RandomNetSpec, check_equivalence, random_network
from .reach import (
    Edge,
    attractors,
    export_dot,
    fixed_points,
    mp_boolean_projection,
    reachable_set,
    reaches,
)
from .semantics import (
    BOOLEAN_SEMANTICS, DEFAULT_CAP, SEMANTICS, CapExceeded, _successors,
    general_successors,
)
from .unfold import MODES, UnfoldSpec, unfold

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _emit_error(kind: str, message: str) -> None:
    print(
        json.dumps({"error": {"type": kind, "message": message}}, separators=(",", ":")),
        file=sys.stderr,
    )


def _cap(args) -> int:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("MPU_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"MPU_CAP must be an integer, got {env!r}") from None
    return DEFAULT_CAP


def _write_or_print(text: str, out: str | None, summary: dict | None = None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit(summary or {"output": out})


def _unfold_spec(args) -> UnfoldSpec:
    components = None
    if args.components is not None:  # "" selects none, as "," does
        components = tuple(
            name.strip() for name in args.components.split(",") if name.strip()
        )
    return UnfoldSpec(components=components, mode=args.mode)


def _cmd_show(net, args) -> int:
    rules = [_format(walk, net.names) for walk in net._walks]  # no tree
    if args.pretty:
        width = max(len(n) for n in net.names)
        for name, rule in zip(net.names, rules):
            print(f"{name:<{width}}  <-  {rule}")
    else:
        components = [{"name": name, "rule": rule} for name, rule in zip(net.names, rules)]
        _emit({"n": net.n, "components": components})
    return EXIT_OK


def _cmd_fixpoints(net, args) -> int:
    points = fixed_points(net)
    if args.pretty:
        for s in points:
            print(s)
    else:
        _emit(points)
    return EXIT_OK


def _cmd_succ(net, args) -> int:
    if args.semantics == "general":  # 2^k - 1 of them: the cap bounds the list
        _emit(general_successors(net, args.state, cap=_cap(args)))
    else:
        _emit(_successors(net, args.semantics, args.state))
    return EXIT_OK


def _cmd_unfold(net, args) -> int:
    spec = _unfold_spec(args)
    ext = unfold(net, spec)
    text = print_bnet(ext)
    _write_or_print(text, args.output, {"components": ext.n, "output": args.output})
    return EXIT_OK


_REACH_EXIT = {"reachable": EXIT_OK, "unreachable": EXIT_NEGATIVE, "cap-exceeded": EXIT_CAP}


def _cmd_reach(net, args) -> int:
    result = reaches(net, args.semantics, args.from_state, args.to, cap=_cap(args))
    _emit(vars(result))
    return _REACH_EXIT[result.verdict]


def _write_graph(graph, edge_fields, args) -> None:
    """A graph as DOT, or as JSON of its fields with each edge an object of
    edge_fields(edge), to -o or stdout."""
    if args.format == "dot":
        text = export_dot(graph)
    else:
        fields = {**vars(graph), "edges": [edge_fields(e) for e in graph.edges]}
        text = json.dumps(fields, separators=(",", ":")) + "\n"
    _write_or_print(text, args.output)


def _cmd_stg(net, args) -> int:
    if args.project_boolean:
        if args.semantics != "mp":
            raise ValueError("--project-boolean applies to --semantics mp only")
        stg = mp_boolean_projection(net, args.from_state, cap=_cap(args))
    else:
        stg = reachable_set(net, args.semantics, args.from_state, cap=_cap(args))
    _write_graph(stg, Edge._asdict, args)
    return EXIT_CAP if stg.cap_exceeded else EXIT_OK


def _cmd_attractors(net, args) -> int:
    roots = None
    if args.roots is not None:  # blanks around a root are dropped; "" stays invalid
        roots = [root.strip() for root in args.roots.split(",")]
    found = attractors(net, args.semantics, cap=_cap(args), roots=roots)
    _emit([vars(a) for a in found])
    return EXIT_OK


def _cmd_reggraph(net, args) -> int:
    _write_graph(infer_regulatory_graph(net), vars, args)
    return EXIT_OK


def _cmd_verify(net, args) -> int:
    if args.seeds < 0:
        raise ValueError(f"--seeds must be at least 0, got {args.seeds}")
    if not 1 <= args.n <= MAX_EQUIV_N:
        raise ValueError(f"--n must be between 1 and {MAX_EQUIV_N}, got {args.n}")
    reports = [check_equivalence(net, mode=args.mode, label="model")]
    for seed in range(args.seeds):
        spec = RandomNetSpec(n=args.n, seed=seed)
        reports.append(
            check_equivalence(random_network(spec), mode=args.mode, label=f"seed-{seed}")
        )
    _emit([r.as_dict() for r in reports])
    return EXIT_OK if all(r.ok for r in reports) else EXIT_NEGATIVE


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged.
    It names no handlers; main looks up _cmd_<command> when it runs."""
    parser = _Parser(prog="mpunfold", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", help="path to a .bnet file")
        return p

    p = add("show", "print the parsed network")
    p.add_argument("--pretty", action="store_true")

    p = add("fixpoints", "list all fixed points")
    p.add_argument("--pretty", action="store_true")

    p = add("succ", "successors of one state")
    p.add_argument("--state", required=True)
    p.add_argument("--semantics", required=True, choices=tuple(SEMANTICS))
    p.add_argument("--cap", type=int, help="most general successors to list")

    p = add("unfold", "emit the unfolded network as .bnet")
    p.add_argument("--components", help="comma-separated names (default: all)")
    p.add_argument("--mode", choices=MODES, default="exact")
    p.add_argument("-o", "--output")

    p = add("reach", "decide reachability of a target pattern")
    p.add_argument("--from", dest="from_state", required=True)
    p.add_argument("--to", required=True, help="target pattern, * wildcards allowed")
    p.add_argument("--semantics", required=True, choices=tuple(SEMANTICS))
    p.add_argument("--cap", type=int)

    p = add("stg", "explicit state transition graph from a state")
    p.add_argument("--from", dest="from_state", required=True)
    p.add_argument("--semantics", required=True, choices=tuple(SEMANTICS))
    p.add_argument("--project-boolean", action="store_true")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--cap", type=int)
    p.add_argument("-o", "--output")

    p = add("attractors", "terminal SCCs of the explicit graph")
    p.add_argument("--semantics", required=True, choices=BOOLEAN_SEMANTICS)
    p.add_argument("--roots", help="comma-separated start states (default: all states)")
    p.add_argument("--cap", type=int)

    p = add("reggraph", "signed regulatory graph")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("-o", "--output")

    p = add("verify", "check mp vs unfolded-async reachability")
    p.add_argument("--seeds", type=int, default=0, help="also check K random nets")
    p.add_argument("--n", type=int, default=3, help="size of the random nets")
    p.add_argument("--mode", choices=MODES, default="exact")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        _emit_error("usage", str(err))
        return EXIT_USAGE
    except SystemExit as err:  # --help
        return 0 if err.code in (0, None) else EXIT_USAGE
    try:
        net = parse_bnet_file(args.model)
        return globals()[f"_cmd_{args.command}"](net, args)
    except BnetParseError as err:
        _emit_error("parse-error", f"{args.model}: {err}")
        return EXIT_USAGE
    except CapExceeded as err:
        _emit_error("cap-exceeded", str(err))
        return EXIT_CAP
    except (ValueError, KeyError) as err:
        # str() of a KeyError is the repr of its message
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        _emit_error("invalid-input", str(message))
        return EXIT_USAGE
    except OSError as err:
        _emit_error("io-error", str(err))
        return EXIT_USAGE
    except Exception as err:  # a defect: must not read as a negative answer
        where = traceback.extract_tb(err.__traceback__, limit=-1)[0]
        _emit_error(
            "internal",
            f"{type(err).__name__}: {err} "
            f"(at {os.path.basename(where.filename)} in {where.name})",
        )
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
