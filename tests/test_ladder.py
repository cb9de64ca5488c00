"""The size ladder: every CLI command, through main(argv), on every shape of
tests/shapes.py at each rung.  A cell asks for an answer or a documented
error: exit 0-3, and a JSON error on stderr where no result is printed.  It
checks the closed form where one exists and, on at most BRUTE components,
the answer by brute force, so a wrong closed form cannot carry over to the
larger rungs.  A cell that fails today is a strict xfail naming the raising
function and the ROADMAP item that mends it.  A random DNF shape is left out
(item 15: no answer in any bounded time), and so are the cells _left_out
names.
"""
import functools
import json
from itertools import product

import pytest

from mpunfold import (
    DEFAULT_CAP, UnfoldSpec, async_successors, eval_rule, general_successors, mp_successors,
    parse_bnet,
)
from mpunfold.cli import main
from mpunfold.unfold import MODES, _Unfolding
from shapes import FAILS, SHAPES, TOP

RUNGS = (10, 300, TOP)
BRUTE = 10
CAP = ("--cap", "200")
# first rule: a product or a sum of every literal
WIDE = ("and-flat", "deep-negation", "pairs", "paths", "or-flat", "or-nested")


def _reach(semantics, s):
    target = "10"[int(s[0])] + "*" * (len(s) - 1)  # x0 flipped, every other one free
    return ["reach", "--semantics", semantics, "--from", s, "--to", target, *CAP]


COMMANDS = {  # the argv after the model, given the start state s
    "show": lambda s: ["show"],
    "fixpoints": lambda s: ["fixpoints"],
    "succ-async": lambda s: ["succ", "--semantics", "async", "--state", s],
    "succ-general": lambda s: ["succ", "--semantics", "general", "--state", s],
    "succ-mp": lambda s: ["succ", "--semantics", "mp", "--state", s],
    "unfold-exact": lambda s: ["unfold", "--mode", "exact"],
    "unfold-syntactic": lambda s: ["unfold", "--mode", "syntactic"],
    "reach-async": lambda s: _reach("async", s),
    "reach-mp": lambda s: _reach("mp", s),
    "stg": lambda s: ["stg", "--semantics", "async", "--from", s, *CAP],
    "attractors": lambda s: ["attractors", "--semantics", "async", "--roots", s, *CAP],
    "reggraph": lambda s: ["reggraph"],
    "verify": lambda s: ["verify"],
}


def _left_out(shape, n, command):
    top = n == TOP
    return (
        # reggraph is quadratic in a rule's width, 4-8 s a cell (item 21)
        (top and shape in WIDE and command == "reggraph")
        # 0.5-2 s a cell, and what another top cell shows: unfold of rules
        # over 1-4 components (self-negating's), paths' exact unfolding
        # failing as and-flat's does and its syntactic one failing in _apply
        # (the sum of its two cubes), cnf's fixpoints failing as the copy
        # ring's do
        or (top and command.startswith("unfold")
            and shape in ("copy-ring", "negative-ring", "cnf", "paths"))
        or (top and shape == "cnf" and command == "fixpoints")
    )


# closed forms: by shape, the start state of the state-taking commands, the
# components unstable there, and every fixed point, each a function of n
# (None where there is none)
zeros, both, none = (lambda n: "0" * n), (lambda n: ["0" * n, "1" * n]), (lambda n: [])
odd, even = (lambda n: [0] * (n % 2)), (lambda n: ["0", "1"][: 2 - 2 * (n % 2)])
CLOSED = {
    "or-flat": (zeros, none, both),  # every component equals x0
    "or-nested": (zeros, none, both),
    "and-flat": (zeros, none, both),
    "deep-negation": (lambda n: "1" * n, lambda n: [0], none),
    "groups": (lambda n: "0", none, lambda n: ["0", "1"]),
    "negated-groups": (lambda n: "0", odd, even),
    "negations": (lambda n: "0", odd, even),
    "pairs": (zeros, none, lambda n: ["0" * n]),  # x0 & !x1 is 0 once all are equal
    "paths": (lambda n: "1" * (n - 1) + "0", lambda n: [0, 1], none),
    "long-sum": (lambda n: "0000", None, None),
    "copy-ring": (zeros, none, both),
    "negative-ring": (zeros, lambda n: [0], none),
    "self-negating": (zeros, lambda n: list(range(n)), none),
    "cnf": (zeros, none, both),
}


def _flip(s, ks):
    return "".join("10"[int(c)] if k in ks else c for k, c in enumerate(s))


def _successors(semantics, s, unstable):
    if semantics == "async":
        return [_flip(s, {k}) for k in unstable]
    if semantics == "general":  # by increasing subset mask
        return [
            _flip(s, {k for t, k in enumerate(unstable) if m >> t & 1})
            for m in range(1, 1 << len(unstable))
        ]
    return [s[:k] + "id"[int(s[k])] + s[k + 1:] for k in unstable]  # mp: i up, d down


_LIBRARY = {"async": async_successors, "general": general_successors, "mp": mp_successors}


def _shown(shape, n):
    """show's rules: the bodies as written, less redundant parentheses."""
    rules = [line.split(", ", 1)[1] for line in SHAPES[shape](n).splitlines()]
    rules[0] = {
        "groups": "x",
        "negated-groups": "!" * n + "x",
        "or-nested": " | ".join(f"x{k}" for k in range(n)),
        "pairs": " & ".join(f"x{k} & !x{k + 1}" for k in range(0, n - 1, 2)),
    }.get(shape, rules[0])
    return rules


def _cells():
    for n, shape, command in product(RUNGS, SHAPES, COMMANDS):
        if not _left_out(shape, n, command):
            reason = FAILS.get((shape, n, command))
            marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
            yield pytest.param(shape, n, command, marks=marks, id=f"{shape}-{n}-{command}")


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    root = tmp_path_factory.mktemp("ladder")

    @functools.cache
    def path(shape, n):
        (root / f"{shape}-{n}.bnet").write_text(SHAPES[shape](n))
        return str(root / f"{shape}-{n}.bnet")

    return path


@pytest.mark.parametrize("shape,n,command", _cells())
def test_cell(capsys, model, shape, n, command):
    start, unstable, fixed = (f and f(n) for f in CLOSED[shape])
    argv = COMMANDS[command](start)
    code = main([argv[0], model(shape, n), *argv[1:]])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), err
    if code == 2 or (code == 3 and not out):
        assert json.loads(err)["error"]["type"] == ("invalid-input", "cap-exceeded")[code - 2]
    else:
        assert err == ""
    text = SHAPES[shape](n)
    net = parse_bnet(text) if text.count("\n") <= BRUTE else None
    states = net and ["".join(bits) for bits in product("01", repeat=net.n)]
    kind, _, semantics = command.partition("-")
    if kind == "show":
        shown = json.loads(out)["components"]
        assert [c["rule"] for c in shown] == _shown(shape, n)
        assert [c["name"] for c in shown] == [line.split(",")[0] for line in text.splitlines()]
        if net:  # read back, the same rules
            back = parse_bnet("".join(f"{c['name']}, {c['rule']}\n" for c in shown))
            assert all(
                eval_rule(back, j, s) == eval_rule(net, j, s) for s in states for j in range(net.n)
            )
    elif kind == "fixpoints":
        assert fixed is None or json.loads(out) == fixed
        if net:
            assert json.loads(out) == [
                s for s in states if all(eval_rule(net, j, s) == int(s[j]) for j in range(net.n))
            ]
    elif kind == "succ":
        # 2^k - 1 general successors past the cap are refused before any is listed
        refused = semantics == "general" and 2 ** len(unstable or ()) - 1 > DEFAULT_CAP
        assert code == (3 if refused else 0)
        if refused:
            assert f"{len(unstable)} unstable components" in json.loads(err)["error"]["message"]
        else:
            assert unstable is None or json.loads(out) == _successors(semantics, start, unstable)
        if net:
            assert json.loads(out) == _LIBRARY[semantics](net, start)
    elif kind == "reach" and unstable == []:  # the start is fixed
        answer = {"verdict": "unreachable", "states_explored": 1, "witness": None}
        assert (code, json.loads(out)) == (1, answer)
    elif command == "reach-async" and unstable and unstable[0] == 0:
        witness = [start, _flip(start, {0})]
        answer = {"verdict": "reachable", "states_explored": 2, "witness": witness}
        assert (code, json.loads(out)) == (0, answer)
    elif kind == "stg" and unstable == []:
        assert (code, json.loads(out)["nodes"], json.loads(out)["edges"]) == (0, [start], [])
    elif kind == "attractors" and unstable == []:
        assert json.loads(out) == [{"states": [start], "kind": "stable-state"}]
    elif kind == "verify":
        assert code == (0 if text.count("\n") <= 4 else 2)  # the theorem check stops at n = 4


# the node-count gates: the diagram nodes that reading a shape and building
# every unfolded rule make grow linearly with the size, 3x from 100 to 300
# components (quadratic is 9x), within GROWTH's slack; node counts are
# deterministic, so the gates need no timing bound
GATE = (100, 300)
GROWTH = 3.3


@pytest.mark.parametrize("shape", SHAPES)
def test_reading_makes_linearly_many_nodes(shape):
    made = [len(parse_bnet(SHAPES[shape](n)).manager._triples) for n in GATE]
    assert made[1] <= GROWTH * made[0], made
    if shape == "pairs":  # its bracketed products join the enclosing chain: one cube
        flat = [len(parse_bnet(SHAPES["and-flat"](n)).manager._triples) for n in GATE]
        assert made == flat


@pytest.mark.parametrize("shape,mode", product(SHAPES, MODES))
def test_unfolded_rules_make_linearly_many_nodes(shape, mode):
    made = []
    for n in GATE:
        ctx = _Unfolding(parse_bnet(SHAPES[shape](n)), UnfoldSpec(mode=mode))
        before = len(ctx.manager._triples)
        ctx.rule_nodes()
        made.append(len(ctx.manager._triples) - before)
    assert made[1] <= GROWTH * made[0], made
