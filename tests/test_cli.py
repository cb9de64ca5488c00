"""End-to-end CLI behavior through main(argv): outputs and exit codes."""
import json
import re
from itertools import product
from pathlib import Path

import pytest

from mpunfold import (
    RandomNetSpec,
    UnfoldSpec,
    async_successors,
    build_function,
    example_a,
    export_dot,
    general_successors,
    mp_successors,
    parse_bnet,
    print_bnet,
    random_network,
    reachable_set,
    sync_successor,
    unfold,
)
from mpunfold.cli import main

MODELS = Path(__file__).resolve().parent.parent / "models"
EXAMPLE_A = str(MODELS / "example_a.bnet")
SIGNAL = str(MODELS / "signal.bnet")

DIVERGENT = "x, !x\ny, y\nz, z\nw, (x | y) & (!x | z)\n"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# --- show / fixpoints / succ ---------------------------------------------------

def test_show_json(capsys):
    code, out, err = run(capsys, "show", EXAMPLE_A)
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "n": 3,
        "components": [
            {"name": "x1", "rule": "x1 & !x3"},
            {"name": "x2", "rule": "x1"},
            {"name": "x3", "rule": "!x1"},
        ],
    }


def test_show_pretty(capsys):
    code, out, err = run(capsys, "show", EXAMPLE_A, "--pretty")
    assert code == 0
    assert out.splitlines() == [
        "x1  <-  x1 & !x3",
        "x2  <-  x1",
        "x3  <-  !x1",
    ]


def test_show_answers_on_a_1500_term_rule(capsys, tmp_path):
    import random

    rng = random.Random(0)
    literals = ["t1", "!t1", "t2", "!t2", "t3", "!t3", "t4", "!t4"]
    body = " | ".join(" & ".join(rng.sample(literals, 2)) for _ in range(1500))
    path = tmp_path / "long.bnet"
    path.write_text(f"t1, {body}\nt2, t1\nt3, !t2\nt4, t3\n")
    code, out, err = run(capsys, "show", str(path))
    assert (code, err) == (0, "")
    shown = json.loads(out)["components"]
    again = parse_bnet("".join(f"{c['name']}, {c['rule']}\n" for c in shown))
    net = parse_bnet(path.read_text())
    for j in range(net.n):
        assert build_function(again, j).truth_table() == build_function(
            net, j
        ).truth_table()


def test_show_succ_and_reach_answer_on_a_deep_negation(capsys, tmp_path):
    # rule x0 negates a 1500-literal product: its diagram is 1500 levels deep
    n = 1500
    names = [f"x{k}" for k in range(n)]
    path = tmp_path / "deep.bnet"
    path.write_text(
        f"x0, !({' & '.join(names)})\n"
        + "".join(f"{names[k]}, {names[k - 1]}\n" for k in range(1, n))
    )
    code, out, err = run(capsys, "show", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["n"] == n
    ones = "1" * n
    code, out, err = run(capsys, "succ", str(path), "--state", ones, "--semantics", "async")
    assert (code, err) == (0, "")
    assert json.loads(out) == ["0" + "1" * (n - 1)]
    code, out, err = run(
        capsys, "reach", str(path), "--semantics", "async",
        "--from", ones, "--to", "0" + "*" * (n - 1),
    )
    assert (code, err) == (0, "")
    answer = json.loads(out)
    assert (answer["verdict"], answer["states_explored"]) == ("reachable", 2)


def test_show_and_succ_answer_on_750_parenthesised_pairs(capsys, tmp_path):
    # x0's rule is (x0 & !x1) & (x2 & !x3) & ...: one product of 1500
    # literals, read as one cube, with no apply of pair onto pair
    n = 1500
    pairs = [f"x{k} & !x{k + 1}" for k in range(0, n, 2)]
    path = tmp_path / "pairs.bnet"
    path.write_text(
        f"x0, {' & '.join(f'({pair})' for pair in pairs)}\n"
        + "".join(f"x{k}, x{k - 1}\n" for k in range(1, n))
    )
    code, out, err = run(capsys, "show", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["components"][0] == {"name": "x0", "rule": " & ".join(pairs)}
    code, out, err = run(capsys, "succ", str(path), "--state", "0" * n, "--semantics", "async")
    assert (code, out, err) == (0, "[]\n", "")


@pytest.mark.parametrize(
    "body,shown",
    [
        ("!" * 5000 + "x", "!" * 5000 + "x"),
        ("(" * 1000 + "x" + ")" * 1000, "x"),
        ("!(" * 1000 + "x" + ")" * 1000, "!" * 1000 + "x"),
    ],
    ids=["5000-negations", "1000-parentheses", "1000-negated-groups"],
)
def test_show_and_fixpoints_answer_on_deeply_nested_bodies(capsys, tmp_path, body, shown):
    path = tmp_path / "nested.bnet"
    path.write_text(f"x, {body}\n")
    code, out, err = run(capsys, "show", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["components"] == [{"name": "x", "rule": shown}]
    code, out, err = run(capsys, "fixpoints", str(path))
    assert (code, out, err) == (0, '["0","1"]\n', "")


def _long_rule_model(n, body):
    """x0's rule is body over x0..x{n-1}; x1 negates itself, so no state is
    fixed, and every other component keeps its value."""
    return f"x0, {body}\nx1, !x1\n" + "".join(f"x{k}, x{k}\n" for k in range(2, n))


@pytest.mark.parametrize(
    "n,body,state,successors",
    [
        # one product of 5000 literals: x0 falls where the last one is off
        (5000, " & ".join(f"x{k}" for k in range(5000)), "1" * 4999 + "0",
         ["0" + "1" * 4998 + "0", "10" + "1" * 4997 + "0"]),
        # two products 2000 variables deep that part at x1500: x1500 <->
        # x1999 and all others on.  disj would recurse 1500 levels to join them
        (2000, " & ".join(f"x{k}" for k in range(2000)) + " | "
         + " & ".join(f"x{k}" if k not in (1500, 1999) else f"!x{k}" for k in range(2000)),
         "1" * 1999 + "0", ["0" + "1" * 1998 + "0", "10" + "1" * 1997 + "0"]),
    ],
    ids=["5000-literal-product", "2000-deep-sum-of-paths"],
)
def test_fixpoints_and_succ_answer_on_long_path_shaped_rules(
    capsys, tmp_path, n, body, state, successors
):
    path = tmp_path / "long.bnet"
    path.write_text(_long_rule_model(n, body))
    code, out, err = run(capsys, "fixpoints", str(path))
    assert (code, out, err) == (0, "[]\n", "")
    code, out, err = run(capsys, "succ", str(path), "--state", state, "--semantics", "async")
    assert (code, err) == (0, "")
    assert json.loads(out) == successors


def test_fixpoints_compact_and_pretty(capsys):
    code, out, _ = run(capsys, "fixpoints", EXAMPLE_A)
    assert code == 0
    assert out == '["001","110"]\n'
    code, out, _ = run(capsys, "fixpoints", EXAMPLE_A, "--pretty")
    assert out == "001\n110\n"


@pytest.mark.parametrize(
    "semantics,expected",
    [
        ("sync", ["010"]),
        ("async", ["011", "110"]),
        ("general", ["011", "110", "010"]),
        ("mp", ["d11", "11d"]),
    ],
)
def test_succ_each_semantics(capsys, semantics, expected):
    code, out, _ = run(
        capsys, "succ", EXAMPLE_A, "--state", "111", "--semantics", semantics
    )
    assert code == 0
    assert json.loads(out) == expected


def test_succ_invalid_state_is_exit_2(capsys):
    code, out, err = run(
        capsys, "succ", EXAMPLE_A, "--state", "11", "--semantics", "sync"
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "invalid-input"


@pytest.mark.parametrize("n,seed", [(n, seed) for n in range(1, 4) for seed in range(2)])
def test_succ_prints_the_public_successors(capsys, tmp_path, n, seed):
    text = print_bnet(random_network(RandomNetSpec(n=n, seed=seed)))
    model = tmp_path / "net.bnet"
    model.write_text(text)
    net = parse_bnet(text)
    public = {
        "sync": (lambda s: [sync_successor(net, s)], "01"),
        "async": (lambda s: async_successors(net, s), "01"),
        "general": (lambda s: general_successors(net, s), "01"),
        "mp": (lambda s: mp_successors(net, s), "0id1"),
    }
    for semantics, (succ, alphabet) in public.items():
        for state in map("".join, product(alphabet, repeat=n)):
            code, out, err = run(
                capsys, "succ", str(model), "--state", state, "--semantics", semantics
            )
            assert (code, err) == (0, "")
            assert out == json.dumps(succ(state), separators=(",", ":")) + "\n"


ALL_SEMANTICS = ["sync", "async", "general", "mp"]


@pytest.mark.parametrize(
    "argv,names",
    [
        (["succ", EXAMPLE_A, "--state", "111"], ALL_SEMANTICS),
        (["reach", EXAMPLE_A, "--from", "111", "--to", "001"], ALL_SEMANTICS),
        (["stg", EXAMPLE_A, "--from", "111"], ALL_SEMANTICS),
        (["attractors", EXAMPLE_A], ALL_SEMANTICS[:3]),
    ],
    ids=["succ", "reach", "stg", "attractors"],
)
def test_unknown_semantics_is_a_usage_error(capsys, argv, names):
    code, out, err = run(capsys, *argv, "--semantics", "fast")
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "usage"
    assert "'fast'" in error["message"]
    listed = error["message"].split("choose from", 1)[1]
    assert re.findall(r"\w+", listed) == names


# --- unfold --------------------------------------------------------------------

def test_unfold_stdout_matches_library(capsys):
    code, out, _ = run(capsys, "unfold", EXAMPLE_A)
    assert code == 0
    assert out == print_bnet(unfold(example_a()))
    assert out.startswith("targets, factors\n")


def test_unfold_partial_and_output_file(capsys, tmp_path):
    dest = tmp_path / "partial.bnet"
    code, out, _ = run(
        capsys, "unfold", EXAMPLE_A, "--components", "x2", "-o", str(dest)
    )
    assert code == 0
    assert json.loads(out) == {"components": 5, "output": str(dest)}
    text = dest.read_text()
    expected = print_bnet(unfold(example_a(), UnfoldSpec(components=("x2",))))
    assert text == expected
    for name in ("x1,", "x2_a,", "x2_b,", "x2_c,", "x3,"):
        assert name in text


@pytest.mark.parametrize("selection", ["", ",", " , "])
def test_unfold_empty_selection_unfolds_nothing(capsys, selection):
    code, out, _ = run(capsys, "unfold", EXAMPLE_A, "--components", selection)
    assert code == 0
    assert out == print_bnet(unfold(example_a(), UnfoldSpec(components=())))
    assert out == "targets, factors\nx1, x1 & !x3\nx2, x1\nx3, !x1\n"


def test_unknown_component_message_is_not_quoted(capsys):
    code, out, err = run(capsys, "unfold", EXAMPLE_A, "--components", "zz")
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": {"type": "invalid-input", "message": "no component named 'zz'"}
    }


def test_unfold_mode_choice_is_validated(capsys):
    code, _, err = run(capsys, "unfold", EXAMPLE_A, "--mode", "quick")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "usage"


# --- reach -----------------------------------------------------------------------

def test_reach_reachable(capsys):
    code, out, _ = run(
        capsys,
        "reach", EXAMPLE_A,
        "--from", "111", "--to", "001", "--semantics", "async",
    )
    assert code == 0
    assert json.loads(out) == {
        "verdict": "reachable",
        "states_explored": 4,
        "witness": ["111", "011", "001"],
    }


def test_reach_unreachable_is_exit_1(capsys):
    code, out, _ = run(
        capsys,
        "reach", EXAMPLE_A,
        "--from", "110", "--to", "001", "--semantics", "async",
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "unreachable"


def test_reach_cap_is_exit_3(capsys):
    code, out, _ = run(
        capsys,
        "reach", EXAMPLE_A,
        "--from", "111", "--to", "001", "--semantics", "async", "--cap", "2",
    )
    assert code == 3
    assert json.loads(out)["verdict"] == "cap-exceeded"


def test_reach_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("MPU_CAP", "2")
    code, out, _ = run(
        capsys,
        "reach", EXAMPLE_A,
        "--from", "111", "--to", "001", "--semantics", "async",
    )
    assert code == 3
    # an explicit --cap wins over the environment
    code, out, _ = run(
        capsys,
        "reach", EXAMPLE_A,
        "--from", "111", "--to", "001", "--semantics", "async", "--cap", "100",
    )
    assert code == 0
    monkeypatch.setenv("MPU_CAP", "lots")
    code, _, err = run(
        capsys,
        "reach", EXAMPLE_A,
        "--from", "111", "--to", "001", "--semantics", "async",
    )
    assert code == 2
    assert json.loads(err)["error"]["type"] == "invalid-input"


def test_reach_signal_transient_activation(capsys):
    args = ("reach", SIGNAL, "--from", "1000", "--to", "***1")
    assert run(capsys, *args, "--semantics", "async")[0] == 1
    code, out, _ = run(capsys, *args, "--semantics", "mp")
    assert code == 0
    assert json.loads(out)["verdict"] == "reachable"


# --- stg -------------------------------------------------------------------------

def test_stg_json(capsys):
    code, out, _ = run(
        capsys, "stg", EXAMPLE_A, "--from", "111", "--semantics", "sync"
    )
    assert code == 0
    assert json.loads(out) == {
        "semantics": "sync",
        "roots": ["111"],
        "nodes": ["111", "010", "001"],
        "edges": [
            {"source": "111", "target": "010", "tag": None},
            {"source": "010", "target": "001", "tag": None},
            {"source": "001", "target": "001", "tag": None},
        ],
        "cap": 10**6,
        "cap_exceeded": False,
    }


def test_stg_dot_output(capsys):
    code, out, _ = run(
        capsys,
        "stg", EXAMPLE_A, "--from", "111", "--semantics", "sync", "--format", "dot",
    )
    assert code == 0
    assert out == export_dot(reachable_set(example_a(), "sync", "111"))


def test_stg_runs_are_byte_stable(capsys):
    args = ("stg", EXAMPLE_A, "--from", "111", "--semantics", "async")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_stg_projection(capsys):
    code, out, _ = run(
        capsys,
        "stg", SIGNAL,
        "--from", "1000", "--semantics", "mp", "--project-boolean",
    )
    assert code == 0
    data = json.loads(out)
    assert data["semantics"] == "mp-projection"
    assert any(e["tag"] == "dotted" for e in data["edges"])
    code, _, err = run(
        capsys,
        "stg", SIGNAL,
        "--from", "1000", "--semantics", "async", "--project-boolean",
    )
    assert code == 2
    assert "mp" in json.loads(err)["error"]["message"]


def test_stg_cap_exit(capsys):
    code, out, _ = run(
        capsys,
        "stg", EXAMPLE_A, "--from", "111", "--semantics", "async", "--cap", "2",
    )
    assert code == 3
    assert json.loads(out)["cap_exceeded"] is True


# --- attractors / reggraph --------------------------------------------------------

def test_attractors_json(capsys):
    code, out, _ = run(capsys, "attractors", EXAMPLE_A, "--semantics", "async")
    assert code == 0
    assert json.loads(out) == [
        {"states": ["001"], "kind": "stable-state"},
        {"states": ["110"], "kind": "stable-state"},
    ]
    code, out, _ = run(
        capsys, "attractors", EXAMPLE_A, "--semantics", "async", "--roots", "001"
    )
    assert json.loads(out) == [{"states": ["001"], "kind": "stable-state"}]


def test_attractors_roots_strip_blanks(capsys):
    argv = ("attractors", EXAMPLE_A, "--semantics", "async", "--roots")
    assert run(capsys, *argv, "001, 110") == run(capsys, *argv, "001,110")
    code, out, _ = run(capsys, *argv, " 001 ,\t110 ")
    assert code == 0
    assert json.loads(out) == [
        {"states": ["001"], "kind": "stable-state"},
        {"states": ["110"], "kind": "stable-state"},
    ]


@pytest.mark.parametrize("roots", ["", ",", " , "])
def test_attractors_empty_roots_are_invalid(capsys, roots):
    code, out, err = run(
        capsys, "attractors", EXAMPLE_A, "--semantics", "async", "--roots", roots
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "invalid-input"


def test_attractors_mp_is_rejected(capsys):
    code, _, err = run(capsys, "attractors", EXAMPLE_A, "--semantics", "mp")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "usage"


def test_attractors_cap_is_exit_3(capsys):
    code, _, err = run(
        capsys, "attractors", EXAMPLE_A, "--semantics", "async", "--cap", "4"
    )
    assert code == 3
    assert json.loads(err)["error"]["type"] == "cap-exceeded"


def test_reggraph_json_and_dot(capsys):
    code, out, _ = run(capsys, "reggraph", EXAMPLE_A)
    assert code == 0
    assert json.loads(out) == {
        "nodes": ["x1", "x2", "x3"],
        "edges": [
            {"source": "x1", "target": "x1", "sign": "positive"},
            {"source": "x3", "target": "x1", "sign": "negative"},
            {"source": "x1", "target": "x2", "sign": "positive"},
            {"source": "x1", "target": "x3", "sign": "negative"},
        ],
    }
    code, out, _ = run(capsys, "reggraph", EXAMPLE_A, "--format", "dot")
    assert "digraph regulatory_graph {" in out
    assert '"x3" -> "x1" [color=red];' in out


def test_reggraph_output_file(capsys, tmp_path):
    dest = tmp_path / "graph.dot"
    code, out, _ = run(
        capsys, "reggraph", EXAMPLE_A, "--format", "dot", "-o", str(dest)
    )
    assert code == 0
    assert json.loads(out) == {"output": str(dest)}
    assert dest.read_text().startswith("digraph regulatory_graph {")


# --- verify ------------------------------------------------------------------------

def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", EXAMPLE_A, "--seeds", "2")
    assert code == 0
    reports = json.loads(out)
    assert [r["label"] for r in reports] == ["model", "seed-0", "seed-1"]
    assert all(r["ok"] for r in reports)
    assert reports[0]["pairs_checked"] == 64


def test_verify_detects_mismatches(capsys, tmp_path):
    path = tmp_path / "divergent.bnet"
    path.write_text(DIVERGENT)
    code, out, _ = run(capsys, "verify", str(path), "--mode", "syntactic")
    assert code == 1
    report = json.loads(out)[0]
    assert not report["ok"]
    assert report["mismatches"][0]["source"] == "0000"
    assert run(capsys, "verify", str(path), "--mode", "exact")[0] == 0


def test_verify_output_bytes(capsys, tmp_path):
    # key order, every mismatch field and each witness, byte for byte
    path = tmp_path / "divergent.bnet"
    path.write_text(DIVERGENT)
    code, out, err = run(capsys, "verify", str(path), "--mode", "syntactic")
    assert (code, err) == (1, "")

    def mismatch(source, target, witness):
        states = ",".join(f'"{s}"' for s in witness.split())
        return (
            f'{{"source":"{source}","target":"{target}","mp_reachable":false,'
            f'"unfolded_reachable":true,"witness":[{states}]}}'
        )

    assert out == (
        '[{"label":"model","mode":"syntactic","pairs_checked":256,"mismatches":['
        + ",".join([
            mismatch("0000", "0001", "000000000000 001000000000 101000000000 101000000001"
                     " 100000000001 000000000001 000000000011 000000000111"),
            mismatch("0000", "1001", "000000000000 001000000000 001000000001 011000000001"
                     " 111000000001 111000000011 111000000111"),
            mismatch("1000", "0001", "111000000000 101000000000 101000000001 100000000001"
                     " 000000000001 000000000011 000000000111"),
            mismatch("1000", "1001", "111000000000 101000000000 001000000000 001000000001"
                     " 011000000001 111000000001 111000000011 111000000111"),
        ])
        + '],"subsumption_violations":[],"ok":false}]\n'
    )


@pytest.mark.parametrize(
    "options,message",
    [
        (["--seeds", "-1"], "--seeds must be at least 0, got -1"),
        (["--seeds", "1", "--n", "0"], "--n must be between 1 and 4, got 0"),
        (["--seeds", "1", "--n", "5"], "--n must be between 1 and 4, got 5"),
        (["--n", "5"], "--n must be between 1 and 4, got 5"),
    ],
)
def test_verify_rejects_bad_options_before_checking(capsys, monkeypatch, options, message):
    import mpunfold.cli

    checked = []
    monkeypatch.setattr(mpunfold.cli, "check_equivalence", lambda *a, **k: checked.append(a))
    code, out, err = run(capsys, "verify", EXAMPLE_A, *options)
    assert (code, out, checked) == (2, "", [])
    assert json.loads(err) == {"error": {"type": "invalid-input", "message": message}}


# --- errors and usage ----------------------------------------------------------------

def test_parse_error_reports_file_and_line(capsys, tmp_path):
    path = tmp_path / "broken.bnet"
    path.write_text("targets, factors\na, b &\n")
    code, out, err = run(capsys, "fixpoints", str(path))
    assert (code, out) == (2, "")
    info = json.loads(err)["error"]
    assert info["type"] == "parse-error"
    assert str(path) in info["message"]
    assert "line 2" in info["message"]


def test_missing_model_file(capsys, tmp_path):
    code, _, err = run(capsys, "fixpoints", str(tmp_path / "nope.bnet"))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "io-error"


def test_unknown_subcommand_and_missing_args(capsys):
    code, _, err = run(capsys, "frobnicate", EXAMPLE_A)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "usage"
    code, _, err = run(capsys, "succ", EXAMPLE_A)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "usage"


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "usage:" in out


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    import mpunfold.cli as cli

    def broken(net, args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_show", broken)
    code, out, err = run(capsys, "show", EXAMPLE_A)
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert code not in (cli.EXIT_OK, cli.EXIT_NEGATIVE, cli.EXIT_USAGE, cli.EXIT_CAP)
    info = json.loads(err)["error"]
    assert info["type"] == "internal"
    assert info["message"].startswith("RuntimeError: boom (at test_cli.py:")


def test_parser_built_once_gives_the_same_bytes(capsys):
    import mpunfold.cli as cli

    calls = [
        ("show", EXAMPLE_A),
        ("reach", EXAMPLE_A, "--semantics", "mp", "--from", "000", "--to", "1**"),
        ("succ", SIGNAL, "--state", "0id1", "--semantics", "mp"),
        ("stg", EXAMPLE_A, "--from", "000", "--semantics", "fast"),  # usage error
        ("reach", EXAMPLE_A),  # missing arguments
        ("--help",),
        ("reach", "--help"),
        ("fixpoints", SIGNAL, "--pretty"),
        ("attractors", SIGNAL, "--semantics", "async", "--roots", "0000"),
    ]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli._build_parser.cache_clear()
    consecutive = [run(capsys, *argv) for argv in calls + calls]
    assert consecutive == fresh + fresh
    assert cli._build_parser() is cli._build_parser()
