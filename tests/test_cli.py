"""End-to-end CLI behavior through main(argv): outputs and exit codes."""
import json
import re
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from mpunfold import (
    CapExceeded,
    RandomNetSpec,
    UnfoldSpec,
    async_successors,
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
# the frozen unfold output of each bundled model
UNFOLDED = Path(__file__).resolve().parent / "unfolded"
VERIFIED = Path(__file__).resolve().parent / "verified"

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


def test_succ_general_refuses_a_state_past_the_cap(capsys, tmp_path, monkeypatch):
    # x0..x3 all negate themselves: every state has 2^4 - 1 = 15 general
    # successors, refused before any is listed when the cap is smaller
    model = tmp_path / "flips.bnet"
    model.write_text("".join(f"x{j}, !x{j}\n" for j in range(4)))
    net = parse_bnet(model.read_text())
    assert len(general_successors(net, "0000", cap=15)) == 15
    with pytest.raises(CapExceeded, match="4 unstable components .* past the cap of 14"):
        general_successors(net, "0000", cap=14)
    with pytest.raises(ValueError, match="cap must be a positive integer"):
        general_successors(net, "0000", cap=0)
    argv = ("succ", str(model), "--state", "0000", "--semantics")
    for env, flag, code in ((None, (), 0), ("14", (), 3), ("14", ("--cap", "15"), 0),
                            (None, ("--cap", "14"), 3)):
        if env is None:
            monkeypatch.delenv("MPU_CAP", raising=False)
        else:
            monkeypatch.setenv("MPU_CAP", env)
        got, out, err = run(capsys, *argv, "general", *flag)
        assert got == code, (env, flag)
        if code == 3:
            assert out == ""
            assert json.loads(err)["error"]["type"] == "cap-exceeded"
        else:
            assert json.loads(out) == general_successors(net, "0000")
    # the other semantics list at most 2n successors and ignore the cap
    monkeypatch.setenv("MPU_CAP", "1")
    for semantics in ("sync", "async", "mp"):
        got, out, err = run(capsys, *argv, semantics)
        assert (got, err) == (0, "")
        assert len(json.loads(out)) == (1 if semantics == "sync" else 4)


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


@pytest.mark.parametrize("model, first", [("example_a", "x1"), ("signal", "signal")])
@pytest.mark.parametrize("mode", ["exact", "syntactic"])
@pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
def test_unfold_stdout_of_the_bundled_models_is_frozen(capsys, model, first, mode, partial):
    # every component, or only the first: the others stay plain
    selection = ["--components", first] if partial else []
    path = str(MODELS / f"{model}.bnet")
    code, out, err = run(capsys, "unfold", path, "--mode", mode, *selection)
    assert (code, err) == (0, "")
    name = f"{model}.{mode}.partial.bnet" if partial else f"{model}.{mode}.bnet"
    assert out == (UNFOLDED / name).read_text()


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


@pytest.mark.parametrize("k", [20, 40])
def test_general_explorers_stop_at_the_cap_in_bounded_memory(capsys, tmp_path, k):
    # every component of xj, !xj is unstable everywhere, so each state has
    # 2^k - 1 general successors: the explorers take them one at a time and
    # hold none past the cap, and succ refuses the state before listing any
    # (k = 20 first, where holding them all is 2^20 states, not 2^40)
    model = tmp_path / "flips.bnet"
    model.write_text("".join(f"x{j}, !x{j}\n" for j in range(k)))
    run(capsys, "show", str(model))  # the parser is built outside the measure
    zeros = "0" * k
    for argv in (
        ("reach", "--from", zeros, "--to", "1" * k),
        ("stg", "--from", zeros),
        ("attractors", "--roots", zeros),
        ("succ", "--state", zeros),
    ):
        tracemalloc.start()
        try:
            code, _, _ = run(
                capsys, argv[0], str(model), "--semantics", "general", "--cap", "10", *argv[1:]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3, argv[0]
        assert peak < 512 * 1024, (argv[0], peak)


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



@pytest.mark.parametrize(
    "argv,code,out",
    [
        (
            ("reach", SIGNAL, "--semantics", "mp", "--from", "1000", "--to", "***1"),
            0,
            '{"verdict":"reachable","states_explored":15,'
            '"witness":["1000","1i00","1ii0","1iii","1ii1"]}',
        ),
        (
            ("reach", EXAMPLE_A, "--semantics", "async", "--from", "000", "--to", "1**"),
            1,
            '{"verdict":"unreachable","states_explored":2,"witness":null}',
        ),
        (
            ("reach", SIGNAL, "--semantics", "mp", "--from", "1000", "--to", "***1",
             "--cap", "2"),
            3,
            '{"verdict":"cap-exceeded","states_explored":2,"witness":null}',
        ),
        (
            ("stg", EXAMPLE_A, "--semantics", "async", "--from", "100"),
            0,
            '{"semantics":"async","roots":["100"],"nodes":["100","110"],'
            '"edges":[{"source":"100","target":"110","tag":null}],'
            '"cap":1000000,"cap_exceeded":false}',
        ),
        (
            ("stg", SIGNAL, "--semantics", "mp", "--from", "1000", "--project-boolean"),
            0,
            '{"semantics":"mp-projection","roots":["1000"],'
            '"nodes":["1000","1100","1110","1111","1101"],"edges":['
            '{"source":"1000","target":"1100","tag":"solid"},'
            '{"source":"1000","target":"1110","tag":"dotted"},'
            '{"source":"1000","target":"1111","tag":"dotted"},'
            '{"source":"1000","target":"1101","tag":"dotted"},'
            '{"source":"1100","target":"1110","tag":"solid"},'
            '{"source":"1111","target":"1110","tag":"solid"},'
            '{"source":"1101","target":"1111","tag":"solid"},'
            '{"source":"1101","target":"1100","tag":"solid"},'
            '{"source":"1101","target":"1110","tag":"solid"}],'
            '"cap":1000000,"cap_exceeded":false}',
        ),
        (
            ("stg", SIGNAL, "--semantics", "mp", "--from", "1000", "--cap", "3"),
            3,
            '{"semantics":"mp","roots":["1000"],"nodes":["1000","1i00","1100"],'
            '"edges":[{"source":"1000","target":"1i00","tag":null},'
            '{"source":"1i00","target":"1100","tag":null}],'
            '"cap":3,"cap_exceeded":true}',
        ),
        (
            ("attractors", SIGNAL, "--semantics", "sync"),
            0,
            '[{"states":["0000"],"kind":"stable-state"},'
            '{"states":["1110"],"kind":"stable-state"}]',
        ),
        (
            ("reggraph", SIGNAL),
            0,
            '{"nodes":["signal","x1","x2","x3"],"edges":['
            '{"source":"signal","target":"signal","sign":"positive"},'
            '{"source":"signal","target":"x1","sign":"positive"},'
            '{"source":"x1","target":"x2","sign":"positive"},'
            '{"source":"x1","target":"x3","sign":"negative"},'
            '{"source":"x2","target":"x3","sign":"positive"}]}',
        ),
    ],
    ids=[
        "reach-reachable", "reach-unreachable", "reach-cap", "stg", "stg-projection",
        "stg-cap", "attractors", "reggraph",
    ],
)
def test_result_output_bytes(capsys, argv, code, out):
    # json.loads would hide the key order: compare the bytes
    assert run(capsys, *argv) == (code, out + "\n", "")

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


@pytest.mark.parametrize("mode", ["exact", "syntactic"])
@pytest.mark.parametrize("model", ["example_a", "signal"])
def test_verify_reproduces_the_frozen_reports(capsys, model, mode):
    # tests/verified/<model>.<mode>.json: verify's output at --seeds 4 --n 3,
    # frozen; the syntactic ones pin each mismatch, its witness and order
    code, out, err = run(
        capsys, "verify", str(MODELS / f"{model}.bnet"), "--mode", mode, "--seeds", "4", "--n", "3"
    )
    assert (code, err) == ((0, "") if mode == "exact" else (1, ""))
    assert out == (VERIFIED / f"{model}.{mode}.json").read_text()


@pytest.mark.parametrize(
    "options,message",
    [
        (["--seeds", "-1"], "--seeds must be at least 0, got -1"),
        (["--seeds", "1", "--n", "0"], "--n must be between 1 and 6, got 0"),
        (["--seeds", "1", "--n", "7"], "--n must be between 1 and 6, got 7"),
        (["--n", "7"], "--n must be between 1 and 6, got 7"),
    ],
)
def test_verify_rejects_bad_options_before_checking(capsys, monkeypatch, options, message):
    import mpunfold.cli

    checked = []
    monkeypatch.setattr(mpunfold.cli, "check_equivalence", lambda *a, **k: checked.append(a))
    code, out, err = run(capsys, "verify", EXAMPLE_A, *options)
    assert (code, out, checked) == (2, "", [])
    assert json.loads(err) == {"error": {"type": "invalid-input", "message": message}}


@pytest.mark.parametrize("n", [6, 7])
def test_verify_checks_six_components_and_refuses_seven(capsys, tmp_path, n):
    # a ring that reads its last component negated, with one AND and one OR
    rules = [f"a0, !a{n - 1}", "a1, a0", "a2, a1 & !a0", "a3, a2 | a5"]
    rules += [f"a{k}, a{k - 1}" for k in range(4, n)]
    path = tmp_path / "ring.bnet"
    path.write_text("\n".join(rules) + "\n")
    code, out, err = run(capsys, "verify", str(path), "--seeds", "0")
    if n == 6:
        assert (code, err) == (0, "")
        (report,) = json.loads(out)
        assert (report["pairs_checked"], report["ok"]) == (4096, True)
    else:
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": {"type": "invalid-input", "message": "exhaustive check is limited to n <= 6"}
        }


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
    assert info["message"] == "RuntimeError: boom (at test_cli.py in broken)"


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
