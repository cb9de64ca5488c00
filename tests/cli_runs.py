"""The CLI runs whose output must not depend on the string hash seed, made in
one process through cli.main: on the bundled models, and on the size
ladder's shapes at 300 and TOP less the cells that shapes.FAILS names.
Also reach past the budget of its breadth-first search, where sets of
states answer, mp reach that the start's trap space settles, and a model
whose path-shaped bodies are written out of order, and verify on the
widest random nets, where the unfolded side's sets of states are
2^18 and 2^15 bits.  Prints
each run's argv, exit code and stdout, and the bytes unfold -o wrote,
with paths relative to its own temporary directory; tests/test_processes.py
compares the prints under two hash seeds.  Cross-checks between runs are
assertions:

    PYTHONPATH=src python tests/cli_runs.py
"""
import contextlib
import io
import json
import os
import shutil
import tempfile
from itertools import product
from pathlib import Path

from mpunfold.cli import main
from shapes import FAILS, SHAPES, TOP, gray_counter

MODELS = sorted(Path(__file__).resolve().parent.parent.glob("models/*.bnet"))
MODES = ("exact", "syntactic")


def run(*argv, codes=(0,)):
    """Print argv, its exit code and its stdout; return both."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in codes, f"{' '.join(argv)}: exit {code}, {err.getvalue()}"
    print(f"$ {' '.join(argv)}\nexit {code}\n{out.getvalue()}", end="")
    return code, out.getvalue()


def show_read_back(path):
    """show, read the shown rules back, show them again: the same bytes."""
    shown = run("show", path)[1]
    rules = json.loads(shown)["components"]
    Path("shown.bnet").write_text("".join(f"{c['name']}, {c['rule']}\n" for c in rules))
    assert run("show", "shown.bnet")[1] == shown, path
    return [c["name"] for c in rules]


def unfold_read_back(model, names):
    """Unfold every component, only the first, every one but the first (a
    plain component ahead of unfolded ones); read each file back."""
    for mode, selection in product(MODES, ((), names[:1], names[1:])):
        components = [f"--components={','.join(selection)}"] if selection else []
        run("unfold", model, "--mode", mode, *components, "-o", "unfolded.bnet")
        print(Path("unfolded.bnet").read_text(), end="")
        for command in ("fixpoints", "reggraph", "show"):
            run(command, "unfolded.bnet")


def theorem(model, n):
    """verify (1 reports mismatches, which syntactic mode may have), and mp
    reach on the model against async reach on its unfolding: one answer."""
    for mode in MODES:
        run("verify", model, "--mode", mode, "--seeds", "10", "--n", "4",
            codes=(0,) if mode == "exact" else (0, 1))
    run("unfold", model, "-o", "unfolded.bnet")
    for a, b in ("01", "10"):  # level 0 is the triplet 000, 1 is 111
        mp = run("reach", model, "--semantics", "mp", "--from", a * n, "--to", b * n,
                 codes=(0, 1))[0]
        assert mp == run("reach", "unfolded.bnet", "--semantics", "async", "--from",
                         a * 3 * n, "--to", b * 3 * n, codes=(0, 1))[0], (model, a, b)


def dynamics(model, n):
    """Each semantics' successors, reachability (1 answers "unreachable"),
    state graphs and attractors; the regulatory graph; attractors of the
    whole space (its image table) against those from every state."""
    zeros, ones, target, mixed = "0" * n, "1" * n, "*" * (n - 1) + "1", ("id" * n)[:n]
    for semantics in ("sync", "async", "general", "mp"):
        graphs = [(), ("--format", "dot")]
        if semantics == "mp":
            graphs += [("--project-boolean", *g) for g in graphs]
        runs = [("succ", "--state", zeros), ("succ", "--state", ones)]
        for start in (zeros, ones):
            runs += [("reach", "--from", start, "--to", target)]
            runs += [("stg", "--from", start, *g) for g in graphs]
        if semantics == "mp":
            runs += [("succ", "--state", mixed), ("reach", "--from", mixed, "--to", target)]
        else:
            runs += [("attractors",), ("attractors", "--roots", f"{zeros},{ones}")]
        for command, *rest in runs:
            run(command, model, "--semantics", semantics, *rest, codes=(0, 1))
    for fmt in ("json", "dot"):
        run("reggraph", model, "--format", fmt)
    every = ",".join("".join(bits) for bits in product("01", repeat=n))
    for semantics in ("sync", "async", "general"):
        whole = run("attractors", model, "--semantics", semantics)[1]
        assert run("attractors", model, "--semantics", semantics, "--roots", every)[1] == whole


def past_the_budget():
    """reach under mp and async past the BFS's budget of 1/64 of the
    space: y stays 0 while five components flip, so the sets of states
    settle an unreachable target and a cap below the closure's size, and
    the BFS goes on to a reachable target; the Gray counter's last code is
    2^8 - 1 async steps from its first."""
    Path("flips.bnet").write_text("y, y\n" + "".join(f"x{k}, !x{k}\n" for k in range(5)))
    Path("gray.bnet").write_text(gray_counter(8))
    for semantics, low in (("mp", "100"), ("async", "20")):  # past the budget, below 4^5, 2^5
        for target, cap, code in (("1*****", "1000000", 1), ("1*****", low, 3),
                                  ("011111", "1000000", 0), ("011111", low, 3)):
            run("reach", "flips.bnet", "--semantics", semantics, "--from", "000000",
                "--to", target, "--cap", cap, codes=(code,))
    run("reach", "gray.bnet", "--semantics", "async", "--from", "0" * 8, "--to", "1" + "0" * 7)


def in_the_trap_space():
    """reach under mp where the start's smallest trap space settles the
    target: on the signal model from i/d starts where signal stays 0, a
    target that moves it, with wildcards; on 30 components where y and the
    z never leave 0 and five x flip, targets that move y or a z, from
    0...0 and from an i/d start, with caps below, at and above the trap
    space's 4^5 states."""
    shutil.copy(MODELS[[m.name for m in MODELS].index("signal.bnet")], "signal.bnet")
    for start, target in (("0i00", "1***"), ("0d1i", "i***"), ("0i00", "**d*")):
        run("reach", "signal.bnet", "--semantics", "mp", "--from", start, "--to", target,
            codes=(0, 1))
    Path("trap.bnet").write_text("y, y\n" + "".join(f"x{k}, !x{k}\n" for k in range(5))
                                 + "".join(f"z{k}, z{k}\n" for k in range(24)))
    zeros, moving = "0" * 30, "0" + "idid1" + "0" * 24
    for start, target, cap, code in ((zeros, "1" + "*" * 29, "1000000", 1),
                                     (zeros, "*" * 29 + "d", "1024", 1),
                                     (zeros, "1" + "*" * 29, "1023", 3),
                                     (moving, "0" + "*" * 28 + "1", "100", 3),
                                     (moving, "*" * 6 + "i" + "*" * 23, "1000000", 1)):
        run("reach", "trap.bnet", "--semantics", "mp", "--from", start, "--to", target,
            "--cap", cap, codes=(code,))


def shuffled_paths():
    """A model whose bodies are the paths of decision trees, as print_bnet
    writes them but with their products and literals out of order: the path
    reader takes them on its sorted retry.  fixpoints and async reach read
    them as they read the same bodies in the tree's order."""
    ordered = {
        "a": "!b & !c & d | !b & c | b & !d",
        "b": "!a & c | a & !c | a & c & !d",
        "c": "!a & b | a & !b",
        "d": "!a & !b | a & c",
    }
    shuffled = {
        "a": "!d & b | c & !b | d & !c & !b",
        "b": "!d & c & a | c & !a | !c & a",
        "c": "!b & a | b & !a",
        "d": "c & a | !b & !a",
    }
    for name, rules in (("ordered.bnet", ordered), ("shuffled.bnet", shuffled)):
        Path(name).write_text("".join(f"{k}, {body}\n" for k, body in rules.items()))
    run("show", "shuffled.bnet")
    for command in (("fixpoints",), ("reach", "--semantics", "async", "--from", "0000", "--to", "1**1")):
        assert run(command[0], "shuffled.bnet", *command[1:], codes=(0, 1))[1] == \
            run(command[0], "ordered.bnet", *command[1:], codes=(0, 1))[1]


def widest_verify():
    """verify at the largest n: exact mode at n = 6 (every check ok), and
    syntactic mode at n = 5, whose mismatches carry witnesses."""
    model = MODELS[[m.name for m in MODELS].index("example_a.bnet")].name
    run("verify", model, "--mode", "exact", "--n", "6", "--seeds", "3")
    run("verify", model, "--mode", "syntactic", "--n", "5", "--seeds", "2", codes=(1,))


if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for source in MODELS:
            model = shutil.copy(source, source.name)
            names = show_read_back(model)
            unfold_read_back(model, names)
            theorem(model, len(names))
            dynamics(model, len(names))
        past_the_budget()
        in_the_trap_space()
        shuffled_paths()
        widest_verify()
        for shape, n in product(SHAPES, (300, TOP)):
            path = f"{shape}.{n}.bnet"
            Path(path).write_text(SHAPES[shape](n))
            if (shape, n, "show") not in FAILS:
                show_read_back(path)
            for mode in MODES if n == 300 else ():
                if (shape, n, f"unfold-{mode}") not in FAILS:
                    run("unfold", path, "--mode", mode)
        os.chdir(home)
