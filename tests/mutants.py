"""Kept mutants: edits to the package that named tests must catch.

Each entry of MUTANTS has a name, a file of src/mpunfold, an exact old
text that occurs there once, the new text that replaces it, and the tests
that must fail on the edited copy.  For each entry the package is copied to
a temporary directory, the edit is made there, and the named tests run
against the copy in a subprocess; the entry fails if they all pass, or
if none runs because an id matches no test.  An entry whose old text does
not occur exactly once fails too, so a change that moves the code re-aims
or retires the entry with it.  WORKERS entries run at once, and the whole
table runs within BUDGET_S seconds:

    python tests/mutants.py

tests/test_mutants.py checks the table's shape in the tier-1 run.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mpunfold"
BUDGET_S = 60
WORKERS = min(2, os.cpu_count() or 1)  # entries run at once


class Mutant(NamedTuple):
    name: str
    file: str  # under src/mpunfold
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


MUTANTS = [
    # join takes its operands as given: a long product recurses in _apply
    Mutant(
        "join-unsorted",
        "bdd.py",
        "for v in sorted(operands, key=top, reverse=True):",
        "for v in operands:",
        ("tests/test_expr.py::test_from_expr_of_a_3000_literal_product",),
    ),
    # a literal above the result so far gets its branches swapped
    Mutant(
        "join-literal-branches-swapped",
        "bdd.py",
        "u = mk(var, miss, hit) if bit else mk(var, hit, miss)",
        "u = mk(var, hit, miss) if bit else mk(var, miss, hit)",
        (
            "tests/test_bdd.py::test_join_is_a_left_fold_of_conj_or_disj",
            "tests/test_bdd.py::test_evaluate_agrees_with_tree_evaluation",
        ),
    ),
    # negating a literal keeps its bit
    Mutant(
        "negated-literal-keeps-its-bit",
        "bdd.py",
        "return v[0], 1 - v[1]",
        "return v[0], v[1]",
        (
            "tests/test_bdd.py::test_evaluate_agrees_with_tree_evaluation",
            "tests/test_expr.py::test_from_expr_of_a_3000_literal_product",
        ),
    ),
    # fixed_points joins its constraints with | (1 is bdd._OR)
    Mutant(
        "fixed-points-joined-with-or",
        "reach.py",
        "node = m.join(_AND, [m.equiv(f, m.var_node(j))",
        "node = m.join(1, [m.equiv(f, m.var_node(j))",
        (
            "tests/test_reach.py::test_fixed_points_example_a",
            "tests/test_reach.py::test_fixed_points_match_brute_force",
        ),
    ),
    # the path reader's memo reads "!x" as x
    Mutant(
        "memo-negation-keeps-bit-1",
        "expr.py",
        'int(name[:1] != "!")',
        "1",
        ("tests/test_expr.py::test_path_reader_takes_the_sums_of_paths_and_only_those",),
    ),
    # a declined list of paths keeps the nodes made before the pair that declines
    Mutant(
        "declined-paths-keep-their-nodes",
        "bdd.py",
        "for key in triples[made:]:\n                    del self._unique[key]\n"
        "                del triples[made:]\n",
        "",
        ("tests/test_bdd.py::test_from_paths_declines_what_is_no_decision_tree",),
    ),
    # the parting depth starts one too deep
    Mutant(
        "parting-depth-off-by-one",
        "bdd.py",
        "d = 0  # where path parts from prev",
        "d = 1  # where path parts from prev",
        ("tests/test_bdd.py::test_from_paths_rebuilds_every_rule_diagram_from_its_cubes",),
    ),
    # a chain of the other operator extends the chain as if it were of op
    Mutant(
        "chain-flattens-the-other-operator",
        "bdd.py",
        "if type(w) is list and w[0] == op:",
        "if type(w) is list:",
        ("tests/test_bdd.py::test_evaluate_agrees_with_tree_evaluation",),
    ),
    # print_bnet writes its products in hash order
    Mutant(
        "print-bnet-products-unsorted",
        "network.py",
        'body = " | ".join(sorted(products))',
        'body = " | ".join(set(products))',
        ("tests/test_cli.py::test_unfold_stdout_of_the_bundled_models_is_frozen",),
    ),
    # _apply's memo key drops v's last bit
    Mutant(
        "apply-memo-key-loses-a-bit",
        "bdd.py",
        "key = (u, v)",
        "key = (u, v >> 1)",
        ("tests/test_bdd.py::test_evaluate_agrees_with_tree_evaluation",),
    ),
    # whole-space attractors start from half the states
    Mutant(
        "whole-space-starts-halved",
        "reach.py",
        "starts = range(1 << net.n)",
        "starts = range(1 << net.n - 1)",
        ("tests/test_reach.py::test_attractors_example_a",),
    ),
    # _cycles counts a start given twice against the cap twice
    Mutant(
        "cycles-starts-not-deduplicated",
        "reach.py",
        "starts = dict.fromkeys(starts)  # distinct, in order\n    limit = max(cap, len(starts))\n"
        "    walk:",
        "starts = list(starts)\n    limit = max(cap, len(starts))\n    walk:",
        ("tests/test_evaluator.py::test_attractors_match_string_bfs",),
    ),
    # _cycles passes the cap one state late
    Mutant(
        "cycles-cap-checked-late",
        "reach.py",
        "if len(walk) >= limit:",
        "if len(walk) > limit:",
        ("tests/test_evaluator.py::test_attractors_match_string_bfs",),
    ),
    # whole-space sync attractors take the rounds' survivors as fixed points, with no walk
    Mutant(
        "sync-survivors-taken-without-the-walk",
        "reach.py",
        "starts = _limit_set(ev.image, starts)",
        "return [[s] for s in _limit_set(ev.image, starts)]",
        ("tests/test_reach.py::test_sync_attractors_agree_with_cycles_from_every_state[3]",),
    ),
    # each round also drops its largest image, which may lie on a cycle
    Mutant(
        "sync-round-drops-its-largest-state",
        "reach.py",
        "shrunk = set(map(image, kept))",
        "shrunk = set(map(image, kept)); shrunk.discard(max(shrunk))",
        ("tests/test_reach.py::test_limit_set_keeps_every_cycle_of_hand_made_maps[fixed-points-6]",),
    ),
    # the rounds go on until one removes nothing
    Mutant(
        "sync-rounds-stop-only-when-none-leaves",
        "reach.py",
        "if 8 * (len(kept) - len(shrunk)) < len(kept):",
        "if len(shrunk) == len(kept):",
        ("tests/test_reach.py::test_rounds_stop_once_few_states_leave[saturating-counter]",),
    ),
    # async successors flip the lowest bit (last component) first
    Mutant(
        "async-lowest-bit-first",
        "semantics.py",
        "top = 1 << diff.bit_length() - 1",
        "top = diff & -diff",
        ("tests/test_semantics.py::test_async_successors",),
    ),
    # the attractor sets' reverse moves are their forward moves
    Mutant(
        "attractor-sets-backward-shifts-forward",
        "reach.py",
        "return [(bit, up << bit, down >> bit) for bit, down, up in moves]",
        "return list(moves)",
        (
            "tests/test_reach.py::test_attractor_sets_agree_with_condense[6]",
            "tests/test_metamorphic.py::test_attractors_permute[12-0-async]",
        ),
    ),
    # each closure of a set search gets the whole budget of sweeps afresh
    Mutant(
        "attractor-sets-fresh-budget-per-closure",
        "reach.py",
        "    reached = frontier = states\n",
        "    reached = frontier = states\n    sweeps = __import__('copy').copy(sweeps)\n",
        ("tests/test_evaluator.py::test_one_sweep_budget_per_search",),
    ),
    # the next pivot may be a state that has left the live states
    Mutant(
        "attractor-sets-pivot-not-live",
        "reach.py",
        "region = ahead & live or live",
        "region = ahead or live",
        ("tests/test_reach.py::test_attractor_sets_agree_with_condense[6]",),
    ),
    # the fixed points leave the live states but are not recorded
    Mutant(
        "attractor-sets-fixed-points-unrecorded",
        "reach.py",
        "found = [[s] for s in _members(fixed)]",
        "found = []",
        ("tests/test_reach.py::test_attractors_example_a",),
    ),
    # a state that can only move up counts as fixed
    Mutant(
        "attractor-sets-fixed-points-ignore-rises",
        "reach.py",
        "fixed &= ~(down | up)",
        "fixed &= ~down",
        ("tests/test_metamorphic.py::test_attractors_survive_negation[6-0-async]",),
    ),
    # the whole-space image table puts rule j's value in bit j
    Mutant(
        "image-table-bit-reversed",
        "network.py",
        "shift = n - 1 - j",
        "shift = j",
        (
            "tests/test_metamorphic.py::test_attractors_permute[6-0-sync]",
            "tests/test_metamorphic.py::test_attractors_permute[6-0-general]",
        ),
    ),
    # under mp a d level never settles to 0
    Mutant(
        "mp-d-never-settles",
        "semantics.py",
        "if x & bit:  # (c)/(d)",
        "if x & bit and x & up:  # (c)/(d)",
        ("tests/test_metamorphic.py::test_reach_verdicts_and_witnesses_survive_negation[6-0-mp]",),
    ),
    # the theorem check reports the unfolded side's witnesses back to front
    Mutant(
        "oracle-unfolded-witnesses-reversed",
        "oracle.py",
        "witness = [ev.decode(t) for t in _path(unf_parents, enc[i])]",
        "witness = [ev.decode(t) for t in _path(unf_parents, enc[i])][::-1]",
        ("tests/test_oracle.py::test_equivalence_detects_syntactic_overreach",),
    ),
    # the oracle's mp step never settles a d level
    Mutant(
        "oracle-d-never-settles",
        "oracle.py",
        "if free & bit:  # i settles to 1, d to 0",
        "if free & val & bit:  # i settles to 1, d to 0",
        (
            "tests/test_oracle.py::test_naive_mp_successors_examples",
            "tests/test_unfold.py::test_partial_unfolding_lies_between_async_and_mp[2]",
        ),
    ),
    # the theorem check reads a source's mask at state k for the k-th source
    Mutant(
        "oracle-set-reach-reads-the-wrong-state",
        "oracle.py",
        "at = [(s >> 3, 1 << (s & 7), 1 << k) for k, s in enumerate(sources)]",
        "at = [(k >> 3, 1 << (k & 7), 1 << k) for k, s in enumerate(sources)]",
        ("tests/test_oracle.py::test_set_reach_agrees_with_condense_on_unfoldings[3-exact]",),
    ),
    # every source a closure holds shares its set, met on the way back or not
    Mutant(
        "oracle-set-reach-shares-without-the-backward-closure",
        "oracle.py",
        "same = held(_closure(reverse, 1 << s, ahead, count())) & todo",
        "same = reached & todo",
        ("tests/test_oracle.py::test_set_reach_agrees_with_condense_on_plain_async[3]",),
    ),
    # the plain asynchronous side steps the unfolding's image table
    Mutant(
        "oracle-plain-async-closes-over-the-unfolding",
        "oracle.py",
        "async_step = partial(_async, _ImageTable(net.manager, net.nodes))",
        "async_step = partial(_async, ev)",
        (
            "tests/test_oracle.py::test_check_steps_each_state_once_per_side[3]",
            "tests/test_oracle.py::test_report_on_broken_sides_equals_per_source_searches",
        ),
    ),
    # the mp moves on sets read where a rule can be 1 as where it can be 0
    Mutant(
        "mp-sets-can0-can1-swapped",
        "reach.py",
        "can1, can0 = can[u]",
        "can0, can1 = can[u]",
        ("tests/test_reach.py::test_set_hand_off_agrees_with_bfs_alone[3]",),
    ),
    # the mp moves on sets never settle an i or d level
    Mutant(
        "mp-sets-settle-move-dropped",
        "reach.py",
        "            (f, free, 0),\n",
        "",
        ("tests/test_reach.py::test_set_hand_off_agrees_with_bfs_alone[3]",),
    ),
    # the sets count a closure past the cap as the closure's size
    Mutant(
        "set-cap-exceeded-counts-the-closure",
        "reach.py",
        'return ReachResult("cap-exceeded", cap)',
        'return ReachResult("cap-exceeded", size)',
        ("tests/test_reach.py::test_set_hand_off_agrees_with_bfs_alone[3]",),
    ),
    # an mp target on sets reads its val half only
    Mutant(
        "set-target-ignores-the-free-half",
        "reach.py",
        "pattern = pattern.translate(_MP_VAL) + pattern.translate(_MP_FREE)",
        'pattern = pattern.translate(_MP_VAL) + "*" * len(pattern)',
        ("tests/test_reach.py::test_set_hand_off_agrees_with_bfs_alone[3]",),
    ),
    # rule_nodes skips the cube of a pattern that sets one bit
    Mutant(
        "rule-nodes-skip-a-setting-pattern",
        "unfold.py",
        'setters.count("0") < len(setters)',
        'setters.count("0") < len(setters) - 1',
        ("tests/test_unfold.py::test_unfold_full_example_a_matches_frozen_rules",),
    ),
    # the subsumption check reads only the first asynchronous step of a state
    Mutant(
        "oracle-plain-async-checks-only-the-first-step",
        "oracle.py",
        "for t in async_step(s))",
        "for t in async_step(s)[:1])",
        ("tests/test_oracle.py::test_report_on_broken_sides_equals_per_source_searches",),
    ),
    # reaches' closure on sets of states takes as many sweeps as it needs
    Mutant(
        "set-closure-without-a-budget",
        "reach.py",
        "sweeps = iter(range(_sweep_budget(width, moves)))",
        "sweeps = iter(range(1 << 62))",
        ("tests/test_reach.py::test_set_hand_off_on_the_gray_counter[8]",),
    ),
    # the mp moves on sets let a 1 level fall whatever its rule reads
    Mutant(
        "mp-sets-one-falls-whatever-its-rule",
        "reach.py",
        "(v - f, can0 & val & ~free, 0)",
        "(v - f, val & ~free, 0)",
        ("tests/test_reach.py::test_set_moves_take_each_state_to_its_successors[2]",),
    ),
    # the theorem check starts each mp search from the reversed state
    Mutant(
        "oracle-mp-sources-bit-reversed",
        "oracle.py",
        "mp_src = [_encode(x) for x in bool_states]",
        "mp_src = [_encode(x[::-1]) for x in bool_states]",
        ("tests/test_oracle.py::test_equivalence_example_a_both_modes",),
    ),
]


def survives(mutant: Mutant, timeout: float) -> bool:
    """Whether every named test passes on the package with mutant's edit,
    or none of them runs (pytest exits 4 or 5 when an id matches no test).
    Raises ValueError if the old text does not occur exactly once."""
    text = (PACKAGE / mutant.file).read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(
            f"{mutant.file}: {mutant.old!r} occurs {text.count(mutant.old)} times, not once"
        )
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src" / "mpunfold"
        shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        (copy / mutant.file).write_text(text.replace(mutant.old, mutant.new))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(Path(tmp) / "src")},
            capture_output=True,
            timeout=timeout,
        )
    return run.returncode in (0, 4, 5)


def main() -> int:
    start = time.perf_counter()

    def run(mutant):  # (whether it survives, seconds), within what is left of the budget
        began = time.perf_counter()
        left = BUDGET_S - (began - start)
        alive = survives(mutant, timeout=max(left, 0.1))
        return alive, time.perf_counter() - began

    survivors = []
    took = {}  # name -> seconds
    # each worker waits on one pytest process at a time; reports come in table order
    with ThreadPoolExecutor(WORKERS) as pool:
        try:
            for mutant, (alive, seconds) in zip(MUTANTS, pool.map(run, MUTANTS)):
                took[mutant.name] = seconds
                print(f"{'SURVIVED' if alive else 'caught'}: {mutant.name} ({seconds:.1f} s)")
                if alive:
                    survivors.append(mutant)
        except subprocess.TimeoutExpired:
            pool.shutdown(cancel_futures=True)
            print(f"the table ran past its budget of {BUDGET_S} s")
            return 1
    slowest = max(took, key=took.get)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants caught "
          f"in {time.perf_counter() - start:.1f} s of {BUDGET_S}; "
          f"slowest: {slowest} ({took[slowest]:.1f} s)")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
