"""Metamorphic relations: two runs whose answers must agree, so they need no
oracle and hold at any size (ROADMAP item 19).

Permutation: the declaration order is the variable order of every diagram,
so declaring the components in another order reshapes every diagram and
leaves every answer the same up to the permutation.  Each random network is
compared with itself declared in one fixed random order.

Negation relabelling: reading y_k = !x_k for half the components, and
rewriting the rules to match (every x_k read as !y_k, and y_k's rule
negated), gives a network whose dynamics are the same up to flipping those
components in every state: 0 and 1 swap there, and so do i and d.  Every
successor list keeps its order, so a reach witness maps state for state.

Semantics inclusion: a sync or an async step is a general step, and every
Boolean state a general run reaches an mp run reaches too (PAPER.md).  So
a target reachable under sync or async from a Boolean state is reachable
under general, and then under mp.
"""
import functools
import random

import pytest

from mpunfold import (
    VALID_TRIPLETS, RandomNetSpec, UnfoldSpec, async_successors, attractors, eval_rule,
    fixed_points, format_expr, infer_regulatory_graph, parse_bnet, random_network, reaches,
    sync_successor, unfold,
)
from mpunfold.expr import And, Const, Not, Or, Var, fold

NETS = [(n, seed) for n in (6, 12) for seed in range(4)]
CAP = 5000  # past the 4096 Boolean states at n = 12
QUERIES = 8


@functools.cache
def _pair(n, seed):
    """The network as written, the same rules declared in another order, and
    that order: component k of the second is component order[k] of the first."""
    net = random_network(RandomNetSpec(n=n, seed=seed))
    lines = [f"{name}, {format_expr(rule, net.names)}\n" for name, rule in net.components()]
    order = random.Random(seed).sample(range(n), n)
    assert order != sorted(order)
    return parse_bnet("".join(lines)), parse_bnet("".join(lines[k] for k in order)), order


def _permute(s, order):
    return "".join(s[k] for k in order)


@pytest.mark.parametrize("n,seed", NETS)
def test_fixed_points_permute(n, seed):
    net, permuted, order = _pair(n, seed)
    assert sorted(_permute(s, order) for s in fixed_points(net)) == sorted(fixed_points(permuted))


@pytest.mark.parametrize("n,seed", NETS)
def test_signed_regulations_are_the_same(n, seed):
    net, permuted, _ = _pair(n, seed)
    edges = [sorted(map(vars, infer_regulatory_graph(m).edges), key=str) for m in (net, permuted)]
    assert edges[0] == edges[1]


@pytest.mark.parametrize("n,seed,semantics", [
    (n, seed, semantics) for n, seed in NETS
    for semantics in ("sync", "async", "mp") + (("general",) if n == 6 else ())
])
def test_reach_verdicts_and_witness_lengths_permute(n, seed, semantics):
    net, permuted, order = _pair(n, seed)
    rng = random.Random(f"{n}/{seed}/{semantics}")
    compared = 0
    for _ in range(QUERIES):
        start = "".join(rng.choice("01") for _ in range(n))
        target = "".join(rng.choice("01***") for _ in range(n))
        answers = [
            reaches(net, semantics, start, target, cap=CAP),
            reaches(permuted, semantics, _permute(start, order), _permute(target, order), cap=CAP),
        ]
        if all(a.verdict != "cap-exceeded" for a in answers):
            compared += 1
            first, second = ((a.verdict, len(a.witness or ())) for a in answers)
            assert first == second, (start, target)
    assert compared


def _attractor_sets(net, semantics, relabel):
    """The whole-space attractors of net, each relabelled state by state,
    as sorted (kind, states) pairs: the relabelling reorders the states."""
    return sorted(
        (a.kind, sorted(map(relabel, a.states))) for a in attractors(net, semantics, cap=CAP)
    )


@pytest.mark.parametrize("n,seed,semantics", [
    (n, seed, semantics) for n, seed in NETS for semantics in ("sync", "async", "general")
])
def test_attractors_permute(n, seed, semantics):
    net, permuted, order = _pair(n, seed)
    relabel = functools.partial(_permute, order=order)
    assert _attractor_sets(net, semantics, relabel) == _attractor_sets(permuted, semantics, str)


_FLIP = str.maketrans("01id", "10di")


@functools.cache
def _negated(n, seed):
    """The network as written, the same dynamics with half the components
    read negated, and the set of those components."""
    net = random_network(RandomNetSpec(n=n, seed=seed))
    flipped = frozenset(random.Random(f"{seed}/negated").sample(range(n), n // 2))
    var = lambda k: Not(Var(k)) if k in flipped else Var(k)
    lines = []
    for j, (name, rule) in enumerate(net.components()):
        rule = fold(rule, var, Const, Not, And, Or)
        lines.append(f"{name}, {format_expr(Not(rule) if j in flipped else rule, net.names)}\n")
    return net, parse_bnet("".join(lines)), flipped


def _flip(s, flipped):
    return "".join(c.translate(_FLIP) if k in flipped else c for k, c in enumerate(s))


@pytest.mark.parametrize("n,seed,semantics", [
    (n, seed, semantics) for n, seed in NETS
    for semantics in ("sync", "async", "mp") + (("general",) if n == 6 else ())
])
def test_reach_verdicts_and_witnesses_survive_negation(n, seed, semantics):
    net, negated, flipped = _negated(n, seed)
    rng = random.Random(f"{n}/{seed}/{semantics}/negated")
    levels = "01id******" if semantics == "mp" else "01***"
    compared = 0
    for _ in range(QUERIES):
        start = "".join(rng.choice("01") for _ in range(n))
        target = "".join(rng.choice(levels) for _ in range(n))
        first = reaches(net, semantics, start, target, cap=CAP)
        second = reaches(negated, semantics, _flip(start, flipped), _flip(target, flipped), cap=CAP)
        if "cap-exceeded" not in (first.verdict, second.verdict):
            compared += 1
            witness = [_flip(s, flipped) for s in first.witness or ()]
            assert (first.verdict, witness) == (second.verdict, second.witness or []), (start, target)
    assert compared


@pytest.mark.parametrize("n,seed,semantics", [
    (n, seed, semantics) for n, seed in NETS
    for semantics in ("sync", "async") + (("general",) if n == 6 else ())
])
def test_attractors_survive_negation(n, seed, semantics):
    net, negated, flipped = _negated(n, seed)
    relabel = functools.partial(_flip, flipped=flipped)
    assert _attractor_sets(net, semantics, relabel) == _attractor_sets(negated, semantics, str)


@pytest.mark.parametrize("mode", ["exact", "syntactic"])
@pytest.mark.parametrize("n,seed", NETS)
def test_unfolded_rules_permute_on_valid_triplets(n, seed, mode):
    net, permuted, order = _pair(n, seed)
    unfolded = [unfold(m, UnfoldSpec(mode=mode)) for m in (net, permuted)]
    rng = random.Random(seed)
    for _ in range(8):
        triplets = [rng.choice(VALID_TRIPLETS) for _ in range(n)]
        states = ["".join(triplets), "".join(triplets[k] for k in order)]
        values = [
            {name: eval_rule(m, j, s) for j, name in enumerate(m.names)}
            for m, s in zip(unfolded, states)
        ]
        assert values[0] == values[1], triplets


def _run_end(step, start, rng):
    """Where one to three steps of a run from start end (a step with no
    successor ends it)."""
    state = start
    for _ in range(rng.randint(1, 3)):
        state = rng.choice(step(state) or [state])
    return state


@pytest.mark.parametrize("n,seed", NETS)
def test_reachability_grows_from_sync_and_async_to_general_to_mp(n, seed):
    """Per start, three targets: a random pattern, and the ends of a short
    sync run and of a short async run, which sync or async reach."""
    net, _, _ = _pair(n, seed)
    rng = random.Random(f"{n}/{seed}/inclusion")
    compared = 0
    for _ in range(QUERIES):
        start = "".join(rng.choice("01") for _ in range(n))
        targets = [
            "".join(rng.choice("01***") for _ in range(n)),
            _run_end(lambda s: [sync_successor(net, s)], start, rng),
            _run_end(lambda s: async_successors(net, s), start, rng),
        ]
        for target in targets:
            verdicts = {
                semantics: reaches(net, semantics, start, target, cap=CAP).verdict
                for semantics in ("sync", "async", "general", "mp")
            }
            if "cap-exceeded" in verdicts.values():
                continue
            compared += 1
            reached = {semantics for semantics, v in verdicts.items() if v == "reachable"}
            if reached & {"sync", "async"}:
                assert "general" in reached, (start, target, verdicts)
            if "general" in reached:
                assert "mp" in reached, (start, target, verdicts)
    assert compared
