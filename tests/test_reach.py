"""Fixed points, explicit graphs, reachability verdicts, attractors, DOT."""
import random
from collections import deque
from functools import partial
from itertools import product

import pytest

from mpunfold import (
    Attractor,
    CapExceeded,
    Edge,
    RandomNetSpec,
    ReachResult,
    UnfoldSpec,
    attractors,
    example_a,
    export_dot,
    fixed_points,
    general_successors,
    infer_regulatory_graph,
    mp_boolean_projection,
    mp_successors,
    parse_bnet,
    random_network,
    reachable_set,
    reaches,
    signal_model,
    sync_successor,
    unfold,
)
from mpunfold import reach
from mpunfold.bdd import DiagramManager
from mpunfold.network import _ImageTable
from mpunfold.oracle import naive_mp_successors
from mpunfold.reach import _condense
from mpunfold.semantics import SEMANTICS as semantics_registry
from mpunfold.semantics import _async, _general, _mp, is_boolean_state
from shapes import gray_counter


# --- fixed points ------------------------------------------------------------

def test_fixed_points_example_a():
    assert fixed_points(example_a()) == ["001", "110"]


def test_fixed_points_unfolded_example_a():
    ext = unfold(example_a(), UnfoldSpec(mode="exact"))
    assert fixed_points(ext) == ["000000111", "111111000"]


def test_fixed_points_degenerate():
    assert fixed_points(parse_bnet("a, a\n")) == ["0", "1"]
    assert fixed_points(parse_bnet("a, !a\n")) == []


def _brute_fixed_points(net):
    states = ("".join(bits) for bits in product("01", repeat=net.n))
    return [s for s in states if sync_successor(net, s) == s]


def _reversed_support_network(n, seed):
    """Rule j reads only components at or below n - 1 - j, so the rules
    are declared in the reverse order of their deepest variables."""
    rng = random.Random(seed)
    lines = []
    for j in range(n):
        deepest = max(n - 1 - j, 0)
        read = rng.sample(range(deepest + 1), min(deepest + 1, 3))
        lits = [("!" if rng.random() < 0.4 else "") + f"c{k}" for k in read]
        body = " | ".join(" & ".join(lits[i : i + 2]) for i in range(0, len(lits), 2))
        lines.append(f"c{j}, {body}")
    return parse_bnet("\n".join(lines) + "\n")


@pytest.mark.parametrize("n", range(1, 11))
def test_fixed_points_match_brute_force(n):
    nets = [random_network(RandomNetSpec(n=n, seed=seed)) for seed in range(3)]
    nets += [_reversed_support_network(n, seed) for seed in range(3)]
    for net in nets:
        assert fixed_points(net) == _brute_fixed_points(net)


# --- reachable sets ----------------------------------------------------------

def test_reachable_set_async_example_a():
    stg = reachable_set(example_a(), "async", "111")
    assert stg.nodes == ["111", "011", "110", "001"]
    assert stg.edges == [
        Edge("111", "011"),
        Edge("111", "110"),
        Edge("011", "001"),
    ]
    assert stg.roots == ("111",)
    assert stg.semantics == "async"
    assert not stg.cap_exceeded


def test_reachable_set_sync_chain_with_self_loop():
    stg = reachable_set(example_a(), "sync", "111")
    assert stg.nodes == ["111", "010", "001"]
    assert stg.edges == [
        Edge("111", "010"),
        Edge("010", "001"),
        Edge("001", "001"),
    ]


def test_reachable_set_is_deterministic():
    a = reachable_set(example_a(), "general", "111")
    b = reachable_set(example_a(), "general", "111")
    assert a == b
    assert export_dot(a) == export_dot(b)


def test_reachable_set_cap():
    stg = reachable_set(example_a(), "async", "111", cap=2)
    assert stg.cap_exceeded
    assert len(stg.nodes) == 2
    with pytest.raises(ValueError, match="cap must be a positive integer"):
        reachable_set(example_a(), "async", "111", cap=0)


def test_reachable_set_validates_inputs():
    net = example_a()
    with pytest.raises(ValueError, match="semantics"):
        reachable_set(net, "fast", "111")
    with pytest.raises(ValueError, match="Boolean state"):
        reachable_set(net, "async", "11i")
    stg = reachable_set(net, "mp", "11d", cap=300)
    assert "11d" in stg.nodes


@pytest.mark.parametrize(
    "explore,args",
    [
        (reachable_set, ("fast", "11i")),
        (reaches, ("fast", "0i1", "***")),
        (reaches, ("MP", "111", "1*d")),
    ],
    ids=["reachable_set-fast", "reaches-fast", "reaches-MP"],
)
def test_semantics_name_is_checked_before_states(explore, args):
    expected = (
        r"semantics must be one of \('sync', 'async', 'general', 'mp'\), "
        f"got '{args[0]}'"
    )
    with pytest.raises(ValueError, match=expected):
        explore(example_a(), *args)


# --- reaches -----------------------------------------------------------------

def test_reaches_start_match_short_circuits():
    r = reaches(example_a(), "async", "001", "0*1")
    assert r == ReachResult("reachable", 1, ["001"])


def test_reaches_mp_witness_is_shortest_and_valid():
    net = example_a()
    r = reaches(net, "mp", "111", "001")
    assert r.verdict == "reachable"
    assert r.witness[0] == "111" and r.witness[-1] == "001"
    # both x1 and x2 must pass through d, two moves each: five states
    assert len(r.witness) == 5
    for x, y in zip(r.witness, r.witness[1:]):
        assert y in mp_successors(net, x)
    assert reaches(net, "mp", "111", "001") == r  # deterministic


def test_reaches_unreachable():
    r = reaches(example_a(), "async", "110", "001")
    assert r.verdict == "unreachable"
    assert r.states_explored == 1
    assert r.witness is None


def test_reaches_cap_is_reported_not_misread():
    # 001 is async-reachable from 111; a tiny cap must say cap-exceeded,
    # never unreachable
    r = reaches(example_a(), "async", "111", "001", cap=2)
    assert r.verdict == "cap-exceeded"
    assert r.witness is None


def test_reaches_pattern_alphabet_depends_on_semantics():
    net = example_a()
    with pytest.raises(ValueError, match=r"over 01\*"):
        reaches(net, "async", "000", "0i*")
    r = reaches(net, "mp", "000", "0i*")
    assert r.verdict == "unreachable"  # x2 can never rise from 000
    assert reaches(net, "mp", "000", "**i").verdict == "reachable"


# --- reaches past its search budget: the sets of states --------------------------

_ALPHABETS = {"mp": ("0id1", "0id1*"), "async": ("01", "01*")}


def _bfs_alone(monkeypatch, queries):
    """reaches on each query with a budget no search passes: _bfs alone."""
    with monkeypatch.context() as patch:
        patch.setattr(reach, "_search_budget", lambda states: 1 << 62)
        return [reaches(*query) for query in queries]


@pytest.mark.parametrize("n", range(1, 7))
def test_set_hand_off_agrees_with_bfs_alone(n, monkeypatch):
    """With the hand-off after 0, 2 or 7 states of the BFS, reaches gives
    _bfs's verdict, states_explored and witness under mp and async, starts
    and targets with i, d and *, caps from 5 to 10^6.  From n = 3 the sets
    settle unreachable and cap-exceeded targets, and the BFS goes on to
    reachable and cap-exceeded ones."""
    rng = random.Random(n)
    queries = []
    for regulators, seed, semantics in product((1, 2, 3), range(2), _ALPHABETS):
        net = random_network(RandomNetSpec(n=n, seed=seed, max_regulators=regulators))
        states, patterns = _ALPHABETS[semantics]
        for _ in range(10):
            start, target = ("".join(rng.choices(abc, k=n)) for abc in (states, patterns))
            queries += [(net, semantics, start, target, cap) for cap in (5, 40, 10**6)]
    alone = _bfs_alone(monkeypatch, queries)
    settled = []  # per closure taken: whether it holds no target
    closure = reach._set_closure

    def spy(*args):
        reached, goal = closure(*args)
        settled.append(not reached & goal)
        return reached, goal

    monkeypatch.setattr(reach, "_set_closure", spy)
    ways = set()  # (whether the sets settled the query, its verdict)
    for budget in (0, 2, 7):
        monkeypatch.setattr(reach, "_search_budget", lambda states: budget)
        for query, expected in zip(queries, alone):
            settled.clear()
            assert reaches(*query) == expected, (budget, query[1:])
            ways.update((way, expected.verdict) for way in settled)
    if n >= 3:
        assert ways == {(True, "unreachable"), (True, "cap-exceeded"),
                        (False, "reachable"), (False, "cap-exceeded")}


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_set_hand_off_on_the_gray_counter(n, monkeypatch):
    """One async cycle through every state: from 0...0 the last code, 10...0,
    is 2^n - 1 steps away, far past the budget, and 0...01 one step.  The
    answers are _bfs's alone under async and, up to n = 6, under mp.  At
    n = 8 every async closure runs past its budget of sweeps, and the BFS
    answers."""
    net = parse_bnet(gray_counter(n))
    zeros, last, first = "0" * n, "1" + "0" * (n - 1), "0" * (n - 1) + "1"
    caps = (5, (1 << n) - 1, 1 << n, 10**6)
    queries = [(net, "async", zeros, t, cap) for t in (last, first) for cap in caps]
    if n <= 6:
        targets = (last, "i" * n, "d" + "*" * (n - 1), "1" * n)
        queries += [(net, "mp", zeros, t, cap) for t in targets for cap in caps]
    alone = _bfs_alone(monkeypatch, queries)
    over = []  # per closure taken: its semantics, and whether it ran past the budget
    closure = reach._set_closure

    def spy(net, semantics, *args):
        try:
            found = closure(net, semantics, *args)
        except reach._OverBudget:
            over.append((semantics, True))
            raise
        over.append((semantics, False))
        return found

    monkeypatch.setattr(reach, "_set_closure", spy)
    answers = [reaches(*query) for query in queries]
    assert answers == alone
    assert answers[2] == ReachResult("reachable", 1 << n, answers[2].witness)
    assert len(answers[2].witness) == 1 << n
    if n == 8:
        assert set(over) == {("async", True)}


@pytest.mark.parametrize("semantics,n", [("async", 20), ("mp", 10)])
def test_a_large_closure_is_settled_on_sets(semantics, n, monkeypatch):
    """2^20 states, the most that sets of states are built for: y stays 0,
    16 or 8 components flip freely, so from 0...0 the closure has 2^16
    states and holds no state with y = 1.  The BFS steps its budget's
    states (1/64 of the space) and no more; the closure counts them all."""
    free = 16 if semantics == "async" else 8
    names = [f"x{k}" for k in range(n - 1)]
    net = parse_bnet("y, y\n" + "".join(
        f"{x}, {'!' if k < free else ''}{x}\n" for k, x in enumerate(names)
    ))
    stepped = []
    step = semantics_registry[semantics]
    monkeypatch.setitem(semantics_registry, semantics, lambda ev, s: stepped.append(s) or step(ev, s))
    answer = reaches(net, semantics, "0" * n, "1" + "*" * (n - 1))
    assert answer == ReachResult("unreachable", 1 << 16)
    assert len(stepped) <= 1 << 14 == reach._search_budget(1 << 20)


def _refuse(*args, **kwargs):
    raise AssertionError("not expected here")


@pytest.mark.parametrize("semantics,n,free", [("async", 6, 5), ("mp", 3, 2), ("mp", 5, 2)])
def test_no_sets_for_a_closure_under_64_states(semantics, n, free, monkeypatch):
    """The search budget is at least 64 states, so a closure smaller than
    that ends in the BFS, however small a share of the space it leaves to
    the sets: y stays 0 and free components flip, 32 states under async
    and 16 under mp, in spaces of 64, 64 and 1024 states."""
    monkeypatch.setattr(reach, "_set_closure", _refuse)
    net = parse_bnet("y, y\n" + "".join(f"x{k}, !x{k}\n" for k in range(free))
                     + "".join(f"z{k}, z{k}\n" for k in range(n - 1 - free)))
    size = 1 << (free if semantics == "async" else 2 * free)
    assert reach._search_budget(1 << (n if semantics == "async" else 2 * n)) == 64
    assert reaches(net, semantics, "0" * n, "1" + "*" * (n - 1)) == ReachResult("unreachable", size)


@pytest.mark.parametrize("semantics,n", [("async", 21), ("mp", 11)])
def test_no_sets_past_2_to_the_20_states(semantics, n, monkeypatch):
    """One component more and the BFS alone answers, to the cap: no set of
    states is built, no truth table made."""
    monkeypatch.setattr(reach, "_set_closure", _refuse)
    monkeypatch.setattr(DiagramManager, "_truth_tables", _refuse)
    net = parse_bnet("y, y\n" + "".join(f"x{k}, !x{k}\n" for k in range(5))
                     + "".join(f"z{k}, z{k}\n" for k in range(n - 6)))
    size = 1 << (5 if semantics == "async" else 10)
    assert reaches(net, semantics, "0" * n, "1" + "*" * (n - 1)) == ReachResult("unreachable", size)
    assert reaches(net, semantics, "0" * n, "1" + "*" * (n - 1), cap=7) == ReachResult("cap-exceeded", 7)


@pytest.mark.parametrize("n", range(1, 9))
def test_set_moves_take_each_state_to_its_successors(n):
    """The moves on sets applied to each one-state set {x}: their union is
    the set of x's successors by the step on single states, under async on
    all 2^n states and, up to n = 4, under mp on all 4^n states."""
    from mpunfold.bdd import _var_masks

    for regulators, seed in product((1, 2, 3), range(2)):
        net = random_network(RandomNetSpec(n=n, seed=seed, max_regulators=regulators))
        cases = [(_async, n, reach._async_moves(net.manager._truth_tables(net.nodes)))]
        if n <= 4:
            cases.append((_mp, 2 * n, reach._mp_moves(net.manager, net.nodes, _var_masks(2 * n))))
        for step, width, moves in cases:
            for x in range(1 << width):
                taken = 0
                for bit, down, up in moves:
                    taken |= (1 << x & down) >> bit | (1 << x & up) << bit
                expected = sum(1 << t for t in set(step(net.evaluator, x)))
                assert taken == expected, (step.__name__, regulators, seed, x)


# --- attractors --------------------------------------------------------------

def test_attractors_example_a():
    expected = [
        Attractor(states=("001",), kind="stable-state"),
        Attractor(states=("110",), kind="stable-state"),
    ]
    for semantics in ("sync", "async", "general"):
        assert attractors(example_a(), semantics) == expected


def test_attractors_cycle():
    net = parse_bnet("a, !a\n")
    for semantics in ("sync", "async"):
        out = attractors(net, semantics)
        assert out == [Attractor(states=("0", "1"), kind="complex")]


def test_attractors_sorted_stable_first():
    # b holds, a oscillates while b = 0 and freezes at 1 when b = 1
    net = parse_bnet("a, !a | b\nb, b\n")
    out = attractors(net, "async")
    assert [a.kind for a in out] == ["stable-state", "complex"]
    assert out[0].states == ("11",)
    assert out[1].states == ("00", "10")


def test_attractors_roots_restrict_the_search():
    net = example_a()
    assert attractors(net, "async", roots=["001"]) == [
        Attractor(states=("001",), kind="stable-state")
    ]
    assert len(attractors(net, "async", roots=["111"])) == 2


def test_attractors_cap_and_validation():
    net = example_a()
    with pytest.raises(CapExceeded, match="supply roots"):
        attractors(net, "async", cap=4)
    with pytest.raises(CapExceeded, match="closure of the root set"):
        attractors(net, "async", cap=2, roots=["111"])
    with pytest.raises(ValueError, match="sync, async or general"):
        attractors(net, "mp")


# --- whole-space async attractors on sets of states ----------------------------

def _terminal_by_condense(net):
    """The terminal components of the whole async state graph, by _condense
    over every state, each as a tuple of integer states in increasing order."""
    ev = _ImageTable(net.manager, net.nodes)
    components, leaves, _, _ = _condense(partial(_async, ev), range(1 << net.n), 1 << net.n)
    return sorted(tuple(sorted(c)) for c, leaving in zip(components, leaves) if not leaving)


@pytest.mark.parametrize("n", range(1, 11))
def test_attractor_sets_agree_with_condense(n, monkeypatch):
    """Given sweeps for four closures of 2^n states each (every sweep but a
    closure's last adds a state), which these nets never need, the sets find
    _condense's terminal components: the fixed points first, each
    attractor's states in increasing order."""
    monkeypatch.setattr(reach, "_sweep_budget", lambda n, edges: 4 << n)
    nets = [
        random_network(RandomNetSpec(n=n, seed=seed, max_regulators=regulators))
        for seed in range(4) for regulators in (1, 2, 3)
    ]
    if n <= 8:  # one long cycle, which falls back when budgeted
        nets.append(parse_bnet(gray_counter(n)))
    for net in nets:
        found = reach._async_attractor_sets(net.manager._truth_tables(net.nodes))
        assert all(list(c) == sorted(c) for c in found)
        sizes = [len(c) for c in found]
        assert sizes == sorted(sizes, key=lambda k: k > 1)
        assert sorted(map(tuple, found)) == _terminal_by_condense(net)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_gray_counter_falls_back_to_its_one_cycle(n):
    """A cycle through all 2^n states takes more sweeps than the budget
    allows, so _condense answers: one complex attractor of every state."""
    net = parse_bnet(gray_counter(n))
    with pytest.raises(reach._OverBudget):
        reach._async_attractor_sets(net.manager._truth_tables(net.nodes))
    every = tuple(format(s, f"0{n}b") for s in range(1 << n))
    assert attractors(net, "async") == [Attractor(states=every, kind="complex")]


# --- whole-space sync attractors: rounds toward the limit set of f -------------

def _cycles_from_every_state(image, size):
    """The cycles of image that _cycles finds from all size states, each as
    a tuple of states in increasing order, sorted."""
    cycles, exceeded = reach._cycles(image, range(size), size)
    assert not exceeded
    return sorted(tuple(sorted(c)) for c in cycles)


def _rotation(n):
    """Each component copies the next one, cyclically: f permutes the states."""
    return "".join(f"x{j + 1}, x{(j + 1) % n + 1}\n" for j in range(n))


def _saturating_counter(n):
    """f(s) = s + 1, and 1...1 stays: one transient through every state."""
    names = [f"x{j + 1}" for j in range(n)]
    full = " & ".join(names)
    lines = []
    for j, x in enumerate(names):
        carry = " & ".join(names[j + 1 :])  # every less significant bit is 1
        flip = f"({x} & !({carry})) | (!{x} & {carry})" if carry else f"!{x}"
        lines.append(f"{x}, ({full}) | {flip}\n")
    return "".join(lines)


def _isolated_ones_die(n):
    """A 1 stays iff a cyclic neighbour is 1: many fixed points, short transients."""
    return "".join(
        f"x{j + 1}, x{j + 1} & (x{(j - 1) % n + 1} | x{(j + 1) % n + 1})\n" for j in range(n)
    )


@pytest.mark.parametrize("n", range(1, 13))
def test_sync_attractors_agree_with_cycles_from_every_state(n):
    """Whole-space sync attractors walk only the survivors of _limit_set's
    rounds, and find the cycles that _cycles finds from all 2^n states."""
    nets = [
        random_network(RandomNetSpec(n=n, seed=seed, max_regulators=regulators))
        for seed in range(4) for regulators in (1, 2, 3)
    ]
    nets += [parse_bnet(shape(n)) for shape in (_rotation, _saturating_counter, _isolated_ones_die)]
    for net in nets:
        image = _ImageTable(net.manager, net.nodes).image
        found = sorted(tuple(int(s, 2) for s in a.states) for a in attractors(net, "sync"))
        assert found == _cycles_from_every_state(image, 1 << n)


def _hand_made_maps(n):
    """Maps on the states below 2^n, each with the survivors the rounds
    leave: a permutation (every state on a cycle) keeps all after one
    round; a saturating counter loses one state a round, so on more than 8
    states its first round is its last, and on 8 or fewer only its top
    state survives; the multiples of 5 and the top state are fixed points
    that take every other state in one step; halving halves the set each
    round, down to 0."""
    size = 1 << n
    top = size - 1
    permutation = list(range(size))
    random.Random(n).shuffle(permutation)
    fives = [s if s == top else s - s % 5 for s in range(size)]
    return {
        "permutation": (permutation, list(range(size))),
        "saturating-counter": (
            [min(s + 1, top) for s in range(size)],
            list(range(1, size)) if size > 8 else [top],
        ),
        "fixed-points": (fives, sorted({*range(0, size, 5), top})),
        "halving": ([s >> 1 for s in range(size)], [0]),
    }


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
@pytest.mark.parametrize("name", ["permutation", "saturating-counter", "fixed-points", "halving"])
def test_limit_set_keeps_every_cycle_of_hand_made_maps(name, n):
    table, survivors = _hand_made_maps(n)[name]
    image, size = table.__getitem__, 1 << n
    kept = reach._limit_set(image, range(size))
    assert kept == survivors
    assert set(map(image, kept)) <= set(kept)  # closed under image
    cycles, exceeded = reach._cycles(image, kept, size)
    assert not exceeded
    assert sorted(tuple(sorted(c)) for c in cycles) == _cycles_from_every_state(image, size)


@pytest.mark.parametrize(
    "name,calls",
    [("permutation", 2 << 10), ("saturating-counter", (2 << 10) - 1)],
    ids=["permutation", "saturating-counter"],
)
def test_rounds_stop_once_few_states_leave(name, calls):
    """A round that removes less than an eighth of the set is the last: on
    a permutation, where no state leaves, and on a saturating counter,
    where one does, image is called once per state by the one round and
    once per survivor by the walk."""
    table, _ = _hand_made_maps(10)[name]
    made = 0

    def image(s):
        nonlocal made
        made += 1
        return table[s]

    reach._cycles(image, reach._limit_set(image, range(1 << 10)), 1 << 10)
    assert made == calls


# --- strongly connected components ---------------------------------------------

def _random_graph(seed):
    """A seeded successor map on 1-24 states, with self-loops, repeated
    successors and states without any, and a list of starts that may
    repeat or reach each other."""
    import random

    rng = random.Random(seed)
    size = rng.randint(1, 24)
    succ_of = {
        s: [rng.randrange(size) for _ in range(rng.choice((0, 1, 1, 2, 2, 3, 5)))]
        for s in range(size)
    }
    starts = [rng.randrange(size) for _ in range(rng.randint(1, 5))]
    return succ_of, starts


def _closure(succ_of, starts):
    seen, todo = set(starts), list(starts)
    while todo:
        for t in succ_of[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


@pytest.mark.parametrize("first", range(0, 200, 25))
def test_condense_matches_brute_force(first):
    for seed in range(first, first + 25):
        _check_condense(seed)


def _check_condense(seed):
    from mpunfold.reach import _bfs, _condense

    succ_of, starts = _random_graph(seed)
    closure = _closure(succ_of, starts)
    reach = {s: _closure(succ_of, [s]) for s in closure}
    tag = lambda s: 1 << s % 7 if s % 3 else 0
    steps = []

    def succ(s):
        steps.append(s)
        return succ_of[s]

    components, leaves, masks, exceeded = _condense(succ, starts, 10**6, tag)
    assert not exceeded
    assert sorted(steps) == sorted(closure)  # each state stepped once
    # the components are the classes of mutual reachability
    assert sorted(tuple(sorted(c)) for c in components) == sorted(
        {tuple(sorted(t for t in reach[s] if s in reach[t])) for s in closure}
    )
    # each comes after every component it reaches
    heads = [c[0] for c in components]
    for i, s in enumerate(heads):
        assert not any(t in reach[s] for t in heads[i + 1 :])
    for component, leaving, mask in zip(components, leaves, masks):
        assert leaving == any(
            t not in component for s in component for t in succ_of[s]
        )
        want = 0
        for t in reach[component[0]]:
            want |= tag(t)
        assert mask == want
    # without tag every mask is 0
    assert _condense(succ_of.__getitem__, starts, 10**6)[2] == [0] * len(components)
    # the cap counts as _bfs's does
    for cap in range(1, len(closure) + 2):
        assert _condense(succ_of.__getitem__, starts, cap)[3] == (
            _bfs(succ_of.__getitem__, starts, cap)[2]
        ), cap


# --- boolean projection of mp ------------------------------------------------

def _oracle_projection_targets(net, x):
    """Boolean states mp-reachable from x through non-Boolean states only,
    recomputed with the naive successor oracle."""
    targets = set()
    seen = set()
    frontier = deque(naive_mp_successors(net, x))
    while frontier:
        t = frontier.popleft()
        if t in seen:
            continue
        seen.add(t)
        if is_boolean_state(t):
            targets.add(t)
        else:
            frontier.extend(naive_mp_successors(net, t))
    return targets


@pytest.mark.parametrize(
    "net,start", [(example_a(), "111"), (signal_model(), "1000")]
)
def test_projection_edges_match_oracle(net, start):
    proj = mp_boolean_projection(net, start)
    assert not proj.cap_exceeded
    assert proj.semantics == "mp-projection"
    for x in proj.nodes:
        have = {e.target for e in proj.edges if e.source == x}
        assert have == _oracle_projection_targets(net, x), x
    for e in proj.edges:
        expected = "solid" if e.target in general_successors(net, e.source) else "dotted"
        assert e.tag == expected, e


def test_projection_from_signal_start_reaches_transient_target():
    proj = mp_boolean_projection(signal_model(), "1000")
    assert any(node.endswith("1") for node in proj.nodes)
    assert any(e.tag == "dotted" for e in proj.edges)


def test_projection_of_fixed_point_is_a_single_node():
    proj = mp_boolean_projection(example_a(), "001")
    assert proj.nodes == ["001"]
    assert proj.edges == []


def test_projection_cap_counts_transient_states():
    with pytest.raises(ValueError):
        mp_boolean_projection(example_a(), "11i")
    proj = mp_boolean_projection(signal_model(), "1000", cap=3)
    assert proj.cap_exceeded


def _two_queue_projection(net, start, cap):
    """mp_boolean_projection as first written, kept as a reference: an outer
    queue of Boolean nodes and, per node, an inner queue that marks states
    when it pops them.  Also returns the count of distinct mp states
    explored after each Boolean node."""
    ev = net.evaluator
    n = net.n
    free = ~(-1 << n)
    x0 = ev.encode(start) << n
    explored, bool_nodes, bool_seen = {x0}, [x0], {x0}
    edges, sizes = [], []
    queue = deque([x0])
    exceeded = False
    while queue and not exceeded:
        x = queue.popleft()
        one_step = set(_general(ev, x >> n))
        inner_seen, targets = set(), []
        frontier = deque(_mp(ev, x))
        while frontier:
            t = frontier.popleft()
            if t in inner_seen:
                continue
            inner_seen.add(t)
            if t not in explored:
                if len(explored) >= cap:
                    exceeded = True
                    break
                explored.add(t)
            if t & free:
                frontier.extend(_mp(ev, t))
            elif t not in targets:
                targets.append(t)
        if exceeded:
            break
        sizes.append(len(explored))
        for t in targets:
            edges.append((x, t, "solid" if t >> n in one_step else "dotted"))
            if t not in bool_seen:
                bool_seen.add(t)
                bool_nodes.append(t)
                queue.append(t)
    name = {x: ev.decode(x >> n) for x in bool_nodes}
    tagged = [(name[x], name[t], tag) for x, t, tag in edges]
    return [name[x] for x in bool_nodes], tagged, exceeded, sizes


_PROJECTION_CASES = [
    pytest.param(example_a, "111", id="example_a"),
    pytest.param(signal_model, "1000", id="signal_model"),
] + [
    pytest.param(
        lambda n=n, seed=seed: random_network(RandomNetSpec(n=n, seed=seed)),
        "0" * n,
        id=f"random-{n}-{seed}",
    )
    for n in range(1, 7)
    for seed in range(4)
]


@pytest.mark.parametrize("model,start", _PROJECTION_CASES)
def test_capped_projection_matches_two_queue_reference(model, start):
    net = model()
    *_, sizes = _two_queue_projection(net, start, 10**6)
    total = sizes[-1]
    if total <= 300:
        caps = range(1, total + 2)
    else:
        # every cap would take half a minute here; the outcome only changes
        # where a Boolean node's search first passes the cap, so take the
        # caps on both sides of each such step, and a stride between them
        steps = {c for size in sizes for c in (size - 1, size)}
        caps = sorted(steps | set(range(1, total + 2, 97)) | {total + 1})
    for cap in caps:
        proj = mp_boolean_projection(net, start, cap=cap)
        tagged = [(e.source, e.target, e.tag) for e in proj.edges]
        want = _two_queue_projection(net, start, cap)[:3]
        assert (proj.nodes, tagged, proj.cap_exceeded) == want, cap
    assert not proj.cap_exceeded


def test_semantics_inclusion_chain():
    # async-reachable Boolean states are general-reachable are mp-reachable
    for net, start in ((example_a(), "111"), (signal_model(), "1000")):
        a = set(reachable_set(net, "async", start).nodes)
        g = set(reachable_set(net, "general", start).nodes)
        p = set(mp_boolean_projection(net, start).nodes)
        assert a <= g <= p


# --- DOT export --------------------------------------------------------------

def test_export_dot_regulatory_graph_golden():
    dot = export_dot(infer_regulatory_graph(example_a()))
    assert dot == (
        "digraph regulatory_graph {\n"
        '  "x1";\n'
        '  "x2";\n'
        '  "x3";\n'
        '  "x1" -> "x1" [color=green];\n'
        '  "x3" -> "x1" [color=red];\n'
        '  "x1" -> "x2" [color=green];\n'
        '  "x1" -> "x3" [color=red];\n'
        "}\n"
    )


def test_export_dot_stg_golden():
    dot = export_dot(reachable_set(example_a(), "sync", "111"))
    assert dot == (
        "digraph stg {\n"
        "  node [shape=box];\n"
        '  "111";\n'
        '  "010";\n'
        '  "001";\n'
        '  "111" -> "010";\n'
        '  "010" -> "001";\n'
        '  "001" -> "001";\n'
        "}\n"
    )


def test_export_dot_projection_tags_styles():
    dot = export_dot(mp_boolean_projection(signal_model(), "1000"))
    assert "[style=solid]" in dot
    assert "[style=dotted]" in dot


def test_export_dot_rejects_other_types():
    with pytest.raises(TypeError):
        export_dot({"nodes": []})
