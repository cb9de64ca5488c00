"""Rules evaluated as diagrams on integer states, against the tree evaluator.

The successor functions and the explorers run on a network's compiled
RuleEvaluator.  Here every Boolean state of small random networks (all-zero
states and leading zeros included) is compared with the oracle's tree
evaluator on net.rules, every most permissive state with a string reference
built on brute force over gamma(x), and every explorer with a plain
breadth-first search over state strings and the public successor functions.
The whole-space image table (_ImageTable) is compared with the diagram walk
it stands in for.
"""
import random
from collections import deque
from itertools import product

import pytest

from mpunfold import (
    CapExceeded,
    RandomNetSpec,
    async_successors,
    attractors,
    check_equivalence,
    eval_rule,
    general_successors,
    infer_regulatory_graph,
    mp_boolean_projection,
    mp_successors,
    parse_bnet,
    random_network,
    reachable_set,
    reaches,
    sync_successor,
)
from mpunfold import reach, semantics
from mpunfold.bdd import TRUE, DiagramManager
from mpunfold.network import RuleEvaluator, _ImageTable
from mpunfold.oracle import naive_mp_successors
from mpunfold.reach import _space
from mpunfold.unfold import UnfoldSpec, _Unfolding
from shapes import gray_counter
from tree_eval import _eval

NETS = [(n, seed) for n in range(1, 7) for seed in range(3)]
MP_NETS = [(n, seed) for n in range(1, 5) for seed in range(3)]
BOOLEAN = ("sync", "async", "general")


def _net(n, seed):
    return random_network(RandomNetSpec(n=n, seed=seed))


def _states(n, alphabet="01"):
    return ["".join(c) for c in product(alphabet, repeat=n)]


def _pairs(stg):
    assert all(e.tag is None for e in stg.edges)
    return [(e.source, e.target) for e in stg.edges]


# --- reference semantics: the tree evaluator on state strings ----------------

def _tree_image(net, s):
    bits = [int(c) for c in s]
    return "".join(str(_eval(rule, bits)) for rule in net.rules)


def _tree_async(net, s):
    image = _tree_image(net, s)
    return [s[:j] + image[j] + s[j + 1 :] for j in range(net.n) if image[j] != s[j]]


def _tree_general(net, s):
    image = _tree_image(net, s)
    unstable = [j for j in range(net.n) if image[j] != s[j]]
    out = []
    for mask in range(1, 1 << len(unstable)):
        chars = list(s)
        for t, j in enumerate(unstable):
            if mask >> t & 1:
                chars[j] = image[j]
        out.append("".join(chars))
    return out


def test_evaluator_refuses_a_manager_of_another_width():
    m = DiagramManager(3)
    with pytest.raises(ValueError, match="manager has 3 variables, the network 2"):
        RuleEvaluator(m, [m.var_node(0), m.var_node(1)])


@pytest.mark.parametrize("n,seed", NETS)
def test_successors_match_tree_evaluation(n, seed):
    net = _net(n, seed)
    for s in _states(n):
        bits = [int(c) for c in s]
        for j, rule in enumerate(net.rules):
            assert eval_rule(net, j, s) == _eval(rule, bits)
        assert sync_successor(net, s) == _tree_image(net, s)
        assert async_successors(net, s) == _tree_async(net, s)
        assert general_successors(net, s) == _tree_general(net, s)


def test_leading_zero_components():
    # component 0 is the most significant bit: zeros in front must survive
    net = parse_bnet("a, a\nb, a\nc, !c\nd, c & !b\n")
    assert sync_successor(net, "0000") == "0010"
    assert async_successors(net, "0000") == ["0010"]
    assert general_successors(net, "0001") == ["0011", "0000", "0010"]
    assert eval_rule(net, 3, "0010") == 1
    result = reaches(net, "async", "0000", "0011")
    assert result.witness == ["0000", "0010", "0011"]
    stg = reachable_set(net, "sync", "0000")
    assert stg.nodes == ["0000", "0010", "0001"]
    assert _pairs(stg) == [("0000", "0010"), ("0010", "0001"), ("0001", "0010")]


# --- most permissive states as integers ---------------------------------------

def _gamma(x):
    """Every Boolean reading of a most permissive state string."""
    return ["".join(t) for t in product(*("01" if c in "id" else c for c in x))]


def _string_mp(net, x):
    """mp_successors over state strings, by brute force over gamma(x)."""
    values = [{_eval(rule, [int(c) for c in y]) for y in _gamma(x)} for rule in net.rules]
    out = []
    for j, c in enumerate(x):
        if c in "0d" and 1 in values[j]:
            out.append(x[:j] + "i" + x[j + 1 :])
        elif c in "1i" and 0 in values[j]:
            out.append(x[:j] + "d" + x[j + 1 :])
        if c in "id":
            out.append(x[:j] + "01"[c == "i"] + x[j + 1 :])
    return out


@pytest.mark.parametrize("n,seed", MP_NETS)
def test_mp_encoding_round_trips(n, seed):
    ev = _net(n, seed).evaluator
    codes = set()
    for x in _states(n, "0id1"):
        code = ev.mp_encode(x)
        assert ev.mp_decode(code) == x
        for j, c in enumerate(x):  # component 0 is the top bit of each half
            bit = 1 << (n - 1 - j)
            assert (bool(code >> n & bit), bool(code & bit)) == (c in "1i", c in "id")
        codes.add(code)
    assert codes == set(range(4**n))


@pytest.mark.parametrize("n,seed", MP_NETS)
def test_mp_step_matches_string_reference(n, seed):
    net = _net(n, seed)
    ev = net.evaluator
    step = semantics.SEMANTICS["mp"]
    for x in _states(n, "0id1"):
        want = _string_mp(net, x)
        assert [ev.mp_decode(t) for t in step(ev, ev.mp_encode(x))] == want
        assert mp_successors(net, x) == want
        assert set(want) == naive_mp_successors(net, x)


@pytest.mark.parametrize("n,seed", [(n, seed) for n in range(1, 4) for seed in range(3)])
def test_mp_pattern_matcher(n, seed):
    space = _space(_net(n, seed), "mp")
    states = _states(n, "0id1")
    for pattern in _states(n, "01id*"):
        match = space.match(pattern)
        for x in states:
            assert match(space.encode(x)) == _matches(x, pattern), (pattern, x)


@pytest.mark.parametrize("n,seed", [(3, 0), (4, 1), (6, 1)])
def test_mp_exploration_builds_no_diagram_nodes(n, seed):
    net = _net(n, seed)
    net.evaluator  # reading the rules' nodes builds their diagrams
    before = len(net.manager._triples)
    for x in _states(n):
        reaches(net, "mp", x, "1" * n)
    mp_boolean_projection(net, "0" * n)
    assert len(net.manager._triples) == before


def _refuse(*args, **kwargs):
    raise AssertionError("not expected here")


@pytest.mark.parametrize("n,seed", [(1, 0), (4, 1), (6, 2)])
def test_evaluators_walk_no_diagram_when_built(n, seed, monkeypatch):
    net = _net(n, seed)
    net.nodes  # building a random network's diagrams is not the evaluator's
    tables = net.manager._truth_tables(net.nodes)
    walk = RuleEvaluator(net.manager, net.nodes)
    monkeypatch.setattr(DiagramManager, "postorder", _refuse)
    monkeypatch.setattr(DiagramManager, "support", _refuse)
    net.evaluator
    # the truth tables are an _ImageTable's one pass over the diagrams
    monkeypatch.setattr(DiagramManager, "_truth_tables", lambda m, nodes: tables)
    table = _ImageTable(net.manager, net.nodes)
    states = range(1 << n)
    assert [table.image(s) for s in states] == [walk.image(s) for s in states]


@pytest.mark.parametrize("n,seed", [(3, 0), (4, 1)])
def test_boolean_questions_build_no_mp_rows(n, seed, monkeypatch):
    net = _net(n, seed)
    # refused to every evaluator: the image tables of attractors and of
    # check_equivalence included
    monkeypatch.setattr(RuleEvaluator, "_mp_rows", property(_refuse))
    for name in BOOLEAN:
        reaches(net, name, "0" * n, "1" * n)
        attractors(net, name)
        attractors(net, name, roots=["0" * n])
    check_equivalence(net)
    monkeypatch.undo()
    assert "_mp_rows" not in vars(net.evaluator)
    reaches(net, "mp", "0" * n, "1" * n)
    assert "_mp_rows" in vars(net.evaluator)


@pytest.mark.parametrize("n,seed", [(n, seed) for n in range(2, 6) for seed in range(3)])
def test_walks_read_the_live_manager(n, seed):
    # the manager only appends nodes, so the walks give the same answers
    # after it grows (over one variable it may already hold every node)
    net = _net(n, seed)
    bool_states, mp_states = _states(n), _states(n, "0id1")

    def answers():
        out = [_public(net, name)(s) for name in BOOLEAN for s in bool_states]
        out += [mp_successors(net, x) for x in mp_states]
        out += [
            semantics.gamma_can_be(net, j, x, v)
            for j in range(n) for x in mp_states for v in (0, 1)
        ]
        return out

    before = answers()
    size = len(net.manager._triples)
    m = net.manager
    infer_regulatory_graph(net)
    parity = TRUE  # an equivalence chain over every variable
    for j, node in enumerate(net.nodes):
        m.conj(m.restrict(node, {j: 1}), m.neg(m.var_node(n - 1 - j)))
        parity = m.equiv(parity, m.var_node(j))
    assert len(m._triples) > size
    assert answers() == before


# --- reference explorers: plain string BFS over the public functions ---------

def _public(net, semantics):
    return {
        "sync": lambda s: [sync_successor(net, s)],
        "async": lambda s: async_successors(net, s),
        "general": lambda s: general_successors(net, s),
        "mp": lambda s: mp_successors(net, s),
    }[semantics]


def _matches(state, pattern):
    return all(p == "*" or p == c for c, p in zip(state, pattern))


def _bfs_reaches(succ, start, target, cap):
    if _matches(start, target):
        return "reachable", 1, [start]
    parent = {start: None}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for t in succ(s):
            if t in parent:
                continue
            if len(parent) >= cap:
                return "cap-exceeded", len(parent), None
            parent[t] = s
            if _matches(t, target):
                path = [t]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return "reachable", len(parent), path[::-1]
            queue.append(t)
    return "unreachable", len(parent), None


def _bfs_graph(succ, start, cap):
    nodes, seen, edges = [start], {start}, []
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for t in succ(s):
            if t not in seen:
                if len(nodes) >= cap:
                    return nodes, edges, True
                seen.add(t)
                nodes.append(t)
                queue.append(t)
            edges.append((s, t))
    return nodes, edges, False


def _closure(succ, roots):
    seen = set(roots)
    queue = deque(roots)
    while queue:
        for t in succ(queue.popleft()):
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def _terminal_sccs(succ, states):
    """Each state whose forward closure only holds states that reach back
    to it lies in a terminal SCC: that closure."""
    forward = {s: _closure(succ, [s]) for s in states}
    found = set()
    for s in states:
        if all(s in forward[t] for t in forward[s]):
            found.add(tuple(sorted(forward[s])))
    kinds = [("stable-state" if len(c) == 1 else "complex", c) for c in found]
    return sorted(kinds, key=lambda kc: (kc[0] != "stable-state", kc[1][0]))


def _patterns(n, rng, alphabet="01"):
    return ["".join(rng.choice(alphabet + "**") for _ in range(n)) for _ in range(3)]


@pytest.mark.parametrize("n,seed", NETS)
def test_reaches_matches_string_bfs(n, seed):
    net = _net(n, seed)
    rng = random.Random(f"reaches/{n}/{seed}")
    for semantics in BOOLEAN:
        succ = _public(net, semantics)
        for start in _states(n):
            for target in _patterns(n, rng) + [start, "0" * n]:
                for cap in (3, 10**6):
                    got = reaches(net, semantics, start, target, cap=cap)
                    want = _bfs_reaches(succ, start, target, cap)
                    assert (got.verdict, got.states_explored, got.witness) == want


@pytest.mark.parametrize("n,seed", [(n, seed) for n in range(1, 4) for seed in range(2)])
def test_mp_reaches_and_graph_match_string_bfs(n, seed):
    net = _net(n, seed)
    rng = random.Random(f"mp/{n}/{seed}")
    succ = _public(net, "mp")
    for start in _states(n, "0id1"):
        for target in _patterns(n, rng, "0id1"):
            got = reaches(net, "mp", start, target)
            want = _bfs_reaches(succ, start, target, 10**6)
            assert (got.verdict, got.states_explored, got.witness) == want
        stg = reachable_set(net, "mp", start)
        assert (stg.nodes, _pairs(stg), stg.cap_exceeded) == _bfs_graph(succ, start, 10**6)


def _counted(step, stepped):
    def counted(ev, s):
        stepped.append(ev.decode(s))
        return step(ev, s)
    return counted


def test_rooted_attractors_step_each_state_once(monkeypatch):
    net = _net(8, 1)
    closure = reachable_set(net, "async", "00000000").nodes
    stepped = []
    monkeypatch.setitem(semantics.SEMANTICS, "async", _counted(semantics.SEMANTICS["async"], stepped))
    attractors(net, "async", roots=["00000000"])
    assert sorted(stepped) == sorted(closure)
    assert len(closure) == 3


def test_full_space_attractors_step_each_state_once(monkeypatch):
    """While the sets of states answer, whole-space async attractors step no
    state; past their budget, as on the Gray counter's one long cycle, they
    step each state once, as general attractors always do."""
    gray = parse_bnet(gray_counter(8))
    with pytest.raises(reach._OverBudget):
        reach._async_attractor_sets(gray.manager._truth_tables(gray.nodes))
    stepped = []
    for name in ("async", "general"):
        monkeypatch.setitem(semantics.SEMANTICS, name, _counted(semantics.SEMANTICS[name], stepped))
    for net, name, expected in [
        (_net(8, 1), "async", []),
        (_net(8, 1), "general", _states(8)),
        (gray, "async", _states(8)),
    ]:
        stepped.clear()
        attractors(net, name)
        assert sorted(stepped) == expected, name


@pytest.mark.parametrize("gray,name", [
    (False, "async"),  # the sets of states answer
    (True, "async"),  # one long cycle: the sets fall back
    (False, "sync"),
    (False, "general"),
])
def test_full_space_attractors_read_the_truth_tables_once(gray, name, monkeypatch):
    """A whole-space question reads each rule's diagram once: the sets of
    states take the truth tables of the question's image table, and the
    steps past their budget, like those of sync and general, look images
    up in a table made from those same truth tables."""
    net = parse_bnet(gray_counter(8)) if gray else _net(8, 1)
    net.nodes
    read, calls = DiagramManager._truth_tables, []
    monkeypatch.setattr(
        DiagramManager, "_truth_tables", lambda m, nodes: calls.append(1) or read(m, nodes)
    )
    attractors(net, name)
    assert len(calls) == 1


def test_one_sweep_budget_per_search(monkeypatch):
    """The closures of one set search draw from one budget of sweeps.  Each
    closure on this net takes at most three sweeps, so given three sweeps
    each, the sets answer; given three for the whole search, which makes
    several closures, they fall back and each state is stepped once."""
    net = _net(6, 0)
    want = attractors(net, "async")
    stepped = []
    monkeypatch.setitem(semantics.SEMANTICS, "async", _counted(semantics.SEMANTICS["async"], stepped))
    monkeypatch.setattr(reach, "_sweep_budget", lambda n, edges: 3)
    closure = reach._closure
    with monkeypatch.context() as m:
        m.setattr(reach, "_closure", lambda *args: closure(*args[:3], iter(range(3))))
        assert attractors(net, "async") == want
    assert stepped == []
    assert attractors(net, "async") == want
    assert sorted(stepped) == _states(6)


@pytest.mark.parametrize("roots", [None, ["00000000", "11111111"]])
def test_sync_attractors_walk_f_once_without_tarjan(monkeypatch, roots):
    """Under sync the terminal components are the cycles of f: one walk
    takes the image of each state it walks once, and no Tarjan pass runs,
    whole space or rooted.  Rooted, the walk covers the closure of the
    roots.  Over the whole space, _limit_set's rounds first map every
    state, and the walk covers the survivors."""
    net = _net(8, 1)
    closure = _states(8) if roots is None else _closure(_public(net, "sync"), roots)
    imaged = []
    rounds = []  # what the rounds imaged, and the survivors
    limit_set = reach._limit_set

    def marked(image, states):
        kept = limit_set(image, states)
        rounds.append((imaged[:], kept))
        del imaged[:]
        return kept

    def refuse(*args, **kwargs):
        raise AssertionError("sync attractors ran _condense")

    def counted(image):
        return lambda s: imaged.append(s) or image(s)

    class CountedTable(_ImageTable):
        def __init__(self, *args):
            super().__init__(*args)
            self.image = counted(self.image)

    monkeypatch.setattr(reach, "_condense", refuse)
    monkeypatch.setattr(reach, "_ImageTable", CountedTable)
    monkeypatch.setattr(reach, "_limit_set", marked)
    ev = net.evaluator
    monkeypatch.setattr(ev, "image", counted(ev.image))
    found = attractors(net, "sync", roots=roots)
    if roots is None:
        [(in_rounds, survivors)] = rounds
        assert set(map(ev.decode, in_rounds)) == set(closure)
        assert sorted(imaged) == survivors
    else:
        assert not rounds
        assert sorted(ev.decode(s) for s in imaged) == sorted(closure)
    assert found


@pytest.mark.parametrize("n,seed", NETS)
def test_reachable_set_matches_string_bfs(n, seed):
    net = _net(n, seed)
    for semantics in BOOLEAN:
        succ = _public(net, semantics)
        for start in _states(n):
            for cap in (1, 2, 5, 10**6):
                stg = reachable_set(net, semantics, start, cap=cap)
                want = _bfs_graph(succ, start, cap)
                assert (stg.nodes, _pairs(stg), stg.cap_exceeded) == want
                assert stg.roots == (start,)


@pytest.mark.parametrize("n,seed", NETS)
def test_attractors_match_string_bfs(n, seed):
    net = _net(n, seed)
    rng = random.Random(f"attractors/{n}/{seed}")
    everything = _states(n)
    for semantics in BOOLEAN:
        succ = _public(net, semantics)
        want = _terminal_sccs(succ, everything)
        for cap in (10**6, len(everything)):  # the whole space fits a cap of 2^n
            got = [(a.kind, a.states) for a in attractors(net, semantics, cap)]
            assert got == want
        for _ in range(3):
            roots = rng.sample(everything, min(3, len(everything)))
            closure = _closure(succ, roots)
            want = _terminal_sccs(succ, sorted(closure))
            # a cap of the closure's size answers; a root given twice counts once
            for cap, given in ((10**6, roots), (len(closure), roots), (len(closure), roots * 2)):
                got = [(a.kind, a.states) for a in attractors(net, semantics, cap, given)]
                assert got == want
            if len(closure) > len(set(roots)):  # roots never count against the cap
                for given in (roots, roots * 2):
                    with pytest.raises(CapExceeded):
                        attractors(net, semantics, cap=len(closure) - 1, roots=given)


def _projection(net, start, cap):
    """mp_boolean_projection over state strings: per Boolean node, a BFS
    through non-Boolean states to its Boolean exits; the cap counts every
    distinct mp state met, across all these searches."""
    explored = {start}
    nodes, edges = [start], []
    queue = deque([start])
    while queue:
        x = queue.popleft()
        exits, seen = [], set()
        frontier = deque(mp_successors(net, x))
        while frontier:
            t = frontier.popleft()
            if t in seen:
                continue
            seen.add(t)
            if t not in explored:
                if len(explored) >= cap:
                    return nodes, edges, True
                explored.add(t)
            if set(t) <= set("01"):
                if t not in exits:
                    exits.append(t)
            else:
                frontier.extend(mp_successors(net, t))
        one_step = general_successors(net, x)
        for t in exits:
            edges.append((x, t, "solid" if t in one_step else "dotted"))
            if t not in nodes:
                nodes.append(t)
                queue.append(t)
    return nodes, edges, False


@pytest.mark.parametrize("n,seed", [(n, seed) for n in range(1, 4) for seed in range(3)])
def test_projection_matches_string_reference(n, seed):
    net = _net(n, seed)
    for start in _states(n):
        for cap in (1, 2, 3, 5, 10**6):
            proj = mp_boolean_projection(net, start, cap=cap)
            tagged = [(e.source, e.target, e.tag) for e in proj.edges]
            got = (proj.nodes, tagged, proj.cap_exceeded)
            assert got == _projection(net, start, cap)


# --- whole-space image tables -------------------------------------------------

def _unfoldings(n, seed):
    """(manager, rule nodes) of both unfoldings of a random network."""
    net = _net(n, seed)
    for mode in ("exact", "syntactic"):
        ctx = _Unfolding(net, UnfoldSpec(components=None, mode=mode))
        yield ctx.manager, ctx.rule_nodes()


@pytest.mark.parametrize("n", range(1, 11))
def test_image_table_equals_the_walk_on_every_state(n):
    nets = [_net(n, seed) for seed in range(3)]
    sources = [(net.manager, net.evaluator.nodes) for net in nets]
    if n <= 4:
        sources += [u for seed in range(3) for u in _unfoldings(n, seed)]
    for manager, nodes in sources:
        walk, table = RuleEvaluator(manager, nodes), _ImageTable(manager, nodes)
        assert [table.image(s) for s in range(1 << walk.n)] == [
            walk.image(s) for s in range(1 << walk.n)
        ]


def test_image_table_at_17_components_on_sampled_states():
    # the first size whose images need 32-bit fields
    net = _net(17, 0)
    walk = net.evaluator
    table = _ImageTable(net.manager, walk.nodes)
    rng = random.Random("image-table/17")
    states = [0, 1, (1 << 16) - 1, 1 << 16, (1 << 17) - 1]
    states += rng.sample(range(1 << 17), 3000)
    assert [table.image(s) for s in states] == [walk.image(s) for s in states]


@pytest.mark.parametrize("n", range(1, 9))
def test_full_space_attractors_equal_attractors_from_every_state(n):
    for seed in range(3):
        net = _net(n, seed)
        for semantics in BOOLEAN:
            assert attractors(net, semantics) == attractors(
                net, semantics, roots=_states(n)
            ), (seed, semantics)
