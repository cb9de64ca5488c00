"""Rules evaluated as diagrams on integer states, against the tree evaluator.

The successor functions and the explorers run on a network's compiled
RuleEvaluator.  Here every Boolean state of small random networks (all-zero
states and leading zeros included) is compared with the oracle's tree
evaluator on net.rules, every most permissive state with a string reference
built on brute force over gamma(x), and every explorer with a plain
breadth-first search over state strings and the public successor functions.
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
    eval_rule,
    general_successors,
    mp_boolean_projection,
    mp_successors,
    parse_bnet,
    random_network,
    reachable_set,
    reaches,
    sync_successor,
)
from mpunfold import semantics
from mpunfold.bdd import DiagramManager
from mpunfold.network import RuleEvaluator
from mpunfold.oracle import _eval, naive_mp_successors
from mpunfold.reach import _space

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
    net.evaluator  # compiling the rules builds their diagrams
    before = len(net.manager._triples)
    for x in _states(n):
        reaches(net, "mp", x, "1" * n)
    mp_boolean_projection(net, "0" * n)
    assert len(net.manager._triples) == before


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


def test_rooted_attractors_step_each_state_once(monkeypatch):
    net = _net(8, 1)
    closure = reachable_set(net, "async", "00000000").nodes
    stepped = []
    step = semantics.SEMANTICS["async"]

    def counted(ev, s):
        stepped.append(ev.decode(s))
        return step(ev, s)

    monkeypatch.setitem(semantics.SEMANTICS, "async", counted)
    attractors(net, "async", roots=["00000000"])
    assert sorted(stepped) == sorted(closure)
    assert len(closure) == 3


def test_full_space_attractors_step_each_state_once(monkeypatch):
    net = _net(8, 1)
    stepped = []
    step = semantics.SEMANTICS["async"]

    def counted(ev, s):
        stepped.append(ev.decode(s))
        return step(ev, s)

    monkeypatch.setitem(semantics.SEMANTICS, "async", counted)
    attractors(net, "async", roots=None)
    assert sorted(stepped) == _states(8)


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
        got = [(a.kind, a.states) for a in attractors(net, semantics)]
        assert got == _terminal_sccs(succ, everything)
        for _ in range(3):
            roots = rng.sample(everything, min(3, len(everything)))
            closure = _closure(succ, roots)
            got = [(a.kind, a.states) for a in attractors(net, semantics, roots=roots)]
            assert got == _terminal_sccs(succ, sorted(closure))
            if len(closure) > len(set(roots)):  # roots never count against the cap
                with pytest.raises(CapExceeded):
                    attractors(net, semantics, cap=len(closure) - 1, roots=roots)


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
