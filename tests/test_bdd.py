"""Diagram manager: canonicity, evaluation, support, tables."""
import importlib
import random

import pytest

from mpunfold import (
    RandomNetSpec,
    UnfoldSpec,
    build_function,
    parse_bnet,
    print_bnet,
    random_network,
    unfold,
)
from mpunfold.bdd import FALSE, TRUE, DiagramManager, FunctionRep
from mpunfold.expr import format_expr, parse_expression
from mpunfold.oracle import _eval

# the modules, not the functions of the same names that mpunfold exports
network_module = importlib.import_module("mpunfold.network")
unfold_module = importlib.import_module("mpunfold.unfold")


def _random_expr(rng, nvars, depth):
    names = {f"v{k}": k for k in range(nvars)}
    def gen(d):
        if d == 0 or rng.random() < 0.3:
            v = f"v{rng.randrange(nvars)}"
            return v if rng.random() < 0.6 else "!" + v
        op = rng.choice(["&", "|"])
        return f"({gen(d - 1)} {op} {gen(d - 1)})"
    return parse_expression(gen(depth), names)


def test_terminals_and_variable_nodes():
    m = DiagramManager(2)
    v0 = m.var_node(0)
    assert m.triple(v0) == (0, FALSE, TRUE)
    assert m.var_node(0) == v0  # hash-consed
    assert m.neg(m.neg(v0)) == v0
    with pytest.raises(ValueError):
        m.var_node(2)


def test_reduction_rules():
    m = DiagramManager(2)
    v0 = m.var_node(0)
    # x & x == x, x | !x == 1, x & !x == 0
    assert m.conj(v0, v0) == v0
    assert m.disj(v0, m.neg(v0)) == TRUE
    assert m.conj(v0, m.neg(v0)) == FALSE
    # redundant test gets collapsed
    assert m.mk(1, v0, v0) == v0
    # xor is the negation of equiv: its table, and its terminal cases
    v1 = m.var_node(1)
    assert m.truth_table(m.neg(m.equiv(v0, v1))) == 0b0110
    assert m.equiv(v0, TRUE) == v0 and m.equiv(v0, FALSE) == m.neg(v0)
    assert m.equiv(v1, v1) == TRUE


def test_canonicity_semantic_equality_is_node_equality():
    rng = random.Random(20260819)
    nvars = 5
    m = DiagramManager(nvars)
    exprs = [_random_expr(rng, nvars, 4) for _ in range(40)]
    nodes = [m.from_expr(e) for e in exprs]
    tables = [
        tuple(
            _eval(e, [(i >> (nvars - 1 - k)) & 1 for k in range(nvars)])
            for i in range(1 << nvars)
        )
        for e in exprs
    ]
    for a in range(len(exprs)):
        for b in range(len(exprs)):
            assert (nodes[a] == nodes[b]) == (tables[a] == tables[b])


def test_evaluate_agrees_with_tree_evaluation():
    rng = random.Random(7)
    nvars = 6
    m = DiagramManager(nvars)
    for _ in range(25):
        e = _random_expr(rng, nvars, 4)
        u = m.from_expr(e)
        for i in range(1 << nvars):
            bits = [(i >> (nvars - 1 - k)) & 1 for k in range(nvars)]
            assert m.evaluate(u, bits) == _eval(e, bits)


def test_support_is_semantic():
    m = DiagramManager(3)
    names = {"a": 0, "b": 1, "c": 2}
    # b & !b is dead: support must be {a} only
    u = m.from_expr(parse_expression("a | b & !b", names))
    assert m.support(u) == {0}
    assert m.support(FALSE) == set()
    assert m.support(TRUE) == set()
    assert m.support(m.from_expr(parse_expression("a & !c", names))) == {0, 2}


def test_restrict_cofactors():
    m = DiagramManager(3)
    names = {"a": 0, "b": 1, "c": 2}
    u = m.from_expr(parse_expression("a & !c | b", names))
    assert m.restrict(u, {0: 1, 2: 0}) == TRUE
    assert m.restrict(u, {0: 0, 1: 0}) == FALSE
    assert m.restrict(u, {1: 1}) == TRUE
    # restriction on a variable outside the support is a no-op
    v = m.from_expr(parse_expression("a", names))
    assert m.restrict(v, {1: 0}) == v


def test_truth_table_layout():
    # bit i of the table is the value on the state with binary form i,
    # variable 0 as the most significant bit
    m = DiagramManager(2)
    a, b = m.var_node(0), m.var_node(1)
    assert m.truth_table(a) == 0b1100
    assert m.truth_table(b) == 0b1010
    assert m.truth_table(m.conj(a, b)) == 0b1000
    assert m.truth_table(TRUE) == 0b1111


def test_iter_models_lexicographic():
    m = DiagramManager(3)
    names = {"a": 0, "b": 1, "c": 2}
    u = m.from_expr(parse_expression("a & !c | !a & b", names))
    models = ["".join(map(str, bits)) for bits in m.iter_models(u)]
    assert models == ["010", "011", "100", "110"]
    assert models == sorted(models)


def test_iter_cubes_cover():
    m = DiagramManager(3)
    names = {"a": 0, "b": 1, "c": 2}
    u = m.from_expr(parse_expression("a & !c | b & c", names))
    rebuilt = FALSE
    for cube in m.iter_cubes(u):
        node = TRUE
        for var, bit in cube:
            lit = m.var_node(var)
            node = m.conj(node, lit if bit else m.neg(lit))
        rebuilt = m.disj(rebuilt, node)
    assert rebuilt == u


def test_from_paths_rebuilds_every_rule_diagram_from_its_cubes():
    for m, nodes in _sample_diagrams(range(1, 9)):
        before = list(m._triples)
        for u in nodes:
            assert m.from_paths(list(m.iter_cubes(u))) == u
        assert m._triples == before  # every node it made was there


def test_from_paths_of_no_path_and_of_the_empty_path():
    m = DiagramManager(2)
    assert m.from_paths([]) == FALSE
    assert m.from_paths([[]]) == TRUE
    # x0 & !x1 | x0 & x1 is x0: the redundant test on x1 is not made
    assert m.from_paths([[(0, 1), (1, 0)], [(0, 1), (1, 1)]]) == m.var_node(0)
    assert m._triples == [(0, FALSE, TRUE)]


@pytest.mark.parametrize(
    "paths",
    [
        [[(0, 1)], [(0, 1)]],
        [[(0, 0), (1, 1)], [(0, 0), (1, 1)], [(0, 1)]],
        [[], [(0, 1)]],
        [[(0, 1)], [(0, 1), (1, 0)]],
        [[(0, 0)], [(0, 1)], [(0, 1), (2, 1)]],
        [[(0, 0), (1, 1)], [(1, 1)]],
        [[(0, 0)], [(0, 1), (1, 0)], [(0, 1), (2, 1)]],
        [[(0, 0), (1, 0)], [(0, 0), (2, 1)]],
    ],
    ids=[
        "duplicate", "duplicate-below-a-split", "empty-prefix", "prefix",
        "prefix-after-a-split", "siblings-on-two-variables",
        "deeper-siblings-on-two-variables", "low-siblings-on-two-variables",
    ],
)
def test_from_paths_declines_what_is_no_decision_tree(paths):
    m = DiagramManager(3)
    assert m.from_paths(paths) is None
    assert m._triples == []


def test_function_rep_identity_and_cross_manager_equivalence():
    m1 = DiagramManager(2)
    m2 = DiagramManager(2)
    names = {"a": 0, "b": 1}
    f1 = FunctionRep(m1, m1.from_expr(parse_expression("a | b", names)))
    f2 = FunctionRep(m2, m2.from_expr(parse_expression("b | a", names)))
    f3 = FunctionRep(m1, m1.from_expr(parse_expression("!(!a & !b)", names)))
    assert f1 == f3 and hash(f1) == hash(f3)  # same manager, same node
    assert f1 != f2  # different managers never compare equal


class _ReferenceManager(DiagramManager):
    """A manager whose conj, disj and equiv run a string-keyed recursive
    apply with one shared memo, as the manager once did.  DiagramManager
    must make the same nodes in the same order: node ids follow from it."""

    def __init__(self, nvars):
        super().__init__(nvars)
        self._reference_memo = {}

    def apply(self, op, u, v):
        if op == "and":
            if u == FALSE or v == FALSE:
                return FALSE
            if u == TRUE:
                return v
            if v == TRUE:
                return u
            if u == v:
                return u
        elif op == "or":
            if u == TRUE or v == TRUE:
                return TRUE
            if u == FALSE:
                return v
            if v == FALSE:
                return u
            if u == v:
                return u
        elif op == "xor":
            if u == v:
                return FALSE
            if u == FALSE:
                return v
            if v == FALSE:
                return u
            if u == TRUE:
                return self.neg(v)
            if v == TRUE:
                return self.neg(u)
        else:
            raise ValueError(f"unknown operation {op!r}")
        if v < u:
            u, v = v, u
        key = (op, u, v)
        r = self._reference_memo.get(key)
        if r is not None:
            return r
        uvar, ulow, uhigh = self.triple(u)
        vvar, vlow, vhigh = self.triple(v)
        var = min(uvar, vvar)
        if uvar > var:
            ulow = uhigh = u
        if vvar > var:
            vlow = vhigh = v
        r = self.mk(var, self.apply(op, ulow, vlow), self.apply(op, uhigh, vhigh))
        self._reference_memo[key] = r
        return r

    def conj(self, u, v):
        return self.apply("and", u, v)

    def disj(self, u, v):
        return self.apply("or", u, v)

    def equiv(self, u, v):
        return self.neg(self.apply("xor", u, v))


def _built_triples(text):
    """The node triples of the managers made by reading text and by
    unfolding it: in both modes, all components and only the first."""
    net = parse_bnet(text)
    managers = [net.manager]
    for mode in ("exact", "syntactic"):
        for components in (None, net.names[:1]):
            spec = UnfoldSpec(components=components, mode=mode)
            managers.append(unfold(net, spec).manager)
    return [list(m._triples) for m in managers], managers


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_node_numbering_matches_the_reference_apply(n, monkeypatch):
    nets = [random_network(RandomNetSpec(n=n, seed=seed)) for seed in range(4)]
    # print_bnet's sums of paths are read with mk alone; the trees as show
    # writes them, with parentheses, go through the reader's conj and disj
    texts = [print_bnet(net) for net in nets] + [
        "".join(f"{name}, {format_expr(rule, net.names)}\n" for name, rule in net.components())
        for net in nets
    ]
    built = [_built_triples(text)[0] for text in texts]
    monkeypatch.setattr(network_module, "DiagramManager", _ReferenceManager)
    monkeypatch.setattr(unfold_module, "DiagramManager", _ReferenceManager)
    for text, triples in zip(texts, built):
        reference, managers = _built_triples(text)
        assert all(type(m) is _ReferenceManager for m in managers)
        assert triples == reference


# --- postorder: the one walk over a whole diagram --------------------------------

def _reference_postorder(m, u, done, out):
    """The internal nodes below u that a recursive walk finishes, in that
    order, low child first, skipping done and the nodes already in out."""
    if u < 2 or u in done or u in out:
        return
    _, low, high = m.triple(u)
    _reference_postorder(m, low, done, out)
    _reference_postorder(m, high, done, out)
    out[u] = None


def _sample_diagrams(sizes=(1, 3, 5)):
    """(manager, rule nodes) of random networks and of their unfoldings."""
    for n in sizes:
        for seed in range(4):
            net = random_network(RandomNetSpec(n=n, seed=seed))
            yield net.manager, [build_function(net, j).node for j in range(n)]
            for mode in ("exact", "syntactic"):
                ext = unfold(net, UnfoldSpec(mode=mode))
                yield ext.manager, [build_function(ext, j).node for j in range(ext.n)]


def _reachable(m, u, done=()):
    """The internal nodes reachable from u other than through done."""
    out, todo = set(), [u]
    while todo:
        w = todo.pop()
        if w > 1 and w not in done and w not in out:
            out.add(w)
            todo.extend(m.triple(w)[1:])
    return out


def test_postorder_is_the_recursive_walk():
    rng = random.Random(13)
    for m, nodes in _sample_diagrams():
        internal = range(2, len(m._triples) + 2)
        for u in nodes:
            for done in (set(), set(rng.sample(internal, len(internal) // 3))):
                order = list(m.postorder(u, done))
                reference = {}
                _reference_postorder(m, u, done, reference)
                assert order == list(reference)
                assert len(order) == len(set(order))
                assert set(order) == _reachable(m, u, done)
                place = {w: i for i, w in enumerate(order)}
                for w in order:  # children first
                    _, low, high = m.triple(w)
                    assert all(place.get(c, -1) < place[w] for c in (low, high))


def test_postorder_of_a_terminal_or_a_done_root_is_empty():
    m = DiagramManager(2)
    u = m.conj(m.var_node(0), m.var_node(1))
    assert list(m.postorder(FALSE)) == list(m.postorder(TRUE)) == []
    assert list(m.postorder(u, {u})) == []
    assert list(m.postorder(u)) == [m.var_node(1), u]
    # the low child first, whatever the ids
    high, low = m.var_node(1), m.neg(m.var_node(1))
    v = m.mk(0, low, high)
    assert high < low
    assert list(m.postorder(v)) == [low, high, v]
    assert list(m.postorder(v, {low})) == [high, v]


def _reference_neg(m, u, memo):
    """The recursive negation the manager once ran."""
    if u < 2:
        return 1 - u
    if u not in memo:
        var, low, high = m.triple(u)
        r = m.mk(var, _reference_neg(m, low, memo), _reference_neg(m, high, memo))
        memo[u] = r
        memo[r] = u
    return memo[u]


def test_neg_makes_the_nodes_of_the_recursive_negation():
    rng = random.Random(5)
    for _ in range(20):
        exprs = [_random_expr(rng, 6, 5) for _ in range(4)]
        m, reference = DiagramManager(6), DiagramManager(6)
        memo = {}
        for e in exprs:
            u = m.from_expr(e)
            assert reference.from_expr(e) == u
            assert m.neg(u) == _reference_neg(reference, u, memo)
            assert m._triples == reference._triples


def test_a_5000_variable_cube_and_its_negation():
    n = 5000
    m = DiagramManager(n)
    cube, negation = TRUE, FALSE
    for var in reversed(range(n)):
        cube = m.mk(var, FALSE, cube)
        negation = m.mk(var, TRUE, negation)
    assert m.neg(negation) == cube
    assert m.neg(cube) == negation
    assert m.neg(m.neg(cube)) == cube
    assert m.support(cube) == m.support(negation) == set(range(n))
    # the same rule read from text, evaluated by the network's evaluator
    names = [f"x{k}" for k in range(n)]
    text = f"x0, !({' & '.join(names)})\n" + "".join(
        f"{names[k]}, {names[k - 1]}\n" for k in range(1, n)
    )
    ev = parse_bnet(text).evaluator
    ones = (1 << n) - 1
    assert ev.value(0, ones) == 0
    assert ev.value(0, ones - 1) == 1
    assert ev.value(1, ones) == 1
