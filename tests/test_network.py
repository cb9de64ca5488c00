"""BooleanNetwork, rule evaluation, regulatory graph inference."""
import pytest

from mpunfold import (
    BooleanNetwork,
    RandomNetSpec,
    RegEdge,
    UnfoldSpec,
    attractors,
    build_condition,
    build_function,
    check_equivalence,
    eval_rule,
    example_a,
    gamma_can_be,
    infer_regulatory_graph,
    parse_bnet,
    random_network,
    sign_witness,
    support,
    unfold,
)
from mpunfold.expr import And, Not, Var


def test_network_validation():
    with pytest.raises(ValueError, match="at least one component"):
        BooleanNetwork([])
    with pytest.raises(ValueError, match="duplicate component names"):
        BooleanNetwork([("a", Var(0)), ("a", Var(0))])
    with pytest.raises(ValueError, match="invalid component name"):
        BooleanNetwork([("2bad", Var(0))])
    with pytest.raises(ValueError, match="references variable index 3"):
        BooleanNetwork([("a", Var(3))])


def test_eval_rule():
    net = example_a()
    # f1 = x1 & !x3, f2 = x1, f3 = !x1
    assert eval_rule(net, 0, "100") == 1
    assert eval_rule(net, 0, "101") == 0
    assert eval_rule(net, 1, "100") == 1
    assert eval_rule(net, 2, "100") == 0
    assert eval_rule(net, 2, "011") == 1
    with pytest.raises(ValueError, match="Boolean state"):
        eval_rule(net, 0, "10")
    with pytest.raises(ValueError, match="Boolean state"):
        eval_rule(net, 0, "1i0")


@pytest.mark.parametrize(
    "call",
    [
        lambda net, j: gamma_can_be(net, j, "111", 1),
        lambda net, j: eval_rule(net, j, "111"),
        build_function,
        build_condition,
    ],
    ids=["gamma_can_be", "eval_rule", "build_function", "build_condition"],
)
@pytest.mark.parametrize("j", [-1, 3, 1.0, "0", None])
def test_component_index_is_checked(call, j):
    # a negative index must not answer for a component counted from the end
    with pytest.raises(ValueError, match=r"component index must be in 0\.\.2, got "):
        call(example_a(), j)


def test_build_function_canonical_and_support():
    net = parse_bnet("a, a & a\nb, a\nc, b & !b | a\n")
    # a & a and a are the same diagram node
    assert build_function(net, 0) == build_function(net, 1)
    # dead branch drops out of the support
    assert support(build_function(net, 2)) == {0}
    net2 = example_a()
    assert support(build_function(net2, 0)) == {0, 2}
    assert support(build_function(net2, 1)) == {0}


def test_index_of():
    net = example_a()
    assert net.index_of("x2") == 1
    with pytest.raises(KeyError, match="no component named 'x9'"):
        net.index_of("x9")


def test_regulatory_graph_example_a():
    graph = infer_regulatory_graph(example_a())
    assert graph.nodes == ("x1", "x2", "x3")
    assert graph.edges == [
        RegEdge("x1", "x1", "positive"),
        RegEdge("x3", "x1", "negative"),
        RegEdge("x1", "x2", "positive"),
        RegEdge("x1", "x3", "negative"),
    ]


def test_regulatory_graph_dual_and_constant():
    net = parse_bnet("a, a & !b | !a & b\nb, 1\n")  # a xor b
    graph = infer_regulatory_graph(net)
    assert RegEdge("a", "a", "dual") in graph.edges
    assert RegEdge("b", "a", "dual") in graph.edges
    # constant rule: no regulators at all
    assert [e for e in graph.edges if e.target == "b"] == []


def test_sign_witness_soundness():
    from mpunfold import random_network
    from mpunfold.oracle import RandomNetSpec

    for seed in range(15):
        net = random_network(RandomNetSpec(n=4, seed=seed))
        graph = infer_regulatory_graph(net)
        for edge in graph.edges:
            directions = (
                ["positive", "negative"] if edge.sign == "dual" else [edge.sign]
            )
            k = net.index_of(edge.source)
            for direction in directions:
                s = sign_witness(net, edge.source, edge.target, direction)
                assert s is not None and s[k] == "0"
                flipped = s[:k] + "1" + s[k + 1 :]
                j = net.index_of(edge.target)
                low, high = eval_rule(net, j, s), eval_rule(net, j, flipped)
                if direction == "positive":
                    assert (low, high) == (0, 1)
                else:
                    assert (low, high) == (1, 0)
            # absent direction truly has no witness
            if edge.sign != "dual":
                other = "negative" if edge.sign == "positive" else "positive"
                assert sign_witness(net, edge.source, edge.target, other) is None


def test_rules_keep_tree_shape():
    net = example_a()
    assert net.rules[0] == And(Var(0), Not(Var(2)))
    assert net.components()[1] == ("x2", Var(0))


def test_sign_witness_checks_direction_before_building_diagrams():
    net = parse_bnet("a, a & b | c\nb, b\nc, c\n")
    before = len(net.manager._triples)
    with pytest.raises(ValueError, match="direction must be 'positive' or 'negative'"):
        sign_witness(net, "a", "a", "up")
    assert len(net.manager._triples) == before
    # a valid direction does build the sign diagrams of a -> a
    assert sign_witness(net, "a", "a", "positive") == "010"
    assert len(net.manager._triples) > before


# a network of each origin: read, drawn, built from trees, unfolded
NETWORK_OF_ORIGIN = {
    "read": example_a,
    "random": lambda: random_network(RandomNetSpec(n=5, seed=2)),
    "direct": lambda: BooleanNetwork([("a", And(Var(0), Not(Var(1)))), ("b", Var(0))]),
    "unfolded": lambda: unfold(example_a(), UnfoldSpec(components=("x1",))),
}


@pytest.mark.parametrize("origin", NETWORK_OF_ORIGIN)
def test_nodes_are_the_diagrams_build_function_and_the_evaluator_read(origin):
    net = NETWORK_OF_ORIGIN[origin]()
    nodes = net.nodes
    assert isinstance(nodes, tuple) and len(nodes) == net.n
    assert nodes == tuple(build_function(net, j).node for j in range(net.n))
    assert net.evaluator.nodes == nodes
    with pytest.raises(AttributeError):
        net.nodes = ()


def test_whole_space_questions_build_no_walking_evaluator():
    net = example_a()
    for semantics in ("sync", "async", "general"):
        attractors(net, semantics)
    for mode in ("exact", "syntactic"):
        check_equivalence(net, mode=mode)
    assert net._evaluator is None
