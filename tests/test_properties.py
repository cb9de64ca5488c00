"""Property tests drawn by hypothesis: the most permissive step, the .bnet
round trip, rule evaluation and the two condition modes.

Random networks of up to 8 components, with up to 5 regulators per rule
and rule trees up to depth 4, at random states.  The examples are
derandomized and no example database is kept, so a run is repeatable.
Skipped when hypothesis is not installed.
"""
from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mpunfold import (  # noqa: E402
    VALID_TRIPLETS,
    BooleanNetwork,
    RandomNetSpec,
    UnfoldSpec,
    build_condition,
    build_function,
    eval_rule,
    gamma_can_be,
    mp_successors,
    naive_mp_successors,
    parse_bnet,
    print_bnet,
    random_network,
)
from mpunfold import expr as ex  # noqa: E402
from mpunfold.oracle import _eval  # noqa: E402

REPEATABLE = settings(max_examples=300, deadline=None, database=None, derandomize=True)


@st.composite
def nets(draw):
    return random_network(
        RandomNetSpec(
            n=draw(st.integers(1, 8)),
            max_regulators=draw(st.integers(1, 5)),
            depth=draw(st.integers(0, 4)),
            seed=draw(st.integers(0, 10**6)),
        )
    )


@st.composite
def nets_and_states(draw):
    net = draw(nets())
    return net, draw(st.text("0id1", min_size=net.n, max_size=net.n))


@REPEATABLE
@given(nets_and_states())
def test_mp_successors_match_naive(net_and_state):
    net, x = net_and_state
    succ = mp_successors(net, x)
    assert len(succ) == len(set(succ))
    assert set(succ) == naive_mp_successors(net, x)


@REPEATABLE
@given(nets_and_states())
def test_gamma_can_be_matches_brute_force(net_and_state):
    net, x = net_and_state
    readings = [
        [int(c) for c in y]
        for y in product(*("01" if c in "id" else c for c in x))
    ]
    for j, rule in enumerate(net.rules):
        values = {_eval(rule, bits) for bits in readings}
        for v in (0, 1):
            assert gamma_can_be(net, j, x, v) == (v in values)


def shown(net):
    """The network as .bnet text with the rules as trees, the way `show`
    writes them (negations and parentheses kept)."""
    return "".join(
        f"{name}, {ex.format_expr(rule, net.names)}\n" for name, rule in net.components()
    )


@REPEATABLE
@given(nets())
def test_print_parse_round_trip_preserves_functions(net):
    for text in (print_bnet(net), shown(net)):
        again = parse_bnet(text)
        assert again.names == net.names
        for j in range(net.n):
            assert build_function(again, j).truth_table() == build_function(net, j).truth_table()


@REPEATABLE
@given(nets(), st.data())
def test_eval_rule_matches_tree_evaluation(net, data):
    # diagrams from from_expr (the drawn net) and from the reader (parsed)
    parsed = parse_bnet(shown(net))
    for _ in range(4):
        s = data.draw(st.text("01", min_size=net.n, max_size=net.n))
        bits = [int(c) for c in s]
        for j, rule in enumerate(net.rules):
            value = _eval(rule, bits)
            assert eval_rule(net, j, s) == value
            assert eval_rule(parsed, j, s) == value


@st.composite
def single_polarity_nets(draw):
    """Networks of up to 3 components whose rules are and/or trees over
    literals and constants, each regulator with one sign per rule; and a
    non-empty set of components to unfold."""
    n = draw(st.integers(1, 3))
    components = []
    for j in range(n):
        positive = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        literal = st.integers(0, n - 1).map(
            lambda k, positive=positive: ex.Var(k) if positive[k] else ex.Not(ex.Var(k))
        )
        leaf = literal | st.sampled_from([ex.Const(0), ex.Const(1)])
        rule = draw(
            st.recursive(
                leaf,
                lambda sub: st.tuples(st.sampled_from([ex.And, ex.Or]), sub, sub).map(
                    lambda t: t[0](t[1], t[2])
                ),
                max_leaves=8,
            )
        )
        components.append((f"x{j + 1}", rule))
    net = BooleanNetwork(components)
    chosen = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return net, tuple(net.names[k] for k in sorted(chosen))


@REPEATABLE
@given(single_polarity_nets())
def test_modes_agree_on_valid_triplets_under_single_polarity(net_and_chosen):
    net, chosen = net_and_chosen
    levels = [VALID_TRIPLETS if name in chosen else ("0", "1") for name in net.names]
    states = [[int(c) for c in "".join(parts)] for parts in product(*levels)]
    for j in range(net.n):
        for polarity in ("plus", "minus"):
            exact = build_condition(net, j, UnfoldSpec(chosen, "exact"), polarity)
            syntactic = build_condition(net, j, UnfoldSpec(chosen, "syntactic"), polarity)
            for bits in states:
                assert exact.evaluate(bits) == syntactic.evaluate(bits), (j, polarity, bits)
