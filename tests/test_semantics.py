"""Synchronous, asynchronous, generalized and most permissive successors."""
from itertools import product

import pytest

from mpunfold import (
    async_successors,
    eval_rule,
    example_a,
    gamma_can_be,
    general_successors,
    is_boolean_state,
    mp_successors,
    parse_bnet,
    signal_model,
    sync_successor,
)
from table1 import SYNC_IMAGES


def test_sync_successor_all_boolean_states():
    net = example_a()
    for s, image in SYNC_IMAGES.items():
        assert sync_successor(net, s) == image


def test_async_successors():
    net = example_a()
    # 111: f = 010, so x1 and x3 are unstable, in declaration order
    assert async_successors(net, "111") == ["011", "110"]
    assert async_successors(net, "001") == []  # fixed point
    assert async_successors(net, "110") == []
    assert async_successors(net, "100") == ["110"]


def test_general_successors_subset_enumeration():
    net = example_a()
    # unstable at 111: {x1, x3}; masks 01, 10, 11 over that list
    assert general_successors(net, "111") == ["011", "110", "010"]
    assert general_successors(net, "001") == []
    # single unstable component: same as async
    assert general_successors(net, "100") == async_successors(net, "100")


def test_general_contains_sync_when_not_fixed():
    net = example_a()
    for bits in product("01", repeat=3):
        s = "".join(bits)
        succ = general_successors(net, s)
        if sync_successor(net, s) != s:
            assert succ[-1] == sync_successor(net, s)  # full mask comes last
        assert len(succ) == (1 << len([j for j in range(3) if sync_successor(net, s)[j] != s[j]])) - 1


def test_gamma_can_be_examples():
    net = example_a()
    # x = i0i, j = x3 (f3 = !x1): completion x1 = 1 gives 0
    assert gamma_can_be(net, 2, "i0i", 0) is True
    # x = 00i, j = x1 (f1 = x1 & !x3): x1 pinned to 0, cannot reach 1
    assert gamma_can_be(net, 0, "00i", 1) is False
    assert gamma_can_be(net, 0, "00i", 0) is True
    with pytest.raises(ValueError):
        gamma_can_be(net, 0, "00i", 2)


@pytest.mark.parametrize("v", [1.0, 0.0, "1", 2, None])
def test_gamma_can_be_refuses_a_value_other_than_int_0_or_1(v):
    # 1.0 == 1, so a membership test alone lets floats through to a shift
    net = parse_bnet("a, b\nb, !a\n")
    with pytest.raises(ValueError, match="v must be 0 or 1"):
        gamma_can_be(net, 0, "i0", v)


def test_gamma_on_boolean_states_is_rule_evaluation():
    net = signal_model()
    for bits in product("01", repeat=net.n):
        s = "".join(bits)
        for j in range(net.n):
            value = eval_rule(net, j, s)
            assert gamma_can_be(net, j, s, 1) == (value == 1)
            assert gamma_can_be(net, j, s, 0) == (value == 0)


def test_mp_successors_examples():
    net = example_a()
    assert mp_successors(net, "000") == ["00i"]
    assert mp_successors(net, "111") == ["d11", "11d"]
    # case order within a component: b before c
    assert mp_successors(net, "i0i") == ["d0i", "10i", "iii", "i0d", "i01"]
    assert mp_successors(net, "001") == []
    assert mp_successors(net, "110") == []


def test_mp_guaranteed_moves():
    # i can always commit to 1, d to 0
    net = example_a()
    for state in map("".join, product("0id1", repeat=3)):
        succ = mp_successors(net, state)
        for j, c in enumerate(state):
            if c == "i":
                assert state[:j] + "1" + state[j + 1 :] in succ
            if c == "d":
                assert state[:j] + "0" + state[j + 1 :] in succ


def test_mp_one_step_subsumption():
    # an async flip x -> y factors through i or d in two mp steps
    net = signal_model()
    for bits in product("01", repeat=net.n):
        s = "".join(bits)
        for t in async_successors(net, s):
            (j,) = [k for k in range(net.n) if s[k] != t[k]]
            mid = s[:j] + ("i" if t[j] == "1" else "d") + s[j + 1 :]
            assert mid in mp_successors(net, s)
            assert t in mp_successors(net, mid)


def test_state_validation():
    net = example_a()
    with pytest.raises(ValueError, match="most permissive state"):
        mp_successors(net, "0i")
    with pytest.raises(ValueError, match="most permissive state"):
        mp_successors(net, "0ix")
    with pytest.raises(ValueError, match="Boolean state"):
        async_successors(net, "0i1")
    assert is_boolean_state("0101")
    assert not is_boolean_state("01d")


def test_mp_matches_naive_oracle_on_random_nets():
    from mpunfold import naive_mp_successors, random_network
    from mpunfold.oracle import RandomNetSpec

    for seed in range(10):
        net = random_network(RandomNetSpec(n=3, seed=seed))
        for state in map("".join, product("0id1", repeat=3)):
            assert set(mp_successors(net, state)) == naive_mp_successors(net, state), (
                seed,
                state,
            )
