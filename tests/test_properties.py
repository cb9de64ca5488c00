"""Property tests of the most permissive step, drawn by hypothesis.

Random networks of up to 8 components, with up to 5 regulators per rule
and rule trees up to depth 4, at random most permissive states.  The
examples are derandomized and no example database is kept, so a run is
repeatable.  Skipped when hypothesis is not installed.
"""
from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mpunfold import (  # noqa: E402
    RandomNetSpec,
    gamma_can_be,
    mp_successors,
    naive_mp_successors,
    random_network,
)
from mpunfold import expr as ex  # noqa: E402

REPEATABLE = settings(max_examples=300, deadline=None, database=None, derandomize=True)


@st.composite
def nets_and_states(draw):
    spec = RandomNetSpec(
        n=draw(st.integers(1, 8)),
        max_regulators=draw(st.integers(1, 5)),
        depth=draw(st.integers(0, 4)),
        seed=draw(st.integers(0, 10**6)),
    )
    x = draw(st.text("0id1", min_size=spec.n, max_size=spec.n))
    return random_network(spec), x


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
        values = {ex.evaluate(rule, bits) for bits in readings}
        for v in (0, 1):
            assert gamma_can_be(net, j, x, v) == (v in values)
