"""Triplet encoding, condition construction, unfolding, translation."""
import importlib
import itertools
import random
from itertools import product

import pytest

from mpunfold import (
    ARTIFACT_TRIPLETS,
    LEVEL_TO_TRIPLET,
    RandomNetSpec,
    UnfoldSpec,
    VALID_TRIPLETS,
    async_successors,
    build_condition,
    build_function,
    decode_state,
    encode_state,
    eval_rule,
    example_a,
    fixed_points,
    infer_regulatory_graph,
    parse_bnet,
    print_bnet,
    random_network,
    reachable_set,
    signal_model,
    translate_trajectory,
    triplet_step,
    unfold,
    unfolded_names,
)
from mpunfold import oracle
from mpunfold.expr import And, Const, Not, Or, Var
from mpunfold.network import BooleanNetwork, RuleEvaluator
from mpunfold.unfold import MODES, _Unfolding
from nnf import to_nnf
from tree_eval import _eval
from triplet_image import IMAGE

EXACT = UnfoldSpec(mode="exact")
SYNTACTIC = UnfoldSpec(mode="syntactic")


def bits_of(s):
    return [int(c) for c in s]


def valid_states(n):
    for triplets in product(VALID_TRIPLETS, repeat=n):
        yield "".join(triplets)


def all_states(nbits):
    for i in range(1 << nbits):
        yield format(i, f"0{nbits}b")


# --- encoding ----------------------------------------------------------------

def test_encode_decode_levels():
    net = example_a()
    assert encode_state(net, "0id") == "000001101"
    assert encode_state(net, "111") == "111111111"
    assert decode_state(net, "000001101") == "0id"
    for x in map("".join, product("0id1", repeat=3)):
        assert decode_state(net, encode_state(net, x)) == x


def test_decode_rejects_non_level_triplets():
    net = example_a()
    with pytest.raises(ValueError, match="component 'x2'"):
        decode_state(net, "000011000")  # x2 at transient 011
    with pytest.raises(ValueError, match="component 'x1'"):
        decode_state(net, "010000000")  # artifact
    with pytest.raises(ValueError, match="length 9"):
        decode_state(net, "0000")


def test_partial_encode_requires_boolean_plain_components():
    net = example_a()
    spec = UnfoldSpec(components=("x1",))
    assert encode_state(net, "i01", spec) == "00101"
    with pytest.raises(ValueError, match="'x2'.*not unfolded"):
        encode_state(net, "1i0", spec)


@pytest.mark.parametrize("n", range(1, 6))
def test_layout_round_trips_for_every_selection(n):
    net = random_network(RandomNetSpec(n=n, seed=n))
    names = net.names
    for components in (None, (), names[::2], names[-1:]):
        spec = UnfoldSpec(components=components)
        chosen = set(names if components is None else components)
        out_names = unfolded_names(net, spec)
        width = len(out_names)
        assert width == n + 2 * len(chosen)
        for x in map("".join, product("0id1", repeat=n)):
            if any(c in "id" for name, c in zip(names, x) if name not in chosen):
                with pytest.raises(ValueError, match="not unfolded and must be Boolean"):
                    encode_state(net, x, spec)
                continue
            xt = encode_state(net, x, spec)
            assert len(xt) == width
            assert decode_state(net, xt, spec) == x
            # each output name holds its own bit of its component's level
            bits = dict(zip(out_names, xt))
            for name, level in zip(names, x):
                if name in chosen:
                    triplet = "".join(bits[f"{name}_{letter}"] for letter in "abc")
                    assert triplet == LEVEL_TO_TRIPLET[level]
                else:
                    assert bits[name] == level
        for wrong in ("0" * (width - 1), "0" * (width + 1)):
            expected = f"expected an unfolded Boolean state of length {width}, got"
            with pytest.raises(ValueError, match=expected):
                decode_state(net, wrong, spec)


def test_unfolded_names_orders_and_collisions():
    net = example_a()
    assert unfolded_names(net) == [
        "x1_a", "x1_b", "x1_c",
        "x2_a", "x2_b", "x2_c",
        "x3_a", "x3_b", "x3_c",
    ]
    assert unfolded_names(net, UnfoldSpec(components=("x2",))) == [
        "x1", "x2_a", "x2_b", "x2_c", "x3",
    ]
    clash = parse_bnet("a, b\na_a, a\nb, a_a\n")
    with pytest.raises(ValueError, match="colliding.*a_a"):
        unfold(clash, UnfoldSpec(components=("a",)))


def test_components_as_a_bare_string_are_refused():
    # "ab" names one component; read letter by letter it would unfold a and b
    net = parse_bnet("a, b\nb, a\nab, a & b\n")
    with pytest.raises(ValueError, match="string 'ab'"):
        UnfoldSpec(components="ab")
    assert unfolded_names(net, UnfoldSpec(components=["ab"])) == [
        "a", "b", "ab_a", "ab_b", "ab_c",
    ]


# --- conditions --------------------------------------------------------------

# expected condition formulas for example_a over
# (x1_a, x1_b, x1_c, x2_a, x2_b, x2_c, x3_a, x3_b, x3_c)
CONDITIONS = {
    (0, "plus"): lambda b: b[2] and not b[7],      # x1_c & !x3_b
    (0, "minus"): lambda b: (not b[1]) or b[8],    # !x1_b | x3_c
    (1, "plus"): lambda b: b[2],
    (1, "minus"): lambda b: not b[1],
    (2, "plus"): lambda b: not b[1],
    (2, "minus"): lambda b: b[2],
}


def _check_formulas(net, conditions, spec, states):
    for (j, polarity), expected in conditions.items():
        fr = build_condition(net, j, spec, polarity)
        for s in states:
            b = bits_of(s)
            assert fr.evaluate(b) == int(bool(expected(b))), (j, polarity, s)


def test_conditions_match_formulas_syntactic_everywhere():
    _check_formulas(example_a(), CONDITIONS, SYNTACTIC, all_states(9))


def test_conditions_match_formulas_exact_on_valid_states():
    _check_formulas(example_a(), CONDITIONS, EXACT, valid_states(3))


# constants and stacked negations over (a_a, a_b, a_c, b_a, b_b, b_c, c_a,
# c_b, c_c, d_a, d_b, d_c): a constant is the same on both sides of
# syntactic mode's (plus, !minus) pair
CONSTANTS = "a, !(b & 1) | 0\nb, !!a & !0\nc, 1\nd, 0\n"
CONSTANT_CONDITIONS = {
    (0, "plus"): lambda b: not b[4],  # b may read as 0
    (0, "minus"): lambda b: b[5],  # b may read as 1
    (1, "plus"): lambda b: b[2],
    (1, "minus"): lambda b: not b[1],
    (2, "plus"): lambda b: True,
    (2, "minus"): lambda b: False,
    (3, "plus"): lambda b: False,
    (3, "minus"): lambda b: True,
}


@pytest.mark.parametrize("read", [False, True], ids=["tree", "read"])
def test_conditions_of_constants_and_negations_match_formulas(read):
    net = parse_bnet(CONSTANTS)
    if not read:
        net = BooleanNetwork(list(zip(net.names, net.rules)))
    _check_formulas(net, CONSTANT_CONDITIONS, SYNTACTIC, all_states(12))
    _check_formulas(net, CONSTANT_CONDITIONS, EXACT, valid_states(4))


def test_exact_and_syntactic_agree_on_valid_states_single_polarity():
    # every regulator of example_a occurs with one polarity per rule
    net = example_a()
    for j in range(3):
        for polarity in ("plus", "minus"):
            fe = build_condition(net, j, EXACT, polarity)
            fs = build_condition(net, j, SYNTACTIC, polarity)
            for s in valid_states(3):
                assert fe.evaluate(bits_of(s)) == fs.evaluate(bits_of(s))


def test_modes_diverge_on_mixed_polarity():
    # w <- (x | y) & (!x | z); with x between levels and y = z = 0 no single
    # reading of x satisfies both clauses, but clause-wise substitution does
    net = parse_bnet("x, !x\ny, y\nz, z\nw, (x | y) & (!x | z)\n")
    names = unfolded_names(net)
    state = {name: 0 for name in names}
    state["x_c"] = 1  # x at 001
    b = [state[name] for name in names]
    w = net.index_of("w")
    assert build_condition(net, w, EXACT, "plus").evaluate(b) == 0
    assert build_condition(net, w, SYNTACTIC, "plus").evaluate(b) == 1


def test_conditions_on_boolean_states_reduce_to_rule_value():
    for net in (example_a(), signal_model()):
        for spec in (EXACT, SYNTACTIC):
            for j in range(net.n):
                plus = build_condition(net, j, spec, "plus")
                minus = build_condition(net, j, spec, "minus")
                for bools in product("01", repeat=net.n):
                    x = "".join(bools)
                    b = bits_of(encode_state(net, x))
                    value = eval_rule(net, j, x)
                    assert plus.evaluate(b) == value
                    assert minus.evaluate(b) == 1 - value


def test_conditions_not_complementary_between_levels():
    # at x1 = i both readings are available: f1 can rise and can fall
    net = example_a()
    b = bits_of(encode_state(net, "i00"))
    assert build_condition(net, 0, EXACT, "plus").evaluate(b) == 1
    assert build_condition(net, 0, EXACT, "minus").evaluate(b) == 1


@pytest.mark.parametrize("mode,plus", [("exact", [0, 1]), ("syntactic", [1, 1])])
def test_plus_at_an_artifact_triplet_by_declaration_order(mode, plus):
    # x at the artifact 010 reads as neither value, y at 111 reads as 1:
    # exact mode asks for a reading of x only on the diagram paths that
    # test x, so the declaration order decides; syntactic mode reads every
    # literal (the module docstring states both)
    got = []
    for text in ("x, x | y\ny, y\n", "y, y\nx, x | y\n"):
        net = parse_bnet(text)
        state = "".join({"x": "010", "y": "111"}[name] for name in net.names)
        fr = build_condition(net, net.index_of("x"), UnfoldSpec(mode=mode), "plus")
        got.append(fr.evaluate(bits_of(state)))
    assert got == plus


def test_condition_polarity_validation():
    net = example_a()
    with pytest.raises(ValueError, match="polarity"):
        build_condition(net, 0, EXACT, "sideways")
    with pytest.raises(ValueError, match="mode"):
        UnfoldSpec(mode="quick")


def test_build_condition_checks_its_arguments_before_building(monkeypatch):
    def no_unfolding(*args):
        raise AssertionError("an unfolding was built for a bad argument")

    net = example_a()
    # the module, not the function unfold that mpunfold exports
    monkeypatch.setattr(importlib.import_module("mpunfold.unfold"), "_Unfolding", no_unfolding)
    for j in (-1, net.n, 1.0, "0", None):
        with pytest.raises(ValueError, match=r"component index must be in 0\.\.2"):
            build_condition(net, j, EXACT, "plus")
    with pytest.raises(ValueError, match="polarity must be 'plus' or 'minus'"):
        build_condition(net, 0, SYNTACTIC, "sideways")


def test_exact_conditions_invariant_under_component_permutation():
    from mpunfold import random_network
    from mpunfold.oracle import RandomNetSpec

    def remap(rule, perm_index):
        if isinstance(rule, Var):
            return Var(perm_index[rule.index])
        if isinstance(rule, Const):
            return rule
        if isinstance(rule, Not):
            return Not(remap(rule.operand, perm_index))
        if isinstance(rule, And):
            return And(remap(rule.left, perm_index), remap(rule.right, perm_index))
        return Or(remap(rule.left, perm_index), remap(rule.right, perm_index))

    perm = (2, 0, 1)  # new position of old component k
    for seed in (0, 1, 2):
        net = random_network(RandomNetSpec(n=3, seed=seed))
        order = sorted(range(3), key=lambda k: perm[k])
        permuted = BooleanNetwork(
            [(net.names[k], remap(net.rules[k], perm)) for k in order]
        )
        for j in range(3):
            fa = build_condition(net, j, EXACT, "plus")
            fb = build_condition(permuted, order.index(j), EXACT, "plus")
            for triplets in product(VALID_TRIPLETS, repeat=3):
                state_a = "".join(triplets)
                state_b = "".join(triplets[k] for k in order)
                assert fa.evaluate(bits_of(state_a)) == fb.evaluate(bits_of(state_b))


def _substituted_nnf(net, j, spec, polarity):
    """Reference syntactic condition, a tree over the unfolded variables:
    the negation normal form of rule j (of its negation for minus), each
    literal on k replaced by what k may read as: x_kc for x_k, !x_kb for
    !x_k, the plain x_k when k is not unfolded."""
    names = unfolded_names(net, spec)
    chosen = spec.resolve(net)

    def slot(k, letter):
        name = net.names[k]
        return names.index(f"{name}_{letter}" if k in chosen else name)

    def subst(e):
        if isinstance(e, Var):
            return Var(slot(e.index, "c"))
        if isinstance(e, Not):
            return Not(Var(slot(e.operand.index, "b")))
        if isinstance(e, Const):
            return e
        return type(e)(subst(e.left), subst(e.right))

    return subst(to_nnf(net.rules[j], negate=(polarity == "minus")))


@pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
def test_syntactic_conditions_are_the_substituted_normal_forms(partial):
    mixed = 0
    for n in range(1, 6):
        for seed in range(6):
            net = random_network(RandomNetSpec(n=n, seed=seed))
            components = tuple(net.names[::2]) if partial else None
            spec = UnfoldSpec(components=components, mode="syntactic")
            for j, rule in enumerate(net.rules):
                signs = {}
                for e in _literals(to_nnf(rule)):
                    k = e.index if isinstance(e, Var) else e.operand.index
                    signs.setdefault(k, set()).add(isinstance(e, Var))
                mixed += any(len(s) == 2 for s in signs.values())
                for polarity in ("plus", "minus"):
                    # node ids are canonical within the condition's manager
                    fr = build_condition(net, j, spec, polarity)
                    reference = fr.manager.from_expr(_substituted_nnf(net, j, spec, polarity))
                    assert fr.node == reference, (n, seed, j, polarity)
    assert mixed > 0  # some rules read a regulator both ways


def _literals(e):
    if isinstance(e, (And, Or)):
        return _literals(e.left) + _literals(e.right)
    return [] if isinstance(e, Const) else [e]


# --- unfolded networks -------------------------------------------------------

def test_unfold_full_example_a_matches_frozen_rules():
    from appendix2 import UNFOLDED_RULES, patterns_value

    net = example_a()
    for spec, states in ((SYNTACTIC, list(all_states(9))), (EXACT, list(valid_states(3)))):
        ext = unfold(net, spec)
        assert tuple(ext.names) == tuple(UNFOLDED_RULES)
        for j, name in enumerate(ext.names):
            fr = build_function(ext, j)
            for s in states:
                assert fr.evaluate(bits_of(s)) == patterns_value(
                    UNFOLDED_RULES[name], s
                ), (spec.mode, name, s)


def test_unfold_modes_agree_on_valid_states_for_example_a():
    net = example_a()
    exact = unfold(net, EXACT)
    syntactic = unfold(net, SYNTACTIC)
    for j in range(exact.n):
        fe, fs = build_function(exact, j), build_function(syntactic, j)
        for s in valid_states(3):
            assert fe.evaluate(bits_of(s)) == fs.evaluate(bits_of(s))


def test_unfold_empty_selection_is_identity():
    net = signal_model()
    same = unfold(net, UnfoldSpec(components=()))
    assert same.names == net.names
    for j in range(net.n):
        assert build_function(same, j).truth_table() == build_function(net, j).truth_table()


def test_partial_unfold_signal_x1():
    # plain x3 keeps one variable; its rule reads x1 through the triplet
    net = signal_model()

    def expected(b):
        signal, x1a, x1b, x1c, x2, x3 = b
        return int((not x3 and not x1b and x2) or (x3 and not x1c and x2))

    ext = unfold(net, UnfoldSpec(components=("x1",), mode="syntactic"))
    assert ext.names == ("signal", "x1_a", "x1_b", "x1_c", "x2", "x3")
    fr = build_function(ext, ext.index_of("x3"))
    for s in all_states(6):
        assert fr.evaluate(bits_of(s)) == expected(bits_of(s)), s
    # exact mode agrees wherever the x1 triplet is a valid pattern
    fe = build_function(
        unfold(net, UnfoldSpec(components=("x1",))), ext.index_of("x3")
    )
    for s in all_states(6):
        if s[1:4] not in VALID_TRIPLETS:
            continue
        assert fe.evaluate(bits_of(s)) == expected(bits_of(s)), s


def test_partial_unfold_keeps_untouched_rules():
    # x2's only regulator x1 stays plain, so x2's rule stays f2 = x1
    net = example_a()
    ext = unfold(net, UnfoldSpec(components=("x3",)))
    assert ext.names == ("x1", "x2", "x3_a", "x3_b", "x3_c")
    assert ext.rules[ext.index_of("x2")] == Var(0)
    # x1 cannot rise (f1 reads the plain x1 itself), and it holds at 1 only
    # while the unfolded x3 cannot read as 1: rule is x1 & !x3_c
    f1 = build_function(ext, ext.index_of("x1"))
    for s in all_states(5):
        b = bits_of(s)
        assert f1.evaluate(b) == int(b[0] and not b[4]), s


def test_unfolded_fixed_points_are_encoded_fixed_points():
    from mpunfold import random_network
    from mpunfold.oracle import RandomNetSpec

    nets = [example_a(), signal_model()]
    nets += [random_network(RandomNetSpec(n=3, seed=s)) for s in range(5)]
    for net in nets:
        for spec in (EXACT, SYNTACTIC):
            ext = unfold(net, spec)
            expected = {encode_state(net, p) for p in fixed_points(net)}
            assert set(fixed_points(ext)) == expected, net.names


def test_closure_no_artifacts_reachable():
    net = example_a()
    ext = unfold(net, EXACT)
    seen = set()
    stack = [encode_state(net, x) for x in map("".join, product("0id1", repeat=3))]
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        triplets = [s[k : k + 3] for k in range(0, 9, 3)]
        assert all(t in VALID_TRIPLETS for t in triplets), s
        stack.extend(async_successors(ext, s))
    assert len(seen) > 64  # transients are genuinely visited


# --- partial unfolding: between async and mp ------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_partial_unfolding_lies_between_async_and_mp(n):
    """The module docstring's contract, in exact mode, for every subset S of
    the components and every Boolean source x: the Boolean states (every
    unfolded triplet 000 or 111) that async runs of the S-partial unfolding
    reach from x's encoding contain the states async runs of the network
    reach from x, and lie among those mp runs reach.  They are the mp ones
    when S holds every component that another component reads.  The mp
    side is the oracle's own step, over every rule's values on every
    reading."""
    for seed in range(16 if n < 4 else 4):
        net = random_network(RandomNetSpec(n=n, seed=seed))
        states = ["".join(bits) for bits in product("01", repeat=n)]
        low = {x: set(reachable_set(net, "async", x).nodes) for x in states}
        values = list(oracle._readings(net._walks, 0, (1 << n) - 1).values())
        high = {x: _oracle_mp_boolean(values, n, x) for x in states}
        edges = infer_regulatory_graph(net).edges
        read = {e.source for e in edges if e.source != e.target}
        for mask in range(1 << n):
            chosen = [name for k, name in enumerate(net.names) if mask >> k & 1]
            spec = UnfoldSpec(components=chosen)
            ext = unfold(net, spec)
            boolean = {encode_state(net, x, spec): x for x in states}
            for x in states:
                reached = reachable_set(ext, "async", encode_state(net, x, spec)).nodes
                mid = {boolean[s] for s in reached if s in boolean}
                assert low[x] <= mid <= high[x], (seed, chosen, x)
                assert mid == high[x] or not read <= set(chosen), (seed, chosen, x)


def _oracle_mp_boolean(values, n, x):
    """The Boolean states mp runs reach from x, by the oracle's step: a
    state of the oracle's encoding is Boolean when no level is free."""
    seen = {oracle._encode(x)}
    todo = list(seen)
    while todo:
        for t in oracle._mp_step(values, n, todo.pop()):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return {oracle._decode(n, s) for s in seen if not s >> n}


# --- single-triplet behavior -------------------------------------------------

def test_triplet_step_table():
    assert triplet_step("000", True, False) == "001"
    assert triplet_step("000", False, True) == "000"
    assert triplet_step("001", False, True) == "111"
    assert triplet_step("001", True, False) == "011"
    assert triplet_step("011", False, False) == "111"
    assert triplet_step("111", True, True) == "101"
    assert triplet_step("111", True, False) == "111"
    assert triplet_step("101", True, False) == "000"
    assert triplet_step("101", False, False) == "100"
    assert triplet_step("100", True, True) == "000"
    # artifacts drain to the nearest level
    assert triplet_step("010", True, True) == "000"
    assert triplet_step("110", False, False) == "111"
    with pytest.raises(ValueError):
        triplet_step("012", True, True)


def test_triplet_step_is_the_frozen_image():
    triplets = [own for own in IMAGE if len(own) == 3]
    assert sorted(triplets) == sorted(VALID_TRIPLETS + ARTIFACT_TRIPLETS)
    for own in triplets:
        for plus, minus in product((False, True), repeat=2):
            assert triplet_step(own, plus, minus) == IMAGE[own][2 * plus + minus]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
def test_unfolded_rules_are_triplet_step_images(mode, partial):
    # on every Boolean state, artifacts included: each unfolded letter is its
    # place in triplet_step's image of the own triplet under the component's
    # conditions, and a plain component's bit is its row of the frozen image
    for n in range(1, 5):
        for seed in range(4):
            net = random_network(RandomNetSpec(n=n, seed=seed))
            components = net.names[::2] if partial else None
            spec = UnfoldSpec(components=components, mode=mode)
            ext = unfold(net, spec)
            chosen = spec.resolve(net)
            rules = [build_function(ext, i).truth_table() for i in range(ext.n)]
            conditions = [
                [build_condition(net, k, spec, p).truth_table() for p in ("plus", "minus")]
                for k in range(n)
            ]
            for i, s in enumerate(all_states(ext.n)):
                pos = 0
                for k, (plus, minus) in enumerate(conditions):
                    width = 3 if k in chosen else 1
                    own = s[pos : pos + width]
                    plus, minus = plus >> i & 1, minus >> i & 1
                    if width == 3:
                        expected = triplet_step(own, plus, minus)
                    else:
                        expected = IMAGE[own][2 * plus + minus]
                    got = "".join(str(rules[o] >> i & 1) for o in range(pos, pos + width))
                    assert got == expected, (n, seed, net.names[k], s)
                    pos += width


# --- a local oracle for every unfolded rule, at any size ---------------------

def _may_read(state, widths):
    """Per input component, (may read 1, may read 0) on an unfolded state: 1
    iff its last slot is set, 0 iff its middle slot is clear; a plain bit
    reads as itself, and the artifact 010 as neither."""
    out, pos = [], 0
    for width in widths:
        own = state[pos : pos + width]
        out.append((own[-1] == "1", own[width // 2] == "0"))
        pos += width
    return out


def _exact_pair(net, j, may):
    """(plus, minus) of rule j: which terminals a walk of its diagram reaches,
    following high where 1 may be read and low where 0 may be read."""
    m = net.manager
    reached, todo, seen = set(), [build_function(net, j).node], set()
    while todo:
        u = todo.pop()
        if u in seen:
            continue
        seen.add(u)
        if u < 2:
            reached.add(u)
            continue
        k, low, high = m.triple(u)
        may1, may0 = may[k]
        if may1:
            todo.append(high)
        if may0:
            todo.append(low)
    return 1 in reached, 0 in reached


def _syntactic_pair(e, may):
    """(plus, minus) of a rule tree, folded with Boolean pairs."""
    if isinstance(e, Var):
        return may[e.index]
    if isinstance(e, Const):
        return bool(e.value), not e.value
    if isinstance(e, Not):
        plus, minus = _syntactic_pair(e.operand, may)
        return minus, plus
    (p1, m1), (p2, m2) = _syntactic_pair(e.left, may), _syntactic_pair(e.right, may)
    if isinstance(e, And):
        return p1 and p2, m1 or m2
    return p1 or p2, m1 and m2


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
def test_unfolded_rules_agree_with_a_local_oracle_at_any_size(mode, partial):
    # each rule of the unfolding, on states drawn over all eight triplets
    # (artifacts included), is its bit of the frozen image of the own
    # pattern under conditions read off the input rule directly
    for n in (6, 20, 60, 150):
        for seed in range(4):
            net = random_network(RandomNetSpec(n=n, seed=seed))
            chosen = range(0, n, 2) if partial else range(n)
            widths = [3 if k in chosen else 1 for k in range(n)]
            spec = UnfoldSpec(components=[net.names[k] for k in chosen], mode=mode)
            ctx = _Unfolding(net, spec)
            ev = RuleEvaluator(ctx.manager, ctx.rule_nodes())
            rng = random.Random(f"{n}/{seed}/{partial}")
            for _ in range(50):
                state = "".join(format(rng.randrange(1 << w), f"0{w}b") for w in widths)
                may = _may_read(state, widths)
                expected, pos = [], 0
                for j, width in enumerate(widths):
                    if mode == "exact":
                        plus, minus = _exact_pair(net, j, may)
                    else:
                        plus, minus = _syntactic_pair(net.rules[j], may)
                    expected.append(IMAGE[state[pos : pos + width]][2 * plus + minus])
                    pos += width
                got = format(ev.image(int(state, 2)), f"0{len(state)}b")
                assert got == "".join(expected), (n, seed, state)


def _x2_flip_targets(ext, state):
    """Successors of state that change exactly one of x2's letters."""
    out = {}
    for t in async_successors(ext, state):
        diff = [k for k in range(9) if t[k] != state[k]]
        if len(diff) == 1 and 3 <= diff[0] <= 5:
            out[t[3:6]] = t
    return out


RISING = ("000", "001", "011", "111")
FALLING = ("111", "101", "100", "000")


def test_rising_and_falling_routes():
    # x1 at 001 reads both ways, so plus_2 and minus_2 both hold
    net = example_a()
    ext = unfold(net, EXACT)
    context = lambda own: "001" + own + "000"
    for here, there in zip(RISING, RISING[1:]):
        assert there in _x2_flip_targets(ext, context(here)), (here, there)
    for here, there in zip(FALLING, FALLING[1:]):
        assert there in _x2_flip_targets(ext, context(here)), (here, there)
    # the a variable stays put until the final step of each route
    assert [t[0] for t in RISING[:-1]] == ["0", "0", "0"]
    assert [t[0] for t in FALLING[:-1]] == ["1", "1", "1"]


def test_route_steps_controlled_by_conditions():
    net = example_a()
    ext = unfold(net, EXACT)
    # x1 at 000: plus_2 = 0, minus_2 = 1 -> rise blocked at the start only
    low = lambda own: "000" + own + "000"
    assert "001" not in _x2_flip_targets(ext, low("000"))
    assert "011" in _x2_flip_targets(ext, low("001"))
    assert "111" in _x2_flip_targets(ext, low("011"))
    # x1 at 111: plus_2 = 1, minus_2 = 0 -> fall blocked at the start only
    high = lambda own: "111" + own + "000"
    assert "101" not in _x2_flip_targets(ext, high("111"))
    assert "100" in _x2_flip_targets(ext, high("101"))
    assert "000" in _x2_flip_targets(ext, high("100"))
    # and the controlled first steps fire when their condition holds
    assert "001" in _x2_flip_targets(ext, high("000"))
    assert "101" in _x2_flip_targets(ext, low("111"))


# a 9-component CNF model with four 3-literal clauses per rule; its exact
# unfolding has rules whose sums of products run to over a thousand cubes
CNF9_4X3_BNET = """\
targets, factors
c1, (c1 | !c3 | c7) & (!c7 | c8 | c9) & (c2 | c4 | !c7) & (c4 | c6 | c8)
c2, (c2 | c7 | !c8) & (!c3 | !c6 | !c9) & (c1 | !c2 | !c6) & (!c6 | !c7 | c9)
c3, (c7 | !c8 | c9) & (c1 | !c3 | c8) & (c7 | !c8 | c9) & (!c2 | c4 | !c5)
c4, (c3 | !c7 | c9) & (c2 | c3 | !c8) & (!c2 | !c3 | !c8) & (!c3 | c5 | !c8)
c5, (!c1 | c4 | c9) & (c2 | !c3 | c4) & (c4 | !c6 | c9) & (c4 | c5 | c6)
c6, (c3 | c4 | !c6) & (!c2 | c3 | c8) & (!c7 | c8 | c9) & (!c3 | !c7 | c9)
c7, (!c1 | c2 | !c7) & (c1 | !c3 | c8) & (c3 | c6 | c7) & (!c2 | !c7 | c8)
c8, (c6 | c8 | !c9) & (!c5 | !c6 | !c9) & (!c1 | c7 | !c9) & (!c1 | c4 | !c8)
c9, (c2 | c5 | c6) & (c6 | !c7 | c9) & (!c1 | c4 | !c8) & (c1 | !c8 | c9)
"""


@pytest.mark.xfail(
    strict=True,
    raises=RecursionError,
    reason="ROADMAP item 2: unfold gives its output rule trees, and "
    "expr.variables recurses through their long sums of products",
)
def test_exact_unfolding_of_a_cnf_model_reads_back():
    net = parse_bnet(CNF9_4X3_BNET)
    ext = unfold(net, EXACT)
    back = parse_bnet(print_bnet(ext))
    ctx = _Unfolding(net, EXACT)
    ev = RuleEvaluator(ctx.manager, ctx.rule_nodes())
    rng = random.Random(0)
    for _ in range(200):
        s = rng.randrange(1 << ev.n)
        assert back.evaluator.image(s) == ev.image(s), format(s, f"0{ev.n}b")


# --- trajectory translation --------------------------------------------------

def test_translate_trajectory_golden_path():
    net = example_a()
    path = ["111", "d11", "dd1", "d01", "001"]
    assert translate_trajectory(net, path) == [
        "111111111",
        "101111111",
        "101101111",
        "101100111",
        "101000111",
        "100000111",
        "000000111",
    ]


def test_translate_trajectory_expansions():
    net = example_a()
    assert translate_trajectory(net, []) == []
    assert translate_trajectory(net, ["0i0"]) == ["000001000"]
    # i -> 1 commits through the transient 011
    assert translate_trajectory(net, ["000", "00i", "001"]) == [
        "000000000",
        "000000001",
        "000000011",
        "000000111",
    ]


def test_translate_trajectory_steps_are_async_transitions():
    net = example_a()
    ext = unfold(net, EXACT)
    path = ["111", "d11", "dd1", "d01", "001"]
    encoded = translate_trajectory(net, path)
    for here, there in zip(encoded, encoded[1:]):
        assert there in async_successors(ext, here)


def test_translate_trajectory_rejects_bad_paths():
    net = example_a()
    with pytest.raises(ValueError, match="not a most permissive successor"):
        translate_trajectory(net, ["000", "010"])
    with pytest.raises(ValueError, match="most permissive state"):
        translate_trajectory(net, ["00x"])


# --- hand-over: the unfolding keeps the diagrams unfold built ------------------

@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
def test_unfold_hands_over_its_diagrams(mode, partial):
    for n in range(1, 7):
        for seed in range(3):
            net = random_network(RandomNetSpec(n=n, seed=seed))
            components = net.names[::2] if partial else None
            ext = unfold(net, UnfoldSpec(components=components, mode=mode))
            m = ext.manager
            before = len(m._triples)
            print_bnet(ext)
            ext.evaluator
            assert len(m._triples) == before, (n, seed)
            for j, rule in enumerate(ext.rules):
                assert build_function(ext, j).node == m.from_expr(rule), (n, seed, ext.names[j])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
def test_rule_nodes_build_each_condition_pair_once(monkeypatch, mode, partial):
    """One rule_nodes call builds each component's (plus, minus) pair once,
    not once per output bit, whichever components are unfolded."""
    built = []
    for name in ("_exact", "_syntactic"):
        method = getattr(_Unfolding, name)
        monkeypatch.setattr(
            _Unfolding, name, lambda self, j, method=method: built.append(j) or method(self, j)
        )
    for n in range(1, 6):
        for seed in range(3):
            net = random_network(RandomNetSpec(n=n, seed=seed))
            components = net.names[1:] if partial else None
            ctx = _Unfolding(net, UnfoldSpec(components=components, mode=mode))
            built.clear()
            nodes = ctx.rule_nodes()
            assert len(nodes) == len(ctx.out_names)
            assert built == list(range(n)), (n, seed)


@pytest.mark.parametrize("mode", MODES)
def test_rule_nodes_evaluate_as_the_unfolded_network(mode):
    """The theorem check's evaluator over _Unfolding.rule_nodes, built with
    no network, gives unfold's network's image, and its rule trees' values,
    on every state."""
    for n in range(1, 4):
        for seed in range(3):
            net = random_network(RandomNetSpec(n=n, seed=seed))
            for components in (None, net.names[:1]):
                spec = UnfoldSpec(components=components, mode=mode)
                ctx = _Unfolding(net, spec)
                ev = RuleEvaluator(ctx.manager, ctx.rule_nodes())
                ext = unfold(net, spec)
                assert ev.n == ext.n
                for s in range(1 << ev.n):
                    bits = bits_of(format(s, f"0{ev.n}b"))
                    tree_image = "".join(str(_eval(r, bits)) for r in ext.rules)
                    assert ev.image(s) == ext.evaluator.image(s) == int(tree_image, 2), (
                        n, seed, components, s,
                    )


# --- the unfolding built as truth tables ---------------------------------------

# two regulators of w, x with both signs: syntactic mode over-approximates
DIVERGENT = "x, !x\ny, y\nz, z\nw, (x | y) & (!x | z)\n"


def _assert_masks_are_the_diagrams_tables(net, spec):
    """The unfolding built in a _MaskAlgebra gives, for every condition and
    every rule, the truth table of the diagram that the DiagramManager
    construction builds."""
    from mpunfold.bdd import _MaskAlgebra

    masks, diagrams = _Unfolding(net, spec, _MaskAlgebra), _Unfolding(net, spec)
    conditions = [c for j in range(net.n) for c in diagrams.conditions(j)]
    want = diagrams.manager._truth_tables(conditions + diagrams.rule_nodes())
    got = [c for j in range(net.n) for c in masks.conditions(j)] + masks.rule_nodes()
    assert got == want, (spec, net.names)


def _subsets(names):
    return [c for r in range(len(names) + 1) for c in itertools.combinations(names, r)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", range(1, 7))
def test_mask_tables_are_the_rule_diagrams_truth_tables(n, mode):
    """On random nets of 1 to 6 components with 1 to 3 regulators a rule,
    unfolded whole, and in every partial unfolding up to 4 components."""
    for seed in range(6):
        for regulators in (1, 2, 3):
            net = random_network(RandomNetSpec(n=n, max_regulators=regulators, seed=seed))
            for components in _subsets(net.names) if n <= 4 else [None]:
                _assert_masks_are_the_diagrams_tables(net, UnfoldSpec(components, mode))


@pytest.mark.parametrize("mode", MODES)
def test_mask_tables_are_the_rule_diagrams_truth_tables_on_models(mode):
    from pathlib import Path

    from mpunfold import parse_bnet_file

    models = sorted(Path(__file__).resolve().parent.parent.glob("models/*.bnet"))
    nets = [parse_bnet_file(str(path)) for path in models] + [parse_bnet(DIVERGENT)]
    for net in nets:
        for components in _subsets(net.names):
            _assert_masks_are_the_diagrams_tables(net, UnfoldSpec(components, mode))
