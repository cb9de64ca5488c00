"""The naive successor oracle, random nets, and the equivalence check."""
import math

import pytest

from mpunfold import (
    RandomNetSpec,
    check_equivalence,
    example_a,
    mp_successors,
    parse_bnet,
    random_network,
    signal_model,
    unfold,
)
from mpunfold.expr import And, Not, Or, Var
from mpunfold.network import build_function, support
from mpunfold.reach import _bfs
from mpunfold.semantics import async_successors
from mpunfold.unfold import UnfoldSpec, encode_state

from nnf import to_nnf
from table1 import TABLE1, expand

DIVERGENT = "x, !x\ny, y\nz, z\nw, (x | y) & (!x | z)\n"


# --- naive successors ----------------------------------------------------------

def test_naive_mp_successors_examples():
    from mpunfold.oracle import naive_mp_successors

    net = example_a()
    assert naive_mp_successors(net, "000") == {"00i"}
    # at 0id: f1 = f2 = 0 and f3 = 1 over every completion, so x2 may fall,
    # x3 may rise, and both may commit
    assert naive_mp_successors(net, "0id") == {"0dd", "01d", "0ii", "0i0"}
    assert naive_mp_successors(net, "110") == set()


def test_naive_mp_successors_validation():
    from mpunfold.oracle import naive_mp_successors

    net = example_a()
    for x in ("0x0", 5, list("000")):
        with pytest.raises(ValueError, match="not a most permissive state"):
            naive_mp_successors(net, x)
    big = parse_bnet("".join(f"a{k}, a{k}\n" for k in range(11)))
    with pytest.raises(ValueError, match="n <= 10"):
        naive_mp_successors(big, "0" * 11)


def test_table_agreement_all_64_states():
    from mpunfold.oracle import naive_mp_successors

    net = example_a()
    for state, patterns in TABLE1.items():
        expected = expand(state, patterns)
        assert naive_mp_successors(net, state) == expected, state
        listed = mp_successors(net, state)
        assert len(listed) == len(set(listed))  # no duplicate moves
        assert set(listed) == expected, state


def test_oracle_agrees_with_mp_successors_on_random_nets():
    from itertools import product

    from mpunfold.oracle import naive_mp_successors

    for seed in range(10):
        net = random_network(RandomNetSpec(n=3, seed=seed))
        for levels in product("0id1", repeat=3):
            x = "".join(levels)
            assert set(mp_successors(net, x)) == naive_mp_successors(net, x), (
                seed,
                x,
            )


# --- random networks -----------------------------------------------------------

def _literal_polarities(rule, acc, negated=False):
    if isinstance(rule, Var):
        acc.add((rule.index, not negated))
    elif isinstance(rule, Not):
        _literal_polarities(rule.operand, acc, not negated)
    elif isinstance(rule, (And, Or)):
        _literal_polarities(rule.left, acc, negated)
        _literal_polarities(rule.right, acc, negated)


def test_random_network_is_deterministic():
    spec = RandomNetSpec(n=4, max_regulators=2, depth=2, seed=7)
    a, b = random_network(spec), random_network(spec)
    assert a.names == b.names
    assert a.rules == b.rules
    other = random_network(RandomNetSpec(n=4, max_regulators=2, depth=2, seed=8))
    assert other.rules != a.rules


def test_random_network_respects_spec_bounds():
    for seed in range(20):
        spec = RandomNetSpec(n=5, max_regulators=2, depth=2, seed=seed)
        net = random_network(spec)
        assert net.names == ("x1", "x2", "x3", "x4", "x5")
        non_constant = 0
        for j in range(net.n):
            fr = build_function(net, j)
            assert len(support(fr)) <= spec.max_regulators
            if not fr.is_true and not fr.is_false:
                non_constant += 1
        assert non_constant >= 1


def test_random_network_depth_zero_gives_literals():
    net = random_network(RandomNetSpec(n=3, depth=0, seed=1))
    for rule in net.rules:
        assert isinstance(rule, (Var, Not))


def test_random_networks_exercise_mixed_polarity():
    # the sweep must include rules reading a regulator both ways, otherwise
    # the syntactic mode would never be stressed
    mixed = 0
    for seed in range(20):
        net = random_network(RandomNetSpec(n=3, seed=seed))
        for rule in net.rules:
            acc = set()
            _literal_polarities(to_nnf(rule), acc)
            if any((k, True) in acc and (k, False) in acc for k, _ in acc):
                mixed += 1
    assert mixed >= 1


def test_random_network_validation():
    with pytest.raises(ValueError):
        random_network(RandomNetSpec(n=0))
    with pytest.raises(ValueError):
        random_network(RandomNetSpec(n=2, max_regulators=0))
    # a size that is no int is refused before drawing, not deep inside it
    for spec in (
        RandomNetSpec(n=3, depth=1.5),
        RandomNetSpec(n=2.5),
        RandomNetSpec(n=3, max_regulators=2.5),
        RandomNetSpec(n="3"),
    ):
        with pytest.raises(ValueError, match="must be integers"):
            random_network(spec)


# --- equivalence check ---------------------------------------------------------

def test_equivalence_example_a_both_modes():
    net = example_a()
    for mode in ("exact", "syntactic"):
        report = check_equivalence(net, mode=mode, label="example-a")
        assert report.ok, report.mismatches[:1]
        assert report.pairs_checked == 64
        assert report.label == "example-a"
        assert report.mode == mode


def test_equivalence_rejects_a_bad_mode_before_stepping(monkeypatch):
    import mpunfold.oracle as oracle

    steps = []
    step = oracle._mp_step
    monkeypatch.setattr(
        oracle, "_mp_step", lambda v, n, x: steps.append(x) or step(v, n, x)
    )
    with pytest.raises(ValueError, match="mode must be one of .*got 'bogus'"):
        check_equivalence(example_a(), mode="bogus")
    assert steps == []
    check_equivalence(example_a(), mode="exact")
    assert steps  # the wrapper counts the steps of a good mode


def test_equivalence_signal_model():
    report = check_equivalence(signal_model(), mode="exact")
    assert report.ok
    assert report.pairs_checked == 256
    assert report.label == "signal,x1,x2,x3"


def test_equivalence_builds_no_unfolded_network(monkeypatch):
    """The unfolded side builds the unfolding's rules as truth tables:
    neither unfold nor the sum-of-products trees of its output are built,
    no diagram manager over its 3n variables is made, and the only truth
    tables read off diagrams are the input's, for the plain side's one
    image table."""
    import importlib

    from mpunfold.bdd import DiagramManager

    def no_network(*args):
        raise AssertionError("the check built the unfolded network")

    # the module, not the function unfold that mpunfold exports
    unfold_module = importlib.import_module("mpunfold.unfold")
    monkeypatch.setattr(unfold_module, "unfold", no_network)
    monkeypatch.setattr(unfold_module, "_node_to_expr", no_network)
    made, read = [], []  # the managers' widths; (manager, nodes) of every table pass
    init, tables = DiagramManager.__init__, DiagramManager._truth_tables
    monkeypatch.setattr(
        DiagramManager, "__init__", lambda m, nvars: made.append(nvars) or init(m, nvars)
    )
    monkeypatch.setattr(
        DiagramManager,
        "_truth_tables",
        lambda m, nodes: read.append((m, list(nodes))) or tables(m, nodes),
    )
    for net, pairs in ((example_a(), 64), (signal_model(), 256)):
        for mode in ("exact", "syntactic"):
            made.clear()
            read.clear()
            assert check_equivalence(net, mode=mode).as_dict() == {
                "label": ",".join(net.names),
                "mode": mode,
                "pairs_checked": pairs,
                "mismatches": [],
                "subsumption_violations": [],
                "ok": True,
            }
            assert 3 * net.n not in made, mode
            assert read == [(net.manager, list(net.nodes))], mode


def test_equivalence_detects_syntactic_overreach():
    net = parse_bnet(DIVERGENT)
    assert check_equivalence(net, mode="exact").ok
    report = check_equivalence(net, mode="syntactic")
    assert not report.ok
    assert len(report.mismatches) == 4
    first = report.mismatches[0]
    assert (first.source, first.target) == ("0000", "0001")
    assert not first.mp_reachable and first.unfolded_reachable
    # the mismatch witness is a genuine async run of the (wrong) unfolding
    ext = unfold(net, UnfoldSpec(mode="syntactic"))
    assert first.witness[0] == encode_state(net, "0000")
    assert first.witness[-1] == encode_state(net, "0001")
    for a, b in zip(first.witness, first.witness[1:]):
        assert b in async_successors(ext, a)
    assert not report.subsumption_violations


def test_equivalence_report_as_dict():
    d = check_equivalence(example_a(), label="demo").as_dict()
    assert d == {
        "label": "demo",
        "mode": "exact",
        "pairs_checked": 64,
        "mismatches": [],
        "subsumption_violations": [],
        "ok": True,
    }


def test_equivalence_guard():
    big = parse_bnet("".join(f"a{k}, a{k}\n" for k in range(7)))
    with pytest.raises(ValueError, match="n <= 6"):
        check_equivalence(big)


# --- the check explores only what the encoded states reach -------------------

def _parents(adjacency, start):
    """The parent map of a breadth-first search from start over a map of
    successor lists, by the explorers' own search."""
    return _bfs(adjacency.__getitem__, [start], math.inf)[0]


def _all_states_report(net, mode, label=""):
    """check_equivalence as first written, kept as a reference: the mp graph
    over all 4^n states from naive_mp_successors, and the async graph of the
    unfolding over all 2^(3n) states from its rules' truth tables."""
    from itertools import product

    from mpunfold.oracle import (
        EquivalenceReport,
        Mismatch,
        _LEVEL_ORDER,
        _path,
        naive_mp_successors,
    )

    order = lambda s: tuple(_LEVEL_ORDER[c] for c in s)
    mp_adj = {
        x: sorted(naive_mp_successors(net, x), key=order)
        for x in ("".join(t) for t in product("0id1", repeat=net.n))
    }
    bool_states = ["".join(t) for t in product("01", repeat=net.n)]
    mp_parents = {x: _parents(mp_adj, x) for x in bool_states}
    ext = unfold(net, UnfoldSpec(components=None, mode=mode))
    m = ext.n
    size = 1 << m
    tables = [
        build_function(ext, j).truth_table().to_bytes(size // 8, "little")
        for j in range(m)
    ]
    adjacency = []
    for idx in range(size):
        adjacency.append(
            [
                idx ^ (1 << (m - 1 - j))
                for j in range(m)
                if tables[j][idx >> 3] >> (idx & 7) & 1 != (idx >> (m - 1 - j) & 1)
            ]
        )
    enc = {x: int(encode_state(net, x), 2) for x in bool_states}
    unf_parents = {x: _parents(adjacency, enc[x]) for x in bool_states}
    report = EquivalenceReport(
        label=label or ",".join(net.names), mode=mode, pairs_checked=len(bool_states) ** 2
    )
    for x in bool_states:
        for y in bool_states:
            a, b = y in mp_parents[x], enc[y] in unf_parents[x]
            if a != b:
                if a:
                    witness = _path(mp_parents[x], y)
                else:
                    path = _path(unf_parents[x], enc[y])
                    witness = [format(i, f"0{m}b") for i in path]
                report.mismatches.append(Mismatch(x, y, a, b, witness))
    async_adj = {x: async_successors(net, x) for x in bool_states}
    for x in bool_states:
        for y in _parents(async_adj, x):
            if y not in mp_parents[x]:
                report.subsumption_violations.append((x, y))
    return report


@pytest.mark.parametrize("mode", ["exact", "syntactic"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_equivalence_equals_the_all_states_reference_on_random_nets(n, mode):
    for seed in range(6):
        net = random_network(RandomNetSpec(n=n, seed=seed))
        label = f"seed-{seed}"
        assert (
            check_equivalence(net, mode=mode, label=label).as_dict()
            == _all_states_report(net, mode, label).as_dict()
        ), seed


@pytest.mark.parametrize("mode", ["exact", "syntactic"])
@pytest.mark.parametrize("model", [example_a, signal_model, lambda: parse_bnet(DIVERGENT)])
def test_equivalence_equals_the_all_states_reference_on_models(model, mode):
    net = model()
    assert check_equivalence(net, mode=mode).as_dict() == _all_states_report(net, mode).as_dict()


def _closure_size(step, starts):
    seen, todo = set(starts), list(starts)
    while todo:
        for t in step(todo.pop()):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return len(seen)


@pytest.mark.parametrize("n", [3, 4])
def test_check_steps_each_state_once_per_side(monkeypatch, n):
    """On an ok check the mp side's step runs once per state it reaches, not
    once per Boolean source that reaches the state; the plain asynchronous
    side steps each Boolean state once, on the one image table made, of
    2^n entries; the unfolded side runs on sets of states and steps none,
    and no witness search runs."""
    from itertools import product

    import mpunfold.network as network
    import mpunfold.oracle as oracle
    from mpunfold.oracle import naive_mp_successors

    stepped, images = [], []  # the states the mp step got; the image tables made
    mp_step, transpose, step = oracle._mp_step, network._transpose, oracle._async
    monkeypatch.setattr(
        oracle, "_mp_step", lambda v, n, x: stepped.append(x) or mp_step(v, n, x)
    )
    monkeypatch.setattr(
        network, "_transpose", lambda t: images.append(1 << len(t)) or transpose(t)
    )
    plain = []  # the states the asynchronous step got, on n components only

    def plain_step(ev, s):
        assert ev.n == n, "the check stepped an unfolded state"
        plain.append(s)
        return step(ev, s)

    monkeypatch.setattr(oracle, "_async", plain_step)
    for seed in range(8):
        net = random_network(RandomNetSpec(n=n, seed=seed))
        bool_states = ["".join(t) for t in product("01", repeat=n)]
        reached = _closure_size(lambda x: naive_mp_successors(net, x), bool_states)
        for log in (stepped, plain, images):
            log.clear()
        assert oracle.check_equivalence(net).ok
        assert len(stepped) == len(set(stepped)) == reached, seed
        assert plain == list(range(1 << n)), seed
        assert images == [1 << n], seed


def test_report_on_broken_sides_equals_per_source_searches(monkeypatch):
    """Witnesses on the mp side and subsumption violations appear only when
    a side is wrong: break the truth tables that both the sets of states and
    the witness steps read, the unfolding's (its rules built as tables) and
    the input's (its _ImageTable), and compare the report with one
    breadth-first search per Boolean source."""
    from itertools import product

    import mpunfold.oracle as oracle
    from mpunfold.network import _ImageTable, _transpose
    from mpunfold.oracle import _LEVEL_ORDER, Mismatch, _path, naive_mp_successors
    from mpunfold.semantics import _async
    from mpunfold.unfold import _Unfolding

    def lossy(ev, s):  # the unfolded side keeps only its first move
        return _async(ev, s)[:1]

    def jumpy(x):  # plain async flips every component at every state
        return [x[:j] + "10"[int(c)] + x[j + 1:] for j, c in enumerate(x)]

    def tables_of(images, m):  # the truth tables of m rules with these images
        return [
            sum((image >> m - 1 - j & 1) << s for s, image in enumerate(images))
            for j in range(m)
        ]

    class Lossy(_Unfolding):
        """lossy: each state flips only the top bit of its flips"""

        def rule_nodes(self):
            tables = super().rule_nodes()
            flips = [image ^ s for s, image in enumerate(_transpose(tables))]
            images = [s ^ (1 << d.bit_length() >> 1) for s, d in enumerate(flips)]
            return tables_of(images, len(tables))

    class Jumpy(_ImageTable):
        """jumpy on the input's n components"""

        def __init__(self, manager, nodes):
            super().__init__(manager, nodes)
            self.tables = tables_of([~s & ~(-1 << n) for s in range(1 << n)], n)

    monkeypatch.setattr(oracle, "_Unfolding", Lossy)
    monkeypatch.setattr(oracle, "_ImageTable", Jumpy)
    order = lambda s: tuple(_LEVEL_ORDER[c] for c in s)
    mp_witnesses = violations = 0
    for n in (2, 3):
        for seed in range(4):
            net = random_network(RandomNetSpec(n=n, seed=seed))
            ext = unfold(net, UnfoldSpec(mode="exact"))
            bool_states = ["".join(t) for t in product("01", repeat=n)]
            mp_adj = {
                x: sorted(naive_mp_successors(net, x), key=order)
                for x in ("".join(t) for t in product("0id1", repeat=n))
            }
            unf_adj = {s: lossy(ext.evaluator, s) for s in range(1 << ext.n)}
            async_adj = {x: jumpy(x) for x in bool_states}
            enc = {x: int(encode_state(net, x), 2) for x in bool_states}
            mismatches, violating = [], []
            for x in bool_states:
                mp_parents, unf_parents = _parents(mp_adj, x), _parents(unf_adj, enc[x])
                for y in bool_states:
                    a, b = y in mp_parents, enc[y] in unf_parents
                    if a and not b:
                        mismatches.append(Mismatch(x, y, a, b, _path(mp_parents, y)))
                    elif b and not a:
                        path = _path(unf_parents, enc[y])
                        witness = [format(t, f"0{ext.n}b") for t in path]
                        mismatches.append(Mismatch(x, y, a, b, witness))
                violating += [(x, y) for y in _parents(async_adj, x) if y not in mp_parents]
            report = oracle.check_equivalence(net)
            assert report.mismatches == mismatches, (n, seed)
            assert report.subsumption_violations == violating, (n, seed)
            mp_witnesses += sum(m.mp_reachable for m in mismatches)
            violations += len(violating)
    assert mp_witnesses and violations


def _condense_reach(tables, sources):
    """oracle._reach's masks over _condense, stepping _async on the image
    table of these truth tables."""
    from functools import partial
    from types import SimpleNamespace

    from mpunfold.network import _transpose
    from mpunfold.oracle import _reach
    from mpunfold.semantics import _async

    table = SimpleNamespace(image=_transpose(tables).__getitem__)
    return _reach(partial(_async, table), sources)


@pytest.mark.parametrize("mode", ["exact", "syntactic"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_set_reach_agrees_with_condense_on_unfoldings(n, mode):
    """Each Boolean source's reachable encodings, read off one closure on
    sets of states of the unfolding, are those _condense finds; and so on
    the Gray counter, whose one long cycle takes a sweep for every few of
    its states."""
    from itertools import product

    from mpunfold.bdd import _MaskAlgebra
    from mpunfold.oracle import _set_reach
    from mpunfold.unfold import _Unfolding

    from shapes import gray_counter

    nets = [random_network(RandomNetSpec(n=n, seed=seed)) for seed in range(4)]
    nets.append(parse_bnet(gray_counter(n)))
    for net in nets:
        tables = _Unfolding(net, UnfoldSpec(mode=mode), _MaskAlgebra).rule_nodes()
        enc = [int(encode_state(net, "".join(t)), 2) for t in product("01", repeat=n)]
        assert _set_reach(tables, enc) == _condense_reach(tables, enc), net.names


@pytest.mark.parametrize("n", range(1, 9))
def test_set_reach_agrees_with_condense_on_plain_async(n):
    """The same on the plain asynchronous graph, from every state, for
    random nets and the Gray counter, and from the states in an order of
    their own: bit k of a mask is the k-th source, not state k."""
    import random

    from mpunfold.oracle import _set_reach

    from shapes import gray_counter

    nets = [
        random_network(RandomNetSpec(n=n, seed=seed, max_regulators=regulators))
        for seed in range(3) for regulators in (1, 3)
    ]
    nets.append(parse_bnet(gray_counter(n)))
    for net in nets:
        tables = net.manager._truth_tables(net.nodes)
        every = range(1 << n)
        shuffled = random.Random(n).sample(every, len(every))
        for sources in (every, shuffled):
            assert _set_reach(tables, sources) == _condense_reach(tables, sources), net.names


def _brute_mp_successors(net, x):
    """Most permissive successors from the definition, on strings: the
    values of each rule on every completion of x by eval_rule, then the
    four cases of each component."""
    from itertools import product

    from mpunfold import eval_rule

    free = [k for k, c in enumerate(x) if c in "id"]
    seen = [set() for _ in range(net.n)]  # the values rule j takes on gamma(x)
    for choice in product("01", repeat=len(free)):
        y = list(x)
        for k, c in zip(free, choice):
            y[k] = c
        for j in range(net.n):
            seen[j].add(eval_rule(net, j, "".join(y)))
    out = set()
    for j, c in enumerate(x):
        moves = {"0": "i" if 1 in seen[j] else "", "1": "d" if 0 in seen[j] else ""}
        moves["i"] = "1" + ("d" if 0 in seen[j] else "")
        moves["d"] = "0" + ("i" if 1 in seen[j] else "")
        out |= {x[:j] + level + x[j + 1 :] for level in moves[c]}
    return out


def test_naive_mp_successors_equal_the_definition_on_random_nets():
    from itertools import product

    from mpunfold.oracle import naive_mp_successors

    for n in (1, 2, 3, 4):
        for seed in range(4):
            net = random_network(RandomNetSpec(n=n, seed=seed))
            for levels in product("0id1", repeat=n):
                x = "".join(levels)
                assert naive_mp_successors(net, x) == _brute_mp_successors(net, x), (
                    n, seed, x,
                )


def test_the_oracle_codec_round_trips():
    from itertools import product

    from mpunfold.oracle import _decode, _encode

    for n in (1, 2, 3, 4):
        codes = set()
        for levels in product("0id1", repeat=n):
            x = "".join(levels)
            code = _encode(x)
            assert 0 <= code < 1 << 2 * n
            assert _decode(n, code) == x
            codes.add(code)
        assert len(codes) == 4**n
    # component j in bit j of each half: val low, free high
    assert [_encode(c) for c in "0d1i"] == [0b00, 0b10, 0b01, 0b11]
    assert _encode("1i0d") == 0b1010_0011


def _count_walks(monkeypatch, net, calls):
    """Wrap each of net's walks to append (j, its builders' const(1)) to
    calls: the oracle's builders give full, the mask of every reading."""
    def counted(j, walk):
        def call(var, const, neg, conj, disj):
            calls.append((j, const(1)))
            return walk(var, const, neg, conj, disj)
        return call

    monkeypatch.setattr(net, "_walks", tuple(map(counted, range(net.n), net._walks)))


def test_each_rule_is_walked_once(monkeypatch):
    """The check calls every rule's walk once, over all 2^n readings at
    once; naive_mp_successors calls each once over x's own completions.
    Syntactic mode's conditions call each walk once more, with pairs of the
    build builders of the tables over the unfolding's 3n variables."""
    from mpunfold.oracle import naive_mp_successors

    calls = []  # (j, full) of every walk
    for n in (1, 2, 3, 4):
        for seed in range(4):
            net = random_network(RandomNetSpec(n=n, seed=seed))
            _count_walks(monkeypatch, net, calls)
            full = (1 << 2**n) - 1
            calls.clear()
            check_equivalence(net)
            assert calls == [(j, full) for j in range(n)], (n, seed)
            calls.clear()
            check_equivalence(net, mode="syntactic")
            every = (1 << 2 ** (3 * n)) - 1  # the table of 1 on the unfolding
            conditions = [(j, (every, every)) for j in range(n)]  # (plus, !minus) of 1
            assert calls == [(j, full) for j in range(n)] + conditions, (n, seed)
    net = random_network(RandomNetSpec(n=10, seed=0))
    _count_walks(monkeypatch, net, calls)
    for x, completions in (("0110100101", 1), ("01i01d0101", 4)):
        calls.clear()
        assert naive_mp_successors(net, x) == _brute_mp_successors(net, x)
        assert calls == [(j, (1 << completions) - 1) for j in range(10)], x


@pytest.mark.parametrize("read", [False, True], ids=["tree", "read"])
def test_naive_successors_use_no_library_evaluator(monkeypatch, read):
    """naive_mp_successors answers with the rule evaluators of semantics.py
    and of the diagrams all raising, on a network built from trees and on
    one read from text (its walks the grammar), and its answers are the
    library's, taken before they were made to raise."""
    from itertools import product

    from mpunfold import semantics
    from mpunfold.bdd import DiagramManager
    from mpunfold.expr import format_expr
    from mpunfold.network import RuleEvaluator
    from mpunfold.oracle import naive_mp_successors

    states = ["".join(t) for t in product("0id1", repeat=4)]
    nets = []
    for seed in range(4):
        net = random_network(RandomNetSpec(n=4, seed=seed))
        if read:
            lines = [f"{a}, {format_expr(r, net.names)}\n" for a, r in net.components()]
            net = parse_bnet("".join(lines))
        nets.append((net, {x: set(mp_successors(net, x)) for x in states}))

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called a library evaluator")

    monkeypatch.setattr(RuleEvaluator, "mp_values", forbidden)
    monkeypatch.setattr(semantics, "_mp", forbidden)
    monkeypatch.setitem(semantics.SEMANTICS, "mp", forbidden)
    monkeypatch.setattr(DiagramManager, "evaluate", forbidden)
    for net, expected in nets:
        for x, successors in expected.items():
            assert naive_mp_successors(net, x) == successors, (net, x)


def _long_rule_text(terms=1500):
    """Four components; the first rule is a flat sum of `terms` products of
    two literals, each regulator read with one sign only, so the syntactic
    unfolding is exact on it too."""
    import random

    rng = random.Random(0)
    literals = ["!t1", "t2", "t3", "!t4"]
    products = [" & ".join(rng.sample(literals, 2)) for _ in range(terms)]
    body = " | ".join(f"({p})" for p in products)
    return f"t1, {body}\nt2, t1\nt3, !t2\nt4, t3\n"


@pytest.mark.parametrize("mode", ["exact", "syntactic"])
def test_verify_answers_on_a_long_rule(tmp_path, capsys, mode):
    import json

    from mpunfold.cli import main

    text = _long_rule_text()
    net = parse_bnet(text)
    assert check_equivalence(net, mode=mode).ok
    path = tmp_path / "long.bnet"
    path.write_text(text)
    code = main(["verify", str(path), "--mode", mode])
    out, err = capsys.readouterr()
    assert code == 0, err
    (report,) = json.loads(out)
    assert report["ok"] and report["pairs_checked"] == 256
