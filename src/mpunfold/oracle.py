"""Independent checks for the semantics and the unfolding theorem.

naive_mp_successors re-derives most permissive successors straight from the
definition, enumerating Boolean completions and evaluating rule trees
directly.  It deliberately shares no code with the diagram-based
implementation in semantics.py; agreement between the two is evidence, not
tautology.

check_equivalence is the desk-scale theorem check: most permissive
reachability between Boolean states coincides with asynchronous
reachability between their encodings in the fully unfolded network.  Each
side is a graph whose successors are computed on first lookup, so only the
states the Boolean sources reach are expanded:

    mp side        the naive definition above, reading every rule's value
                   on a Boolean reading from one table of all 2^n readings,
                   built once per check;
    unfolded side  the asynchronous step that reach --semantics async runs,
                   on the unfolding's integer states, from the encodings of
                   the 2^n Boolean states; its evaluator is an _ImageTable
                   of the rule diagrams of unfold's _Unfolding, which looks
                   up the image of each of the 2^(3n) states in a table made
                   at once from their truth tables, so no unfolded network
                   and no rule tree is built.

The mp side stays on rule trees and the oracle's own evaluator, so a fault
in the diagrams or in semantics.py cannot hide on both sides at once.  Each
side is one pass of the explorers' component routine, reach._condense,
which gives every source's reachable Boolean states as a bit mask and
steps each state once; so does the plain asynchronous graph of the
subsumption check, stepped on integer states with an _ImageTable of the
input network's rules and decoded only for its report.  Only a source with
a mismatch or a violation gets a breadth-first search, reach._bfs, for its
witness and the report's order, over the same steps behind functools.cache,
so a state any of these searches meets again is stepped once.
The tests check both routines against searches of their own.
"""
from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from functools import cache, partial
from itertools import product

from . import expr as ex
from .bdd import FALSE, TRUE
from .network import BooleanNetwork, _ImageTable
from .reach import _bfs as _search, _condense, _path
from .semantics import _async
from .unfold import UnfoldSpec, _Unfolding, encode_state

MAX_NAIVE_N = 10
MAX_EQUIV_N = 4

_LEVEL_ORDER = {c: k for k, c in enumerate("0id1")}


_NEGATE = object()  # on _eval's stack: negate the last value


def _eval(e, bits) -> int:
    # local evaluator on purpose (see the module docstring); a loop with an
    # explicit stack, so a rule's depth is not bounded by Python's stack
    todo = [e]
    done: list[int] = []  # values of the operands evaluated so far
    while todo:
        e = todo.pop()
        if isinstance(e, ex.Var):
            done.append(bits[e.index])
        elif isinstance(e, ex.Const):
            done.append(e.value)
        elif isinstance(e, ex.Not):
            todo.append(_NEGATE)
            todo.append(e.operand)
        elif e is _NEGATE:
            done[-1] = 1 - done[-1]
        elif isinstance(e, tuple):  # (right operand, value deciding without it)
            right, decisive = e
            if done[-1] != decisive:
                done.pop()
                todo.append(right)
        else:
            todo.append((e.right, 0 if isinstance(e, ex.And) else 1))
            todo.append(e.left)
    return done[0]


def _rule_values(net: BooleanNetwork):
    """values(bits): every rule's value on the Boolean reading bits, by _eval."""
    rules = net.rules
    return lambda bits: [_eval(rule, bits) for rule in rules]


def naive_mp_successors(net: BooleanNetwork, x: str) -> set[str]:
    """Most permissive successors by brute force over gamma(x)."""
    if net.n > MAX_NAIVE_N:
        raise ValueError(f"naive enumeration is limited to n <= {MAX_NAIVE_N}")
    if not isinstance(x, str) or len(x) != net.n or any(c not in "0id1" for c in x):
        raise ValueError(f"not a most permissive state of size {net.n}: {x!r}")
    return _naive_mp_step(x, _rule_values(net))


def _naive_mp_step(x: str, values) -> set[str]:
    """naive_mp_successors of a checked state x, where values(bits) gives
    every rule's value on the Boolean reading bits (a tuple of 0/1)."""
    free = [k for k, c in enumerate(x) if c in "id"]
    rise = fall = 0  # bit j: rule j reads 1 (rise), 0 (fall) on some completion
    # one reading, its free coordinates overwritten by each completion
    bits = [int(c) if c in "01" else 0 for c in x]
    for choice in product((0, 1), repeat=len(free)):
        for k, b in zip(free, choice):
            bits[k] = b
        for j, value in enumerate(values(tuple(bits))):
            if value:
                rise |= 1 << j
            else:
                fall |= 1 << j
    out = set()
    for j, c in enumerate(x):
        if c in "0d" and rise >> j & 1:
            out.add(x[:j] + "i" + x[j + 1 :])
        if c in "1i" and fall >> j & 1:
            out.add(x[:j] + "d" + x[j + 1 :])
        if c == "i":
            out.add(x[:j] + "1" + x[j + 1 :])
        if c == "d":
            out.add(x[:j] + "0" + x[j + 1 :])
    return out


# --- random networks ---------------------------------------------------------

@dataclass(frozen=True)
class RandomNetSpec:
    n: int
    max_regulators: int = 3
    depth: int = 3
    seed: int = 0


def _random_expr(rng: random.Random, regulators: list[int], depth: int) -> ex.BooleanExpr:
    if depth == 0:
        leaf = ex.Var(rng.choice(regulators))
        return ex.Not(leaf) if rng.random() < 0.4 else leaf
    kind = rng.choice(("var", "not", "and", "or"))
    if kind == "var":
        return _random_expr(rng, regulators, 0)
    if kind == "not":
        return ex.Not(_random_expr(rng, regulators, depth - 1))
    left = _random_expr(rng, regulators, depth - 1)
    right = _random_expr(rng, regulators, depth - 1)
    return ex.And(left, right) if kind == "and" else ex.Or(left, right)


def random_network(spec: RandomNetSpec) -> BooleanNetwork:
    """Deterministic in the spec: same spec, same network, always."""
    if not all(isinstance(v, int) for v in (spec.n, spec.max_regulators, spec.depth)):
        raise ValueError("n, max_regulators and depth must be integers")
    if spec.n < 1:
        raise ValueError("need at least one component")
    if spec.max_regulators < 1 or spec.depth < 0:
        raise ValueError("max_regulators must be >= 1 and depth >= 0")
    names = [f"x{j + 1}" for j in range(spec.n)]
    for attempt in range(64):
        rng = random.Random(
            f"{spec.n}/{spec.max_regulators}/{spec.depth}/{spec.seed}/{attempt}"
        )
        components = []
        for name in names:
            width = rng.randint(1, min(spec.max_regulators, spec.n))
            regulators = sorted(rng.sample(range(spec.n), width))
            components.append((name, _random_expr(rng, regulators, spec.depth)))
        net = BooleanNetwork(components)
        if any(u not in (FALSE, TRUE) for u in net.nodes):
            return net
    raise RuntimeError("could not draw a network with a non-constant rule")


# --- theorem check ------------------------------------------------------------

@dataclass
class Mismatch:
    source: str
    target: str
    mp_reachable: bool
    unfolded_reachable: bool
    witness: list[str] | None = None


@dataclass
class EquivalenceReport:
    label: str
    mode: str
    pairs_checked: int
    mismatches: list[Mismatch] = field(default_factory=list)
    subsumption_violations: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.subsumption_violations

    def as_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def _reach(step, sources, bit):
    """Each source's reachable set, as the OR of bit[s] over the states s it
    reaches, from one _condense pass that steps each state once."""
    components, _, masks, _ = _condense(
        step, sources, math.inf, lambda s: bit.get(s, 0)
    )
    mask_of = {s: mask for c, mask in zip(components, masks) for s in c if s in bit}
    return [mask_of[s] for s in sources]


def check_equivalence(
    net: BooleanNetwork, mode: str = "exact", label: str = ""
) -> EquivalenceReport:
    """Compare Boolean-to-Boolean reachability: most permissive on the input
    network versus asynchronous on its full unfolding, over every ordered
    pair of Boolean states, both directions.  Also checks that plain
    asynchronous reachability is subsumed by most permissive reachability.

    The unfolded side evaluates the rule diagrams that unfold would give
    its output (_Unfolding.rule_nodes), without building that network."""
    if net.n > MAX_EQUIV_N:
        raise ValueError(f"exhaustive check is limited to n <= {MAX_EQUIV_N}")
    spec = UnfoldSpec(components=None, mode=mode)  # rejects a bad mode first
    # Boolean state k (in string order) is bit k of a reachable-set mask
    bool_states = ["".join(t) for t in product("01", repeat=net.n)]
    bit = {x: 1 << k for k, x in enumerate(bool_states)}
    # most permissive side, via the naive oracle; each rule is evaluated
    # once per Boolean reading, each state expanded once
    values = _rule_values(net)
    readings = {bits: values(bits) for bits in product((0, 1), repeat=net.n)}
    mp_step = lambda x: _naive_mp_step(x, readings.__getitem__)
    mp_reach = _reach(mp_step, bool_states, bit)
    # unfolded side: the asynchronous graph of the unfolding's rule diagrams,
    # expanded from the encoded Boolean states only as far as they reach
    ctx = _Unfolding(net, spec)
    ev = _ImageTable(ctx.manager, ctx.rule_nodes())
    unf_step = partial(_async, ev)
    enc = [int(encode_state(net, x), 2) for x in bool_states]
    unf_reach = _reach(unf_step, enc, dict(zip(enc, bit.values())))
    report = EquivalenceReport(
        label=label or ",".join(net.names), mode=mode, pairs_checked=len(bool_states) ** 2
    )
    # witnesses: shortest paths, in sorted mp successor order on the mp
    # side, over steps cached only for these searches
    order = lambda s: tuple(_LEVEL_ORDER[c] for c in s)
    mp_adj, unf_adj = cache(lambda x: sorted(mp_step(x), key=order)), cache(unf_step)
    for k, x in enumerate(bool_states):
        a_set, b_set = mp_reach[k], unf_reach[k]
        if a_set == b_set:
            continue
        mp_parents = _search(mp_adj, [x], math.inf)[0] if a_set & ~b_set else None
        unf_parents = _search(unf_adj, [enc[k]], math.inf)[0] if b_set & ~a_set else None
        for i, y in enumerate(bool_states):
            a, b = bool(a_set >> i & 1), bool(b_set >> i & 1)
            if a == b:
                continue
            if a:
                witness = _path(mp_parents, y)
            else:
                witness = [ev.decode(t) for t in _path(unf_parents, enc[i])]
            report.mismatches.append(Mismatch(x, y, a, b, witness))
    # async runs of the input must stay within most permissive reachability;
    # integer state k is bool_states[k]
    async_step = partial(_async, _ImageTable(net.manager, net.nodes))
    states = range(len(bool_states))
    async_reach = _reach(async_step, states, {k: 1 << k for k in states})
    async_adj = cache(async_step)
    for k, x in enumerate(bool_states):
        if async_reach[k] & ~mp_reach[k]:
            for t in _search(async_adj, [k], math.inf)[0]:
                if not mp_reach[k] >> t & 1:
                    report.subsumption_violations.append((x, bool_states[t]))
    return report
