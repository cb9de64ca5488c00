"""Independent checks for the semantics and the unfolding theorem.

naive_mp_successors re-derives most permissive successors straight from the
definition: it enumerates the Boolean completions of a state and evaluates
each rule by calling its walk (see expr) with builders of its own.  It
deliberately shares no code with the diagram-based implementation in
semantics.py, its state encoding included; agreement between the two is
evidence, not tautology.  Its step, _mp_step, runs on integers in the
oracle's own encoding (see _encode) and reads every rule's values on a
reading from a table that _readings makes with one call of each rule's
walk over bit masks, one bit per reading; naive_mp_successors tabulates
only the state's own completions.

check_equivalence is the desk-scale theorem check: most permissive
reachability between Boolean states coincides with asynchronous
reachability between their encodings in the fully unfolded network.  Each
side gives every Boolean source's reachable Boolean states as a bit mask:

    mp side        _mp_step on the oracle's integer states, over one table
                   of all 2^n readings built once per check, in one pass of
                   the explorers' component routine, reach._condense, which
                   expands only the states the sources reach, each once;
    unfolded side  the asynchronous graph of the rule diagrams of unfold's
                   _Unfolding, from unfold.encode_state's encodings of the
                   2^n Boolean states, on sets of states (_set_reach): each
                   a 2^(3n)-bit int, moved by reach._closure with the moves
                   reach._async_moves reads off the diagrams' truth tables,
                   which an _ImageTable reads once, so no unfolded network
                   and no rule tree is built and no state is stepped.

The mp side stays on the rules' walks, the network's stored syntax from
which its trees are made too, on the oracle's own builders and on
_condense, so a fault in the diagrams, in semantics.py or in the sets of
states cannot hide on both sides at once.  mp reachability is reflexive
and transitive, so asynchronous runs of the input stay within it iff each
asynchronous step does: the subsumption check steps each Boolean state
once, on an _ImageTable of the input's rules, the one image table an ok
check makes.  Only a source with a mismatch gets a breadth-first search,
reach._bfs, for its witness and the report's order: the mp step, or the
asynchronous step on the image table that the unfolding's _ImageTable
makes on first use, behind functools.cache, so a state any of these
searches meets again is stepped once.  Every source gets one on the
input's asynchronous graph, for its violations, only when some step
leaves mp reachability.  mp witnesses are decoded to level strings only
then.
The tests check both routines against searches of their own.
"""
from __future__ import annotations

import math
import operator
import random
from dataclasses import asdict, dataclass, field
from functools import cache, partial
from itertools import count, product

from . import expr as ex
from .bdd import FALSE, TRUE
from .network import BooleanNetwork, _ImageTable
from .reach import (
    _async_moves, _bfs as _search, _closure, _condense, _path, _reverse_moves,
)
from .semantics import _async
from .unfold import UnfoldSpec, _Unfolding, encode_state

MAX_NAIVE_N = 10
MAX_EQUIV_N = 6

_LEVEL_ORDER = {c: k for k, c in enumerate("0id1")}


# The mp side's own state encoding, unlike semantics.py's: a most permissive
# state of n components is one integer free << n | val, component j in bit j
# of each half,
#
#     level   0  d  1  i
#     val     0  0  1  1
#     free    0  1  0  1
#
# so gamma(x) is the readings ones | sub, ones = val & ~free and sub any
# subset of free.  A reading holds component j in bit j, and a rule value
# mask holds rule j's value on one reading in bit j.

def _encode(x: str) -> int:
    val = sum(1 << j for j, c in enumerate(x) if c in "1i")
    free = sum(1 << j for j, c in enumerate(x) if c in "id")
    return free << len(x) | val


def _decode(n: int, x: int) -> str:
    return "".join("01di"[x >> j & 1 | (x >> n + j & 1) << 1] for j in range(n))


def _readings(walks, ones: int, free: int) -> dict[int, int]:
    """Every rule's values on the readings ones | sub, sub a subset of free:
    reading -> rule value mask, in increasing order of sub.  Each rule's
    walk is called once, with builders of the oracle's own over masks with
    one bit per reading."""
    size = 1 << free.bit_count()
    full = (1 << size) - 1
    subs, bits = [0], []  # bit i of bits[k]: component k reads 1 on subs[i]
    for k in range(len(walks)):
        if free >> k & 1:
            # the t-th free coordinate, h = 2^t, is bit t of a position:
            # blocks of h ones above h zeros
            h = len(subs)
            bits.append(full // ((1 << 2 * h) - 1) * (((1 << h) - 1) << h))
            subs += [sub | 1 << k for sub in subs]
        else:
            bits.append(full if ones >> k & 1 else 0)
    const = lambda c: full if c else 0
    values = [0] * size
    for j, walk in enumerate(walks):
        mask = walk(bits.__getitem__, const, full.__xor__, operator.and_, operator.or_)
        for i in range(size):
            if mask >> i & 1:
                values[i] |= 1 << j
    return dict(zip((ones | sub for sub in subs), values))


def naive_mp_successors(net: BooleanNetwork, x: str) -> set[str]:
    """Most permissive successors by brute force over gamma(x)."""
    if net.n > MAX_NAIVE_N:
        raise ValueError(f"naive enumeration is limited to n <= {MAX_NAIVE_N}")
    if not isinstance(x, str) or len(x) != net.n or any(c not in "0id1" for c in x):
        raise ValueError(f"not a most permissive state of size {net.n}: {x!r}")
    n, s = net.n, _encode(x)
    free = s >> n
    # x's own completions only: no table of all 2^n readings per call
    values = _readings(net._walks, s & ~free & ((1 << n) - 1), free)
    return {_decode(n, t) for t in _mp_step(values, n, s)}


def _mp_step(values, n: int, x: int) -> list[int]:
    """naive_mp_successors on the encoded state x of n components, where
    values[r] is every rule's value mask on each reading r in gamma(x)."""
    free = x >> n
    val = x & ((1 << n) - 1)
    ones = val & ~free
    rise = fall = 0  # bit j: rule j reads 1 (rise), 0 (fall) on some completion
    sub = free  # every subset of free, down to 0
    while True:
        v = values[ones | sub]
        rise |= v
        fall |= ~v
        if not sub:
            break
        sub = sub - 1 & free
    up = rise & ~val  # 0 or d, and f_j can be 1
    down = fall & val  # 1 or i, and f_j can be 0
    out = []
    moves = up | down | free
    while moves:
        bit = moves & -moves
        moves ^= bit
        if up & bit:  # to i
            out.append(x | bit | bit << n)
        if down & bit:  # to d
            out.append(x & ~bit | bit << n)
        if free & bit:  # i settles to 1, d to 0
            out.append(x ^ bit << n)
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
        """The fields as plain values, witnesses and lists copied, and ok."""
        return {**asdict(self), "ok": self.ok}


def _reach(step, sources):
    """Each source's reachable set, as a mask with bit k set iff it reaches
    the k-th source, from one _condense pass that steps each state once."""
    bit = {s: 1 << k for k, s in enumerate(sources)}
    components, _, masks, _ = _condense(
        step, sources, math.inf, lambda s: bit.get(s, 0)
    )
    mask_of = {s: mask for c, mask in zip(components, masks) for s in c if s in bit}
    return [mask_of[s] for s in sources]


def _set_reach(tables, sources):
    """_reach of the asynchronous step of the rules with these truth tables,
    on sets of states, each a 2^n-bit int with bit s set iff it holds state
    s: reach._closure over reach._async_moves, with no budget of sweeps.
    The sources that a source's forward closure holds and its backward
    closure within that set holds too share its strongly connected
    component, so its reachable set: one forward closure serves them all.
    A closure's bytes are read once for the bits of every source."""
    forward = _async_moves(tables)
    reverse = _reverse_moves(forward)
    size = 1 << len(tables)
    full = (1 << size) - 1
    at = [(s >> 3, 1 << (s & 7), 1 << k) for k, s in enumerate(sources)]

    def held(states):  # bit k set iff states holds the k-th source
        data = states.to_bytes(size + 7 >> 3, "little")
        return sum(bit for byte, mask, bit in at if data[byte] & mask)

    out = [0] * len(at)
    todo = (1 << len(at)) - 1  # the sources whose set is not known yet
    for k, s in enumerate(sources):
        if todo >> k & 1:
            ahead = _closure(forward, 1 << s, full, count())
            reached = held(ahead)
            same = 1 << k
            if reached & todo & ~same:
                same = held(_closure(reverse, 1 << s, ahead, count())) & todo
            for i in range(k, len(at)):
                if same >> i & 1:
                    out[i] = reached
            todo &= ~same
    return out


def check_equivalence(
    net: BooleanNetwork, mode: str = "exact", label: str = ""
) -> EquivalenceReport:
    """Compare Boolean-to-Boolean reachability: most permissive on the input
    network versus asynchronous on its full unfolding, over every ordered
    pair of Boolean states, both directions.  Also checks that plain
    asynchronous reachability is subsumed by most permissive reachability.

    The unfolded side reads the truth tables of the rule diagrams that
    unfold would give its output (_Unfolding.rule_nodes), without building
    that network, and takes its reachable sets on sets of states
    (_set_reach); the mp side steps each state it reaches once.  Plain
    asynchronous runs stay within mp reachability iff each of their steps
    does, so the subsumption check steps each Boolean state once.
    Witnesses and violations come from breadth-first searches, whose order
    defines the report's."""
    if net.n > MAX_EQUIV_N:
        raise ValueError(f"exhaustive check is limited to n <= {MAX_EQUIV_N}")
    spec = UnfoldSpec(components=None, mode=mode)  # rejects a bad mode first
    n = net.n
    # Boolean state k (in string order) is bit k of a reachable-set mask
    bool_states = ["".join(t) for t in product("01", repeat=n)]
    # most permissive side, in the oracle's encoding: every rule is walked
    # once for the values on all 2^n readings (0, 1, ..., in order, so a
    # list indexed by reading), each state expanded once
    values = list(_readings(net._walks, 0, (1 << n) - 1).values())
    mp_step = partial(_mp_step, values, n)
    mp_src = [_encode(x) for x in bool_states]
    mp_reach = _reach(mp_step, mp_src)
    # unfolded side: the asynchronous graph of the unfolding's rule diagrams,
    # expanded from the encoded Boolean states only as far as they reach
    ctx = _Unfolding(net, spec)
    ev = _ImageTable(ctx.manager, ctx.rule_nodes())
    unf_step = partial(_async, ev)
    enc = [int(encode_state(net, x, spec), 2) for x in bool_states]
    unf_reach = _set_reach(ev.tables, enc)
    report = EquivalenceReport(
        label=label or ",".join(net.names), mode=mode, pairs_checked=len(bool_states) ** 2
    )
    # witnesses: shortest paths, in sorted mp successor order on the mp
    # side, over steps cached only for these searches
    order = lambda s: tuple(_LEVEL_ORDER[c] for c in _decode(n, s))
    mp_adj, unf_adj = cache(lambda x: sorted(mp_step(x), key=order)), cache(unf_step)
    for k, x in enumerate(bool_states):
        a_set, b_set = mp_reach[k], unf_reach[k]
        if a_set == b_set:
            continue
        mp_parents = unf_parents = None
        if a_set & ~b_set:
            mp_parents = _search(mp_adj, [mp_src[k]], math.inf)[0]
        if b_set & ~a_set:
            unf_parents = _search(unf_adj, [enc[k]], math.inf)[0]
        for i, y in enumerate(bool_states):
            a, b = bool(a_set >> i & 1), bool(b_set >> i & 1)
            if a == b:
                continue
            if a:
                witness = [_decode(n, s) for s in _path(mp_parents, mp_src[i])]
            else:
                witness = [ev.decode(t) for t in _path(unf_parents, enc[i])]
            report.mismatches.append(Mismatch(x, y, a, b, witness))
    # async runs of the input stay within most permissive reachability iff
    # each async step does, since that is reflexive and transitive; integer
    # state k is bool_states[k]
    async_step = partial(_async, _ImageTable(net.manager, net.nodes))
    steps = ((s, t) for s in range(len(bool_states)) for t in async_step(s))
    if any(not mp_reach[s] >> t & 1 for s, t in steps):
        for k, x in enumerate(bool_states):
            for t in _search(async_step, [k], math.inf)[0]:
                if not mp_reach[k] >> t & 1:
                    report.subsumption_violations.append((x, bool_states[t]))
    return report
