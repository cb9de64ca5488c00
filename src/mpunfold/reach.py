"""State transition graphs, reachability, attractors.

All exploration is breadth-first in a deterministic order (successor lists
are already deterministic), so node lists, edge lists and DOT output are
byte-stable across runs.  Every explorer takes a cap on the number of
states; hitting the cap is reported, never silently truncated into a wrong
answer.

Every exploration of single states runs one of three cores.  Searches
run _bfs, a breadth-first search: reaches, reachable_set, each inner
search of mp_boolean_projection, and the witnesses of the oracle's theorem
check.  Component questions run _condense, one iterative Tarjan pass that
steps each state once: rooted async and general attractors (the
components no edge leaves), whole-space general attractors, and the
reachable sets of the theorem check's mp side.  Under sync the state
graph is the function f, whose terminal components are its cycles, so
sync attractors run _cycles, one walk along f that takes each image once.
All three count the cap the same way.

Whole-space async attractors run on sets of states instead, each set one
2^n-bit int: _async_attractor_sets, a forward-backward search whose
closures, forward and backward, are one loop of shifts and masks
(_closure) over the moves of _async_moves and _reverse_moves, with no loop
per state.  Past one budget of sweeps per search, derived from n and the
number of edges (a long cycle needs a sweep for every few of its states),
they fall back to _condense.  The theorem check's unfolded side takes its
reachable sets by the same closures and moves, with no budget
(oracle._set_reach).  reaches under async and mp takes one forward
closure too, within such a budget, once its BFS has met 1/64 (and at least
64) of a space of at most 2^20 states: over _async_moves or over _mp_moves
on 4^n-bit sets of mp states, it settles a target it does not hold, and
the BFS runs again to the cap for one it holds or past the budget.

Each explorer walks a semantics through semantics._space, its one owner,
on the network's evaluator, which walks the manager's rule diagrams per
state (the mp step reads its per-rule memos in line).  A whole-space
question hands _space an _ImageTable built for that one question, whose
image is a table lookup; the sets of states read its truth tables.
"""
from __future__ import annotations

from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

from .bdd import _AND, FALSE, TRUE, _var_masks
from .network import (
    _DIGIT_BYTES, _MP_FREE, _MP_VAL, BooleanNetwork, RegGraph, _ImageTable,
    check_bool_state,
)
from .semantics import (
    BOOLEAN_SEMANTICS, DEFAULT_CAP, CapExceeded, _check_cap, _mp, _space,
)


class Edge(NamedTuple):
    source: str
    target: str
    tag: str | None = None


@dataclass
class Stg:
    semantics: str
    roots: tuple[str, ...]
    nodes: list[str]
    edges: list[Edge]
    cap: int
    cap_exceeded: bool = False


@dataclass
class ReachResult:
    verdict: str  # "reachable" | "unreachable" | "cap-exceeded"
    states_explored: int
    witness: list[str] | None = None


@dataclass
class Attractor:
    states: tuple[str, ...]
    kind: str  # "stable-state" | "complex"


def fixed_points(net: BooleanNetwork) -> list[str]:
    """All states with f(s) = s, by symbolic conjunction of f_j <-> x_j,
    in lexicographic order.  The manager's join conjoins the constraints
    from the bottom of the variable order up, so each sits above the
    partial product and leaves its nodes as they are: on a chain each step
    makes a few nodes, where conjoining top-down rebuilds the whole product
    every time."""
    m = net.manager
    node = m.join(_AND, [m.equiv(f, m.var_node(j)) for j, f in enumerate(net.nodes)])
    return ["".join(str(b) for b in model) for model in m.iter_models(node)]


def reachable_set(
    net: BooleanNetwork, semantics: str, start: str, cap: int = DEFAULT_CAP
) -> Stg:
    """Forward closure from one state as an explicit graph."""
    _check_cap(cap)
    space = _space(net, semantics)
    edges = []
    parent, _, exceeded = _bfs(space.successors, [space.encode(start)], cap, edges=edges)
    name = {s: space.decode(s) for s in parent}
    return Stg(
        nodes=list(name.values()),
        edges=[Edge(name[s], name[t]) for s, t in edges],
        semantics=semantics,
        roots=(start,),
        cap=cap,
        cap_exceeded=exceeded,
    )


def reaches(
    net: BooleanNetwork,
    semantics: str,
    start: str,
    target: str,
    cap: int = DEFAULT_CAP,
) -> ReachResult:
    """Can any state matching target (with * wildcards) be reached from
    start?  The witness is a shortest path found by the BFS, and
    states_explored counts the states it met.

    Under mp and async, on a space of at most 2^20 states, the BFS first
    stops at _search_budget states.  Past them, one forward closure on sets
    of states (_set_closure) settles a target it does not hold: unreachable,
    with the closure's size as the count, or cap-exceeded at cap if that
    size passes cap, as the BFS would answer.  Otherwise, or if the closure
    runs past _sweep_budget's sweeps, the BFS runs again, to the cap."""
    _check_cap(cap)
    space = _space(net, semantics)
    origin, match = space.encode(start), space.match(target)
    if match(origin):
        return ReachResult("reachable", 1, [start])
    width = {"async": net.n, "mp": 2 * net.n}.get(semantics)  # bits of a state
    budget = _search_budget(1 << width) if width and width <= 20 else cap
    parent, found, exceeded = _bfs(space.successors, [origin], min(cap, budget), stop=match)
    if exceeded and budget < cap:
        with suppress(_OverBudget):  # a long closure: the BFS goes on
            reached, goal = _set_closure(net, semantics, width, origin, target)
            if not reached & goal:
                size = reached.bit_count()
                if size > cap:
                    return ReachResult("cap-exceeded", cap)
                return ReachResult("unreachable", size)
        parent, found, exceeded = _bfs(space.successors, [origin], cap, stop=match)
    if found is not None:
        witness = [space.decode(u) for u in _path(parent, found)]
        return ReachResult("reachable", len(parent), witness)
    verdict = "cap-exceeded" if exceeded else "unreachable"
    return ReachResult(verdict, len(parent), None)


def _search_budget(states: int) -> int:
    """The states reaches' BFS meets before it asks the sets of states, on
    a space of this many: 1/64 of them, and at least 64, so that a small
    space builds no sets for a search of a handful of states.  In-process
    on CPython 3.11, the 194 mp queries of perfbench/corpus.json (6-8
    components, each on a network just read) took 46-52 ms in all at 1/64,
    43-48 ms at 1/256, 46-52 ms at 1/1024, 66-70 ms at 1/16 and 70-76 ms by
    the BFS alone.  Its async queries on 12 and 18 components meet at most
    36 and 112 states, under the budgets of 64 and 4096."""
    return max(64, states >> 6)


def _set_closure(net, semantics, width, origin, pattern):
    """The states that origin reaches under semantics, async or mp, as one
    set, and the states that match pattern, each a 2^width-bit int: bit s
    is set iff state s, an integer of width bits, is in the set.  The mp
    pattern reads as its val half, then its free half, as states do.
    Raises _OverBudget past _sweep_budget's sweeps."""
    masks = _var_masks(width)
    full = (1 << (1 << width)) - 1
    if semantics == "mp":
        moves = _mp_moves(net.manager, net.nodes, masks)
        pattern = pattern.translate(_MP_VAL) + pattern.translate(_MP_FREE)
    else:
        moves = _async_moves(net.manager._truth_tables(net.nodes))
    goal = full
    for c, mask in zip(pattern, masks):
        if c != "*":
            goal &= mask if c == "1" else ~mask
    sweeps = iter(range(_sweep_budget(width, moves)))
    return _closure(moves, 1 << origin, full, sweeps), goal


def _bfs(succ, starts, cap, stop=None, edges=None):
    """Breadth-first search from starts, in successor order.

    Returns the parent map in discovery order (starts map to None), the
    first new state stop accepts (or None), and whether the cap was hit: a
    new state that would pass cap states ends the search, while starts are
    all admitted.  When edges is a list, every pair seen is appended to it."""
    parent = dict.fromkeys(starts)
    queue = deque(parent)
    while queue:
        s = queue.popleft()
        for t in succ(s):
            if t not in parent:
                if len(parent) >= cap:
                    return parent, None, True
                parent[t] = s
                if stop is not None and stop(t):
                    return parent, t, False
                queue.append(t)
            if edges is not None:
                edges.append((s, t))
    return parent, None, False


def _path(parent, target):
    """The path from a start of _bfs to target, along its parent map."""
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def _condense(succ, starts, cap, tag=None):
    """Strongly connected components of the closure of starts, by one
    iterative Tarjan pass that steps each state once and follows each edge
    once.

    Returns the components (lists of states) in completion order, so each
    comes after every component it reaches; for each component, whether an
    edge leaves it; with tag, for each component the OR of tag(s) over every
    state it reaches (0 without); and whether the cap was passed.  The cap
    counts as _bfs's does: starts are all admitted, so it is passed iff the
    closure has more than max(cap, distinct starts) states, and passing it
    ends the pass."""
    starts = dict.fromkeys(starts)  # distinct, in order
    limit = max(cap, len(starts))
    # index[s]: s's DFS number while s is on the stack, ~component after
    index: dict = {}
    stack: list = []
    components: list[list] = []
    leaves: list[bool] = []
    masks: list[int] = []
    # the state being expanded (at first a virtual root whose successors
    # are the starts): its successors' iterator, its DFS number, lowlink,
    # mask so far, whether an edge leaves its component, and its place on
    # the stack; frames holds the same for the states below it on the path
    v, it, num, low, mask, out, base = None, iter(starts), -1, -1, 0, False, 0
    frames = []
    while True:
        for w in it:
            i = index.get(w)
            if i is None:
                if len(index) >= limit:
                    return components, leaves, masks, True
                frames.append((v, it, num, low, mask, out, base))
                v, it = w, iter(succ(w))
                num = low = index[w] = len(index)
                mask, out, base = tag(w) if tag else 0, False, len(stack)
                stack.append(w)
                break
            if i >= 0:  # on the stack: the same component
                if i < low:
                    low = i
            else:  # a finished component
                mask |= masks[~i]
                out = True
        else:  # v is done
            if not frames:  # the virtual root: every start is done
                break
            if low == num:  # v roots a component: the stack above it
                component = stack[base:]
                del stack[base:]
                k = ~len(components)
                for w in component:
                    index[w] = k
                components.append(component)
                leaves.append(out)
                masks.append(mask)
                out = True  # the edge into v leaves its parent's component
            child_low, child, child_out = low, mask, out
            v, it, num, low, mask, out, base = frames.pop()
            if child_low < low:
                low = child_low
            mask |= child
            out = out or child_out
    return components, leaves, masks, False


def _cycles(image, starts, cap):
    """The cycles of the function image that the states from starts reach,
    by one walk that takes each state's image once.

    From each start not met before, image is followed to a state met
    before; when that state was met on this same walk, the walk from it on
    is a cycle.  Returns the cycles (lists of states in walk order) and
    whether the cap was passed, counted as _condense counts it: starts are
    all admitted, so it is passed iff the closure has more than max(cap,
    distinct starts) states, and passing it ends the walk."""
    starts = dict.fromkeys(starts)  # distinct, in order
    limit = max(cap, len(starts))
    walk: dict = {}  # state -> number of the walk that met it
    cycles = []
    for k, s in enumerate(starts):
        if s in walk:
            continue
        path = []
        while s not in walk:
            if len(walk) >= limit:
                return cycles, True
            walk[s] = k
            path.append(s)
            s = image(s)
        if walk[s] == k:
            cycles.append(path[path.index(s):])
    return cycles, False


class _OverBudget(Exception):
    """Closures on sets of states ran past their budget of sweeps."""


def _async_attractor_sets(tables) -> list[list[int]]:
    """The terminal components of the whole asynchronous state graph of n
    rules with these truth tables, found on sets of states, each a 2^n-bit
    int in truth_table's layout (bit s set iff state s is in the set).

    The forward moves are _async_moves(tables), the backward ones their
    _reverse_moves.
    The search is forward-backward (Xie & Beerel, IEEE TCAD 2000), pivots
    chosen as in Benes, Brim, Pastva & Safranek (CAV 2021).  The fixed
    points are attractors, and a state that reaches one lies in no other,
    so their backward closure leaves the live states.  Then, for a pivot s:
    if every state s reaches reaches s back, those states are an attractor;
    either way the states that reach s lie in no other attractor and leave.
    The next pivot is a live state that s reaches, if any: they hold one.

    Returns the fixed points, then the other attractors, each as a list of
    states in increasing order.  Raises _OverBudget past _sweep_budget's
    sweeps, shared by every closure: a long cycle takes a sweep for every
    few of its states."""
    n = len(tables)
    full = (1 << (1 << n)) - 1
    forward = _async_moves(tables)
    reverse = _reverse_moves(forward)
    fixed = full
    for _, down, up in forward:
        fixed &= ~(down | up)
    sweeps = iter(range(_sweep_budget(n, forward)))
    live = full
    if fixed:
        live ^= _closure(reverse, fixed, full, sweeps)
    found = [[s] for s in _members(fixed)]
    region = live  # where the next pivot is taken
    while live:
        pivot = region & -region
        ahead = _closure(forward, pivot, live, sweeps)
        behind = _closure(reverse, pivot, live, sweeps)
        if not ahead & ~behind:
            found.append(list(_members(ahead)))
        live &= ~behind
        region = ahead & live or live
    return found


def _async_moves(tables) -> list[tuple[int, int, int]]:
    """The asynchronous moves on sets of states of n rules with these truth
    tables, one (bit, down, up) per component that moves somewhere, in
    component order: component j, at bit = 2^(n-1-j) of a state, moves
    down at the states of down (x_j = 1 and f_j = 0) and up at those of up
    (x_j = 0 and f_j = 1), so its moves take a set S to
    (S & down) >> bit | (S & up) << bit."""
    n = len(tables)
    moves = []
    for j, (mask, table) in enumerate(zip(_var_masks(n), tables)):
        down, up = mask & ~table, table & ~mask
        if down | up:
            moves.append((1 << (n - 1 - j), down, up))
    return moves


def _mp_moves(manager, nodes, masks) -> list[tuple[int, int, int]]:
    """The most permissive moves on sets of states of n rules, the diagrams
    nodes in manager, as _async_moves makes them: each set a 4^n-bit int,
    bit x set iff the mp state x = (val << n) | free is in it; masks are
    _var_masks(2n), the val bits' then the free bits'.  Where rule j can be
    1 (can1) and 0 (can0) on gamma(x) comes from one postorder pass over
    its diagram, mp_values on sets: a node can be v where its variable may
    read 1 (its level is not 0) and its high child can be v, or may read 0
    (its level is not 1) and its low child can.  Component j, at val bit V
    and free bit F, makes up to four moves (shift, down, up):

        (V, i & can0, d & can1)    i -> d, d -> i
        (V + F, none, 0 & can1)    0 -> i
        (V - F, 1 & can0, none)    1 -> d
        (F, i | d, none)           i -> 1, d -> 0"""
    n = len(nodes)
    full = (1 << (1 << 2 * n)) - 1
    halves = list(zip(masks, masks[n:]))  # per component: its (val, free) bits
    reads = [(val | free, full ^ val | free) for val, free in halves]  # may read 1, 0
    triples = manager._triples
    moves = []
    for j, (u, (val, free)) in enumerate(zip(nodes, halves)):
        # node -> (can be 1, can be 0); one memo per rule holds one rule's sets
        can = {FALSE: (0, full), TRUE: (full, 0)}
        for w in manager.postorder(u, can):
            var, low, high = triples[w - 2]
            one, zero = reads[var]
            (high1, high0), (low1, low0) = can[high], can[low]
            can[w] = one & high1 | zero & low1, one & high0 | zero & low0
        can1, can0 = can[u]
        v, f = 1 << 2 * n - 1 - j, 1 << n - 1 - j
        moves += [
            (v, can0 & val & free, can1 & free & ~val),
            (v + f, 0, can1 & ~(val | free)),
            (v - f, can0 & val & ~free, 0),
            (f, free, 0),
        ]
    return [move for move in moves if move[1] | move[2]]


def _reverse_moves(moves) -> list[tuple[int, int, int]]:
    """The reverse of each move (b, down, up): (b, up << b, down >> b)
    takes a set S to the states that reach S by that move, as
    (S << b) & down == (S & (down >> b)) << b and
    (S >> b) & up == (S & (up << b)) >> b."""
    return [(bit, up << bit, down >> bit) for bit, down, up in moves]


def _sweep_budget(n: int, moves) -> int:
    """The sweeps the closures of one search may take on sets of states of
    n bits with these moves: about 0.4 of what _condense's pass over all
    2^n states would cost.  Measured on CPython 3.11, that pass costs 1.2 us
    per state and 0.12 us per edge (a state that a move takes somewhere),
    and a sweep 0.3 us plus 0.075 ns per state for each bit."""
    size = 1 << n
    edges = sum(down.bit_count() + up.bit_count() for _, down, up in moves)
    return 640 * (10 * size + edges) // (n * (size + 4096))


def _closure(moves, states, within, sweeps):
    """The states of within that states reach by moves, each (b, down, up)
    taking a set S to (S & down) >> b | (S & up) << b; _OverBudget if the
    iterator sweeps, one item a sweep, runs out first.  within must hold
    every move from its states, so a path between two stays inside it.  A
    sweep makes each move in turn, on the set the moves before it made, so
    a path whose moves come in that order takes one sweep."""
    reached = frontier = states
    while frontier:
        if next(sweeps, None) is None:
            raise _OverBudget
        new = frontier
        for bit, down, up in moves:
            new |= (new & down) >> bit | (new & up) << bit
        frontier = new & within & ~reached
        reached |= frontier
    return reached


def _members(states: int):
    """The states of a set, in increasing order."""
    # bin's digits lowest first, as bytes 0 and 1: bit s is byte s
    digits = bin(states)[:1:-1].encode().translate(_DIGIT_BYTES)
    return compress(range(len(digits)), digits)


def _terminal_components(net, semantics, cap, roots):
    """attractors' terminal components as lists of integer states, by
    stepping every state of the closure of roots, or of the whole space on
    one _ImageTable without roots; under async its truth tables go first to
    the sets of states."""
    if roots is None:
        ev = _ImageTable(net.manager, net.nodes)
        if semantics == "async":
            try:
                return _async_attractor_sets(ev.tables)
            except _OverBudget:
                pass
        starts = range(1 << net.n)  # integer order: string order
    else:
        ev = net.evaluator
    space = _space(net, semantics, ev)
    if roots is not None:
        starts = [space.encode(r) for r in roots]
    if semantics == "sync":
        terminal, exceeded = _cycles(ev.image, starts, cap)
    else:
        components, leaves, _, exceeded = _condense(space.successors, starts, cap)
        terminal = [c for c, leaving in zip(components, leaves) if not leaving]
    if exceeded:
        raise CapExceeded(f"closure of the root set passed the cap of {cap} states")
    return terminal


def attractors(
    net: BooleanNetwork,
    semantics: str,
    cap: int = DEFAULT_CAP,
    roots: list[str] | None = None,
) -> list[Attractor]:
    """Terminal strongly connected components of the explicit graph.

    Without roots the whole state space is searched (needs 2^n <= cap);
    with roots, the forward closure of the root set.  Under sync each state
    has the one successor f(s), so the terminal components are the cycles
    of f, found by one walk along f (_cycles).  Whole-space async runs on
    sets of states (_async_attractor_sets); past their budget, and for
    general or from roots, one Tarjan pass (_condense) steps each state.
    Most permissive semantics is excluded: its transient levels make
    terminal SCCs the wrong notion there."""
    _check_cap(cap)
    if semantics not in BOOLEAN_SEMANTICS:
        raise ValueError(
            "attractors are computed for sync, async or general semantics"
        )
    if roots is None and (1 << net.n) > cap:
        raise CapExceeded(
            f"full state space has {1 << net.n} states, cap is {cap}; "
            f"supply roots to restrict the search"
        )
    terminal = _terminal_components(net, semantics, cap, roots)
    width = f"0{net.n}b"  # the evaluators' decode, with no evaluator built
    out = []
    for component in terminal:
        states = tuple(format(s, width) for s in sorted(component))
        kind = "stable-state" if len(states) == 1 else "complex"
        out.append(Attractor(states=states, kind=kind))
    out.sort(key=lambda a: (a.kind != "stable-state", a.states[0]))
    return out


def mp_boolean_projection(
    net: BooleanNetwork, start: str, cap: int = DEFAULT_CAP
) -> Stg:
    """Boolean-to-Boolean view of the most permissive dynamics from start.

    Nodes are the Boolean states reachable under mp; there is an edge x -> y
    when some mp path goes from x to y through non-Boolean states only.
    Edges also realizable in one generalized asynchronous step are tagged
    solid, the genuinely most-permissive ones dotted.  The cap counts every
    distinct mp state explored, transients included."""
    _check_cap(cap)
    check_bool_state(net, start)
    ev = net.evaluator
    n = net.n
    free = ~(-1 << n)  # the free half of an mp state: 0 iff it is Boolean
    x0 = ev.encode(start) << n
    explored = {x0}
    bool_nodes = [x0]
    bool_seen = {x0}
    edges: list[tuple[int, int, str]] = []

    def inner(t):  # mp steps through non-Boolean states only
        return _mp(ev, t) if t & free else ()

    for x in bool_nodes:
        reached, _, hit = _bfs(inner, _mp(ev, x), cap)
        # the cap counts the states of all searches so far together; one
        # search that passes it alone passes it in the union too
        explored.update(reached)
        exceeded = hit or len(explored) > cap
        if exceeded:
            break
        # t is one general step from x iff it flips at least one component
        # and only components unstable at x
        b = x >> n
        unstable = ev.image(b) ^ b
        for t in reached:
            if t & free:
                continue
            flips = (t ^ x) >> n
            solid = flips and not flips & ~unstable
            edges.append((x, t, "solid" if solid else "dotted"))
            if t not in bool_seen:
                bool_seen.add(t)
                bool_nodes.append(t)
    name = {x: ev.decode(x >> n) for x in bool_nodes}
    return Stg(
        nodes=list(name.values()),
        edges=[Edge(name[x], name[t], tag) for x, t, tag in edges],
        semantics="mp-projection",
        roots=(start,),
        cap=cap,
        cap_exceeded=exceeded,
    )


_SIGN_COLORS = {"positive": "green", "negative": "red", "dual": "blue"}


def export_dot(graph: Stg | RegGraph) -> str:
    """Graphviz text.  Stg edges honor their solid/dotted tag; regulatory
    edges are colored green/red/blue for positive/negative/dual."""
    lines = []
    if isinstance(graph, RegGraph):
        lines.append("digraph regulatory_graph {")
        for name in graph.nodes:
            lines.append(f'  "{name}";')
        for e in graph.edges:
            lines.append(
                f'  "{e.source}" -> "{e.target}" [color={_SIGN_COLORS[e.sign]}];'
            )
    elif isinstance(graph, Stg):
        lines.append("digraph stg {")
        lines.append('  node [shape=box];')
        for s in graph.nodes:
            lines.append(f'  "{s}";')
        for e in graph.edges:
            attr = f" [style={e.tag}]" if e.tag else ""
            lines.append(f'  "{e.source}" -> "{e.target}"{attr};')
    else:
        raise TypeError(f"cannot export {type(graph).__name__} as DOT")
    lines.append("}")
    return "\n".join(lines) + "\n"
