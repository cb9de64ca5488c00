"""Successor relations: synchronous, asynchronous, generalized asynchronous,
and most permissive.

Boolean states are strings over 0/1; most permissive states are strings over
the four levels 0 < i/d < 1, where i marks a component increasing and d one
decreasing.  gamma(x) is the set of Boolean completions of x: Boolean
coordinates stay fixed, i/d coordinates range over both values.
"""
from __future__ import annotations

from .bdd import FALSE, TRUE, DiagramManager
from .network import BooleanNetwork, RuleEvaluator, check_bool_state

MP_LEVELS = "0id1"


def check_mp_state(net: BooleanNetwork, x: str) -> str:
    if not isinstance(x, str) or len(x) != net.n or any(c not in MP_LEVELS for c in x):
        raise ValueError(
            f"expected a most permissive state of length {net.n} over 0/i/d/1, got {x!r}"
        )
    return x


def is_boolean_state(x: str) -> bool:
    return all(c in "01" for c in x)


def sync_successor(net: BooleanNetwork, s: str) -> str:
    """All components update at once: the unique successor f(s)."""
    return _checked(_sync, net, s)[0]


def async_successors(net: BooleanNetwork, s: str) -> list[str]:
    """One unstable component updates; declaration order; [] at fixed points."""
    return _checked(_async, net, s)


def general_successors(net: BooleanNetwork, s: str) -> list[str]:
    """Any non-empty subset of unstable components updates at once.

    Enumerated by increasing subset bitmask, bit t of the mask selecting the
    t-th unstable component in declaration order."""
    return _checked(_general, net, s)


def _checked(step, net: BooleanNetwork, s: str) -> list[str]:
    """A Boolean step at the API edge: check s, step on its integer, decode."""
    check_bool_state(net, s)
    ev = net.evaluator
    return [ev.decode(t) for t in step(ev, ev.encode(s))]


# Unchecked forms on integer states (see RuleEvaluator), for the explorers.

def _unstable(ev: RuleEvaluator, s: int) -> list[int]:
    """Bits of the components whose rule disagrees with s, in declaration order."""
    diff = ev.image(s) ^ s
    return [bit for bit in ev.masks if diff & bit]


def _sync(ev: RuleEvaluator, s: int) -> list[int]:
    return [ev.image(s)]


def _async(ev: RuleEvaluator, s: int) -> list[int]:
    return [s ^ bit for bit in _unstable(ev, s)]


def _general(ev: RuleEvaluator, s: int) -> list[int]:
    flips = [0]  # flips[mask]: the bits of the unstable components mask selects
    for bit in _unstable(ev, s):
        flips += [f | bit for f in flips]
    return [s ^ f for f in flips[1:]]


# Every semantics by name, in the order the API lists them.  A Boolean
# semantics maps to its unchecked step on integer states; mp (None) steps on
# its state strings through _mp_successors.
SEMANTICS = {"sync": _sync, "async": _async, "general": _general, "mp": None}
BOOLEAN_SEMANTICS = tuple(name for name, step in SEMANTICS.items() if step)


def _step(semantics: str):
    """The table entry of a semantics name; ValueError for any other name."""
    if semantics not in SEMANTICS:
        raise ValueError(
            f"semantics must be one of {tuple(SEMANTICS)}, got {semantics!r}"
        )
    return SEMANTICS[semantics]


def _successors(net: BooleanNetwork, semantics: str, s: str) -> list[str]:
    """Checked successors of one state under a named semantics."""
    step = _step(semantics)
    return mp_successors(net, s) if step is None else _checked(step, net, s)


def gamma_can_be(net: BooleanNetwork, j: int, x: str, v: int) -> bool:
    """Whether some Boolean completion x' in gamma(x) has f_j(x') = v.

    Exact: restrict rule j's diagram on the Boolean coordinates of x; the
    residual can attain v iff it is not the constant 1-v."""
    check_mp_state(net, x)
    if v not in (0, 1):
        raise ValueError("v must be 0 or 1")
    return _can_be(net.manager, net.evaluator.nodes[j], _fixed(x), v)


def _fixed(x: str) -> dict[int, int]:
    return {k: int(c) for k, c in enumerate(x) if c in "01"}


def _can_be(m: DiagramManager, node: int, fixed: dict[int, int], v: int) -> bool:
    return m.restrict(node, fixed) != (FALSE if v else TRUE)


def mp_successors(net: BooleanNetwork, x: str) -> list[str]:
    """Most permissive successors, one coordinate change each.

    Per component j in declaration order, four cases in a fixed order:
      (a) x_j in {0,d} and f_j can be 1 on gamma(x)  ->  x_j := i
      (b) x_j in {1,i} and f_j can be 0 on gamma(x)  ->  x_j := d
      (c) x_j = i  ->  x_j := 1
      (d) x_j = d  ->  x_j := 0
    """
    check_mp_state(net, x)
    return _mp_successors(net, x)


def _mp_successors(net: BooleanNetwork, x: str) -> list[str]:
    """mp_successors without the state check."""
    m = net.manager
    fixed = _fixed(x)
    out = []
    for j, (c, node) in enumerate(zip(x, net.evaluator.nodes)):
        if c in "0d":
            if _can_be(m, node, fixed, 1):
                out.append(x[:j] + "i" + x[j + 1 :])
        elif _can_be(m, node, fixed, 0):
            out.append(x[:j] + "d" + x[j + 1 :])
        if c == "i":
            out.append(x[:j] + "1" + x[j + 1 :])
        elif c == "d":
            out.append(x[:j] + "0" + x[j + 1 :])
    return out
