"""Successor relations: synchronous, asynchronous, generalized asynchronous,
and most permissive.

Boolean states are strings over 0/1; most permissive states are strings over
the four levels 0 < i/d < 1, where i marks a component increasing and d one
decreasing.  gamma(x) is the set of Boolean completions of x: Boolean
coordinates stay fixed, i/d coordinates range over both values.

Inside, states are integers (see RuleEvaluator): a Boolean state holds
component j in bit n-1-j, so component 0 is the most significant bit.  A
most permissive state is one integer (val << n) | free, component j in bit
n-1-j of each half:

    level   0  d  1  i
    val     0  0  1  1     val selects the {1, i} branch
    free    0  1  0  1     free marks a level read both ways in gamma(x)

so x is Boolean iff x & ((1 << n) - 1) == 0.

SEMANTICS names each semantics' step on integer states; _space(net, name),
the one accessor, pairs it with one checking encoder (the semantics' state
check, then its codec), its decoder and its target alphabet.  Every
successor function, the CLI's succ and every explorer go through it.
"""
from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

from .network import (
    BooleanNetwork, RuleEvaluator, _check_string, check_bool_state, check_component,
)

MP_LEVELS = "0id1"
DEFAULT_CAP = 10**6


class CapExceeded(RuntimeError):
    """State count passed the cap before the analysis could finish."""


def _check_cap(cap: int) -> int:
    if not isinstance(cap, int) or cap < 1:
        raise ValueError(f"cap must be a positive integer, got {cap!r}")
    return cap


def check_mp_state(net: BooleanNetwork, x: str) -> str:
    return _check_string(x, net.n, MP_LEVELS, "a most permissive state", " over 0/i/d/1")


def is_boolean_state(x: str) -> bool:
    return all(c in "01" for c in x)


def sync_successor(net: BooleanNetwork, s: str) -> str:
    """All components update at once: the unique successor f(s)."""
    return _successors(net, "sync", s)[0]


def async_successors(net: BooleanNetwork, s: str) -> list[str]:
    """One unstable component updates; declaration order; [] at fixed points."""
    return _successors(net, "async", s)


def general_successors(net: BooleanNetwork, s: str, cap: int = DEFAULT_CAP) -> list[str]:
    """Any non-empty subset of unstable components updates at once.

    Enumerated by increasing subset bitmask, bit t of the mask selecting the
    t-th unstable component in declaration order: all 2^k - 1 successors of
    a state with k unstable components, here and in the CLI's succ.  A
    state with more than cap successors raises CapExceeded before any is
    listed."""
    _check_cap(cap)
    space = _space(net, "general")
    x = space.encode(s)
    k = (net.evaluator.image(x) ^ x).bit_count()
    if (1 << k) - 1 > cap:
        raise CapExceeded(
            f"{k} unstable components give 2^{k} - 1 general successors, "
            f"past the cap of {cap} states"
        )
    return [space.decode(t) for t in space.successors(x)]


# Unchecked forms on integer states (see RuleEvaluator), for the explorers.

def _sync(ev: RuleEvaluator, s: int) -> list[int]:
    return [ev.image(s)]


def _async(ev: RuleEvaluator, s: int) -> list[int]:
    """One flip per unstable component, highest bit (first component) first."""
    diff = ev.image(s) ^ s
    out = []
    while diff:
        top = 1 << diff.bit_length() - 1
        out.append(s ^ top)
        diff ^= top
    return out


def _general(ev: RuleEvaluator, s: int):
    """general_successors' order, one at a time: explorers stop at the cap."""
    diff = ev.image(s) ^ s
    bits = [bit for bit in ev.masks if diff & bit]
    for mask in range(1, 1 << len(bits)):
        yield s ^ sum(bit for t, bit in enumerate(bits) if mask >> t & 1)


def _mp(ev: RuleEvaluator, x: int) -> list[int]:
    """mp_successors on an encoded state, in order; memos are read in line."""
    out = []
    for j, bit, up, care, memo in ev._mp_rows:
        values = memo.get(x & care)
        if values is None:
            values = ev.mp_values(j, x)
        # (a)/(b): f_j can take the value the level does not hold
        if values & (1 if x & up else 2):
            out.append((x ^ up) | bit)
        if x & bit:  # (c)/(d): an i or d level settles
            out.append(x ^ bit)
    return out


# Every semantics by name, in the order the API lists them, with its
# unchecked step on integer states.
SEMANTICS = {"sync": _sync, "async": _async, "general": _general, "mp": _mp}
BOOLEAN_SEMANTICS = tuple(name for name in SEMANTICS if name != "mp")


class _Space(NamedTuple):
    """How one semantics' states are walked, on integer states.  encode
    checks a state string of the API and converts it, decode converts back;
    match checks a target pattern against the semantics' alphabet and turns
    it into a test on integer states."""

    successors: Callable
    encode: Callable
    decode: Callable
    match: Callable


def _space(
    net: BooleanNetwork, semantics: str, ev: RuleEvaluator | None = None
) -> _Space:
    """The registry's one accessor: a semantics name's step with its state
    encoding; ValueError for any other name.  The step runs on ev, an
    evaluator of net's rules, net's own by default."""
    if semantics not in SEMANTICS:
        raise ValueError(
            f"semantics must be one of {tuple(SEMANTICS)}, got {semantics!r}"
        )
    step = SEMANTICS[semantics]
    if ev is None:
        ev = net.evaluator
    # top: the level coded with every bit of its component set
    if step is _mp:
        codec = ev.mp_encode, ev.mp_decode, check_mp_state, "01id*", "i"
    else:
        codec = ev.encode, ev.decode, check_bool_state, "01*", "1"
    encode, decode, check, alphabet, top = codec
    return _Space(
        partial(step, ev), lambda s: encode(check(net, s)), decode,
        partial(_matcher, net, encode, alphabet, top),
    )


def _matcher(net: BooleanNetwork, encode: Callable, alphabet: str, top: str, pattern: str):
    _check_string(pattern, net.n, alphabet, "a target pattern", f" over {alphabet}")
    care = encode("".join("0" if p == "*" else top for p in pattern))
    value = encode(pattern.replace("*", "0"))
    return lambda s: s & care == value


def _successors(net: BooleanNetwork, semantics: str, s: str) -> list[str]:
    """Checked successors of one state under a named semantics, via its space."""
    space = _space(net, semantics)
    return [space.decode(t) for t in space.successors(space.encode(s))]


def gamma_can_be(net: BooleanNetwork, j: int, x: str, v: int) -> bool:
    """Whether some Boolean completion x' in gamma(x) has f_j(x') = v.

    Exact: rule j's diagram is walked on the Boolean coordinates of x,
    taking both branches at the i/d coordinates; v is attainable iff the
    walk reaches the terminal v."""
    check_component(net, j)
    check_mp_state(net, x)
    if not isinstance(v, int) or v not in (0, 1):
        raise ValueError("v must be 0 or 1")
    ev = net.evaluator
    return bool(ev.mp_values(j, ev.mp_encode(x)) >> v & 1)


def mp_successors(net: BooleanNetwork, x: str) -> list[str]:
    """Most permissive successors, one coordinate change each.

    Per component j in declaration order, four cases in a fixed order:
      (a) x_j in {0,d} and f_j can be 1 on gamma(x)  ->  x_j := i
      (b) x_j in {1,i} and f_j can be 0 on gamma(x)  ->  x_j := d
      (c) x_j = i  ->  x_j := 1
      (d) x_j = d  ->  x_j := 0
    """
    return _successors(net, "mp", x)
