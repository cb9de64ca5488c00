"""Boolean unfolding: three variables per component.

Each unfolded component X becomes X_a, X_b, X_c with the level encoding

    0 -> 000    i -> 001    d -> 101    1 -> 111

plus the transient triplets 011 (between 001 and 111) and 100 (between 101
and 000).  The remaining patterns 010 and 110 are artifacts and stay
unreachable from encoded states.  A triplet reads as activatable iff c = 1
and as inactivatable iff b = 0.

Each rule of the unfolded network is one bit of a component's synchronous
image, and the per-letter table _LETTER_RULES is the one definition of that
image.  _setter_values is its one reading: triplet_step applies it to
Booleans, and _Unfolding.rule_nodes to diagrams or truth tables, building
all bits of a component in one pass.  The image is driven by two conditions per
component j:

    plus_j   "f_j can evaluate to 1 given what each regulator may read as"
    minus_j  "f_j can evaluate to 0 ..."

where an unfolded regulator k may read as 1 iff x_kc = 1 and as 0 iff
x_kb = 0, and a plain regulator reads only as its current value.  Two
construction modes are provided:

    exact      node-wise transform of rule j's diagram; at each decision on
               regulator k, take (may-read-1 and transformed high-branch) or
               (may-read-0 and transformed low-branch).  This computes
               exactly "some choice of readings makes f_j = target".
    syntactic  substitute may-read-1 for positive literals and may-read-0
               for negative literals in the negation normal form.  Cheaper,
               identical on valid states when every regulator occurs with a
               single polarity, an over-approximation otherwise.

Either mode builds plus_j and minus_j together, in one walk of rule j's
diagram or of its syntax (the network's walk of rule j, see expr).  The
exact transform is the diagram manager's _may_read pass, which also gives
the mp moves on sets of states (reach._mp_moves).  Syntactic mode builds no
tree: its walk makes the pair (plus, must), must = !minus, each side with
the algebra's build builders.  A variable k gives (x_kc, x_kb), a constant
is the same on both sides, a negation maps (P, Q) to (!Q, !P), and & and |
act on each side, so a product or a sum of literals is one chain, one mk
per literal, on either side.  Negated conditions are the complements of
the built ones in both modes.

One construction, _Unfolding, builds the rules in either of two algebras
over the output's variables, with the same calls in the same order: the
unfolding's DiagramManager, whose nodes unfold and build_condition hand
out, and bdd._MaskAlgebra, whose nodes are truth tables in _var_masks'
layout (a literal is its variable's mask or that mask's complement,
negation full ^ u, conj and disj & and |, join a fold), which the theorem
check reads with no diagram over the unfolded variables.

Exact mode promises nothing at artifact triplets, which are unreachable
from encoded states.  An artifact reads as neither value, and the transform
asks for a reading only on the paths that test it, so the declaration
order decides: with x, x | y and y, y, x at 010 and y at 111, plus_x is 0
when x is declared first and 1 when y is (syntactic mode: 1 in both).

A partial unfolding (UnfoldSpec.components) leaves the other components
plain.  On Boolean states (every unfolded triplet 000 or 111), what its
asynchronous runs reach from an encoded state lies between what the
input's asynchronous runs and its most permissive runs reach, and it is the
latter once every component that another component reads is unfolded.
This is checked, not proved: in exact mode, on every subset and source
state of random networks of up to 4 components.

One helper, _slots, places every component in the output; the output names,
the rules, encode_state, decode_state and translate_trajectory all read it.
"""
from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import reduce

from . import expr as ex
from .bdd import _AND, _OR, FALSE, TRUE, DiagramManager, FunctionRep
from .network import BooleanNetwork, _check_string, check_component
from .semantics import _space, check_mp_state

LEVEL_TO_TRIPLET = {"0": "000", "i": "001", "d": "101", "1": "111"}
TRIPLET_TO_LEVEL = {t: lv for lv, t in LEVEL_TO_TRIPLET.items()}
TRANSIENT_TRIPLETS = ("011", "100")
VALID_TRIPLETS = tuple(LEVEL_TO_TRIPLET.values()) + TRANSIENT_TRIPLETS
ARTIFACT_TRIPLETS = ("010", "110")

LETTERS = ("a", "b", "c")

MODES = ("exact", "syntactic")

# _LETTER_RULES[own][p]: when the synchronous image of a component's own
# pattern (a triplet, or a plain component's bit) sets its bit p: never (0),
# always (1), or when a condition holds, plus (+) or minus (-), or when it
# fails (!+, !-).  _setter_values is the one reading of these setters, for
# Booleans (triplet_step) and for diagrams or truth tables
# (_Unfolding.rule_nodes).  Read per letter, this is
#     rule_a = own{011,110,111} | own 001 & minus | own 101 & !plus
#     rule_b = own{001,011,110} | own 111 & !minus
#     rule_c = own{001,011,110,111} | own 000 & plus
_LETTER_RULES = {
    "000": ("0", "0", "+"),
    "001": ("-", "1", "1"),
    "011": ("1", "1", "1"),
    "111": ("1", "!-", "1"),
    "101": ("!+", "0", "0"),
    "100": ("0", "0", "0"),
    # artifacts drain toward the nearest level
    "010": ("0", "0", "0"),
    "110": ("1", "1", "1"),
    # a plain component rises under plus and falls under minus
    "0": ("+",),
    "1": ("!-",),
}


def _setter_values(zero, one, plus, minus, neg) -> dict:
    """What each setter of _LETTER_RULES sets a bit to, in the algebra of
    the given constants, conditions and negation."""
    return {"0": zero, "1": one, "+": plus, "-": minus, "!+": neg(plus), "!-": neg(minus)}


@dataclass(frozen=True)
class UnfoldSpec:
    """Which components to unfold (None = all) and the condition mode."""

    components: tuple[str, ...] | None = None
    mode: str = "exact"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if isinstance(self.components, str):
            raise ValueError(
                f"components must be a collection of names, got the string "
                f"{self.components!r}"
            )
        if self.components is not None and not isinstance(self.components, tuple):
            object.__setattr__(self, "components", tuple(self.components))

    def resolve(self, net: BooleanNetwork) -> frozenset[int]:
        if self.components is None:
            return frozenset(range(net.n))
        return frozenset(net.index_of(name) for name in self.components)


def _slots(net: BooleanNetwork, spec: UnfoldSpec) -> list[tuple[int, ...]]:
    """The layout of the output: for each component k, its output indices,
    (a, b, c) if k is unfolded, (p,) if it stays plain."""
    chosen = spec.resolve(net)
    slots, pos = [], 0
    for k in range(net.n):
        width = 3 if k in chosen else 1
        slots.append(tuple(range(pos, pos + width)))
        pos += width
    return slots


def unfolded_names(net: BooleanNetwork, spec: UnfoldSpec | None = None) -> list[str]:
    """Output component names, each unfolded X replaced in place by
    X_a, X_b, X_c."""
    out = []
    for name, slots in zip(net.names, _slots(net, spec or UnfoldSpec())):
        out.extend([name] if len(slots) == 1 else [f"{name}_{c}" for c in LETTERS])
    return out


class _Unfolding:
    """Shared construction state for one (network, spec) pair, built in
    algebra over the output's variables: a DiagramManager (None), whose
    nodes unfold and build_condition hand out, or a _MaskAlgebra, whose
    nodes are the truth tables that the theorem check reads."""

    def __init__(self, net: BooleanNetwork, spec: UnfoldSpec, algebra=None):
        self.net = net
        self.spec = spec
        self.slots = _slots(net, spec)
        self.out_names = unfolded_names(net, spec)
        counts = Counter(self.out_names)
        dupes = sorted(n for n, count in counts.items() if count > 1)
        if dupes:
            raise ValueError(
                f"unfolding produces colliding component names: {', '.join(dupes)}"
            )
        self.manager = (algebra or DiagramManager)(len(self.out_names))
        m = self.manager
        # k may read as 1 iff its last slot (c, or its plain bit) is set, and
        # as 0 iff its middle slot (b, or its plain bit) is clear
        self.c_slot = [slots[-1] for slots in self.slots]
        self.b_slot = [slots[len(slots) // 2] for slots in self.slots]
        # per k: (may read 1, may read 0); the may-read-1 nodes are all
        # made first, which fixes the diagram's node numbering
        allow1 = list(map(m.var_node, self.c_slot))
        self.reads = list(zip(allow1, [m.neg(m.var_node(b)) for b in self.b_slot]))

    def conditions(self, j: int) -> tuple[int, int]:
        """(plus_j, minus_j), built together in the spec's mode."""
        return self._exact(j) if self.spec.mode == "exact" else self._syntactic(j)

    def _exact(self, j: int) -> tuple[int, int]:
        return self.net.manager._may_read(self.net.nodes[j], self.reads, self.manager)

    def _syntactic(self, j: int) -> tuple[int, int]:
        # (plus, must = !minus), as the module docstring says
        m = self.manager
        plus, must = self.net._walks[j](
            lambda k: (m._lit(self.c_slot[k]), m._lit(self.b_slot[k])),
            lambda c: (m.true, m.true) if c else (m.false, m.false),
            lambda v: (m._not(v[1]), m._not(v[0])),
            lambda v, w: (m._and(v[0], w[0]), m._and(v[1], w[1])),
            lambda v, w: (m._or(v[0], w[0]), m._or(v[1], w[1])),
        )
        return m._node(plus), m.neg(m._node(must))

    def rule_nodes(self) -> list[int]:
        """Every output's rule node, in output order: the rules that unfold
        gives its network, or, in a _MaskAlgebra, their truth tables, which
        the theorem check reads.  One pass
        per component k builds its conditions and joins the literals of each
        own pattern of its width into its cube once; bit p of k's image is
        the join of | over those patterns of cube & the value of the
        pattern's setter for p.  A setter "0" adds nothing to the join, so
        its term is skipped, and so is the cube of a pattern (100, 010)
        whose setters are all "0"."""
        m = self.manager
        nodes = []
        for k, slots in enumerate(self.slots):
            value = _setter_values(m.false, m.true, *self.conditions(k), m.neg)
            own = [
                (m.join(_AND, zip(slots, map(int, pattern))), setters)
                for pattern, setters in _LETTER_RULES.items()
                if len(pattern) == len(slots) and setters.count("0") < len(setters)
            ]
            for p in range(len(slots)):
                terms = [
                    m.conj(cube, value[setters[p]]) for cube, setters in own if setters[p] != "0"
                ]
                nodes.append(m.join(_OR, terms))
        return nodes


def build_condition(
    net: BooleanNetwork,
    j: int,
    spec: UnfoldSpec | None = None,
    polarity: str = "plus",
) -> FunctionRep:
    """The plus/minus condition of component j over the unfolded variables
    (variable order = unfolded_names order)."""
    check_component(net, j)
    if polarity not in ("plus", "minus"):
        raise ValueError(f"polarity must be 'plus' or 'minus', got {polarity!r}")
    ctx = _Unfolding(net, spec or UnfoldSpec())
    return FunctionRep(ctx.manager, ctx.conditions(j)[polarity == "minus"])


def _node_to_expr(manager: DiagramManager, node: int) -> ex.BooleanExpr:
    if node == FALSE:
        return ex.Const(0)
    if node == TRUE:
        return ex.Const(1)
    products = manager.paths(
        node, lambda var, bit: ex.Var(var) if bit else ex.Not(ex.Var(var)), ex.And
    )
    return reduce(ex.Or, products)


def unfold(net: BooleanNetwork, spec: UnfoldSpec | None = None) -> BooleanNetwork:
    """The unfolded Boolean network.

    Each output rule is one bit of the image of its component's own pattern
    under the component's conditions, as _LETTER_RULES defines it.  A
    component left plain gets (not x and plus) or (x and not minus), which
    degenerates to the original rule when no regulator is unfolded.
    Asynchronous runs of the result simulate the most permissive runs of the
    input (exactly, in exact mode, on encoded states).

    The result's rule diagrams are the nodes built here, in this
    construction's manager; its rule trees are their sums of products."""
    spec = spec or UnfoldSpec()
    ctx = _Unfolding(net, spec)
    nodes = ctx.rule_nodes()
    components = [
        (name, _node_to_expr(ctx.manager, node))
        for name, node in zip(ctx.out_names, nodes)
    ]
    ext = BooleanNetwork(components)
    ext._adopt(ctx.manager, nodes)
    return ext


def encode_state(net: BooleanNetwork, x: str, spec: UnfoldSpec | None = None) -> str:
    """Map a most permissive state to its unfolded Boolean state.  Components
    left plain must sit at a Boolean level."""
    spec = spec or UnfoldSpec()
    check_mp_state(net, x)
    layout = _slots(net, spec)
    for k, (level, slots) in enumerate(zip(x, layout)):
        if len(slots) == 1 and level not in "01":
            raise ValueError(
                f"component {net.names[k]!r} is not unfolded and must be "
                f"Boolean, got level {level!r}"
            )
    return _encode_state(x, layout)


def _encode_state(x: str, layout: list[tuple[int, ...]]) -> str:
    """encode_state of x on layout, _slots' output, with no check: every
    level of x is one of 0, i, d, 1, and 0 or 1 where layout keeps its
    component plain."""
    return "".join(
        level if len(slots) == 1 else LEVEL_TO_TRIPLET[level]
        for level, slots in zip(x, layout)
    )


def decode_state(net: BooleanNetwork, xt: str, spec: UnfoldSpec | None = None) -> str:
    """Inverse of encode_state; rejects transient and artifact triplets."""
    layout = _slots(net, spec or UnfoldSpec())
    _check_string(xt, layout[-1][-1] + 1, "01", "an unfolded Boolean state")
    parts = []
    for k, slots in enumerate(layout):
        own = xt[slots[0] : slots[-1] + 1]
        level = TRIPLET_TO_LEVEL.get(own) if len(slots) == 3 else own
        if level is None:
            raise ValueError(
                f"triplet {own} of component {net.names[k]!r} does not encode a level"
            )
        parts.append(level)
    return "".join(parts)


def triplet_step(own: str, plus_cond: bool, minus_cond: bool) -> str:
    """Synchronous image of a single triplet given its condition values:
    each bit as its setter in _LETTER_RULES, the table every unfolded rule
    is built from, decides."""
    if own not in VALID_TRIPLETS + ARTIFACT_TRIPLETS:
        raise ValueError(f"not a triplet: {own!r}")
    value = _setter_values(False, True, bool(plus_cond), bool(minus_cond), operator.not_)
    return "".join("1" if value[setter] else "0" for setter in _LETTER_RULES[own])


# per-coordinate move -> successive own-triplet values, one bit flip each
_MOVE_TRIPLETS = {
    ("0", "i"): ("001",),
    ("1", "d"): ("101",),
    ("i", "d"): ("101",),
    ("d", "i"): ("001",),
    ("i", "1"): ("011", "111"),
    ("d", "0"): ("100", "000"),
}


def translate_trajectory(net: BooleanNetwork, path: list[str]) -> list[str]:
    """Replay a most permissive trajectory in the fully unfolded network.

    Each single-step coordinate move expands to one bit flip, except the
    commitments i->1 and d->0 which take two (through the transient triplets
    011 and 100).  The input path is validated transition by transition."""
    if not path:
        return []
    out = [encode_state(net, path[0])]  # checks path[0]
    space = _space(net, "mp")
    codes = list(map(space.encode, path))
    layout = _slots(net, UnfoldSpec())
    for step, (x, y) in enumerate(zip(path, path[1:])):
        if codes[step + 1] not in space.successors(codes[step]):
            raise ValueError(
                f"step {step}: {y!r} is not a most permissive successor of {x!r}"
            )
        (j,) = [k for k in range(net.n) if x[k] != y[k]]
        first, last = layout[j][0], layout[j][-1] + 1
        cur = out[-1]
        for triplet in _MOVE_TRIPLETS[(x[j], y[j])]:
            cur = cur[:first] + triplet + cur[last:]
            out.append(cur)
    return out
