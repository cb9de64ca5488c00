"""Boolean networks: the core model type, .bnet I/O, regulatory graphs.

A BooleanNetwork is an ordered list of (name, rule) pairs.  Declaration
order is the variable order everywhere: state strings, diagram variable
order, successor enumeration.

Each rule is a diagram node in the network's DiagramManager, and a walk
(see expr), the one stored form of its syntax: the grammar over its body
in a read network, fold over its tree in one built from trees.  The
diagram is built once, where the rule is made: parse_bnet reads each body
straight into it, unfold hands over the nodes it built, and a network
built from trees builds them all from its walks when `nodes`, their one
owner, is first read.  show, syntactic unfolding and the oracle call the
walks with their own builders; `rules` makes trees from them only for
the callers of the public API that ask.  A RuleEvaluator walks the
diagrams in the manager itself, and keeps no copy.
"""
from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial

from . import expr as ex
from .bdd import FALSE, TRUE, DiagramManager, FunctionRep
from .expr import BnetParseError, BooleanExpr, IDENT_RE


class BooleanNetwork:
    def __init__(self, components):
        components = list(components)
        if not components:
            raise ValueError("a network needs at least one component")
        names = [name for name, _ in components]
        for name in names:
            if not IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid component name {name!r}")
        dupes = sorted(n for n, count in Counter(names).items() if count > 1)
        if dupes:
            raise ValueError(f"duplicate component names: {', '.join(dupes)}")
        self._set_names(names)
        self._walks = tuple(partial(ex.fold, rule) for _, rule in components)
        for j, (_, rule) in enumerate(components):
            for k in ex.variables(rule):
                if not 0 <= k < len(names):
                    raise ValueError(
                        f"rule of {names[j]!r} references variable index {k}, "
                        f"but the network has {len(names)} components"
                    )

    @classmethod
    def _read(cls, names, walks, manager: DiagramManager, nodes) -> "BooleanNetwork":
        """A network read from .bnet text, with names checked by the reader:
        rule j's diagram is nodes[j] in manager, and its walk walks[j], the
        grammar over its body.  Every name in a body went through the name
        table, so no index needs a check."""
        net = cls.__new__(cls)
        net._set_names(names)
        net._walks = tuple(walks)
        net._adopt(manager, nodes)
        return net

    def _set_names(self, names) -> None:
        self.names: tuple[str, ...] = tuple(names)
        self._index = {name: j for j, name in enumerate(names)}
        self._manager: DiagramManager | None = None
        self._nodes: tuple[int, ...] | None = None
        self._evaluator: RuleEvaluator | None = None

    @cached_property
    def rules(self) -> tuple[BooleanExpr, ...]:
        """Every rule's expression tree, made from its walk on first access."""
        return tuple(map(ex._tree, self._walks))

    @property
    def n(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no component named {name!r}") from None

    def components(self):
        return list(zip(self.names, self.rules))

    @property
    def manager(self) -> DiagramManager:
        if self._manager is None:
            self._manager = DiagramManager(self.n)
        return self._manager

    @property
    def nodes(self) -> tuple[int, ...]:
        """Rule j's diagram node in `manager`, for every j."""
        if self._nodes is None:
            self._nodes = tuple(map(self.manager.build, self._walks))
        return self._nodes

    @property
    def evaluator(self) -> "RuleEvaluator":
        if self._evaluator is None:
            self._evaluator = RuleEvaluator(self.manager, self.nodes)
        return self._evaluator

    def _adopt(self, manager: DiagramManager, nodes) -> None:
        """Take rule j's diagram to be nodes[j] in manager, built by whoever
        made the rules (the .bnet reader, unfold) in a manager over the
        network's n variables."""
        self._manager = manager
        self._nodes = tuple(nodes)

    def __repr__(self):
        return f"BooleanNetwork({', '.join(self.names)})"


class RuleEvaluator:
    """The rules nodes[0..n-1] of a manager over n variables, as the
    explorers step them: the synchronous image of an integer state and the
    values a rule takes on an mp state, by walking the manager's own
    diagrams, read live (a manager only appends nodes).  They are a
    network's rules (its `evaluator`), or those of an unfolding that built
    no network.  Building one walks no diagram; the mp step's rows are made
    on first mp use.  One rule on one state string is eval_rule's, by the
    manager's walk.

    An integer state holds component j in bit n-1-j: component 0 is the most
    significant bit, so integer order is the order of state strings.  A most
    permissive state is one integer (val << n) | free in the encoding the
    semantics module describes.  Nothing is checked here but the manager's
    width: callers validate states at the API boundary."""

    def __init__(self, manager: DiagramManager, nodes):
        self.nodes = tuple(nodes)
        n = self.n = len(self.nodes)
        if manager.nvars != n:
            raise ValueError(f"manager has {manager.nvars} variables, the network {n}")
        self.manager = manager
        self.masks = masks = tuple(1 << (n - 1 - j) for j in range(n))
        self._rules = tuple(zip(self.nodes, masks))
        self._format = f"0{n}b"

    @staticmethod
    def encode(s: str) -> int:
        return int(s, 2)

    def decode(self, s: int) -> str:
        return format(s, self._format)

    def mp_encode(self, x: str) -> int:
        return int(x.translate(_MP_VAL), 2) << self.n | int(x.translate(_MP_FREE), 2)

    def mp_decode(self, x: int) -> str:
        val = format(x >> self.n, self._format)
        free = format(x & ~(-1 << self.n), self._format)
        return "".join([_MP_LEVEL[v + f] for v, f in zip(val, free)])

    def image(self, s: int) -> int:
        """The synchronous image f(s): every rule on s."""
        triples, masks = self.manager._triples, self.masks
        out = 0
        for u, own in self._rules:
            while u > 1:
                var, low, high = triples[u - 2]
                u = high if s & masks[var] else low
            if u:
                out |= own
        return out

    @cached_property
    def _mp_rows(self) -> tuple:
        """Per rule j: (j, bit, bit << n, its support in both halves of an
        mp state, mp_values' memo keyed by x & that support)."""
        n, masks, support = self.n, self.masks, self.manager.support
        rows = []
        for j, (node, bit) in enumerate(self._rules):
            care = sum(masks[var] for var in support(node))
            rows.append((j, bit, bit << n, care << n | care, {}))
        return tuple(rows)

    def mp_values(self, j: int, x: int) -> int:
        """The values rule j takes on gamma(x), the Boolean readings of the
        most permissive state x, as a bit set: bit v is set iff some reading
        gives v.  The walk follows both branches at free levels and creates
        no diagram node; its result depends on x only through rule j's
        support, which keys the memo."""
        *_, care, memo = self._mp_rows[j]
        found = memo.get(x & care)
        if found is None:
            triples, masks = self.manager._triples, self.masks
            val = x >> self.n
            found, todo, seen = 0, [self.nodes[j]], set()
            while todo:
                u = todo.pop()
                while u > 1 and u not in seen:
                    seen.add(u)
                    var, low, high = triples[u - 2]
                    bit = masks[var]
                    if x & bit:  # free: both readings
                        todo.append(high)
                        u = low
                    else:
                        u = high if val & bit else low
                if u < 2:
                    found |= 1 << u
            memo[x & care] = found
        return found


class _ImageTable(RuleEvaluator):
    """A RuleEvaluator whose image is a lookup in a table of the images of
    all 2^n states, made on first use from the rules' truth tables, read
    once when it is built, as `tables`; every other member is
    RuleEvaluator's.  For questions about the whole space (attractors
    without roots, the theorem check), built per question; its sets of
    states read only the tables, and the image table is made only when
    states are stepped."""

    def __init__(self, manager: DiagramManager, nodes):
        super().__init__(manager, nodes)
        self.tables = manager._truth_tables(self.nodes)

    @cached_property
    def image(self):
        # cached as the list's own lookup, an instance attribute: no frame per call
        return _transpose(self.tables).__getitem__


# binary digits '0'/'1' -> bytes 0/1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _transpose(tables: list[int]) -> list[int]:
    """The images of all states s < 2^n from the truth tables of n rules:
    image s holds bit s of tables[j] in bit n-1-j.  Bit-parallel: each
    table's binary digits become one byte per state (byte s of an int for
    state s), these ints are ORed into the byte lanes of 16- or 32-bit
    fields, and array reads the fields back."""
    n = len(tables)
    size = 1 << n
    code = next(c for c in "HIQ" if array(c).itemsize * 8 >= n)
    width = array(code).itemsize
    lanes = [0] * width  # lanes[k]: byte k of every field, as one int
    for j, table in enumerate(tables):
        digits = format(table, f"0{size}b").encode().translate(_DIGIT_BYTES)
        shift = n - 1 - j
        lanes[shift >> 3] |= int.from_bytes(digits, "big") << (shift & 7)
    fields = bytearray(width * size)
    for k, lane in enumerate(lanes):
        fields[k::width] = lane.to_bytes(size, "little")
    images = array(code, fields)
    if sys.byteorder == "big":
        images.byteswap()
    return images.tolist()


# most permissive levels <-> (val, free) bits
_MP_VAL = str.maketrans("0id1", "0101")
_MP_FREE = str.maketrans("0id1", "0110")
_MP_LEVEL = {"00": "0", "01": "d", "10": "1", "11": "i"}


def _check_string(s, length: int, alphabet: str, what: str, over: str = "") -> str:
    """s, if it is a string of the given length over alphabet; otherwise a
    ValueError that expects what (over, if given, shows the alphabet).  The
    one check of the state and pattern strings the API takes."""
    if not isinstance(s, str) or len(s) != length or any(c not in alphabet for c in s):
        raise ValueError(f"expected {what} of length {length}{over}, got {s!r}")
    return s


def check_bool_state(net: BooleanNetwork, s: str) -> str:
    return _check_string(s, net.n, "01", "a Boolean state", " over 0/1")


def check_component(net: BooleanNetwork, j: int) -> None:
    if not isinstance(j, int) or not 0 <= j < net.n:
        raise ValueError(f"component index must be in 0..{net.n - 1}, got {j!r}")


def eval_rule(net: BooleanNetwork, j: int, s: str) -> int:
    """Value of component j's rule on a Boolean state string, by the
    manager's walk of its diagram, DiagramManager.evaluate."""
    check_component(net, j)
    check_bool_state(net, s)
    return net.manager.evaluate(net.nodes[j], tuple(map(int, s)))


def build_function(net: BooleanNetwork, j: int) -> FunctionRep:
    """Canonical diagram of rule j in the network's shared manager,
    net.nodes[j], with its index checked."""
    check_component(net, j)
    return FunctionRep(net.manager, net.nodes[j])


def support(fr: FunctionRep) -> set[int]:
    """Indices the function actually depends on."""
    return fr.support()


# --- .bnet files ------------------------------------------------------------

def parse_bnet(text: str) -> BooleanNetwork:
    """Parse .bnet text: one "target, expression" per line, '#' comments,
    an optional case-insensitive "targets, factors" header.  Each rule body
    is read straight into its diagram and kept as its walk, which makes its
    tree only when the network's `rules` are first read.  Error columns
    count within the line."""
    bodies = []  # (text, line_no, column of the text's first character)
    seen: dict[str, int] = {}  # name -> line_no, in declaration order
    first_content = True
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if first_content:
            first_content = False
            parts = [p.strip().lower() for p in line.split(",")]
            if parts == ["targets", "factors"]:
                continue
        if "," not in line:
            raise BnetParseError("expected 'target, expression'", line_no, 1)
        target, expr_text = line.split(",", 1)
        name = target.strip()
        name_col = line.index(name) + 1 if name else 1
        if not IDENT_RE.fullmatch(name):
            raise BnetParseError(f"invalid target name {name!r}", line_no, name_col)
        if name in seen:
            raise BnetParseError(
                f"duplicate target {name!r} (first declared on line {seen[name]})",
                line_no,
                name_col,
            )
        seen[name] = line_no
        bodies.append((expr_text, line_no, len(target) + 2))
    if not bodies:
        raise BnetParseError("no rules found", 1, 1)
    index = {name: j for j, name in enumerate(seen)}
    manager = DiagramManager(len(seen))
    literals = ex._Literals(index)  # the path reader's memo, one per file
    nodes = [ex.parse_diagram(t, index, manager, line, col, literals) for t, line, col in bodies]
    walks = [partial(ex._parse, text, index, line, col) for text, line, col in bodies]
    return BooleanNetwork._read(list(seen), walks, manager, nodes)


def parse_bnet_file(path: str) -> BooleanNetwork:
    with open(path, encoding="utf-8") as fh:
        return parse_bnet(fh.read())


def print_bnet(net: BooleanNetwork) -> str:
    """Render as .bnet text.  Rules are re-derived from the canonical
    diagrams as sums of products (one product per diagram path to 1,
    literals in variable order, products sorted lexicographically), so the
    output is deterministic and round-trips to the same functions."""
    names = net.names
    lines = ["targets, factors"]
    for name, node in zip(names, net.nodes):
        if node == FALSE:
            body = "0"
        elif node == TRUE:
            body = "1"
        else:
            products = net.manager.paths(
                node,
                lambda var, bit: names[var] if bit else "!" + names[var],
                lambda prefix, lit: prefix + " & " + lit,
            )
            body = " | ".join(sorted(products))
        lines.append(f"{name}, {body}")
    return "\n".join(lines) + "\n"


# --- regulatory graph -------------------------------------------------------

@dataclass(frozen=True)
class RegEdge:
    source: str
    target: str
    sign: str  # "positive" | "negative" | "dual"


@dataclass
class RegGraph:
    nodes: tuple[str, ...]
    edges: list[RegEdge] = field(default_factory=list)


def _sign_nodes(net: BooleanNetwork, k: int, j: int) -> tuple[int, int]:
    """Diagram nodes for the positive and negative witness sets of k -> j."""
    m = net.manager
    f = net.nodes[j]
    high = m.restrict(f, {k: 1})
    low = m.restrict(f, {k: 0})
    pos = m.conj(high, m.neg(low))  # f(s[k:=1]) > f(s[k:=0])
    neg = m.conj(low, m.neg(high))
    return pos, neg


def infer_regulatory_graph(net: BooleanNetwork) -> RegGraph:
    """Exact signed regulations by cofactor comparison on the diagrams."""
    edges = []
    for j, node in enumerate(net.nodes):
        for k in sorted(net.manager.support(node)):
            pos, neg = _sign_nodes(net, k, j)
            if pos != FALSE and neg != FALSE:
                sign = "dual"
            elif pos != FALSE:
                sign = "positive"
            else:
                sign = "negative"
            edges.append(RegEdge(net.names[k], net.names[j], sign))
    return RegGraph(nodes=net.names, edges=edges)


def sign_witness(net: BooleanNetwork, source: str, target: str, direction: str) -> str | None:
    """A state s (with source fixed to 0) such that flipping source to 1
    moves target's rule in the claimed direction; None if no witness."""
    k = net.index_of(source)
    j = net.index_of(target)
    if direction not in ("positive", "negative"):
        raise ValueError("direction must be 'positive' or 'negative'")
    pos, neg = _sign_nodes(net, k, j)
    node = pos if direction == "positive" else neg
    for model in net.manager.iter_models(node):
        bits = list(model)
        bits[k] = 0
        return "".join(str(b) for b in bits)
    return None
