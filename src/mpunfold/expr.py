"""Boolean expression trees and the .bnet expression grammar.

Expressions are immutable trees over component indices.  A body shaped as
print_bnet writes it, the paths of a decision tree with no "(", is read by
_read_paths, one mk per node; the grammar below, one loop with no recursion,
reads every other body into a tree or a diagram and reports every error.
Grammar:
    expr := conj {"|" conj}
    conj := lit {"&" lit}
    lit  := "!" lit | "(" expr ")" | ident | "0" | "1"
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Not:
    operand: "BooleanExpr"


@dataclass(frozen=True)
class And:
    left: "BooleanExpr"
    right: "BooleanExpr"


@dataclass(frozen=True)
class Or:
    left: "BooleanExpr"
    right: "BooleanExpr"


BooleanExpr = Union[Var, Const, Not, And, Or]

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class BnetParseError(ValueError):
    """Parse failure with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# markers on fold's stack: apply neg, conj or disj to the values just made
_NEG, _CONJ, _DISJ = object(), object(), object()


def fold(expr: BooleanExpr, var, const, neg, conj, disj):
    """One bottom-up walk of a tree, in a loop with an explicit stack: a Var
    gives var(index), a Const const(value), and Not, And and Or give
    neg(v), conj(v, w) and disj(v, w) of their operands' values, the left
    operand's made first."""
    todo: list = [expr]
    done: list = []
    while todo:
        e = todo.pop()
        if e is _CONJ:
            right = done.pop()
            done[-1] = conj(done[-1], right)
        elif e is _DISJ:
            right = done.pop()
            done[-1] = disj(done[-1], right)
        elif e is _NEG:
            done[-1] = neg(done[-1])
        elif isinstance(e, Var):
            done.append(var(e.index))
        elif isinstance(e, (And, Or)):
            todo.append(_CONJ if isinstance(e, And) else _DISJ)
            todo.append(e.right)
            todo.append(e.left)
        elif isinstance(e, Not):
            todo.append(_NEG)
            todo.append(e.operand)
        elif isinstance(e, Const):
            done.append(const(e.value))
        else:
            raise TypeError(f"not a BooleanExpr: {e!r}")
    return done[0]


def evaluate(expr: BooleanExpr, bits) -> int:
    """Evaluate over a sequence of 0/1 values indexed by component."""
    return fold(
        expr,
        lambda k: bits[k],
        lambda c: c,
        lambda v: 1 - v,
        lambda v, w: v and w,
        lambda v, w: v or w,
    )


def variables(expr: BooleanExpr) -> set[int]:
    """Indices occurring syntactically (may exceed the semantic support)."""
    if isinstance(expr, Var):
        return {expr.index}
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, Not):
        return variables(expr.operand)
    if isinstance(expr, (And, Or)):
        return variables(expr.left) | variables(expr.right)
    raise TypeError(f"not a BooleanExpr: {expr!r}")


def to_nnf(expr: BooleanExpr, negate: bool = False) -> BooleanExpr:
    """Negation normal form: Not only applies to Var."""
    # each value is the pair (normal form, normal form of the negation)
    forms = fold(
        expr,
        lambda k: (Var(k), Not(Var(k))),
        lambda c: (Const(c), Const(1 - c)),
        lambda v: (v[1], v[0]),
        lambda v, w: (And(v[0], w[0]), Or(v[1], w[1])),
        lambda v, w: (Or(v[0], w[0]), And(v[1], w[1])),
    )
    return forms[bool(negate)]


def format_expr(expr: BooleanExpr, names) -> str:
    """Render with minimal parentheses under the grammar's precedence."""
    # each value is (text, level): 1 for "|", 2 for "&", 3 for the rest; an
    # operand below its operator's level is parenthesised
    def wrap(v, level):
        return v[0] if v[1] >= level else f"({v[0]})"

    return fold(
        expr,
        lambda k: (names[k], 3),
        lambda c: (str(c), 3),
        lambda v: ("!" + wrap(v, 3), 3),
        lambda v, w: (wrap(v, 2) + " & " + wrap(w, 2), 2),
        lambda v, w: (v[0] + " | " + w[0], 1),
    )[0]


# One scan per rule body: findall gives every token as a string (an
# identifier, "0", "1", an operator, or any other non-blank character, which
# is bad); the parser appends "" as the end.  Columns are recovered only to
# report an error.
_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[01&|!()]|\S)")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_GOOD_START = _IDENT_START | frozenset("01&|!()")
_CONST = (Const(0), Const(1))


def _found(tok: str) -> str:
    return f"{tok!r}" if tok else "end of line"


class _Grammar:
    """The grammar over one body's tokens, read by parse in one loop.  A
    subclass makes the values with five builder methods: lit(k, bit) for a
    literal x (bit 1) or !x (bit 0), const(c), neg(u), disj(u, v), and
    conj(ops) for an "&" chain, given its operands in order, each a built
    value or, for a literal, its (k, bit) pair.  (A class rather than nested
    functions: those would form a reference cycle that keeps the tokens and
    the manager alive until the next garbage collection.)"""

    __slots__ = ("text", "tokens", "names", "line", "col")

    def __init__(self, text, names, line, col):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append("")
        self.names = names
        self.line = line
        self.col = col

    def parse(self):
        """The body's value: one loop over the tokens that reads an operand
        (after any "!"s and "("s), then the operators after it.  Each open
        group, the body and each "(", keeps its "|" value so far, its
        pending "&" operands and its count of "!"s before the operand being
        read; a ")" pops the group and its value becomes an operand of the
        enclosing one.  No recursion, so nesting is not bounded by Python's
        stack, and the builder calls are those of a recursive descent, in
        the same order."""
        tokens, names = self.tokens, self.names
        groups = []  # the groups enclosing the current one
        total, ops, nots = None, [], 0  # the current group
        pos = 0
        while True:
            tok = tokens[pos]
            pos += 1
            k = names.get(tok)
            if k is not None:  # x, !x, or a deeper negation of !x
                op = (k, 1 - nots) if nots < 2 else self.negated(self.lit(k, 0), nots - 1)
            elif tok == "!":
                nots += 1
                continue
            elif tok == "(":
                groups.append((total, ops, nots))
                total, ops, nots = None, [], 0
                continue
            elif tok == "0" or tok == "1":
                op = self.negated(self.const(tok == "1"), nots)
            elif tok and tok[0] in _IDENT_START:
                self.fail(f"undeclared identifier {tok!r}", pos - 1)
            else:
                self.fail(f"expected a literal, found {_found(tok)}", pos - 1)
            ops.append(op)
            nots = 0
            # the operators after an operand; each ")" closes a group
            while True:
                tok = tokens[pos]
                pos += 1
                if tok == "&":
                    break
                u = self.value(ops[0]) if len(ops) == 1 else self.conj(ops)
                total = u if total is None else self.disj(total, u)
                ops = []
                if tok == "|":
                    break
                if not groups:
                    if tok:
                        self.fail(f"trailing input {tok!r}", pos - 1)
                    return total
                if tok != ")":
                    self.fail(f"expected ')', found {_found(tok)}", pos - 1)
                u = total
                total, ops, nots = groups.pop()
                ops.append(self.negated(u, nots))
                nots = 0

    def negated(self, u, count: int):
        """u under count negations, each made by neg."""
        for _ in range(count):
            u = self.neg(u)
        return u

    def fail(self, message: str, at: int):
        """Raise message at token `at`, unless some token is a bad
        character: that one is reported instead, as scanning before
        parsing would."""
        for i, tok in enumerate(self.tokens):
            if tok and tok[0] not in _GOOD_START:
                at, message = i, f"unexpected character {tok!r}"
                break
        starts = [m.start(1) for m in _TOKEN_RE.finditer(self.text)]
        offset = starts[at] if at < len(starts) else len(self.text)
        raise BnetParseError(message, self.line, self.col + offset)

    def value(self, op):
        return self.lit(*op) if type(op) is tuple else op


class _TreeReader(_Grammar):
    """Builds the rule's tree, "&" and "|" chains nested to the left."""

    __slots__ = ()

    @staticmethod
    def lit(k, bit):
        return Var(k) if bit else Not(Var(k))

    @staticmethod
    def const(c):
        return _CONST[c]

    @staticmethod
    def neg(e):
        return Not(e)

    @staticmethod
    def disj(e, f):
        return Or(e, f)

    def conj(self, ops):
        e = self.value(ops[0])
        for op in ops[1:]:
            e = And(e, self.value(op))
        return e


class _DiagramReader(_Grammar):
    """Builds the rule's diagram in a DiagramManager, and no tree.  An "&"
    chain of literals on distinct variables becomes its cube directly;
    any other chain goes through _conjoin.  "|" chains fold with disj."""

    __slots__ = ("m",)

    def __init__(self, text, names, line, col, manager):
        super().__init__(text, names, line, col)
        self.m = manager

    def lit(self, k, bit):
        return self.m.mk(k, 1 - bit, bit)

    @staticmethod
    def const(c):
        return int(c)

    def neg(self, u):
        return self.m.neg(u)

    def disj(self, u, v):
        return self.m.disj(u, v)

    def conj(self, ops):
        lits = {}
        for op in ops:
            if type(op) is not tuple or op[0] in lits:
                return _conjoin(self.m, [self.value(op) for op in ops])
            lits[op[0]] = op[1]
        return _cube(self.m, lits)


def _cube(m, lits: dict[int, int]) -> int:
    """The conjunction of literals {var: bit} on distinct variables: one node
    per literal, built with mk from the deepest variable up."""
    u = 1
    for var in sorted(lits, reverse=True):
        u = m.mk(var, 0, u) if lits[var] else m.mk(var, u, 0)
    return u


def _conjoin(m, nodes: list[int]) -> int:
    """Conjunction of diagram nodes, folded with conj."""
    u = nodes[0]
    for v in nodes[1:]:
        u = m.conj(u, v)
    return u


def parse_expression(
    text: str, name_to_index: dict[str, int], line: int = 1, col: int = 1
) -> BooleanExpr:
    """Parse one rule body into its tree; identifiers resolve through
    name_to_index.  An error reports `line` and its column, counted from
    `col`, the column where the body starts."""
    return _TreeReader(text, name_to_index, line, col).parse()


def parse_diagram(
    text: str, name_to_index: dict[str, int], manager, line: int = 1, col: int = 1
) -> int:
    """Parse one rule body straight into its diagram node in manager, with
    the grammar and the errors of parse_expression, building no tree.  A
    body in the shape print_bnet writes takes _read_paths; any other, and
    every error, takes the grammar."""
    u = _read_paths(text, name_to_index, manager)
    if u is None:
        u = _DiagramReader(text, name_to_index, line, col, manager).parse()
    return u


def _read_paths(text: str, name_to_index: dict[str, int], manager) -> int | None:
    """The diagram of a body that is a sum of the paths of a decision tree:
    no "(", and every operand of "&" an optional "!" then a declared name,
    on distinct variables within its product, the products parting as
    manager.from_paths requires.  Such a body, print_bnet's output, is
    read by splitting it on "|" and "&", with one mk per node of the tree.
    Any other body gives None, with no node made."""
    if "(" in text:
        return None
    products = []
    for product in text.split("|"):
        lits: dict[int, int] = {}
        for lit in product.split("&"):
            lit = lit.strip()
            if lit[:1] == "!":
                k, bit = name_to_index.get(lit[1:].lstrip()), 0
            else:
                k, bit = name_to_index.get(lit), 1
            if k is None or k in lits:
                return None
            lits[k] = bit
        products.append(lits)
    if len(products) == 1:  # one path: its cube
        return _cube(manager, lits)
    return manager.from_paths(sorted(sorted(lits.items()) for lits in products))


def parse_rule(
    text: str, name_to_index: dict[str, int], manager=None, line: int = 1, col: int = 1
):
    """Parse one rule body into (tree, node): parse_expression's tree and,
    with a DiagramManager, parse_diagram's node in it (None without)."""
    tree = parse_expression(text, name_to_index, line, col)
    if manager is None:
        return tree, None
    return tree, parse_diagram(text, name_to_index, manager, line, col)
