"""Boolean expression trees and the .bnet expression grammar.

Expressions are immutable trees over component indices.  The parser reads
one rule's right-hand side into a tree and, given a manager, its diagram;
file-level structure (targets, comments, header) is handled in network.py.

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


def evaluate(expr: BooleanExpr, bits) -> int:
    """Evaluate over a sequence of 0/1 values indexed by component."""
    if isinstance(expr, Var):
        return bits[expr.index]
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Not):
        return 1 - evaluate(expr.operand, bits)
    if isinstance(expr, And):
        return evaluate(expr.left, bits) and evaluate(expr.right, bits)
    if isinstance(expr, Or):
        return evaluate(expr.left, bits) or evaluate(expr.right, bits)
    raise TypeError(f"not a BooleanExpr: {expr!r}")


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
    if isinstance(expr, Var):
        return Not(expr) if negate else expr
    if isinstance(expr, Const):
        return Const(1 - expr.value) if negate else expr
    if isinstance(expr, Not):
        return to_nnf(expr.operand, not negate)
    if isinstance(expr, And):
        a, b = to_nnf(expr.left, negate), to_nnf(expr.right, negate)
        return Or(a, b) if negate else And(a, b)
    if isinstance(expr, Or):
        a, b = to_nnf(expr.left, negate), to_nnf(expr.right, negate)
        return And(a, b) if negate else Or(a, b)
    raise TypeError(f"not a BooleanExpr: {expr!r}")


def format_expr(expr: BooleanExpr, names) -> str:
    """Render with minimal parentheses under the grammar's precedence."""

    def go(e, parent):
        if isinstance(e, Var):
            return names[e.index]
        if isinstance(e, Const):
            return str(e.value)
        if isinstance(e, Not):
            return "!" + go(e.operand, "not")
        if isinstance(e, And):
            s = go(e.left, "and") + " & " + go(e.right, "and")
            return f"({s})" if parent == "not" else s
        if isinstance(e, Or):
            s = go(e.left, "or") + " | " + go(e.right, "or")
            return f"({s})" if parent in ("and", "not") else s
        raise TypeError(f"not a BooleanExpr: {e!r}")

    return go(expr, None)


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


def parse_rule(text: str, name_to_index: dict[str, int], manager=None, line: int = 1):
    """Parse one rule body into (tree, node).  With a DiagramManager, node
    is the rule's diagram in it, built while parsing: each "&" chain is a
    cube made bottom-up when its operands are literals on distinct
    variables (see _conjoin) and folded with apply otherwise, each "|"
    chain is folded with apply.  Without one, node is None."""
    p = _RuleParser(text, name_to_index, manager, line)
    e, u = p.parse_or()
    if p.tokens[p.pos]:
        p.fail(f"trailing input {p.tokens[p.pos]!r}", p.pos)
    return e, u


class _RuleParser:
    """The grammar's three levels as methods over one body's tokens.  (A
    class rather than nested functions: those would form a reference cycle
    that keeps the tokens and the manager alive until the next garbage
    collection.)"""

    __slots__ = ("text", "tokens", "pos", "names", "m", "line")

    def __init__(self, text, names, manager, line):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append("")
        self.pos = 0
        self.names = names
        self.m = manager
        self.line = line

    def fail(self, message: str, at: int):
        """Raise message at token `at`, unless some token is a bad
        character: that one is reported instead, as scanning before
        parsing would."""
        for i, tok in enumerate(self.tokens):
            if tok and tok[0] not in _GOOD_START:
                at, message = i, f"unexpected character {tok!r}"
                break
        starts = [m.start(1) for m in _TOKEN_RE.finditer(self.text)]
        col = starts[at] + 1 if at < len(starts) else len(self.text) + 1
        raise BnetParseError(message, self.line, col)

    def parse_or(self):
        e, u = self.parse_and()
        tokens, m = self.tokens, self.m
        while tokens[self.pos] == "|":
            self.pos += 1
            f, v = self.parse_and()
            e = Or(e, f)
            if m is not None:
                u = m.apply("or", u, v)
        return e, u

    def parse_and(self):
        e, u = self.parse_lit()
        tokens = self.tokens
        if tokens[self.pos] != "&":
            return e, u
        nodes = [u]
        while tokens[self.pos] == "&":
            self.pos += 1
            f, v = self.parse_lit()
            e = And(e, f)
            nodes.append(v)
        return e, (None if self.m is None else _conjoin(self.m, nodes))

    def parse_lit(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        m = self.m
        k = self.names.get(tok)
        if k is not None:
            return Var(k), (None if m is None else m.mk(k, 0, 1))
        if tok == "!":
            e, u = self.parse_lit()
            return Not(e), (None if m is None else m.neg(u))
        if tok == "(":
            inner = self.parse_or()
            tok = self.tokens[self.pos]
            self.pos += 1
            if tok != ")":
                self.fail(f"expected ')', found {_found(tok)}", self.pos - 1)
            return inner
        if tok == "0" or tok == "1":
            c = tok == "1"
            return _CONST[c], (None if m is None else int(c))
        if tok and tok[0] in _IDENT_START:
            self.fail(f"undeclared identifier {tok!r}", self.pos - 1)
        self.fail(f"expected a literal, found {_found(tok)}", self.pos - 1)


def _conjoin(m, nodes: list[int]) -> int:
    """Conjunction of diagram nodes.  When every node is a literal (one
    test on a variable, leading to both terminals) and no variable repeats,
    the result is their cube: one node per literal, built with mk from the
    deepest variable up, with no apply."""
    lits = {}
    for u in nodes:
        if u < 2:
            break
        var, low, high = m.triple(u)
        if low + high != 1 or var in lits:
            break
        lits[var] = high
    else:
        u = 1
        for var in sorted(lits, reverse=True):
            u = m.mk(var, 0, u) if lits[var] else m.mk(var, u, 0)
        return u
    u = nodes[0]
    for v in nodes[1:]:
        u = m.apply("and", u, v)
    return u


def parse_expression(text: str, name_to_index: dict[str, int], line: int = 1) -> BooleanExpr:
    """Parse one rule body; identifiers resolve through name_to_index."""
    return parse_rule(text, name_to_index, line=line)[0]
