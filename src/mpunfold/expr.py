"""Boolean expression trees and the .bnet expression grammar.

Expressions are immutable trees over component indices.  A body shaped as
print_bnet writes it, the paths of a decision tree with no "(", is read by
_read_paths, one mk per node; _parse, one loop over the grammar below, folds
every other body with fold's five builders and reports every error.
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


def _parse(text: str, names: dict[str, int], line: int, col: int, var, const, neg, conj, disj):
    """The value of one rule body, made with the five builders fold takes,
    called as fold would call them over the body's tree: a left operand
    first, "&" and "|" chains nested to the left.  One loop over the tokens
    reads an operand (after any "!"s and "("s), then the operators after
    it.  Each open group, the body and each "(", keeps its "|" value so
    far, its "&" value so far and its count of "!"s before the operand
    being read; a ")" pops the group and its value becomes an operand of
    the enclosing one.  No recursion, so nesting is not bounded by Python's
    stack."""
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    groups = []  # the groups enclosing the current one
    total = product = None  # the current group
    nots = pos = 0
    while True:
        tok = tokens[pos]
        pos += 1
        k = names.get(tok)
        if k is not None:
            v = var(k)
        elif tok == "!":
            nots += 1
            continue
        elif tok == "(":
            groups.append((total, product, nots))
            total = product = None
            nots = 0
            continue
        elif tok == "0" or tok == "1":
            v = const(int(tok))
        elif tok and tok[0] in _IDENT_START:
            _fail(text, tokens, line, col, f"undeclared identifier {tok!r}", pos - 1)
        else:
            _fail(text, tokens, line, col, f"expected a literal, found {_found(tok)}", pos - 1)
        # operand v, then the operators after it; each ")" closes a group
        while True:
            while nots:
                v = neg(v)
                nots -= 1
            product = v if product is None else conj(product, v)
            tok = tokens[pos]
            pos += 1
            if tok == "&":
                break
            total = product if total is None else disj(total, product)
            product = None
            if tok == "|":
                break
            if not groups:
                if tok:
                    _fail(text, tokens, line, col, f"trailing input {tok!r}", pos - 1)
                return total
            if tok != ")":
                _fail(text, tokens, line, col, f"expected ')', found {_found(tok)}", pos - 1)
            v = total
            total, product, nots = groups.pop()


def _fail(text: str, tokens: list[str], line: int, col: int, message: str, at: int):
    """Raise message at token `at`, unless some token is a bad character:
    that one is reported instead, as scanning before parsing would."""
    for i, tok in enumerate(tokens):
        if tok and tok[0] not in _GOOD_START:
            at, message = i, f"unexpected character {tok!r}"
            break
    starts = [m.start(1) for m in _TOKEN_RE.finditer(text)]
    offset = starts[at] if at < len(starts) else len(text)
    raise BnetParseError(message, line, col + offset)


def parse_expression(
    text: str, name_to_index: dict[str, int], line: int = 1, col: int = 1
) -> BooleanExpr:
    """Parse one rule body into its tree; identifiers resolve through
    name_to_index.  An error reports `line` and its column, counted from
    `col`, the column where the body starts."""
    return _parse(text, name_to_index, line, col, Var, _CONST.__getitem__, Not, And, Or)


def parse_diagram(
    text: str, name_to_index: dict[str, int], manager, line: int = 1, col: int = 1
) -> int:
    """Parse one rule body straight into its diagram node in manager, with
    the grammar and the errors of parse_expression, building no tree.  A
    body in the shape print_bnet writes takes _read_paths; any other, and
    every error, takes the grammar with manager's diagram builder, the one
    from_expr folds a tree with."""
    u = _read_paths(text, name_to_index, manager)
    if u is None:
        u = manager.build(_parse, text, name_to_index, line, col)
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
        return manager.cube(lits)
    return manager.from_paths(sorted(sorted(lits.items()) for lits in products))
