"""Boolean expression trees, walks, and the .bnet expression grammar.

Expressions are immutable trees over component indices.  A walk is a rule's
syntax as a callable that calls the five builders (var, const, neg, conj,
disj) as fold calls them over the rule's tree: partial(fold, tree), or
partial(_parse, body, ...), the grammar below, one loop over the body's
tokens that reports every error and builds no tree.  A body shaped as
print_bnet writes it, the paths of a decision tree with no "(", is read
into its diagram by _read_paths instead: one lookup per literal in its
file's memo, one mk per node; it declines any other body, making no node.
Grammar:
    expr := conj {"|" conj}
    conj := lit {"&" lit}
    lit  := "!" lit | "(" expr ")" | ident | "0" | "1"
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
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


def format_expr(expr: BooleanExpr, names) -> str:
    """Render with minimal parentheses under the grammar's precedence."""
    return _format(partial(fold, expr), names)


def _format(walk, names) -> str:
    """The text of a walk's rule, as format_expr renders its tree."""
    # each value is (text, level): 1 for "|", 2 for "&", 3 for the rest; an
    # operand below its operator's level is parenthesised
    def wrap(v, level):
        return v[0] if v[1] >= level else f"({v[0]})"

    return walk(
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
    return _tree(partial(_parse, text, name_to_index, line, col))


def _tree(walk) -> BooleanExpr:
    """The tree of a walk: its value under the tree constructors."""
    return walk(Var, Const, Not, And, Or)


def parse_diagram(
    text: str, name_to_index: dict[str, int], manager, line: int = 1, col: int = 1, literals=None
) -> int:
    """Parse one rule body straight into its diagram node in manager, with
    the grammar and the errors of parse_expression, building no tree.  A
    body in the shape print_bnet writes takes _read_paths, with literals,
    its file's memo (a new one if None); any other, and every error, the
    grammar with manager's diagram builder, the one from_expr folds with."""
    u = _read_paths(text, _Literals(name_to_index) if literals is None else literals, manager)
    if u is None:
        u = manager.build(_parse, text, name_to_index, line, col)
    return u


class _Literals(dict):
    """One file's memo for the path reader: each operand of "&" as written,
    blanks and all, to its literal (var, bit), or to (-1, -1) if it is not
    an optional "!" then one of names; filled from names on first reading."""

    def __init__(self, names: dict[str, int]):  # an empty memo
        self.names = names

    def __missing__(self, tok: str) -> tuple[int, int]:
        name = tok.strip()
        k = self.names.get(name.removeprefix("!").lstrip())
        self[tok] = lit = (-1, -1) if k is None else (k, int(name[:1] != "!"))
        return lit


def _read_paths(text: str, literals: _Literals, manager) -> int | None:
    """The diagram of a body that is a sum of the paths of a decision tree:
    no "(", and every operand of "&" an optional "!" then a declared name,
    on distinct variables within its product, the products parting as
    manager.from_paths requires.  Such a body, print_bnet's output, is
    split on "|" and "&", with one lookup in literals per operand and one
    mk per node of the tree.  Any other body gives None, no node made."""
    if "(" in text:
        return None
    read = literals.__getitem__
    paths = []
    for product in text.split("|"):
        path = list(map(read, product.split("&")))
        path.sort()
        if len(dict(path)) != len(path):  # a variable twice
            return None
        paths.append(path)
    paths.sort()
    if paths[0][0][0] < 0:  # an operand that is no literal, sorted first
        return None
    return manager.from_paths(paths)
