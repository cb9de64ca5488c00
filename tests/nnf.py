"""Negation normal form of an expression tree: a reference the tests
compare syntactic conditions and literal polarities against."""
from mpunfold.expr import And, BooleanExpr, Const, Not, Or, Var, fold


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
