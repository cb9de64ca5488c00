"""The benchmark's own .bnet generator, reader and evaluator (stdlib only).

Nothing here imports mpunfold: the workload inputs and the checks of the
program's answers must not move when the library changes.

Rules are trees of tuples: ("v", k), ("c", 0|1), ("!", e), ("&", a, b, ...)
and ("|", a, b, ...).  A network is a list of (name, rule) pairs.
"""
from __future__ import annotations

import re
from itertools import product

# --- text -------------------------------------------------------------------


def rule_text(e, names) -> str:
    kind = e[0]
    if kind == "v":
        return names[e[1]]
    if kind == "c":
        return str(e[1])
    if kind == "!":
        inner = rule_text(e[1], names)
        return "!" + inner if e[1][0] in "vc!" else f"!({inner})"
    parts = []
    for arg in e[1:]:
        text = rule_text(arg, names)
        parts.append(f"({text})" if arg[0] in "&|" and arg[0] != kind else text)
    return f" {kind} ".join(parts)


def to_text(net) -> str:
    names = [name for name, _ in net]
    lines = ["targets, factors"]
    lines += [f"{name}, {rule_text(rule, names)}" for name, rule in net]
    return "\n".join(lines) + "\n"


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[01&|!()])")


def parse_rule(text: str, index: dict[str, int]):
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read rule at {text[pos:pos + 20]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    at = 0

    def chain(op, item):
        nonlocal at
        args = [item()]
        while tokens[at] == op:
            at += 1
            args.append(item())
        return args[0] if len(args) == 1 else (op, *args)

    def lit():
        nonlocal at
        tok = tokens[at]
        at += 1
        if tok == "!":
            return ("!", lit())
        if tok == "(":
            e = chain("|", lambda: chain("&", lit))
            if tokens[at] != ")":
                raise ValueError("unbalanced parenthesis")
            at += 1
            return e
        if tok in ("0", "1"):
            return ("c", int(tok))
        if tok in index:
            return ("v", index[tok])
        raise ValueError(f"unexpected token {tok!r}")

    e = chain("|", lambda: chain("&", lit))
    if tokens[at] != "":
        raise ValueError(f"trailing input {tokens[at]!r}")
    return e


def parse(text: str):
    """.bnet text -> network, header and '#' comments allowed."""
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line or line.replace(" ", "").lower() == "targets,factors":
            continue
        name, body = line.split(",", 1)
        rows.append((name.strip(), body))
    index = {name: k for k, (name, _) in enumerate(rows)}
    return [(name, parse_rule(body, index)) for name, body in rows]


# --- evaluation ---------------------------------------------------------------


def _py(e) -> str:
    kind = e[0]
    if kind == "v":
        return f"s[{e[1]}]"
    if kind == "c":
        return str(e[1])
    if kind == "!":
        return f"(not {_py(e[1])})"
    op = " and " if kind == "&" else " or "
    return "(" + op.join(_py(arg) for arg in e[1:]) + ")"


def compile_rules(net):
    """One function per rule, mapping a 0/1 sequence to 0 or 1."""
    return [eval(f"lambda s: 1 if {_py(rule)} else 0") for _, rule in net]


def variables(e) -> set[int]:
    if e[0] == "v":
        return {e[1]}
    if e[0] == "c":
        return set()
    return set().union(*(variables(arg) for arg in e[1:]))


def bits(state: str) -> tuple[int, ...]:
    return tuple(int(c) for c in state)


def states(n: int):
    return ("".join(t) for t in product("01", repeat=n))


def matches(state: str, pattern: str) -> bool:
    """Does the state fit the pattern, '*' matching any level?"""
    return len(state) == len(pattern) and all(p == "*" or p == c for c, p in zip(state, pattern))


# --- most permissive steps, straight from the definition ------------------------


def can_be(fn, x: str, v: int) -> bool:
    """Whether some Boolean completion of mp state x gives fn the value v."""
    free = [k for k, c in enumerate(x) if c in "id"]
    base = [1 if c == "1" else 0 for c in x]
    for choice in product((0, 1), repeat=len(free)):
        for k, b in zip(free, choice):
            base[k] = b
        if fn(base) == v:
            return True
    return False


def mp_step_ok(fns, x: str, y: str) -> bool:
    """Is y one most permissive step from x?"""
    diff = [k for k in range(len(x)) if x[k] != y[k]]
    if len(x) != len(y) or len(diff) != 1:
        return False
    (j,) = diff
    move = x[j] + y[j]
    if move in ("i1", "d0"):
        return True
    if move in ("0i", "di"):
        return can_be(fns[j], x, 1)
    if move in ("1d", "id"):
        return can_be(fns[j], x, 0)
    return False


def async_step_ok(fns, s: str, t: str) -> bool:
    """Is t one asynchronous step from the Boolean state s?"""
    diff = [k for k in range(len(s)) if s[k] != t[k]]
    if len(s) != len(t) or len(diff) != 1:
        return False
    (j,) = diff
    return fns[j](bits(s)) == int(t[j])


# --- generators ------------------------------------------------------------------


def _literal(rng, k, positive=None):
    if positive is None:
        positive = rng.random() < 0.6
    return ("v", k) if positive else ("!", ("v", k))


def _random_tree(rng, regs, depth, polarity):
    if depth == 0 or rng.random() < 0.25:
        k = rng.choice(regs)
        return _literal(rng, k, None if polarity is None else polarity[k])
    op = rng.choice("&|")
    return (op, _random_tree(rng, regs, depth - 1, polarity),
            _random_tree(rng, regs, depth - 1, polarity))


def random_net(rng, n, max_regs=3, depth=3, single_polarity=False, prefix="g"):
    """Random rules in negation normal form over 1..max_regs regulators.
    With single_polarity each regulator keeps one sign within a rule."""
    names = [f"{prefix}{j + 1}" for j in range(n)]
    net = []
    for name in names:
        while True:
            regs = rng.sample(range(n), rng.randint(1, min(max_regs, n)))
            polarity = {k: rng.random() < 0.6 for k in regs} if single_polarity else None
            rule = _random_tree(rng, regs, depth, polarity)
            fn = compile_rules([(name, rule)])[0]
            values = {fn(bits(s)) for s in states(n)} if n <= 10 else {0, 1}
            if len(values) == 2:
                break
        net.append((name, rule))
    return net


def cnf_net(rng, n, clauses, width, prefix="c"):
    """Each rule is an AND of `clauses` ORs of `width` distinct literals."""
    names = [f"{prefix}{j + 1}" for j in range(n)]
    net = []
    for name in names:
        rule = ("&", *(
            ("|", *(_literal(rng, k) for k in sorted(rng.sample(range(n), width))))
            for _ in range(clauses)
        ))
        net.append((name, rule))
    return net


def long_rule_net(rng, n, terms, prefix="t"):
    """Component 1 gets a flat sum of `terms` two-literal products; the
    others copy or negate a neighbour."""
    names = [f"{prefix}{j + 1}" for j in range(n)]
    products = [
        ("&", *(_literal(rng, k) for k in sorted(rng.sample(range(n), 2))))
        for _ in range(terms)
    ]
    net = [(names[0], ("|", *products))]
    for j in range(1, n):
        net.append((names[j], _literal(rng, j - 1)))
    return net
