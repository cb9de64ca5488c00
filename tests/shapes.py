"""Input shapes at any size, as .bnet text, for tests/test_ladder.py and
tests/cli_runs.py, and FAILS, the size ladder's cells that fail today;
also gray_counter, one long cycle for whole-space attractors.

N counts a chain's or a ring's components, a nested body's depth or the long
sum's products.  A chain's rules after the first copy their predecessor.
"""
import random

TOP = 1500  # the size ladder's top rung


def _chain(n, first):
    return f"x0, {first}\n" + "".join(f"x{k}, x{k - 1}\n" for k in range(1, n))


def _flat(n, op, negated=()):
    return f" {op} ".join(f"!x{k}" if k in negated else f"x{k}" for k in range(n))


def _paths(n):
    """Two products of every literal that part at x{3n/4}; x1 negates
    itself and every other component keeps its value."""
    kept = "".join(f"x{k}, x{k}\n" for k in range(2, n))
    return f"x0, {_flat(n, '&')} | {_flat(n, '&', (3 * n // 4, n - 1))}\nx1, !x1\n{kept}"


def _long_sum(n):
    """n random two-literal products over four components."""
    rng = random.Random(0)
    literals = ["t1", "!t1", "t2", "!t2", "t3", "!t3", "t4", "!t4"]
    body = " | ".join(" & ".join(rng.sample(literals, 2)) for _ in range(n))
    return f"t1, {body}\nt2, t1\nt3, !t2\nt4, t3\n"


def _cnf_rule(j, n):
    """x{j-1} & (x{j} | !x{j+1} | x{j+2}) as three clauses: a 1 spreads round
    the ring, so only 0...0 and 1...1 are fixed."""
    a, b, c, d = (f"x{k % n}" for k in range(j - 1, j + 3))
    return f"{b}, ({a} | {c}) & ({a} | !{c}) & ({b} | !{c} | {d})\n"


def gray_counter(n):
    """n components whose asynchronous state graph is one cycle through all
    2^n states, in the order of the reflected binary Gray code: consecutive
    codes differ in one component, so each state has one successor, the
    next code.  Each rule is the sum of its minterms: keep n small."""
    names = [f"g{j}" for j in range(n)]
    codes = [k ^ k >> 1 for k in range(1 << n)]
    after = dict(zip(codes, codes[1:] + codes[:1]))

    def minterm(s):
        return " & ".join(x if s >> (n - 1 - k) & 1 else f"!{x}" for k, x in enumerate(names))

    return "".join(
        f"{x}, " + " | ".join(minterm(s) for s in sorted(after) if after[s] >> (n - 1 - j) & 1) + "\n"
        for j, x in enumerate(names)
    )


SHAPES = {
    "or-flat": lambda n: _chain(n, _flat(n, "|")),
    "or-nested": lambda n: _chain(
        n, "(" * (n - 1) + "x0" + "".join(f" | x{k})" for k in range(1, n))
    ),
    "and-flat": lambda n: _chain(n, _flat(n, "&")),
    "deep-negation": lambda n: _chain(n, f"!({_flat(n, '&')})"),
    "groups": lambda n: "x, " + "(" * n + "x" + ")" * n + "\n",
    "negated-groups": lambda n: "x, " + "!(" * n + "x" + ")" * n + "\n",
    "negations": lambda n: "x, " + "!" * n + "x\n",
    # (x0 & !x1) & (x2 & !x3) & ...: one product, read as one cube
    "pairs": lambda n: _chain(
        n, " & ".join(f"(x{k} & !x{k + 1})" for k in range(0, n - 1, 2))
    ),
    "paths": _paths,
    "long-sum": _long_sum,
    "copy-ring": lambda n: _chain(n, f"x{n - 1}"),
    "negative-ring": lambda n: _chain(n, f"!x{n - 1}"),
    "self-negating": lambda n: "".join(f"x{k}, !x{k}\n" for k in range(n)),
    "cnf": lambda n: "".join(_cnf_rule(j, n) for j in range(n)),
}


# the size ladder's cells (shape, n, command) that fail today, each naming the
# raising function and the ROADMAP item that mends it: strict xfails in
# tests/test_ladder.py, runs that tests/cli_runs.py skips
_VARIABLES = "expr.variables recurses through unfold's sums of products: ROADMAP item 2"
_APPLY = "bdd._apply recurses once per diagram level: ROADMAP item 8"
FAILS = {
    **{(s, 300, "unfold-exact"): _VARIABLES for s in ("or-flat", "or-nested")},
    **{(s, TOP, command): _VARIABLES
       for s in ("or-flat", "or-nested")
       for command in ("unfold-exact", "unfold-syntactic")},
    **{(s, TOP, "fixpoints"): "fixed_points' last constraint spans the whole chain; " + _APPLY
       for s in ("deep-negation", "copy-ring", "negative-ring")},
    **{(s, TOP, command): _VARIABLES
       for s in ("and-flat", "deep-negation", "pairs")
       for command in ("unfold-exact", "unfold-syntactic")},
}
