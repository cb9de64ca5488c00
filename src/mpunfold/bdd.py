"""Reduced ordered binary decision diagrams with hash-consed nodes.

One DiagramManager serves one variable universe (a network's components in
declaration order).  Node ids are ints: 0 is the 0-terminal, 1 is the
1-terminal, internal nodes are >= 2 and stored as (var, low, high) triples.
Hash-consing plus the no-redundant-test rule make ids canonical: two
functions built in the same manager are equal iff their ids are equal.

No complement edges; the node-wise transforms in unfold.py rely on plain
(var, low, high) structure.

conj, disj and equiv share one recursion, _apply, which is handed its
operation's own memo (and, or, xor: one dict each, keyed (u, v) with u < v).
It is the one method that recurses, one frame per diagram level.  Every pass
over a whole diagram (neg, restrict, support, the truth tables and unfold's
exact conditions) is a loop over postorder, which finishes the low child
before the high child, as _apply builds the low branch first: that fixes
the numbering of new nodes.  paths makes each path to 1 with a caller's
builders; from_paths, its inverse, makes a decision tree's diagram from its
paths with mk alone, for the .bnet reader, undone if they are no tree's.
build is the one diagram builder of every walk (see expr), a tree's or a
rule body's, and join the one place that orders a chain of & or |, from
the bottom up.  build's five builders also make both sides of unfold's
syntactic condition pairs.
"""
from __future__ import annotations

from functools import partialmethod

from . import expr as ex

FALSE = 0
TRUE = 1

_AND, _OR, _XOR = 0, 1, 2


class DiagramManager:
    def __init__(self, nvars: int):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        self.nvars = nvars
        self._triples: list[tuple[int, int, int]] = []
        self._unique: dict[tuple[int, int, int], int] = {}
        self._memos = ({}, {}, {})  # one per operation: _AND, _OR, _XOR
        # u -> its negation, both ways round; the terminals seed it
        self._neg_memo: dict[int, int] = {FALSE: TRUE, TRUE: FALSE}

    def triple(self, u: int) -> tuple[int, int, int]:
        return self._triples[u - 2]

    def mk(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var, low, high)
        u = self._unique.get(key)
        if u is None:
            u = len(self._triples) + 2
            self._triples.append(key)
            self._unique[key] = u
        return u

    def var_node(self, var: int) -> int:
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range")
        return self.mk(var, FALSE, TRUE)

    def postorder(self, u: int, done=()):
        """The internal nodes reachable from u, each once, skipping those in
        done and what is reachable only through them.  Each node comes after
        its low child and then its high child, the order in which a recursive
        walk finishes them.  done may grow while the walk runs."""
        if u < 2 or u in done:
            return
        triples = self._triples
        seen = {FALSE, TRUE, u}
        stack = [u]  # a path from u
        while stack:
            w = stack[-1]
            _, low, high = triples[w - 2]
            if low not in seen and low not in done:
                seen.add(low)
                stack.append(low)
            elif high not in seen and high not in done:
                seen.add(high)
                stack.append(high)
            else:
                stack.pop()
                yield w

    def neg(self, u: int) -> int:
        memo = self._neg_memo
        if u not in memo:
            triples = self._triples
            for w in self.postorder(u, memo):
                var, low, high = triples[w - 2]
                r = self.mk(var, memo[low], memo[high])
                memo[w] = r
                memo[r] = w
        return memo[u]

    def _apply(self, op: int, memo: dict, u: int, v: int) -> int:
        """u op v.  memo is op's own, keyed (u, v) with u < v: all three
        operations are commutative.  The low branch is built first."""
        if v < u:
            u, v = v, u
        if u < 2:
            if op == _AND:
                return v if u else FALSE
            if op == _OR:
                return TRUE if u else v
            return self.neg(v) if u else v
        if u == v:
            return FALSE if op == _XOR else u
        key = (u, v)
        r = memo.get(key)
        if r is not None:
            return r
        triples = self._triples
        uvar, ulow, uhigh = triples[u - 2]
        vvar, vlow, vhigh = triples[v - 2]
        if uvar < vvar:
            var, vlow, vhigh = uvar, v, v
        elif vvar < uvar:
            var, ulow, uhigh = vvar, u, u
        else:
            var = uvar
        r = self.mk(
            var,
            self._apply(op, memo, ulow, vlow),
            self._apply(op, memo, uhigh, vhigh),
        )
        memo[key] = r
        return r

    def conj(self, u: int, v: int) -> int:
        return self._apply(_AND, self._memos[_AND], u, v)

    def disj(self, u: int, v: int) -> int:
        return self._apply(_OR, self._memos[_OR], u, v)

    def equiv(self, u: int, v: int) -> int:
        return self.neg(self._apply(_XOR, self._memos[_XOR], u, v))

    def restrict(self, u: int, assignment: dict[int, int]) -> int:
        """Cofactor: fix the given variables to 0/1."""
        memo: dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
        triples, mk = self._triples, self.mk
        for w in self.postorder(u):
            var, low, high = triples[w - 2]
            if var in assignment:
                memo[w] = memo[high if assignment[var] else low]
            else:
                memo[w] = mk(var, memo[low], memo[high])
        return memo[u]

    def support(self, u: int) -> set[int]:
        triples = self._triples
        return {triples[w - 2][0] for w in self.postorder(u)}

    def evaluate(self, u: int, bits) -> int:
        while u >= 2:
            var, low, high = self.triple(u)
            u = high if bits[var] else low
        return u

    def truth_table(self, u: int) -> int:
        """Big-int table: bit i holds the value on the state whose n-bit
        binary form (variable 0 as the most significant bit) is i."""
        if self.nvars > 20:
            raise ValueError("truth tables limited to 20 variables")
        return self._truth_tables([u])[0]

    def _truth_tables(self, nodes) -> list[int]:
        """The truth table of each of nodes, in truth_table's layout, with
        no limit on the number of variables.  The variables' masks (see
        _var_masks) and the tables of shared nodes serve every node."""
        full = (1 << (1 << self.nvars)) - 1
        # per variable: (its mask, the mask's complement)
        halves = [(mask, full ^ mask) for mask in _var_masks(self.nvars)]
        memo: dict[int, int] = {FALSE: 0, TRUE: full}
        triples = self._triples
        for u in nodes:
            for w in self.postorder(u, memo):
                var, low, high = triples[w - 2]
                ones, zeros = halves[var]
                memo[w] = ones & memo[high] | zeros & memo[low]
        return [memo[u] for u in nodes]

    def iter_models(self, u: int):
        """Satisfying assignments as 0/1 tuples over all variables, in
        lexicographic order (variable 0 first, 0 before 1)."""
        n = self.nvars
        # (node, the values of the variables above it)
        stack = [(u, ())]
        while stack:
            w, prefix = stack.pop()
            var = len(prefix)
            if var == n:
                if w == TRUE:
                    yield prefix
                continue
            if w == FALSE:
                continue
            if w >= 2 and self.triple(w)[0] == var:
                _, low, high = self.triple(w)
            else:
                low = high = w
            stack.append((high, prefix + (1,)))
            stack.append((low, prefix + (0,)))

    def paths(self, u: int, lit, conj) -> list:
        """The value of each path from u to 1, low branch first: a path's
        value is made along it, lit(var, bit) for its first literal, then
        conj(prefix, lit(var, bit)) for each next one, so a prefix that
        paths share is made once.  TRUE's one path, the empty one, is None;
        FALSE has none."""
        triples = self._triples
        values = []
        stack = [(u, None)]  # (node, the value of the path into it)
        while stack:
            w, prefix = stack.pop()
            if w == TRUE:
                values.append(prefix)
            elif w != FALSE:
                var, low, high = triples[w - 2]
                for child, bit in ((high, 1), (low, 0)):
                    if child != FALSE:  # no value for a path to 0
                        v = lit(var, bit)
                        stack.append((child, v if prefix is None else conj(prefix, v)))
        return values

    def from_paths(self, paths) -> int | None:
        """The function whose paths to 1 are paths: a sorted list, each path
        a list of (var, bit) with increasing variables, as self.paths lists
        them with list literals (TRUE's empty path as []).  One loop walks
        the paths' trie: where a path parts from the one before, at one
        variable, 0 then 1, it makes that one's nodes below the parting, one
        mk per trie node.  Paths parting otherwise, or a prefix of the next,
        give None, and the nodes made so far are removed."""
        if not paths:
            return FALSE
        triples, mk, made = self._triples, self.mk, len(self._triples)
        prev = paths[0]
        lows = [FALSE] * len(prev)  # per literal of prev: its node's low child
        for path in paths[1:]:
            end = min(len(prev), len(path))
            d = 0  # where path parts from prev
            while d < end and prev[d] == path[d]:
                d += 1
            if d == end or prev[d] != (path[d][0], 0):
                for key in triples[made:]:
                    del self._unique[key]
                del triples[made:]
                return None
            u = TRUE
            for (var, bit), low in zip(prev[:d:-1], lows[:d:-1]):
                u = mk(var, low, u) if bit else mk(var, u, FALSE)
            lows[d:] = [u] + [FALSE] * (len(path) - d - 1)
            prev = path
        u = TRUE
        for (var, bit), low in zip(reversed(prev), reversed(lows)):
            u = mk(var, low, u) if bit else mk(var, u, FALSE)
        return u

    def join(self, op: int, operands) -> int:
        """The conjunction (op _AND) or disjunction (op _OR) of operands,
        each a node or a literal (var, bit), by descending top variable (a
        terminal's is below every variable): a literal above the result so
        far is one mk, any other operand meets it through conj or disj."""
        triples, nvars, mk = self._triples, self.nvars, self.mk
        meet = self.conj if op == _AND else self.disj
        u = TRUE if op == _AND else FALSE
        top = lambda v: v[0] if type(v) is tuple else triples[v - 2][0] if v >= 2 else nvars
        for v in sorted(operands, key=top, reverse=True):
            if type(v) is tuple:
                var, bit = v
                if u < 2 or var < triples[u - 2][0]:
                    # the value where the literal holds, and where it fails
                    hit, miss = (u, FALSE) if op == _AND else (TRUE, u)
                    u = mk(var, miss, hit) if bit else mk(var, hit, miss)
                    continue
                v = mk(var, 1 - bit, bit)
            u = meet(u, v)
        return u

    def from_expr(self, expr) -> int:
        return self.build(ex.fold, expr)

    def build(self, walk, *args) -> int:
        """The node of walk(*args, var, const, neg, conj, disj), a walk that
        calls the five builders as ex.fold does over a tree (see expr): fold
        itself, or the .bnet grammar over a rule body.  A variable is a
        literal (var, 1), negation flips a literal's bit, and & and | make
        chains that join only once another operation meets them."""
        return self._node(walk(*args, self._lit, _const, self._not, self._and, self._or))

    def _lit(self, var: int) -> tuple[int, int]:
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range")
        return var, 1

    def _not(self, v):
        if type(v) is tuple:  # a literal
            return v[0], 1 - v[1]
        return self.neg(self._node(v))

    def _chain(self, op: int, v, w) -> list:
        """v op w as a chain [op, operand, ...]: v's own chain of op,
        extended in place (by w's too), or a new one; a chain of the other
        operator joins it as its node, so every operand is a node or literal."""
        if type(v) is not list:
            v = [op, v]
        elif v[0] != op:
            v = [op, self.join(v[0], v[1:])]
        if type(w) is list and w[0] == op:
            v += w[1:]
        else:
            v.append(self.join(w[0], w[1:]) if type(w) is list else w)
        return v

    _and = partialmethod(_chain, _AND)
    _or = partialmethod(_chain, _OR)

    def _node(self, v) -> int:
        """The node of a builder's value: a node, a literal's or a chain's."""
        if type(v) is list:
            return self.join(v[0], v[1:])
        if type(v) is tuple:
            return self.mk(v[0], 1 - v[1], v[1])
        return v


def _var_masks(n: int) -> list[int]:
    """Per variable of n, its truth table in truth_table's layout: bit i is
    set iff the state i has the variable at 1.  Each is made by doubling
    its first period, blocks of zeros then ones as long as the variable's
    bit is worth."""
    size = 1 << n
    masks = []
    for var in range(n):
        block = 1 << (n - 1 - var)
        mask, width = ((1 << block) - 1) << block, 2 * block
        while width < size:
            mask |= mask << width
            width *= 2
        masks.append(mask)
    return masks


def _const(c) -> int:
    return TRUE if c else FALSE


class FunctionRep:
    """A Boolean function: a node in a manager's shared diagram."""

    __slots__ = ("manager", "node")

    def __init__(self, manager: DiagramManager, node: int):
        self.manager = manager
        self.node = node

    def __eq__(self, other):
        return (
            isinstance(other, FunctionRep)
            and self.manager is other.manager
            and self.node == other.node
        )

    def __hash__(self):
        return hash((id(self.manager), self.node))

    def __repr__(self):
        return f"FunctionRep(node={self.node}, nvars={self.manager.nvars})"

    @property
    def is_false(self) -> bool:
        return self.node == FALSE

    @property
    def is_true(self) -> bool:
        return self.node == TRUE

    def support(self) -> set[int]:
        return self.manager.support(self.node)

    def evaluate(self, bits) -> int:
        return self.manager.evaluate(self.node, bits)

    def truth_table(self) -> int:
        return self.manager.truth_table(self.node)
