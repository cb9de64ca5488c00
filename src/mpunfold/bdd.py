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
over a whole diagram (neg, support, truth_table, and the rule evaluator's
table and the exact conditions elsewhere) is a loop over postorder, which
finishes the low child before the high child, as _apply builds the low
branch first: that fixes the numbering of new nodes.  from_paths, the
inverse of iter_cubes, makes a decision tree's diagram from its paths with
mk alone, in a loop; the .bnet reader hands it print_bnet's sums of paths.
build is the one diagram builder of from_expr and of the .bnet grammar: it
keeps a product of literals as a {var: bit} dict and makes it with cube, so
no product of literals reaches _apply.
"""
from __future__ import annotations

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
        # depth-first, low child before high, as a recursive walk would:
        # the new nodes are made in that walk's order.  Below the last
        # fixed variable a node is its own cofactor.
        last = max(assignment, default=-1)
        memo: dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
        triples = self._triples
        stack = [] if u in memo else [u]  # a path from u, none of it in memo
        while stack:
            w = stack[-1]
            var, low, high = triples[w - 2]
            if var > last:
                r = w
            elif var in assignment:
                child = high if assignment[var] else low
                r = memo.get(child)
                if r is None:
                    stack.append(child)
                    continue
            else:
                r_low = memo.get(low)
                if r_low is None:
                    stack.append(low)
                    continue
                r_high = memo.get(high)
                if r_high is None:
                    stack.append(high)
                    continue
                r = self.mk(var, r_low, r_high)
            memo[w] = r
            stack.pop()
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
        n = self.nvars
        if n > 20:
            raise ValueError("truth tables limited to 20 variables")
        size = 1 << n
        full = (1 << size) - 1
        var_masks = []
        for var in range(n):
            block = 1 << (n - 1 - var)
            unit = ((1 << block) - 1) << block
            mask = 0
            for offset in range(0, size, 2 * block):
                mask |= unit << offset
            var_masks.append(mask)
        memo: dict[int, int] = {FALSE: 0, TRUE: full}
        triples = self._triples
        for w in self.postorder(u):
            var, low, high = triples[w - 2]
            m = var_masks[var]
            memo[w] = (m & memo[high]) | (~m & full & memo[low])
        return memo[u]

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

    def iter_cubes(self, u: int):
        """Paths to the 1-terminal as lists of (var, bit), variables in
        order along each path, low branch explored first."""
        path: list[tuple[int, int]] = []
        # (node, length of the path above it, the edge into it)
        stack = [(u, 0, None)]
        while stack:
            w, depth, edge = stack.pop()
            del path[depth:]
            if edge is not None:
                path.append(edge)
            if w == TRUE:
                yield list(path)
            elif w != FALSE:
                var, low, high = self.triple(w)
                depth = len(path)
                stack.append((high, depth, (var, 1)))
                stack.append((low, depth, (var, 0)))

    def from_paths(self, paths) -> int | None:
        """The function whose paths to 1 are paths, which iter_cubes would
        yield: a sorted list, each path a list of (var, bit) with increasing
        variables.  A first pass checks, making no node, that the paths are
        those of a decision tree: consecutive paths part at one variable, 0
        then 1, and none is a prefix of another; otherwise the answer is
        None.  A second pass walks the paths' trie with a stack and makes
        one mk per trie node, each after the nodes below it."""
        if not paths:
            return FALSE
        # depths[i]: where paths[i] parts from paths[i - 1]
        depths = [0]
        for prev, path in zip(paths, paths[1:]):
            end = min(len(prev), len(path))
            d = 0
            while d < end and prev[d] == path[d]:
                d += 1
            if d == end or path[d][1] != 1 or prev[d] != (path[d][0], 0):
                return None
            depths.append(d)
        stack: list[tuple[int, int, int]] = []  # (var, low, bit) on the path
        for path, d in zip(paths, depths):
            if stack:  # the previous path's nodes below depth d are done
                var = stack[d][0]
                stack[d] = (var, self._close(stack, d + 1), 1)
                d += 1
            stack.extend([(var, FALSE, bit) for var, bit in path[d:]])
        return self._close(stack, 0)

    def _close(self, stack, depth: int) -> int:
        """Make the trie nodes stack holds from depth down, deepest first,
        and return the top one's node.  An entry (var, low, bit) takes the
        node made below it as its high child if bit is 1, with low as its
        low child, or as its low child if bit is 0, with no high child."""
        mk = self.mk
        u = TRUE
        while len(stack) > depth:
            var, low, bit = stack.pop()
            u = mk(var, low, u) if bit else mk(var, u, FALSE)
        return u

    def cube(self, lits: dict[int, int]) -> int:
        """The conjunction of literals {var: bit} on distinct variables: one
        node per literal, made with mk from the deepest variable up."""
        u = TRUE
        for var in sorted(lits, reverse=True):
            u = self.mk(var, FALSE, u) if lits[var] else self.mk(var, u, FALSE)
        return u

    def from_expr(self, expr) -> int:
        return self.build(ex.fold, expr)

    def build(self, walk, *args) -> int:
        """The node of walk(*args, var, const, neg, conj, disj), a walk that
        calls the five builders as ex.fold does over a tree: ex.fold itself,
        or the .bnet grammar over a rule body.  These builders make a
        product of literals on distinct variables a {var: bit} dict,
        extended in place, and its cube only once another operation meets
        it, so no product of literals recurses in _apply, however long."""
        return self._node(walk(*args, self._lit, _const, self._not, self._and, self._or))

    def _lit(self, var: int) -> dict[int, int]:
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range")
        return {var: 1}

    def _not(self, v):
        if type(v) is dict and len(v) == 1:  # a literal: flip it
            (var,) = v
            v[var] ^= 1
            return v
        return self.neg(self._node(v))

    def _and(self, v, w):
        if type(v) is dict and type(w) is dict and v.keys().isdisjoint(w):
            v.update(w)
            return v
        return self.conj(self._node(v), self._node(w))

    def _or(self, v, w):
        return self.disj(self._node(v), self._node(w))

    def _node(self, v) -> int:
        """The node of a builder's value: a node, or a product's cube."""
        if type(v) is not dict:
            return v
        if len(v) == 1:  # one literal: one mk, no sort
            ((var, bit),) = v.items()
            return self.mk(var, 1 - bit, bit)
        return self.cube(v)


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
