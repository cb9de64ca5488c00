"""Generate the benchmark corpus: models, operations and expected answers.

    python3 perfbench/gen.py --seed 1 > perfbench/corpus.json

The models come from perfbench/bnet.py (stdlib `random`, seeded here), not
from mpunfold.random_network, so a library change cannot change them.  Each
expected answer is derived by a second path, never from the command under
test alone:

- most permissive verdicts, shortest-witness lengths and exhaustive state
  counts come from a BFS over mpunfold.oracle.naive_mp_successors, checked
  against this package's own successor function;
- verdicts on the unfolded models are the most permissive ones, as the
  unfolding theorem states;
- fixed points, attractors and regulatory signs come from this package's
  own rule evaluator, by enumeration or backtracking;
- `verify` must report every pair consistent, by the same theorem, and
  syntactic mode runs only on rules where each regulator has one sign.

Queries are screened for size (how many states they explore), never on
the answer.  The regular CNF models of `unfold-build` are redrawn until both
unfold modes succeed, so that the only failures are the two known-defect
probes, which are kept at the sizes that fail.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
from collections import deque
from itertools import product
from pathlib import Path

import bnet

ROOT = Path(__file__).resolve().parent.parent

MP_CAP = 300_000
MP_MAX_STATES = 3000  # largest exhaustive mp exploration in mp-explore
ASYNC_MAX_STATES = 40  # mp queries re-asked on the unfolding stay this small
SMALL_STARTS = 5  # per net, mp reachable set of at most ASYNC_MAX_STATES
LARGE_STARTS = 4  # per net, larger but at most MP_MAX_STATES
PROJECTION_MAX_WORK = 1500
PROJECTION_MAX_NODES = 8
PROJECTIONS = 8  # projection operations in mp-explore
SIGNAL_BNET = "targets, factors\nsignal, signal\nx1, signal\nx2, x1\nx3, !x1 & x2\n"


def _mp_successors(fns, x):
    out = []
    for j, c in enumerate(x):
        if c in "0d" and bnet.can_be(fns[j], x, 1):
            out.append(x[:j] + "i" + x[j + 1:])
        if c in "1i" and bnet.can_be(fns[j], x, 0):
            out.append(x[:j] + "d" + x[j + 1:])
        if c == "i":
            out.append(x[:j] + "1" + x[j + 1:])
        if c == "d":
            out.append(x[:j] + "0" + x[j + 1:])
    return out


def _bfs(succ, start, limit=None):
    """Distances from start; None once more than `limit` states are seen."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for t in succ(s):
            if t not in dist:
                dist[t] = dist[s] + 1
                queue.append(t)
        if limit is not None and len(dist) > limit:
            return None
    return dist


class MpOracle:
    """BFS over the library's naive mp successors, cross-checked against
    this package's own definition."""

    def __init__(self, text):
        from mpunfold import naive_mp_successors, parse_bnet

        self.fns = bnet.compile_rules(bnet.parse(text))
        net = parse_bnet(text)
        self._succ = lambda x: naive_mp_successors(net, x)
        self._dist = {}

    def dist(self, start):
        if start not in self._dist:
            dist = _bfs(self._succ, start)
            own = _bfs(lambda x: _mp_successors(self.fns, x), start)
            if dist != own:
                raise SystemExit(f"oracle and own mp BFS disagree from {start}")
            self._dist[start] = dist
        return self._dist[start]

    def reach(self, start, pattern):
        dist = self.dist(start)
        hits = [d for s, d in dist.items() if bnet.matches(s, pattern)]
        if hits:
            return {"verdict": "reachable", "exit": 0, "shortest": min(hits) + 1}
        return {"verdict": "unreachable", "exit": 1, "explored": len(dist)}

    def projection(self, start):
        """Boolean nodes mp-reachable from start; an edge u -> v when an mp
        path leads from u to v through non-Boolean states only."""
        fns = self.fns
        nodes = {start}
        queue = deque([start])
        edges = []
        work = 0
        while queue:
            u = queue.popleft()
            inner = set()
            frontier = deque(self._succ(u))
            targets = set()
            while frontier:
                t = frontier.popleft()
                if t in inner:
                    continue
                inner.add(t)
                if all(c in "01" for c in t):
                    targets.add(t)
                else:
                    frontier.extend(self._succ(t))
            work += len(inner)
            values = [f(bnet.bits(u)) for f in fns]
            for v in targets:
                one_step = v != u and all(
                    v[j] == u[j] or int(v[j]) == values[j] for j in range(len(u))
                )
                edges.append([u, v, "solid" if one_step else "dotted"])
                if v not in nodes:
                    nodes.add(v)
                    queue.append(v)
        return sorted(nodes), sorted(edges), work


def _terminal_sccs(nodes, succ_of):
    """Kosaraju on the explicit graph; components no edge leaves."""
    order, seen = [], set()
    for root in nodes:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ_of[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(succ_of[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    pred_of = {v: [] for v in nodes}
    for v in nodes:
        for w in succ_of[v]:
            pred_of[w].append(v)
    comp = {}
    out = []
    for root in reversed(order):
        if root in comp:
            continue
        members = [root]
        comp[root] = root
        for v in members:
            for w in pred_of[v]:
                if w not in comp:
                    comp[w] = root
                    members.append(w)
        if all(comp.get(w) == root for v in members for w in succ_of[v]):
            out.append(sorted(members))
    return out


def attractors(text, semantics):
    net = bnet.parse(text)
    fns = bnet.compile_rules(net)
    n = len(net)
    nodes = list(bnet.states(n))
    succ_of = {}
    for s in nodes:
        b = bnet.bits(s)
        image = "".join(str(f(b)) for f in fns)
        if semantics == "sync":
            succ_of[s] = [image]
        else:
            succ_of[s] = [s[:j] + image[j] + s[j + 1:] for j in range(n) if image[j] != s[j]]
    found = []
    for members in _terminal_sccs(nodes, succ_of):
        kind = "stable-state" if len(members) == 1 else "complex"
        found.append([kind, members])
    found.sort(key=lambda a: (a[0] != "stable-state", a[1][0]))
    points = [s for s in nodes if not succ_of[s] or succ_of[s] == [s]]
    return found, points


def fixed_points(text):
    """Backtracking over variables in order; a constraint x_j = f_j(x) is
    tested as soon as its last variable is assigned."""
    net = bnet.parse(text)
    fns = bnet.compile_rules(net)
    n = len(net)
    due = [[] for _ in range(n)]
    for j, (_, rule) in enumerate(net):
        due[max(bnet.variables(rule) | {j})].append(j)
    out = []
    values = [0] * n

    def go(k):
        if k == n:
            out.append("".join(map(str, values)))
            return
        for v in (0, 1):
            values[k] = v
            if all(fns[j](values) == values[j] for j in due[k]):
                go(k + 1)
        values[k] = 0

    go(0)
    return out


def regulatory_edges(text):
    net = bnet.parse(text)
    names = [name for name, _ in net]
    edges = []
    for j, (_, rule) in enumerate(net):
        fn = bnet.compile_rules([(names[j], rule)])[0]
        regs = sorted(bnet.variables(rule))
        for k in regs:
            pos = neg = False
            others = [r for r in regs if r != k]
            for choice in product((0, 1), repeat=len(others)):
                s = [0] * len(names)
                for r, b in zip(others, choice):
                    s[r] = b
                lo = fn(s)
                s[k] = 1
                hi = fn(s)
                pos |= hi > lo
                neg |= lo > hi
            if pos or neg:
                sign = "dual" if pos and neg else "positive" if pos else "negative"
                edges.append([names[k], names[j], sign])
    return sorted(edges)


def _cli(argv):
    from mpunfold.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except RecursionError:
            return None


def _rand_state(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


def encode(x):
    return "".join({"0": "000", "1": "111", "*": "***"}[c] for c in x)


# --- workloads ---------------------------------------------------------------


def mp_explore(rng, models):
    """Per net, SMALL_STARTS starts whose mp reachable set is small (these
    are re-asked on the unfolding) and LARGE_STARTS larger ones, each with
    up to two reachable and two unreachable Boolean targets."""
    reach_ops, proj_ops = [], []
    for n, count in ((6, 2), (7, 2), (8, 3)):
        for _ in range(count):
            name = f"mp{n}-{len(models)}"
            text = bnet.to_text(bnet.random_net(rng, n))
            oracle = MpOracle(text)
            own = lambda x: _mp_successors(oracle.fns, x)
            quota = {"small": SMALL_STARTS, "large": LARGE_STARTS}
            for _ in range(400):
                if not any(quota.values()):
                    break
                start = _rand_state(rng, n)
                dist = _bfs(own, start, MP_MAX_STATES)
                if dist is None:
                    continue
                size = "small" if len(dist) <= ASYNC_MAX_STATES else "large"
                boolean = sorted(s for s in dist if all(c in "01" for c in s) and s != start)
                missing = sorted(set(bnet.states(n)) - set(dist))
                if not quota[size] or not boolean or not missing:
                    continue
                quota[size] -= 1
                targets = rng.sample(boolean, min(2, len(boolean)))
                targets += rng.sample(missing, min(2, len(missing)))
                for target in targets:
                    reach_ops.append((name, start, target, oracle.reach(start, target), len(dist)))
                if len(boolean) < PROJECTION_MAX_NODES:
                    nodes, edges, work = oracle.projection(start)
                    if work <= PROJECTION_MAX_WORK:
                        proj_ops.append((name, start, nodes, edges))
            models[name] = text
    models["signal"] = SIGNAL_BNET
    signal = MpOracle(SIGNAL_BNET).reach("1000", "***1")
    reach_ops.append(("signal", "1000", "***1", signal, 0))

    ops = []
    for name, start, target, expect, _ in reach_ops:
        ops.append({
            "argv": ["reach", f"@{name}", "--semantics", "mp", "--from", start,
                     "--to", target, "--cap", str(MP_CAP)],
            "expect": {"kind": "reach-mp", "model": name, "from": start, "to": target, **expect},
        })
    for name, start, nodes, edges in proj_ops[:PROJECTIONS]:
        ops.append({
            "argv": ["stg", f"@{name}", "--semantics", "mp", "--project-boolean",
                     "--from", start, "--cap", str(MP_CAP)],
            "expect": {"kind": "projection", "exit": 0, "nodes": nodes, "edges": edges},
        })
    return ops, reach_ops


def async_explore(rng, models, mp_reach_ops):
    ops = []
    unfolded = set()
    for name, start, target, expect, size in mp_reach_ops:
        if name != "signal" and size > ASYNC_MAX_STATES:
            continue
        unfolded.add(name)
        exp = {k: v for k, v in expect.items() if k in ("verdict", "exit")}
        ops.append({
            "argv": ["reach", f"@{name}.unfolded", "--semantics", "async",
                     "--from", encode(start), "--to", encode(target), "--cap", str(MP_CAP)],
            "expect": {"kind": "reach-async", "model": f"{name}.unfolded",
                       "from": encode(start), "to": encode(target), **exp},
        })
    for n, semantics in ((12, "async"), (12, "sync"), (13, "async"), (14, "sync")):
        name = f"attr{n}-{semantics}"
        text = bnet.to_text(bnet.random_net(rng, n, prefix="a"))
        models[name] = text
        found, points = attractors(text, semantics)
        ops.append({
            "argv": ["attractors", f"@{name}", "--semantics", semantics, "--cap", str(1 << n)],
            "expect": {"kind": "attractors", "exit": 0, "attractors": found, "fixpoints": points},
        })
    return ops, sorted(unfolded)


def verify_sweep(rng, models):
    ops = []
    # mostly n = 3, so that a pass of over 100 checks stays short: an n = 4
    # check walks 4096 unfolded states and costs about five n = 3 ones
    plan = [(3, False, "exact", 60), (3, True, "syntactic", 34),
            (4, False, "exact", 4), (4, True, "syntactic", 4)]
    for n, single, mode, count in plan:
        for _ in range(count):
            name = f"v{n}-{len(models)}"
            models[name] = bnet.to_text(bnet.random_net(rng, n, single_polarity=single, prefix="v"))
            ops.append({
                "argv": ["verify", f"@{name}", "--mode", mode],
                "expect": {"kind": "verify", "exit": 0, "pairs": 4 ** n},
            })
    return ops


def _construction_ops(name, text, unfolds=True):
    ops = []
    for mode in ("exact", "syntactic") if unfolds else ():
        ops.append({
            "argv": ["unfold", f"@{name}", "--mode", mode, "-o", f"@out:{name}-{mode}"],
            "expect": {"kind": "unfold", "exit": 0, "model": name, "mode": mode,
                       "components": 3 * len(bnet.parse(text))},
        })
    ops.append({"argv": ["fixpoints", f"@{name}"],
                "expect": {"kind": "fixpoints", "exit": 0, "model": name,
                           "points": fixed_points(text)}})
    ops.append({"argv": ["reggraph", f"@{name}"],
                "expect": {"kind": "reggraph", "exit": 0, "model": name,
                           "edges": regulatory_edges(text)}})
    ops.append({"argv": ["show", f"@{name}"],
                "expect": {"kind": "show", "exit": 0, "model": name}})
    return ops


def unfold_build(rng, models, tmp):
    """CNF models of 8-10 components and wide random nets of 20-39; every
    model gets fixpoints, reggraph and show, the CNF models and every other
    wide net also an exact and a syntactic unfold."""
    ops = []

    def unfolds(text):
        path = tmp / "screen.bnet"
        path.write_text(text)
        return all(
            _cli(["unfold", str(path), "--mode", mode, "-o", str(tmp / "screen.out")]) == 0
            for mode in ("exact", "syntactic")
        )

    for n, clauses, width in ((8, 3, 3), (9, 3, 2), (9, 2, 3), (10, 3, 2)):
        while True:
            text = bnet.to_text(bnet.cnf_net(rng, n, clauses, width))
            if unfolds(text):
                break
        name = f"cnf{n}-{clauses}x{width}"
        models[name] = text
        ops += _construction_ops(name, text)
    for k, n in enumerate(range(20, 40)):
        name = f"wide{n}"
        models[name] = bnet.to_text(bnet.random_net(rng, n, prefix="w"))
        ops += _construction_ops(name, models[name], unfolds=k % 2 == 0)

    # known-defect probes, kept at the sizes that fail
    name = "probe-long-rule"
    models[name] = bnet.to_text(bnet.long_rule_net(rng, 8, 1500))
    ops.append({"argv": ["show", f"@{name}"],
                "expect": {"kind": "show", "exit": 0, "model": name, "probe": True}})
    for _ in range(100):
        text = bnet.to_text(bnet.cnf_net(rng, 9, 4, 3))
        path = tmp / "screen.bnet"
        path.write_text(text)
        if _cli(["unfold", str(path), "--mode", "exact", "-o", str(tmp / "screen.out")]) is None:
            break
    else:
        raise SystemExit("no 9-component 4x3 CNF model fails to unfold any more")
    name = "probe-cnf9-4x3"
    models[name] = text
    ops.append({
        "argv": ["unfold", f"@{name}", "--mode", "exact", "-o", f"@out:{name}-exact"],
        "expect": {"kind": "unfold", "exit": 0, "model": name, "mode": "exact",
                   "components": 27, "probe": True},
    })
    return ops


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    sys.setrecursionlimit(1000)
    tmp = ROOT / "perfbench" / ".work" / "gen"
    tmp.mkdir(parents=True, exist_ok=True)

    rng = random.Random(args.seed)
    models = {}
    mp_ops, mp_reach = mp_explore(rng, models)
    async_ops, unfolded = async_explore(rng, models, mp_reach)
    corpus = {
        "seed": args.seed,
        "models": models,
        "unfolded": unfolded,
        "workloads": {
            "mp-explore": mp_ops,
            "async-explore": async_ops,
            "verify-sweep": verify_sweep(rng, models),
            "unfold-build": unfold_build(rng, models, tmp),
        },
    }
    for path in tmp.iterdir():
        path.unlink()
    tmp.rmdir()
    json.dump(corpus, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
