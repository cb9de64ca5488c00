"""Check the program's answers against the stored expected results.

`Checker.check(op, code, stdout)` returns None when the answer is right,
otherwise one line saying what is wrong.  Witnesses are replayed step by
step with perfbench/bnet.py's own evaluator; unfolded rules are checked on
sampled states against the triplet image computed here from the original
rules, in the mode the operation asked for.
"""
from __future__ import annotations

import json
import random
from itertools import product
from pathlib import Path

import bnet

# level encoding 0 -> 000, i -> 001, d -> 101, 1 -> 111, and the transients
TRIPLETS = ("000", "001", "011", "111", "101", "100")
SAMPLES = 48


def triplet_image(own: str, plus: bool, minus: bool) -> str:
    """Value of the three unfolded rules of one component."""
    if own == "000":
        return "001" if plus else "000"
    if own == "001":
        return "111" if minus else "011"
    if own == "011":
        return "111"
    if own == "100":
        return "000"
    if own == "101":
        return "000" if plus else "100"
    return "101" if minus else "111"


def _syntactic(e, may1, may0, negate):
    kind = e[0]
    if kind == "v":
        return may0[e[1]] if negate else may1[e[1]]
    if kind == "c":
        return bool(e[1]) != negate
    if kind == "!":
        return _syntactic(e[1], may1, may0, not negate)
    parts = (_syntactic(arg, may1, may0, negate) for arg in e[1:])
    return any(parts) if (kind == "|") != negate else all(parts)


def _exact(fn, regs, may1, may0, target):
    choices = [[v for v in (0, 1) if (may1[k] if v else may0[k])] for k in regs]
    s = [0] * len(may1)
    for values in product(*choices):
        for k, v in zip(regs, values):
            s[k] = v
        if fn(s) == target:
            return True
    return False


class Checker:
    def __init__(self, models: dict[str, str], work: Path):
        self.models = models
        self.work = work
        self._nets = {}

    def net(self, name):
        """(network, compiled rules) of a corpus model or a file in work/."""
        if name not in self._nets:
            text = self.models.get(name)
            if text is None:
                text = (self.work / f"{name}.bnet").read_text(encoding="utf-8")
            net = bnet.parse(text)
            self._nets[name] = (net, bnet.compile_rules(net))
        return self._nets[name]

    def check(self, op, code, stdout: str) -> str | None:
        expect = op["expect"]
        try:
            payload = json.loads(stdout)
        except ValueError:
            return f"stdout is not JSON: {stdout[:80]!r}"
        try:
            return getattr(self, "_" + expect["kind"].replace("-", "_"))(expect, payload, op)
        except (KeyError, IndexError, TypeError, ValueError, OSError) as err:
            return f"malformed answer: {type(err).__name__}: {err}"

    # --- per kind ------------------------------------------------------------------

    def _reach(self, expect, payload, step_ok):
        if payload.get("verdict") != expect["verdict"]:
            return f"verdict {payload.get('verdict')!r}, expected {expect['verdict']!r}"
        path = payload.get("witness")
        if expect["verdict"] == "unreachable":
            if path is not None:
                return "unreachable with a witness"
            if "explored" in expect and payload.get("states_explored") != expect["explored"]:
                return f"explored {payload.get('states_explored')}, expected {expect['explored']}"
            return None
        if not path or path[0] != expect["from"] or not bnet.matches(path[-1], expect["to"]):
            return "witness does not lead from the start to the target"
        if "shortest" in expect and len(path) != expect["shortest"]:
            return f"witness has {len(path)} states, shortest has {expect['shortest']}"
        for a, b in zip(path, path[1:]):
            if not step_ok(a, b):
                return f"witness step {a} -> {b} is not a transition"
        return None

    def _reach_mp(self, expect, payload, op):
        _, fns = self.net(expect["model"])
        return self._reach(expect, payload, lambda a, b: bnet.mp_step_ok(fns, a, b))

    def _reach_async(self, expect, payload, op):
        _, fns = self.net(expect["model"])
        return self._reach(expect, payload, lambda a, b: bnet.async_step_ok(fns, a, b))

    def _projection(self, expect, payload, op):
        if payload.get("cap_exceeded"):
            return "projection hit the cap"
        if sorted(payload["nodes"]) != expect["nodes"]:
            return "projection nodes differ"
        edges = sorted([e["source"], e["target"], e["tag"]] for e in payload["edges"])
        if edges != expect["edges"]:
            return "projection edges differ"
        return None

    def _attractors(self, expect, payload, op):
        found = sorted([a["kind"], sorted(a["states"])] for a in payload)
        if found != sorted(expect["attractors"]):
            return "attractors differ"
        stable = sorted(a["states"][0] for a in payload if a["kind"] == "stable-state")
        if stable != expect["fixpoints"]:
            return "stable-state attractors differ from the fixed points"
        return None

    def _verify(self, expect, payload, op):
        (report,) = payload
        if not report["ok"] or report["mismatches"] or report["subsumption_violations"]:
            return "verify found mismatches"
        if report["pairs_checked"] != expect["pairs"]:
            return f"verify checked {report['pairs_checked']} pairs, expected {expect['pairs']}"
        return None

    def _fixpoints(self, expect, payload, op):
        return None if payload == expect["points"] else "fixed points differ"

    def _reggraph(self, expect, payload, op):
        net, _ = self.net(expect["model"])
        if payload["nodes"] != [name for name, _ in net]:
            return "regulatory graph nodes differ"
        edges = sorted([e["source"], e["target"], e["sign"]] for e in payload["edges"])
        return None if edges == expect["edges"] else "regulatory edges differ"

    def _show(self, expect, payload, op):
        net, fns = self.net(expect["model"])
        names = [name for name, _ in net]
        if payload["n"] != len(net) or [c["name"] for c in payload["components"]] != names:
            return "shown components differ"
        index = {name: k for k, name in enumerate(names)}
        for j, comp in enumerate(payload["components"]):
            shown = bnet.parse_rule(comp["rule"], index)
            regs = sorted(bnet.variables(shown) | bnet.variables(net[j][1]))
            (fn,) = bnet.compile_rules([(names[j], shown)])
            s = [0] * len(names)
            for values in product((0, 1), repeat=len(regs)):
                for k, v in zip(regs, values):
                    s[k] = v
                if fn(s) != fns[j](s):
                    return f"shown rule of {names[j]} is not the input rule"
        return None

    def _unfold(self, expect, payload, op):
        out = op["argv"][op["argv"].index("-o") + 1]
        if payload != {"components": expect["components"], "output": out}:
            return f"unfold summary {payload!r}"
        net, fns = self.net(expect["model"])
        names = [name for name, _ in net]
        ext = bnet.parse(Path(out).read_text(encoding="utf-8"))
        want = [f"{name}_{letter}" for name in names for letter in "abc"]
        if [name for name, _ in ext] != want:
            return "unfolded component names differ"
        ext_fns = bnet.compile_rules(ext)
        regs = [sorted(bnet.variables(rule)) for _, rule in net]
        rng = random.Random(out.rsplit("/", 1)[-1])
        for _ in range(SAMPLES):
            triplets = [rng.choice(TRIPLETS) for _ in names]
            state = bnet.bits("".join(triplets))
            may1 = [t[2] == "1" for t in triplets]
            may0 = [t[1] == "0" for t in triplets]
            for j, (_, rule) in enumerate(net):
                if expect["mode"] == "exact":
                    plus = _exact(fns[j], regs[j], may1, may0, 1)
                    minus = _exact(fns[j], regs[j], may1, may0, 0)
                else:
                    plus = _syntactic(rule, may1, may0, False)
                    minus = _syntactic(rule, may1, may0, True)
                image = triplet_image(triplets[j], plus, minus)
                got = "".join(str(ext_fns[3 * j + t](state)) for t in range(3))
                if got != image:
                    return f"unfolded rules of {names[j]} give {got} on {''.join(triplets)}, expected {image}"
        return None
