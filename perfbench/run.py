"""CLI-level benchmark of mpunfold.

    python3 perfbench/run.py --workload mp-explore --seed 1 --seconds 25 --trace 0

One closed-loop client in this one process drives `mpunfold.cli.main(argv)`
in-process, with stdout and stderr captured, one operation after another,
no threads.  The operations and their expected answers are stored in
perfbench/corpus.json (made by perfbench/gen.py); `--seed` fixes the orders
in which the passes run them, a new order for every pass, so that a run's
numbers average over many orders.  Passes repeat until `--seconds` have
gone.
Every answer is checked (perfbench/check.py); the last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

Timings are rescaled to a nominal CPU speed.  On a shared host the CPU
this process gets runs at speeds up to 1.7x apart for seconds to minutes,
nearly the same for every pure-Python loop, so raw wall times of one run tell
little about the program.  A fixed reference loop is timed before the
first operation and after every operation, and each operation's (or
set-up's) wall time is multiplied by NOMINAL_REF_S over the mean of the
reference times just before and just after it: a time in seconds on a CPU
that runs the reference loop in NOMINAL_REF_S.  A change to the program
moves these times; a change in the host's speed does not.

With `--trace 0` the metrics are the end-to-end ones:
    setup_s       median over SETUP_ROUNDS set-ups, each a fresh `import
                  mpunfold`, writing the .bnet inputs and, for
                  async-explore, the `unfold -o` calls that make the
                  unfolded models
    run_s         median time of one pass over the operations
    op_p50_ms, op_p90_ms
                  latency percentiles over every operation run; a failed
                  operation ranks above every success
    peak_rss_mb   ru_maxrss of this process
The lines before the JSON also give ops_failed_share, wrong_answers, the
median raw wall time of a pass and the median reference time.

With `--trace 1` the first half of the time runs untraced passes and the
second half traced ones (perfbench/tracing.py); the metrics are the
per-layer ones, per traced pass, plus tracing_overhead, the ratio of the
traced to the untraced median pass time.  Per-layer times and rates are
rescaled by the median reference time of the traced passes.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from check import Checker
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
TRACES = HERE / ".out"
SETUP_ROUNDS = 15
REF_ITERATIONS = 2000
NOMINAL_REF_S = 250e-6  # about the reference loop's time on a 2-vCPU Xeon VM at full speed
WORKLOADS = ("mp-explore", "async-explore", "verify-sweep", "unfold-build")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# per-layer metrics read straight off the tracer: <layer>.<function>.<field>
TRACED = (
    "cli.main.self_ms",
    "network.parse_bnet.calls",
    "network.parse_bnet.total_ms",
    "network.build_function.calls",
    "network.build_function.total_ms",
    "network.print_bnet.self_ms",
    "unfold.unfold.self_ms",
    "network.infer_regulatory_graph.total_ms",
    "reach.fixed_points.total_ms",
    "semantics.mp_successors.calls",
    "semantics.mp_successors.self_ms",
    "semantics.gamma_can_be.calls",
    "semantics.gamma_can_be.self_ms",
    "bdd.DiagramManager.restrict.calls",
    "bdd.DiagramManager.restrict.total_ms",
    "semantics.check_mp_state.calls",
    "semantics.general_successors.calls",
    "semantics.general_successors.total_ms",
    "reach.mp_boolean_projection.self_ms",
    "semantics.async_successors.calls",
    "semantics.async_successors.self_ms",
    "semantics.sync_successor.calls",
    "semantics.sync_successor.total_ms",
    "network.eval_rule.calls",
    "network.eval_rule.total_ms",
    "network.check_bool_state.calls",
    "reach.reaches.self_ms",
    "reach.reachable_set.self_ms",
    "reach.attractors.self_ms",
    "oracle.check_equivalence.self_ms",
    "oracle.naive_mp_successors.calls",
    "oracle.naive_mp_successors.self_ms",
    "bdd.FunctionRep.truth_table.total_ms",
)
DERIVED = {
    "unfold.out_bytes": "bytes",
    "reach.projection_mp_calls_per_state": "ratio",
    "reach.states_explored": "count",
    "reach.successors_generated": "count",
    "reach.new_state_ratio": "ratio",
    "reach.states_per_s": "1/s",
    "oracle.pairs_checked": "count",
    "oracle.pairs_per_s": "1/s",
    "tracing_overhead": "ratio",
}


def per_layer_units():
    units = {name: "count" if name.endswith(".calls") else "ms" for name in TRACED}
    units.update(DERIVED)
    return units


class SetupError(RuntimeError):
    pass


# --- set-up ----------------------------------------------------------------------


def fresh_import():
    """Import mpunfold from this checkout's src/, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "mpunfold" or m.startswith("mpunfold.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("mpunfold.cli")
    except ImportError as err:
        raise SetupError(f"cannot import mpunfold from {SRC}: {err}") from None
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"mpunfold was imported from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv):
    """Run one CLI command; (seconds, exit code or None, stdout, stderr or
    the exception it raised)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        error = err.getvalue()
    except Exception as exc:  # a crashing operation is counted, not fatal
        code, error = None, f"{type(exc).__name__}: {str(exc)[:120]}"
    return time.perf_counter() - start, code, out.getvalue(), error


_TABLE = {i: i * 7919 % 65521 for i in range(256)}


def _mix(a, b):
    return (a * 31 + b) & 0xFFFF


def reference_s():
    """Seconds the reference loop takes now, the faster of two goes.  It
    calls a function and looks up a dict, as the interpreter does all
    through mpunfold, and allocates no tracked objects, so it never
    triggers the cyclic garbage collector."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        acc, table = 0, _TABLE
        for i in range(REF_ITERATIONS):
            acc = _mix(acc, table[i & 255])
        best = min(best, time.perf_counter() - start)
    return best


def rescale(seconds, ref_before, ref_after):
    """`seconds` of wall time on a CPU that runs the reference loop in
    NOMINAL_REF_S."""
    return seconds * 2 * NOMINAL_REF_S / (ref_before + ref_after)


def resolve(argv, work):
    out = []
    for arg in argv:
        if arg.startswith("@out:"):
            arg = str(work / "out" / f"{arg[5:]}.bnet")
        elif arg.startswith("@"):
            arg = str(work / f"{arg[1:]}.bnet")
        out.append(arg)
    return out


def setup(corpus, workload, work):
    """One set-up round; returns the imported cli module."""
    cli = fresh_import()
    if work.exists():
        shutil.rmtree(work)
    (work / "out").mkdir(parents=True)
    ops = corpus["workloads"][workload]
    names = {a[1:] for op in ops for a in op["argv"] if a.startswith("@") and not a.startswith("@out:")}
    for name in sorted(names):
        if name.endswith(".unfolded"):
            continue
        (work / f"{name}.bnet").write_text(corpus["models"][name], encoding="utf-8")
    for name in sorted(n[: -len(".unfolded")] for n in names if n.endswith(".unfolded")):
        (work / f"{name}.bnet").write_text(corpus["models"][name], encoding="utf-8")
        argv = ["unfold", str(work / f"{name}.bnet"), "-o", str(work / f"{name}.unfolded.bnet")]
        _, code, _, error = call(cli, argv)
        if code != 0:
            raise SetupError(f"unfolding {name} failed: {error or code}")
    return cli


# --- the operation phase --------------------------------------------------------------


class Run:
    """The operations of one workload, the seeded orders of its passes,
    the operations' latencies and the verdicts on their answers."""

    def __init__(self, corpus, workload, seed, work, limit=None):
        ops = [dict(op, argv=resolve(op["argv"], work)) for op in corpus["workloads"][workload]]
        self.rng = random.Random(seed)
        self.rng.shuffle(ops)
        self.ops = ops[:limit]
        self.checker = Checker(corpus["models"], work)
        self.samples: list[tuple[bool, float]] = []  # (failed, rescaled seconds)
        self.passes: list[float] = []  # rescaled seconds of each pass
        self.walls: list[float] = []  # raw wall seconds of each pass
        self.refs: list[float] = []  # every reference time taken
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: dict[int, str] = {}
        self._verified: dict[int, tuple] = {}
        self.last: list[tuple] = []

    def one_pass(self, cli):
        """Run every operation once, in a fresh seeded order, then check
        the answers."""
        results, rescaled = [None] * len(self.ops), [0.0] * len(self.ops)
        start = time.perf_counter()
        before = reference_s()
        self.refs.append(before)
        for k in self.rng.sample(range(len(self.ops)), len(self.ops)):
            results[k] = call(cli, self.ops[k]["argv"])
            after = reference_s()
            self.refs.append(after)
            rescaled[k] = rescale(results[k][0], before, after)
            before = after
        self.walls.append(time.perf_counter() - start)
        self.passes.append(sum(rescaled))
        for k, (_, code, stdout, error) in enumerate(results):
            self.attempted += 1
            failed = code != self.ops[k]["expect"]["exit"]
            self.samples.append((failed, rescaled[k]))
            if failed:
                self.failed += 1
                self.problems.setdefault(k, f"failed: {error.strip() or f'exit code {code}'}")
            elif not self._right(k, code, stdout):
                self.wrong += 1
        self.last = results

    def _right(self, k, code, stdout):
        op = self.ops[k]
        key = (code, stdout, tuple(Path(p).read_bytes() if Path(p).exists() else None for p in outputs(op)))
        if self._verified.get(k) == key:
            return True
        problem = self.checker.check(op, code, stdout)
        if problem is not None:
            self.problems.setdefault(k, f"wrong answer: {problem}")
            return False
        self._verified[k] = key
        return True

    def op_percentile(self, q):
        """Nearest-rank percentile over every operation run; a failed
        operation ranks above every success."""
        ranked = sorted(self.samples)
        return ranked[max(0, math.ceil(q * len(ranked)) - 1)][1]


def outputs(op):
    argv = op["argv"]
    return [argv[argv.index("-o") + 1]] if "-o" in argv else []


def run_passes(run, cli, seconds):
    """Whole passes until `seconds` have gone, at least one; their
    rescaled times."""
    first = len(run.passes)
    deadline = time.perf_counter() + seconds
    while True:
        run.one_pass(cli)
        if time.perf_counter() >= deadline:
            return run.passes[first:]


def measure(workload, seed, seconds, trace, limit=None):
    corpus = json.loads((HERE / "corpus.json").read_text(encoding="utf-8"))
    work = WORK / f"{workload}-{seed}"
    try:
        setups = []
        for _ in range(SETUP_ROUNDS):
            before = reference_s()
            start = time.perf_counter()
            cli = setup(corpus, workload, work)
            took = time.perf_counter() - start
            setups.append(rescale(took, before, reference_s()))
        run = Run(corpus, workload, seed, work, limit)
        if trace:
            metrics, report = traced_metrics(run, cli, seconds, workload, seed)
            units = per_layer_units()
        else:
            passes = run_passes(run, cli, seconds)
            metrics = {
                "setup_s": statistics.median(setups),
                "run_s": statistics.median(passes),
                "op_p50_ms": run.op_percentile(0.5) * 1e3,
                "op_p90_ms": run.op_percentile(0.9) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            report = {
                "passes": len(passes),
                "wall_run_s": statistics.median(run.walls),
                "reference_us": statistics.median(run.refs) * 1e6,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report.update(
        ops_per_pass=len(run.ops),
        attempted=run.attempted,
        failed=run.failed,
        ops_failed_share=run.failed / run.attempted,
        wrong_answers=run.wrong,
        problems=[
            f"{why} [{' '.join(run.ops[k]['argv'][:1])} #{k}"
            + (", known-defect probe]" if run.ops[k]["expect"].get("probe") else "]")
            for k, why in sorted(run.problems.items())
        ],
    )
    return {name: (metrics[name], units[name]) for name in units}, report


def traced_metrics(run, cli, seconds, workload, seed):
    """Untraced passes for half the time, traced ones for the other half;
    per-layer numbers are per traced pass."""
    plain = run_passes(run, cli, seconds / 2)
    first_ref = len(run.refs)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(run, cli, seconds / 2)
    finally:
        tracer.uninstall()
    passes = len(traced)
    scale = NOMINAL_REF_S / statistics.median(run.refs[first_ref:])
    metrics = {
        name: tracer.value(name) / passes * (scale if name.endswith("_ms") else 1)
        for name in TRACED
    }
    ex = tracer.explore
    out_bytes = sum(
        Path(p).stat().st_size
        for op in run.ops if op["argv"][0] == "unfold"
        for p in outputs(op) if Path(p).exists()
    )
    pairs = sum(
        json.loads(stdout)[0]["pairs_checked"]
        for op, (_, code, stdout, _) in zip(run.ops, run.last)
        if op["argv"][0] == "verify" and code is not None
    )
    oracle_s = tracer.value("oracle.check_equivalence.total_ms") / 1e3 / passes * scale
    ratio = lambda a, b: a / b if b else 0.0
    metrics.update({
        "unfold.out_bytes": out_bytes,
        "reach.projection_mp_calls_per_state": ratio(ex["projection_calls"], ex["projection_states"]),
        "reach.states_explored": ex["states"] / passes,
        "reach.successors_generated": ex["generated"] / passes,
        "reach.new_state_ratio": ratio(ex["new"], ex["generated"]),
        "reach.states_per_s": ratio(ex["states"], ex["seconds"] * scale),
        "oracle.pairs_checked": pairs,
        "oracle.pairs_per_s": ratio(pairs, oracle_s),
        "tracing_overhead": statistics.median(traced) / statistics.median(plain),
    })
    TRACES.mkdir(exist_ok=True)
    tracer.dump(TRACES / f"trace-{workload}-{seed}.json", {"workload": workload, "traced_passes": passes})
    return metrics, {"passes": len(plain), "traced_passes": passes}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="run only the first N operations of a pass (smoke test)")
    args = parser.parse_args(argv)
    sys.setrecursionlimit(1000)
    try:
        metrics, report = measure(args.workload, args.seed, args.seconds, args.trace, args.ops)
    except (SetupError, OSError) as err:
        print(f"benchmark set-up failed: {err}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload} {name} = {value} {unit}")
    for key in ("passes", "traced_passes", "ops_per_pass", "wall_run_s", "reference_us",
                "ops_failed_share", "wrong_answers"):
        if key in report:
            print(f"# {args.workload} {key} = {report[key]}")
    for line in report["problems"]:
        print(f"# {line}")
    print(json.dumps({
        "correct": report["wrong_answers"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
