"""Benchmark of the ascentseq command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Each workload is a list of operations, and each operation runs in
a fresh interpreter (`bench/bootstrap.py`) so that no module cache carries
from one operation to the next.  Operations run one at a time from this
process: a closed loop with one client.  A run first starts interpreters
that only import the package (5 at full size), then makes passes.  A pass
runs every operation once, in an order shuffled by the seed; passes repeat
while the next one fits in the run's S seconds, and there is always at
least one.  Every output is checked against the benchmark's own references
(`bench/checks.py`).

With `--trace 0` the last line of stdout reports the end-to-end metrics:

- `wall_s`: wall time of one pass, the sum over operations of each one's
  median wall time from spawn to exit;
- `cpu_s`: the same for user + system CPU time of the children;
- `setup_s`: median time from interpreter start until `import
  ascentseq.cli` returns, over the interpreters that only import and those
  of the untraced operations;
- `peak_rss_mib`: the largest max-RSS of any operation's interpreter (the
  median over passes of each operation's own peak);
- `ok_frac`: operations that passed their check over those attempted.

The three times are scaled to a reference speed: each operation's times
are multiplied by REFERENCE_S over the mean CPU time of a fixed loop of the
driver's own, timed just before and just after the operation.  The driver
and its children are pinned to one CPU, so that the loop and the
operations run on the same one.  The environment line holds the unscaled
times, the loop's median and the CPU.  Per-layer times are not scaled.

With `--trace 1`, traced and untraced passes alternate.  Traced passes
wrap the package's public functions before calling it and report each
layer's time and work (the per-layer metrics, medians over traced passes);
`trace.overhead_s` is the traced minus the untraced pass time.

The line before the result records the environment: Python version, CPU
count and affinity, git commit, workload, seed, the unscaled times and any
tracing notes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BOOTSTRAP = os.path.join(BENCH_DIR, "bootstrap.py")
STATS_MARK = "ascentseq-bench-stats "  # as written by bootstrap.py
# named here rather than imported, so that the metric names stay fixed
MODULES = ("core", "gentree_pair", "gentree_0021", "series", "verify", "cli")
GF_NAMES = ("C_pair", "D_pair", "C2", "C_total_pair", "C_0021", "D_0021", "total_0021", "f", "g")
RESIDUAL_NAMES = ("pair_c", "pair_d", "t0021_c", "t0021_d")
# an operation is killed when the run has gone on this long
RUN_LIMIT_S = 170.0
# The host lends this process a varying share of its speed, in episodes of
# seconds to minutes, and the package's operations slow with it.  Between
# operations the driver times a fixed loop of its own (reference_loop, about
# 0.04 s of CPU) and scales each operation's times by REFERENCE_S over the
# mean of the loop's CPU times just before and just after it.
REFERENCE_ROUNDS = 100
REFERENCE_WORDS = ("0102310", "0120131", "0101234", "0012102", "0123012")
REFERENCE_S = 0.04  # the loop's median on a 2-core Xeon VM, Python 3.11.7

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "core.walk.s": "s",
    "core.walk.nodes": "count",
    "core.walk.nodes_per_s": "1/s",
    "core.oracle.s": "s",
    "core.oracle.calls": "count",
    "core.oracle.calls_per_label": "calls/label",
    **{
        f"{tree}.{key}": unit
        for tree in ("gentree_pair", "gentree_0021")
        for key, unit in (
            ("simulate.s", "s"), ("recurrence.s", "s"), ("cells", "count"), ("label.self_s", "s")
        )
    },
    **{f"series.build.{name}.s": "s" for name in GF_NAMES},
    **{f"series.residual.{name}.s": "s" for name in RESIDUAL_NAMES},
    "series.mul.s": "s",
    "series.mul.calls": "count",
    "series.invert.s": "s",
    "series.sqrt.s": "s",
    "series.substitute.s": "s",
    "series.terms": "count",
    "verify.self_s": "s",
    "verify.records": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    **{f"{module}.lines": "lines" for module in MODULES},
    "trace.overhead_s": "s",
}

#: Input sizes: `full` for measurement, `tiny` for the smoke test.  Every
#: full-size operation takes a few tenths of a second to two seconds, so a
#: 30-second run makes five or more passes and each median has as many
#: samples.
SIZES = {
    "full": dict(
        verify_n=10, verify_order=20, oracle_max=7, wilf_n=11, brute_n=11, enumerate_n=10,
        gf_order=60, total_order=300, fg_order=150, residual_order=30, tree_n=50, a0_n=40,
        pair_n=60, setup_samples=5,
    ),
    "tiny": dict(
        verify_n=5, verify_order=10, oracle_max=5, wilf_n=7, brute_n=7, enumerate_n=6,
        gf_order=8, total_order=20, fg_order=12, residual_order=6, tree_n=8, a0_n=7, pair_n=8,
        setup_samples=3,
    ),
}

PATTERN_SETS = {"201,210": ((2, 0, 1), (2, 1, 0)), "0021": ((0, 0, 2, 1),), "1012": ((1, 0, 1, 2),)}


@dataclass
class Op:
    label: str
    spec: dict  # what bootstrap.py runs
    check: Callable[[int, bytes], "str | None"]


def cli_op(argv: list[str], check) -> Op:
    return Op(" ".join(argv), {"kind": "cli", "argv": argv}, check)


def digest_op(argv: list[str]) -> Op:
    return cli_op(argv, checks.check_digest(" ".join(argv)))


def verify_op(suite: str, kwargs: dict) -> Op:
    """One suite of `verify --suite all`, through the public API, which
    also takes the depth of the rule-vs-definition oracle."""
    label = " ".join([f"verify {suite}", *(f"{k}={v}" for k, v in kwargs.items())])
    return Op(label, {"kind": "verify", "suite": suite, "kwargs": kwargs},
              checks.check_verify(label))


def workload_ops(name: str, size: dict, rng: random.Random) -> list[Op]:
    """The operations of one workload, and the check of each one's output."""
    if name == "verify_all":
        deep = {"n_max": size["verify_n"], "gf_order": size["verify_order"],
                "oracle_max": size["oracle_max"]}
        return [
            verify_op("pair", deep), verify_op("0021", deep),
            verify_op("wilf", {"n_max": size["wilf_n"]}),
        ]
    if name == "brute_count":
        n, m = size["brute_n"], size["enumerate_n"]
        ops = [
            cli_op(["count", "--patterns", p, "--n", str(n), "--method", "brute"],
                   checks.check_count(checks.a007317(n)))
            for p in PATTERN_SETS
        ]
        ops.append(cli_op(["enumerate", "--patterns", "1012", "--n", str(m)],
                          checks.check_enumerate(m, PATTERN_SETS["1012"][0], rng)))
        return ops
    if name == "series_deep":
        ops = [
            digest_op(["coeffs", "--gf", gf, "--order", str(order), "--format", "json"])
            for gf, order in (
                *((gf, size["gf_order"]) for gf in ("C_pair", "D_pair", "C_0021", "D_0021")),
                ("C_total_pair", size["total_order"]),
                ("f", size["fg_order"]),
                ("g", size["fg_order"]),
            )
        ]
        order = size["residual_order"]
        ops += [
            Op(f"residual {r} {order}", {"kind": "residual", "name": r, "order": order},
               checks.check_residual(order))
            for r in RESIDUAL_NAMES
        ]
        return ops
    if name == "trees_deep":
        n = size["tree_n"]
        ops = [
            cli_op(["count", "--patterns", p, "--n", str(n), "--method", method],
                   checks.check_count(checks.a007317(n)))
            for method in ("tree", "recurrence")
            for p in ("201,210", "0021")
        ]
        ops.append(digest_op(["table", "--family", "a0", "--n", str(size["a0_n"])]))
        ops.append(digest_op(["table", "--family", "pair", "--n", str(size["pair_n"])]))
        return ops
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify_all", "brute_count", "series_deep", "trees_deep")


@dataclass
class OpResult:
    ref_cpu: float  # reference_loop's CPU time around the operation
    wall: float
    cpu: float
    rss_mib: float
    out: bytes
    stats: dict

    @property
    def setup_s(self) -> float:
        return self.stats.get("setup_s", self.wall)

    @property
    def scale(self) -> float:
        """Factor from this operation's times to the reference speed."""
        return REFERENCE_S / self.ref_cpu


def reference_loop() -> None:
    """Fixed pure-Python work that does not touch the package: the
    benchmark's own naive checks on a few fixed words."""
    words = [tuple(map(int, w)) for w in REFERENCE_WORDS]
    for _ in range(REFERENCE_ROUNDS):
        for word in words:
            checks.contains_naive(word, (1, 0, 1, 2))
            checks.is_ascent_sequence(word)


def time_reference_loop() -> float:
    """CPU seconds of one reference_loop in this process."""
    c0 = time.process_time()
    reference_loop()
    return time.process_time() - c0


class Runner:
    """Spawns operations one at a time, checks them and counts failures."""

    def __init__(self, root: str, started: float):
        self.root = root
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.ref_cpu: float | None = None  # the loop's time after the last operation

    def run(self, op: Op, traced: bool) -> OpResult:
        spec = dict(op.spec, trace=traced, package_dir=os.path.join(self.root, "src", "ascentseq"))
        if self.ref_cpu is None:
            self.ref_cpu = time_reference_loop()
        ref_before = self.ref_cpu
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, BOOTSTRAP, json.dumps(spec)],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, RUN_LIMIT_S - (t0 - self.started)))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        finally:
            if proc.poll() is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        wall = time.monotonic() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        self.ref_cpu = time_reference_loop()
        last = err.decode(errors="replace").rstrip().rsplit("\n", 1)[-1]
        stats = json.loads(last[len(STATS_MARK):]) if last.startswith(STATS_MARK) else {}
        if stats:
            stats["setup_s"] = stats["setup_done"] - t0
            error = op.check(proc.returncode, out)
        else:
            error = f"exit code {proc.returncode}: {last[:200]}"
        self.attempted += 1
        if error:
            self.failed += 1
            self.errors.append(f"{op.label}: {error}")
        rss_mib = stats.get("maxrss_kib", 0) / 1024
        return OpResult((ref_before + self.ref_cpu) / 2, wall, cpu, rss_mib, out, stats)


SETUP_OP = Op("setup", {"kind": "setup"}, lambda code, out: None if code == 0 else f"exit {code}")


def run_passes(runner: Runner, ops: list[Op], rng: random.Random, seconds: float, trace: bool):
    """Untraced results per operation, and the results of each traced pass."""
    untraced: dict[str, list[OpResult]] = {op.label: [] for op in ops}
    traced: dict[str, list[OpResult]] = {op.label: [] for op in ops}
    traced_passes: list[list[tuple[Op, OpResult]]] = []
    # the set-up samples count towards the run's seconds; a pass starts
    # only if one like the last would end by the deadline
    deadline = runner.started + min(seconds, RUN_LIMIT_S / 2)
    passes = 0
    while True:
        with_trace = trace and passes % 2 == 1
        order = ops[:]
        rng.shuffle(order)
        t0 = time.monotonic()
        results = [(op, runner.run(op, with_trace)) for op in order]
        pass_wall = time.monotonic() - t0
        for op, res in results:
            (traced if with_trace else untraced)[op.label].append(res)
        if with_trace:
            traced_passes.append(results)
        passes += 1
        if trace and passes < 2:
            continue
        if time.monotonic() + pass_wall > deadline:
            return untraced, traced, traced_passes


def op_median_sum(samples: dict[str, list[OpResult]], value: Callable[[OpResult], float]) -> float:
    """One pass's worth of value: the sum over operations of their medians."""
    return sum(statistics.median(map(value, rs)) for rs in samples.values())


def layer_metrics(results: list[tuple[Op, OpResult]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without lines and overhead)."""
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for _, res in results:
        for name, agg in res.stats.get("spans", {}).items():
            acc = spans.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            for key in acc:
                acc[key] += agg[key]
        for name, value in res.stats.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {
        "core.walk.s": span("core.walk", "total"),
        "core.walk.nodes": counters.get("core.walk.nodes", 0),
        "core.oracle.s": span("core.oracle", "total"),
        "core.oracle.calls": span("core.oracle", "calls"),
    }
    m["core.walk.nodes_per_s"] = ratio(m["core.walk.nodes"], m["core.walk.s"])
    labels = span("gentree_pair.label", "calls") + span("gentree_0021.label", "calls")
    m["core.oracle.calls_per_label"] = ratio(m["core.oracle.calls"], labels)
    for tree in ("gentree_pair", "gentree_0021"):
        m[f"{tree}.simulate.s"] = span(f"{tree}.simulate", "total")
        m[f"{tree}.recurrence.s"] = span(f"{tree}.recurrence", "total")
        m[f"{tree}.cells"] = counters.get(f"{tree}.cells", 0)
        m[f"{tree}.label.self_s"] = span(f"{tree}.label", "self")
    for name in GF_NAMES:
        m[f"series.build.{name}.s"] = span(f"series.build.{name}", "total")
    for name in RESIDUAL_NAMES:
        m[f"series.residual.{name}.s"] = span(f"series.residual.{name}", "total")
    for kernel in ("mul", "invert", "sqrt", "substitute"):
        m[f"series.{kernel}.s"] = span(f"series.{kernel}", "self")
    m["series.mul.calls"] = span("series.mul", "calls")
    m["series.terms"] = counters.get("series.terms", 0)
    m["verify.self_s"] = span("verify", "self")
    m["verify.records"] = counters.get("verify.records", 0)
    m["cli.self_s"] = span("cli", "self")
    m["cli.output_bytes"] = sum(len(res.out) for op, res in results if op.spec["kind"] == "cli")
    return m


def source_lines(root: str) -> dict[str, int]:
    lines = {}
    for module in MODULES:
        path = os.path.join(root, "src", "ascentseq", f"{module}.py")
        with open(path, "rb") as fh:
            lines[f"{module}.lines"] = sum(1 for _ in fh)
    return lines


def git_commit(root: str) -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="input sizes; tiny is for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    root = os.path.dirname(BENCH_DIR)
    missing = [m for m in MODULES if not os.path.isfile(os.path.join(root, "src", "ascentseq", f"{m}.py"))]
    if missing:
        sys.stderr.write(f"no ascentseq sources under {root}/src (missing {missing})\n")
        return 2
    size = SIZES[args.size]
    ops = workload_ops(args.workload, size, random.Random(f"{args.seed}-sample"))
    runner = Runner(root, started)
    # the reference loop must run on the CPU that runs the operations
    affinity = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {affinity[-1]})
    try:
        setups = [runner.run(SETUP_OP, False) for _ in range(size["setup_samples"])]
        untraced, traced, traced_passes = run_passes(
            runner, ops, random.Random(f"{args.seed}-order"), args.seconds, bool(args.trace)
        )
    finally:
        os.sched_setaffinity(0, affinity)
    raw = reference = None
    if args.trace:
        per_pass = [layer_metrics(results) for results in traced_passes]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values.update(source_lines(root))
        values["trace.overhead_s"] = (
            op_median_sum(traced, lambda r: r.wall) - op_median_sum(untraced, lambda r: r.wall)
        )
        units = PER_LAYER
    else:
        everything = setups + [r for rs in untraced.values() for r in rs]
        raw = {
            "wall_s": op_median_sum(untraced, lambda r: r.wall),
            "cpu_s": op_median_sum(untraced, lambda r: r.cpu),
            "setup_s": statistics.median(r.setup_s for r in everything),
        }
        reference = statistics.median(r.ref_cpu for r in everything)
        values = {
            "wall_s": op_median_sum(untraced, lambda r: r.wall * r.scale),
            "cpu_s": op_median_sum(untraced, lambda r: r.cpu * r.scale),
            "setup_s": statistics.median(r.setup_s * r.scale for r in everything),
            "peak_rss_mib": max(statistics.median(r.rss_mib for r in rs) for rs in untraced.values()),
            "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
        }
        units = END_TO_END
    notes = sorted({n for rs in traced.values() for r in rs for n in r.stats.get("notes", [])})
    env = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "pinned_cpu": affinity[-1],
        "commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "untraced_passes": len(next(iter(untraced.values()))),
        "traced_passes": len(traced_passes),
        "unscaled": raw,
        "reference_loop_cpu_s": reference,
        "notes": notes,
        "errors": runner.errors,
    }
    for error in runner.errors:
        sys.stderr.write(f"FAILED {error}\n")
    print("env " + json.dumps(env))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
