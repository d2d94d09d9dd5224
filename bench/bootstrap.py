"""Run one benchmark operation in a fresh interpreter.

    python3 bench/bootstrap.py '<json spec>'

The spec names the operation (`cli` with an argv for `ascentseq.cli.main`,
`verify` with a suite and the keyword arguments of its `ascentseq.verify`
function, `residual` with a name and order, or `setup`, which only
imports), the directory the package must be imported from, and whether to
trace.  The operation's output goes to stdout.  The last line on stderr is a marker
followed by JSON holding the `time.monotonic()` at which `import
ascentseq.cli` returned, the interpreter's peak RSS and, when tracing, the
per-layer span summary.

Tracing wraps public names only, on every module that binds them: `from
.core import contains` gives `gentree_pair` its own binding, which a
wrapper placed on `ascentseq.core` alone would miss.  A name that is no
longer there is skipped and listed under `notes`.
"""

import sys
import time

import ascentseq.cli  # the timed import, ended by SETUP_DONE

SETUP_DONE = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
from functools import wraps  # noqa: E402

from checks import a007317  # noqa: E402

STATS_MARK = "ascentseq-bench-stats "

#: Pattern sets whose class sizes are A007317.
A007317_CLASSES = {
    frozenset({(2, 0, 1), (2, 1, 0)}),
    frozenset({(0, 0, 2, 1)}),
    frozenset({(1, 0, 1, 2)}),
}


class Tracer:
    """Spans (name, start, end, parent) kept in memory, plus work counters."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.notes: list[str] = []
        self.walked: dict[frozenset, int] = {}

    def _note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name, on_result=None):
        """fn timed as a span; name is a string or a function of fn's args."""
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack
        )

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name if isinstance(name, str) else name(*args, **kwargs))
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced name on every module or class that binds it."""
        for owners, attr, name, on_result in self._targets():
            for owner_path in owners:
                owner = ascentseq
                for part in owner_path.split("."):
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self._note(f"skipped ascentseq.{owner_path}.{attr}: not present")
                    continue
                setattr(owner, attr, self.wrap(fn, name, on_result))

    def _targets(self):
        return [
            (("core", "verify", "cli"), "count_avoiders", "core.walk", self._on_count),
            (("core", "verify", "cli"), "enumerate_avoiders", "core.walk", self._on_enumerate),
            (("core", "gentree_pair", "gentree_0021"), "contains", "core.oracle", None),
            (("core", "gentree_pair", "gentree_0021", "verify"), "valid_append_set",
             "core.oracle", None),
            (("gentree_pair",), "simulate_pair_levels", "gentree_pair.simulate",
             self._pair_cells),
            (("gentree_pair",), "pair_recurrence_levels", "gentree_pair.recurrence",
             self._pair_cells),
            (("gentree_pair",), "pair_label", "gentree_pair.label", None),
            (("gentree_0021",), "simulate_0021_levels", "gentree_0021.simulate",
             self._triple_cells),
            (("gentree_0021",), "triple_recurrence_levels", "gentree_0021.recurrence",
             self._triple_cells),
            (("gentree_0021",), "triple_label", "gentree_0021.label", None),
            (("series", "verify", "cli"), "build_closed_form",
             lambda which, order: f"series.build.{which}", self._series_terms),
            (("series", "verify"), "residual",
             lambda which, order: f"series.residual.{which}", None),
            (("series.USeries", "series.MSeries"), "__mul__", "series.mul", None),
            (("series.USeries", "series.MSeries"), "invert_unit", "series.invert", None),
            (("series.USeries", "series.MSeries"), "sqrt_unit", "series.sqrt", None),
            (("series.MSeries",), "substitute", "series.substitute", None),
            (("verify", "cli"), "crosscheck_pair", "verify", self._records),
            (("verify", "cli"), "crosscheck_0021", "verify", self._records),
            (("verify", "cli"), "wilf_equivalence_check", "verify", self._records),
            (("verify", "cli"), "combine_reports", "verify", None),
        ]

    # Work counters, read from public results only.

    def _on_count(self, counts, n_max, patterns):
        # count_avoiders answers a pattern set it has walked as deep before
        # from its cache; only a deeper request walks, from the root again
        key = frozenset(map(tuple, patterns))
        if n_max > self.walked.get(key, 0):
            self.walked[key] = n_max
            self.count("core.walk.nodes", sum(counts))

    def _on_enumerate(self, seqs, n, patterns):
        # the walk visits every shorter avoider on the way to length n
        shorter = 0
        if frozenset(map(tuple, patterns)) in A007317_CLASSES:
            shorter = sum(a007317(k) for k in range(1, n))
        else:
            self._note("core.walk.nodes counts only the length-n nodes of enumerate")
        self.count("core.walk.nodes", shorter + len(seqs))

    def _pair_cells(self, levels, *args, **kwargs):
        self.count("gentree_pair.cells", sum(len(t.g) for t in levels))

    def _triple_cells(self, levels, *args, **kwargs):
        self.count("gentree_0021.cells", sum(len(t.g0) + len(t.g1) + 1 for t in levels))

    def _series_terms(self, series, *args, **kwargs):
        terms = series.terms if hasattr(series, "terms") else [c for c in series.coeffs if c]
        self.count("series.terms", len(terms))

    def _records(self, report, *args, **kwargs):
        self.count("verify.records", len(report.records))

    def summary(self) -> dict:
        """Per span name: calls, time outside spans of the same name, self time."""
        n = len(self.names)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        spans: dict[str, list] = {}
        for i in range(n):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            agg = spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            p = self.parents[i]
            if p < 0 or self.names[p] != name:
                agg[1] += dur
            agg[2] += dur - child_time[i]
        return {
            "spans": {k: {"calls": c, "total": t, "self": s} for k, (c, t, s) in spans.items()},
            "counters": self.counters,
            "notes": self.notes,
        }


def peak_rss_kib() -> int:
    """High-water RSS of this interpreter's own memory.

    Not `ru_maxrss`: Linux carries the spawning process's high-water mark
    over into a child's `ru_maxrss`, so it would report the memory of
    `bench/run.py` instead.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spec = json.loads(sys.argv[1])
    package_dir = os.path.dirname(os.path.abspath(ascentseq.__file__))
    if package_dir != os.path.abspath(spec["package_dir"]):
        sys.stderr.write(f"ascentseq imported from {package_dir}, not {spec['package_dir']}\n")
        return 3
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    code = 0
    if spec["kind"] == "cli":
        cli_main = ascentseq.cli.main
        if tracer is not None:
            cli_main = tracer.wrap(cli_main, "cli")
        try:
            code = cli_main(spec["argv"]) or 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    elif spec["kind"] == "verify":
        suites = {
            "pair": ascentseq.verify.crosscheck_pair,
            "0021": ascentseq.verify.crosscheck_0021,
            "wilf": ascentseq.verify.wilf_equivalence_check,
        }
        report = suites[spec["suite"]](**spec["kwargs"])
        sys.stdout.write(report.to_text() + "\n")
        code = 0 if report.passed else 1
    elif spec["kind"] == "residual":
        res = ascentseq.series.residual(spec["name"], spec["order"])
        sys.stdout.write(json.dumps(res.to_json_dict()))
    sys.stdout.flush()
    stats = {
        "setup_done": SETUP_DONE,
        "maxrss_kib": peak_rss_kib(),
    }
    if tracer is not None:
        stats.update(tracer.summary())
    sys.stderr.write("\n" + STATS_MARK + json.dumps(stats) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
