"""Command-line front-end: counting, enumeration, tables, coefficients,
and the verification suites.

count, enumerate, table and coeffs write plain text, json or csv; verify
writes plain text or json, and --format csv is a usage error there.  Exit
status is 0 on success, 1 when a verification suite fails, and 2 on
usage errors.  Output goes to stdout or, with --out, is written to a file
in one atomic replace.

Each command imports its pipeline when it runs: count loads core and, for
its method, one tree module or the series ring; table loads one tree
module, coeffs only the series ring, and verify every pipeline.  Names are
read from their defining modules at call time, so a patch or a wrapper put
on such a module is the one that runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from itertools import chain

# series.GF_NAMES, named here so that building the parser loads no series
GF_CHOICES = (
    "C_pair", "D_pair", "C2", "C_total_pair", "C_0021", "D_0021", "total_0021", "f", "g",
)
# the pattern sets counted by A007317, each with the closed form of its total;
# the first two grow a generating tree, and none is known for 1012
PAIR_SET = frozenset({(2, 0, 1), (2, 1, 0)})
SET_0021 = frozenset({(0, 0, 2, 1)})
TOTAL_GF = {
    PAIR_SET: "C_total_pair", SET_0021: "total_0021", frozenset({(1, 0, 1, 2)}): "total_0021",
}


def _write_out(text: str, out_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    out_path = os.path.realpath(out_path)  # write through a symlink, as open() does
    directory = os.path.dirname(out_path)
    umask = os.umask(0)
    os.umask(umask)
    # mkstemp makes the file 0600; give it the mode open(out_path, "w") would
    mode = os.stat(out_path).st_mode & 0o777 if os.path.exists(out_path) else 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ascentseq-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, obj, csv, plain, empty: str = "") -> int:
    """Write obj as json, or the lines of csv or of plain (empty when there
    are none).  csv and plain are iterables, read only for their own format."""
    if args.format == "json":
        import json
        text = json.dumps(obj)
    else:
        text = "\n".join(csv if args.format == "csv" else plain) or empty
    _write_out(text, args.out)
    return 0


def _count_by_method(patterns, n: int, method: str, parser) -> int:
    if method == "brute":
        from .core import count_avoiders
        return count_avoiders(n, patterns)[n - 1]
    key = frozenset(patterns)
    if method in ("tree", "recurrence"):
        if key == PAIR_SET:
            from . import gentree_pair as tree
            grow = tree.simulate_pair_levels if method == "tree" else tree.pair_recurrence_levels
        elif key == SET_0021:
            from . import gentree_0021 as tree
            grow = tree.simulate_0021_levels if method == "tree" else tree.triple_recurrence_levels
        else:
            parser.error(
                f"method {method!r} needs a generating tree; available for "
                "pattern sets 201,210 and 0021 only"
            )
        return grow(n)[-1].total()
    if key not in TOTAL_GF:
        parser.error(
            f"method {method!r} is only available for the pattern sets "
            "201,210 and 0021 and 1012, whose counts have a closed form"
        )
    from .series import a007317, build_closed_form
    if method == "formula":
        return a007317(n)
    return int(build_closed_form(TOTAL_GF[key], n).coeff((n,)))


def _cmd_count(args, parser) -> int:
    n, method, pats = args.n, args.method, args.patterns_text
    count = _count_by_method(args.patterns, n, method, parser)
    obj = {"patterns": pats, "n": n, "method": method, "count": count}
    csv = ["patterns,n,method,count", f"\"{pats}\",{n},{method},{count}"]
    return _emit(args, obj, csv, [str(count)])


def _cmd_enumerate(args, parser) -> int:
    from .core import format_avoiders
    seqs = format_avoiders(args.n, args.patterns)
    obj = {"patterns": args.patterns_text, "n": args.n, "sequences": seqs}
    return _emit(args, obj, chain(["sequence"], seqs), seqs)


def _cmd_table(args, parser) -> int:
    n = args.n
    if args.family == "pair":
        from . import gentree_pair as gpair
        table = gpair.pair_recurrence_levels(n)[-1]
        dense, cells, header, key = table.dense(), table.g, "n,p,q,g", n
    else:
        from . import gentree_0021 as g0021
        tables = g0021.triple_recurrence_levels(n)[-1]
        a0 = args.family == "a0"
        dense = g0021.dense_a0(tables) if a0 else g0021.dense_a1(tables)
        cells, header = tables.g0 if a0 else tables.g1, "n,class,q,r,count"
        key = f"{n},g{0 if a0 else 1}"
    obj = {"family": args.family, "n": n, "array": dense}
    rows = (f"{key},{a},{b},{v}" for (a, b), v in sorted(cells.items()))
    plain = (" ".join(map(str, row)) for row in dense)
    return _emit(args, obj, chain([header], rows), plain, "(empty)")


def _cmd_coeffs(args, parser) -> int:
    from .series import build_closed_form
    # every series kind reads as its variables and sorted (exponents, coeff) terms
    data = build_closed_form(args.gf, args.order).to_json_dict()
    header = ",".join(data["variables"]) + ",coeff"
    rows = (",".join(map(str, term)) for term in data["terms"])
    # plain writes an integer coefficient without its "/1"
    plain = (" ".join(map(str, term)).removesuffix("/1") for term in data["terms"])
    return _emit(args, data, chain([header], rows), plain, "0")


def _cmd_verify(args, parser) -> int:
    if args.n_max is not None and args.n_max < 1:
        parser.error("--n-max must be at least 1")
    if args.suite == "wilf" and args.order is not None:
        parser.error("--order does not apply to --suite wilf, which has no series check")
    from .verify import (
        DepthError, combine_reports, crosscheck_0021, crosscheck_pair, wilf_equivalence_check,
    )
    # pass only the flags given, so the defaults live in verify.py alone
    depth = {} if args.n_max is None else {"n_max": args.n_max}
    order = {} if args.order is None else {"gf_order": args.order}
    reports = []
    try:
        if args.suite in ("pair", "all"):
            reports.append(crosscheck_pair(**depth, **order))
        if args.suite in ("0021", "all"):
            reports.append(crosscheck_0021(**depth, **order))
    except DepthError as exc:  # --order below the effective --n-max
        parser.error(str(exc))
    if args.suite in ("wilf", "all"):
        reports.append(wilf_equivalence_check(**depth))
    report = reports[0] if len(reports) == 1 else combine_reports(reports)
    text = report.to_json() if args.format == "json" else report.to_text()
    _write_out(text, args.out)
    return 0 if report.passed else 1


def _add_common(sub, *, patterns=False, n=False, formats=("plain", "json", "csv")):
    if patterns:
        sub.add_argument(
            "--patterns",
            required=True,
            metavar="SET",
            help="comma-separated reduced digit strings, e.g. 201,210",
        )
    if n:
        sub.add_argument("--n", type=int, required=True, help="sequence length")
    sub.add_argument("--format", choices=formats, default="plain")
    sub.add_argument("--out", metavar="PATH", help="write output to PATH atomically")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ascentseq",
        description="Enumerate pattern-avoiding ascent sequences and verify "
        "that the supported classes are counted by the binomial convolution "
        "of the Catalan numbers.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("count", help="count avoiders of one length")
    _add_common(p, patterns=True, n=True)
    p.add_argument(
        "--method",
        choices=("brute", "tree", "recurrence", "gf", "formula"),
        default="brute",
        help="counting pipeline (tree/recurrence/gf/formula only for the "
        "supported pattern sets)",
    )
    p.set_defaults(func=_cmd_count)

    p = subs.add_parser("enumerate", help="list avoiders of one length")
    _add_common(p, patterns=True, n=True)
    p.set_defaults(func=_cmd_enumerate)

    p = subs.add_parser("table", help="print one level array")
    p.add_argument("--family", choices=("pair", "a0", "a1"), required=True)
    _add_common(p, n=True)
    p.set_defaults(func=_cmd_table)

    p = subs.add_parser("coeffs", help="expand a closed-form generating function")
    p.add_argument("--gf", choices=GF_CHOICES, required=True)
    p.add_argument("--order", type=int, required=True, help="truncation order")
    _add_common(p)
    p.set_defaults(func=_cmd_coeffs)

    p = subs.add_parser("verify", help="run a cross-validation suite")
    p.add_argument("--suite", choices=("pair", "0021", "wilf", "all"), required=True)
    p.add_argument("--n-max", type=int, help="brute-force depth (default 12, wilf 11)")
    p.add_argument("--order", type=int, help="generating-function order (default 40)")
    _add_common(p, formats=("plain", "json"))
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):  # counts may exceed 4,300 digits
        sys.set_int_max_str_digits(0)
    if getattr(args, "patterns", None) is not None:
        from .core import parse_patterns
        args.patterns_text = args.patterns
        try:
            args.patterns = parse_patterns(args.patterns)
        except ValueError as exc:
            parser.error(str(exc))
    if getattr(args, "n", None) is not None and args.n < 1:
        parser.error("--n must be at least 1")
    if getattr(args, "order", None) is not None and args.order < 0:
        parser.error("--order must be non-negative")
    if args.out is not None:
        if os.path.isdir(args.out):
            parser.error(f"--out {args.out}: is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            parser.error(f"--out {args.out}: no such directory")
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
