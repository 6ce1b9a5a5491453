"""Command-line interface: compute, verify, oracle, catalog.

verify runs the formula, koszul and ce methods, or the --methods subset,
and compares their degrees 0..4.

Exit codes: 0 success, 1 I/O, parse or usage error (including a closed
output pipe, an algebra above the dimension limit, and a --max-degree or
--size-cap that is not a non-negative integer), 2 validation failure or,
with ce the only method, a quotient above the size cap, 3 method
disagreement in verify, 4 internal inconsistency (a self-check such as
delta o delta = 0 failed); the check report or the message is printed.

main(argv) may be called repeatedly in one process: it builds its argparse
parser once, on the first call, and every later call parses with it.
"""

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from .betti import betti_low
from .catalog import emit, entries
from .ce import _non_negative, betti_ce
from .koszul import betti_koszul
from .linalg import rat_str
from .pairs import HomogeneousPair

_METHODS = ("formula", "koszul", "ce")


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


def _json_default(obj):
    if isinstance(obj, Fraction):
        return rat_str(obj)
    return str(obj)


def _dump(obj):
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default)


def _load_pair(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _CliError(1, "cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise _CliError(1, "cannot parse %s: %s" % (path, exc))
    try:
        return HomogeneousPair.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise _CliError(1, "not a valid pair document (%s): %s" % (path, exc))


def _ensure_valid(pair):
    report = pair.validation
    if not report.ok:
        raise _CliError(2, report.describe())
    for warning in report.warnings:
        print("warning: %s" % warning, file=sys.stderr)


def _print_report(report, explain):
    print("betti   %s" % report.betti)
    print("method  %s" % report.method)
    if report.intermediates:
        print("        " + "  ".join("%s=%s" % item
                                     for item in sorted(report.intermediates.items())))
    for flag in report.corollary_flags:
        line = "check   %-8s %s" % (flag["status"], flag["name"])
        if flag.get("detail"):
            line += "  (%s)" % flag["detail"]
        print(line)
    if explain and report.diagnostics:
        for key in sorted(report.diagnostics):
            print("%-8s %s" % (key, report.diagnostics[key]))


def cmd_compute(args):
    pair = _load_pair(args.file)
    _ensure_valid(pair)
    report = betti_low(pair, validate=False)
    if args.json:
        print(_dump(report.to_dict(explain=args.explain)))
    else:
        _print_report(report, args.explain)
    return 0


def cmd_oracle(args):
    pair = _load_pair(args.file)
    _ensure_valid(pair)
    if args.method == "koszul":
        report = betti_koszul(pair, validate=False)    # b0..b4
        top = 4 if args.max_degree is None else min(args.max_degree, 4)
        del report.betti[top + 1:]
        report.intermediates["max_degree"] = top
    else:
        try:
            report = betti_ce(pair, max_degree=args.max_degree,
                              size_cap=args.size_cap, validate=False)
        except ValueError as exc:
            raise _CliError(2, str(exc))
    if args.json:
        print(_dump(report.to_dict(explain=args.explain)))
    else:
        _print_report(report, args.explain)
    return 0


def _padded(report, top):
    b = report.betti
    return [b[k] if k < len(b) else 0 for k in range(top + 1)]


def cmd_verify(args):
    # the method names are usage, checked before the document is read
    methods = ([m.strip() for m in args.methods.split(",")]
               if args.methods is not None else list(_METHODS))
    bad = [m for m in methods if m not in _METHODS]
    if bad:
        raise _CliError(1, "unknown method(s): %s"
                        % ", ".join(m or "''" for m in bad))
    repeated = [m for m in _METHODS if methods.count(m) > 1]
    if repeated:
        raise _CliError(1, "repeated method(s): %s" % ", ".join(repeated))
    pair = _load_pair(args.file)
    _ensure_valid(pair)

    reports, elapsed, notes = {}, {}, []
    for method in methods:
        start = time.perf_counter()
        if method == "formula":
            report = betti_low(pair, validate=False)
        elif method == "koszul":
            report = betti_koszul(pair, validate=False)
        else:
            try:
                report = betti_ce(pair, max_degree=4, size_cap=args.size_cap,
                                  validate=False)
            except ValueError as exc:
                if len(methods) == 1:   # no method ran, as in oracle
                    raise _CliError(2, str(exc))
                notes.append("ce skipped: %s" % exc)
                continue
        elapsed[method] = time.perf_counter() - start
        reports[method] = report

    agreement = {k: len({_padded(r, 4)[k] for r in reports.values()}) == 1
                 for k in range(5)}
    status = "pass" if all(agreement.values()) else "fail"

    if args.json:
        out = {"status": status,
               "agreement": {str(k): v for k, v in agreement.items()},
               "notes": notes,
               "methods": {m: {"betti": _padded(r, 4),
                               "elapsed": round(elapsed[m], 6)}
                           for m, r in reports.items()}}
        if args.explain:
            for m, r in reports.items():
                out["methods"][m]["report"] = r.to_dict(explain=True)
        print(_dump(out))
    else:
        for m in methods:
            if m not in reports:
                continue
            print("%-8s %s   %.3fs" % (m, _padded(reports[m], 4), elapsed[m]))
        for note in notes:
            print("note: %s" % note)
        bad_degrees = [str(k) for k, v in sorted(agreement.items()) if not v]
        if bad_degrees:
            print("disagreement in degrees: %s" % ", ".join(bad_degrees))
        print("status: %s" % status)
        if args.explain:
            for m, r in reports.items():
                if r.diagnostics:
                    print("-- %s diagnostics" % m)
                    for key in sorted(r.diagnostics):
                        print("   %s: %s" % (key, r.diagnostics[key]))
    return 0 if status == "pass" else 3


def cmd_catalog(args):
    if args.action == "list":
        for entry in entries():
            print(entry.describe())
        return 0
    try:
        doc = emit(args.name)
    except ValueError as exc:
        raise _CliError(1, str(exc))
    text = _dump(doc)
    if args.output is not None:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise _CliError(1, "cannot write %s: %s" % (args.output, exc))
    else:
        print(text)
    return 0


def _non_negative_int(text):
    """argparse type of --max-degree and --size-cap: the library's rule."""
    try:
        return _non_negative(text, "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            "must be a non-negative integer, not %r" % text) from None


def _add_common(parser):
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output (sorted keys)")
    parser.add_argument("--explain", action="store_true",
                        help="include slice dimensions and ranks")


def _add_size_cap(parser):
    parser.add_argument("--size-cap", type=_non_negative_int, default=None,
                        help="override the quotient-dimension cap for the cochain method")


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as exit code 1 instead of argparse's 2."""

    def error(self, message):
        raise _CliError(1, "%s%s: error: %s"
                        % (self.format_usage(), self.prog, message))


@functools.cache
def _parser():
    parser = _Parser(
        prog="liecoh",
        description="Betti numbers of compact homogeneous spaces from "
                    "rational Lie-theoretic input")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="closed-formula Betti numbers b0..b4")
    p.add_argument("file", help="pair JSON document")
    _add_common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify",
                       help="run all methods and compare degrees 0..4")
    p.add_argument("file", help="pair JSON document")
    p.add_argument("--methods", default=None,
                   help="comma-separated subset of formula,koszul,ce")
    _add_common(p)
    _add_size_cap(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="run a single independent method")
    p.add_argument("file", help="pair JSON document")
    p.add_argument("--method", choices=("koszul", "ce"), required=True)
    _add_common(p)
    _add_size_cap(p)
    p.add_argument("--max-degree", type=_non_negative_int, default=None,
                   help="highest cohomology degree to compute")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("catalog", help="list builders or emit a pair document")
    catsub = p.add_subparsers(dest="action", required=True)
    pl = catsub.add_parser("list", help="show available names")
    pl.set_defaults(func=cmd_catalog)
    pe = catsub.add_parser("emit", help="write the pair JSON for a name")
    pe.add_argument("name", help='e.g. "sphere:4", "stiefel:5:2", "torus:3+su:2"')
    pe.add_argument("-o", "--output", default=None, help="write to a file")
    pe.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _CliError as exc:
        print(exc.message, file=sys.stdout if exc.code == 2 else sys.stderr)
        return exc.code
    except RuntimeError as exc:
        print("internal inconsistency: %s" % exc, file=sys.stderr)
        return 4
    except BrokenPipeError:     # the reader left; flush quietly at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
