"""Command-line front end.

Subcommands: analyze (one signature + map), enumerate (all maps for a
signature), census (all signatures and maps at one order), verify (oracle
cross-checks), max-order (largest order acting at a given genus).

Exit codes: 0 success / oracle agreement, 2 parse or configuration error,
3 oracle disagreement, 4 validation failure on analyze.  Results go to
stdout; json and csv output carry no extraneous text.  Diagnostics go to
stderr.
"""

from __future__ import annotations

import argparse
import csv
import signal
import sys
from contextlib import nullcontext

from .census import (
    check_budget,
    check_census_args,
    csv_text,
    enumerate_epimorphisms,
    max_cyclic_order,
    run_census,
    table_text,
    to_json,
    write_census_csv,
    write_census_jsonl,
)
from .epimorphism import format_map_text, parse_map_text, validate
from .fixedpoints import full_report, twists_field
from .oracle import cross_check, involution_sweep
from .signature import ParseError, format_signature, parse_signature

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DISAGREEMENT = 3
EXIT_INVALID = 4


def _print_validation(report, file=None):
    for check in report.checks:
        status = "ok  " if check.passed else "FAIL"
        print(f"{status} {check.name:<22} {check.detail}", file=file)


def _print_report_table(sig_text, order, report):
    print(f"signature {sig_text}  order {order}  kernel genus {report.kernel_genus}")
    print("power  order  isolated")
    for row in report.per_power:
        print(f"t^{row.i:<4} {row.order:>5} {row.isolated_count:>9}")
    inv = report.involution
    if inv is None:
        print("no involution (odd order)")
        return
    cycles = twists_field(report) or "-"
    eq = "equality" if inv.scherrer_equality else "strict"
    print(
        f"involution: F={inv.isolated_total} V={inv.oval_total} [{cycles}] "
        f"Scherrer {inv.scherrer_lhs} <= {inv.scherrer_rhs} ({eq})"
    )


def _signature(text):
    """parse_signature, refusing a signature whose maps list more images than
    the budget, before any text or list of that length is built."""
    sig = parse_signature(text)
    count = len(sig.periods) + 2 * sig.empty_cycles + sig.sign.alpha * sig.genus
    check_budget(count, "the signature has {} generators", count)
    return sig


def _cmd_analyze(args):
    # A report has one row for each power t^i, 0 < i < M.
    check_budget(args.order - 1, "a report at order {} has {} power rows", args.order, args.order - 1)
    sig = _signature(args.signature)
    epi = parse_map_text(sig, args.order, args.map_text)
    validation = validate(epi)
    # A CSV line takes its report from full_report itself.
    report = full_report(epi) if validation.valid and args.fmt != "csv" else None
    if args.fmt == "json":
        print(to_json({"validation": validation, "report": report}))
    elif args.fmt == "csv" and validation.valid:
        sys.stdout.writelines(text for text, _ in csv_text([epi]))
    else:
        # csv stdout carries rows only; the check table is a diagnostic.
        _print_validation(validation, sys.stderr if args.fmt == "csv" else None)
        if report:
            _print_report_table(format_signature(sig), args.order, report)
    return EXIT_OK if validation.valid else EXIT_INVALID


def _cmd_enumerate(args):
    sig = _signature(args.signature)
    epis = enumerate_epimorphisms(sig, args.order, up_to_aut=args.up_to_aut)
    sig_text = format_signature(sig)
    if args.fmt == "json":
        payload = {
            "signature": sig_text,
            "modulus": args.order,
            "count": len(epis),
            "maps": [
                {
                    "map": format_map_text(e),
                    "x_images": e.x_images,
                    "e_images": e.e_images,
                    "c_images": e.c_images,
                    "orient_images": e.orient_images,
                }
                for e in epis
            ],
        }
        print(to_json(payload))
    elif args.fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["signature", "M", "images"])
        for e in epis:
            writer.writerow([sig_text, str(args.order), format_map_text(e)])
    else:
        print(f"{len(epis)} valid map(s) for {sig_text} onto C_{args.order}")
        for e in epis:
            print(f"  {format_map_text(e)}")
    return EXIT_OK


def _cmd_census(args):
    check_census_args(args.order, args.workers)
    if args.output:
        # Opening for append checks the path before the census and keeps an
        # existing file's bytes until the rows are ready.
        try:
            open(args.output, "a", encoding="utf-8").close()
        except OSError as exc:
            raise ValueError(f"cannot write --output {args.output}: {exc.strerror}") from None
    rows, disagreements = run_census(args.order, args.max_genus, up_to_aut=args.up_to_aut,
                                     verify=args.verify, workers=args.workers)
    target = open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout)
    with target as sink:
        if args.fmt == "json":
            write_census_jsonl(rows, sink)
        elif args.fmt == "csv":
            write_census_csv(rows, sink)
        else:
            print(f"census: order {args.order}, max genus {args.max_genus}, "
                  f"{len(rows)} row(s)", file=sink)
            sink.writelines(text for text, _ in table_text(rows))
    if disagreements:
        print(f"oracle disagreement: {disagreements[0]}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _cmd_verify(args):
    # A sweep takes at most M steps of one exponent walk over an int of
    # M*(b + 1) bits, b the bit length of M, and O(log M) shifts for each
    # closure; a single map about M*(r + 1) (an O(M) coset walk per x image,
    # and M - 1 power rows).  Both are held to M^2.
    steps = args.order**2
    check_budget(steps, "the oracle at order {} takes about {} steps", args.order, steps)
    if args.all_v:
        if args.signature or args.map_text:
            raise ValueError("--all-v sweeps every v at --order; drop the signature and --map")
        transcript = involution_sweep(args.order)
        label = f"order {args.order}: swept v=0..{args.order - 1},"
    else:
        if not args.signature:
            raise ValueError("verify needs a signature (or --all-v)")
        sig = _signature(args.signature)
        transcript = cross_check(parse_map_text(sig, args.order, args.map_text))
        label = f"{format_signature(sig)} M={args.order}:"
    print(to_json(transcript) if args.fmt == "json"
          else f"{label} agreement={transcript.agreement}")
    if not transcript.agreement:
        print(f"first disagreement: {transcript.disagreements[0]}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _cmd_max_order(args):
    largest = max_cyclic_order(args.genus, cap=args.cap)
    if args.fmt == "json":
        print(to_json({"genus": args.genus, "max_order": largest}))
    else:
        print(f"max cyclic order at genus {args.genus}: {largest}")
    return EXIT_OK


def _add_format(p, run, choices=("table", "json", "csv")):
    p.add_argument("--format", default="table", choices=choices, dest="fmt")
    p.set_defaults(run=run)


# Built once per process: a request only parses, then calls its handler.
_PARSER = argparse.ArgumentParser(
    prog="necfix",
    description="Fixed points, ovals and twist types of cyclic actions on "
    "closed non-orientable surfaces, from NEC signature data.",
)
_sub = _PARSER.add_subparsers(dest="subcommand", required=True)

_p = _sub.add_parser("analyze", help="validate one map and report its fixed-point data")
_p.add_argument("signature")
_p.add_argument("--order", type=int, required=True)
_p.add_argument("--map", default="", dest="map_text")
_add_format(_p, _cmd_analyze)

_p = _sub.add_parser("enumerate", help="list all valid maps for a signature")
_p.add_argument("signature")
_p.add_argument("--order", type=int, required=True)
_p.add_argument("--up-to-aut", action="store_true", dest="up_to_aut")
_add_format(_p, _cmd_enumerate)

_p = _sub.add_parser("census", help="enumerate signatures and maps at one order")
_p.add_argument("--order", type=int, required=True)
_p.add_argument("--max-genus", type=int, required=True, dest="max_genus")
_p.add_argument("--up-to-aut", action="store_true", dest="up_to_aut")
_p.add_argument("--verify", action="store_true")
_p.add_argument("--workers", type=int, default=1)
_p.add_argument("--output", help="write rows to a file instead of stdout")
_add_format(_p, _cmd_census)

_p = _sub.add_parser("verify", help="brute-force oracle cross-checks")
_p.add_argument("signature", nargs="?")
_p.add_argument("--order", type=int, required=True)
_p.add_argument("--map", default="", dest="map_text")
_p.add_argument("--all-v", action="store_true", dest="all_v",
                help="sweep every connecting image v in [0, order)")
_add_format(_p, _cmd_verify, choices=("table", "json"))

_p = _sub.add_parser("max-order", help="largest cyclic order acting at a genus")
_p.add_argument("genus", type=int)
_p.add_argument("--cap", type=int, default=12)
_add_format(_p, _cmd_max_order, choices=("table", "json"))


def main(argv=None):
    args = None
    try:
        try:
            args = _PARSER.parse_args(argv)
        except SystemExit as exc:
            code = int(exc.code or 0)
        else:
            code = args.run(args)
        # Flushed here, so a failed write, --help's too, is reported, not
        # raised at exit.
        sys.stdout.flush()
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        target = f"--output {args.output}" if getattr(args, "output", None) else "stdout"
        print(f"error: cannot write {target}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


def console_entry():
    # A closed stdout (``necfix census ... | head -1``) ends the run quietly.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # main reported the failed write; what stdout still holds is dropped,
        # not written again at exit.
        sys.stdout = None
    sys.exit(code)


if __name__ == "__main__":
    console_entry()
