"""Command-line front end.

Subcommands: ``validate``, ``deduce``, ``table``, ``families``, ``check``.
Exit codes: 0 success, 1 unreadable or invalid dataset, or (``deduce
--log``) a log path that cannot be written, 2 contradictions in the
saturated store, 3 acceptance mismatch against the frozen family sets, 4
(``families``) a family verdict left undetermined because the dataset
lacks an entry it reads: a lift's Hurewicz flag, or its order, or the lift
itself; (``table``) a row whose p₁ image vanishes with no i₁-lift
recorded, printed as "?" in the markdown and CSV lift cell.
The dataset path may be omitted when LES_DEDUCE_DATA is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

from . import chartdata
from .chartdata import ChartValidationError
from .families import (
    FamiliesResult,
    IncompleteRowError,
    build_table,
    emit_families,
    missing_lift,
    render_table_csv,
    render_table_json,
    render_table_markdown,
)
from .rules import saturate
from .sequences import check_all

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONTRADICTION = 2
EXIT_ACCEPTANCE = 3
EXIT_UNDETERMINED = 4


def _load(path_arg: str | None):
    path = path_arg or os.environ.get("LES_DEDUCE_DATA")
    if not path:
        print("error: no dataset path given and LES_DEDUCE_DATA unset", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    try:
        return chartdata.load(path)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    except ChartValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _saturated(path_arg: str | None):
    chart = _load(path_arg)
    store = saturate(chart)
    return chart, store


def cmd_validate(args: argparse.Namespace) -> int:
    chart = _load(args.dataset)
    print(
        f"ok: {len(chart.elements)} elements, {len(chart.actions.by_key)} actions, "
        f"{len(chart.ses_records)} rank records"
    )
    return EXIT_OK


def cmd_deduce(args: argparse.Namespace) -> int:
    chart, store = _saturated(args.dataset)
    print(f"saturated: {len(store.facts)} facts, {len(store.log)} derivations")
    if args.log:
        text = json.dumps(store.log_document(), ensure_ascii=False, indent=1) + "\n"
        try:
            Path(args.log).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.log}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_VALIDATION
        print(f"derivation log written to {args.log}")
    if store.contradictions:
        for c in store.contradictions:
            print(f"contradiction: {c.describe()}", file=sys.stderr)
        return EXIT_CONTRADICTION
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    chart, store = _saturated(args.dataset)
    rows = build_table(store, chart)
    if args.format == "md":
        sys.stdout.write(render_table_markdown(rows))
    elif args.format == "csv":
        sys.stdout.write(render_table_csv(rows))
    else:
        sys.stdout.write(render_table_json(rows))
    missing = [note for note in map(missing_lift, rows) if note]
    for note in missing:
        print(f"undetermined: {note}", file=sys.stderr)
    if store.contradictions:
        return EXIT_CONTRADICTION
    if missing:
        return EXIT_UNDETERMINED
    return EXIT_OK


def _print_families(result: FamiliesResult) -> None:
    for report in result.case_ii:
        print(report.describe())
    for report in result.direct_p1:
        print(report.describe())
    for report in result.case_i:
        print(report.describe())
    for report in result.suppressed_direct_p1:
        print(f"(previously known) {report.describe()}")
    for note in result.review_notes:
        print(f"review: {note}")
    for note in result.outside_hypotheses:
        print(f"outside hypotheses: {note}")
    for note in result.undetermined:
        print(f"undetermined: {note}")


def cmd_families(args: argparse.Namespace) -> int:
    chart, store = _saturated(args.dataset)
    rows = build_table(store, chart)
    try:
        result = emit_families(rows, chart)
    except IncompleteRowError as exc:
        print(f"undetermined: {exc}")
        return EXIT_CONTRADICTION if store.contradictions else EXIT_UNDETERMINED
    _print_families(result)
    if store.contradictions:
        return EXIT_CONTRADICTION
    if result.undetermined:
        return EXIT_UNDETERMINED
    diff = result.golden_diff()
    if diff:
        for line in diff:
            print(f"acceptance mismatch: {line}", file=sys.stderr)
        return EXIT_ACCEPTANCE
    print(
        f"ok: {len(result.case_ii)} trivial-Hurewicz families, "
        f"{len(result.direct_p1)} new simple 2-torsion images"
    )
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    chart, store = _saturated(args.dataset)
    verdicts = check_all(store, chart)
    counts = Counter(v.verdict for v in verdicts)
    bad = [v for v in verdicts if v.verdict == "contradiction"]
    if args.json:
        doc = [v._asdict() for v in verdicts]
        sys.stdout.write(json.dumps(doc, ensure_ascii=False, indent=1) + "\n")
    else:
        print(
            f"junctions: {counts['exact']} exact, {counts['undetermined']} undetermined, "
            f"{counts['contradiction']} contradictions"
        )
        for verdict in bad:
            print(f"  {verdict.sequence} {verdict.junction}: {verdict.detail}")
    for c in store.contradictions:
        print(f"store contradiction: {c.describe()}", file=sys.stderr)
    if bad or store.contradictions:
        return EXIT_CONTRADICTION
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="les-deduce",
        description="Deduce long-exact-sequence map values over F2 chart data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load and validate a dataset")
    p.add_argument("dataset", nargs="?")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("deduce", help="saturate and report contradictions")
    p.add_argument("dataset", nargs="?")
    p.add_argument("--log", help="write the derivation log (JSON) to this path")
    p.set_defaults(func=cmd_deduce)

    p = sub.add_parser("table", help="emit the summary table")
    p.add_argument("dataset", nargs="?")
    p.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("families", help="emit the periodic family reports")
    p.add_argument("dataset", nargs="?")
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("check", help="junction-local exactness report")
    p.add_argument("dataset", nargs="?")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
