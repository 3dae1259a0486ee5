"""``python -m repro lint`` — the simcheck driver.

Exit codes: ``0`` clean (info notes allowed), ``1`` at least one error
finding survived suppressions and the baseline, ``2`` usage or
environment problems (unknown scope, unreadable baseline, bad path,
conflicting flags).

Pass layout
-----------
One invocation runs up to two analysis families, each gated by what
the requested paths actually cover:

* the AST rule engine (DET/ORD/UNIT/FLOW/... rules) over every in-scope
  ``.py`` file;
* the protocol-table analyzer (``PROTO001-006``) and the table<->code
  drift pass (``PROTO007``) when it includes the coherence modules.

``--no-protocol`` drops the second family; ``--protocol-only`` drops
the first.  CI runs the two halves as separate matrix jobs so a
protocol regression and an engine regression fail independently.
Drift findings are never baselined — they assert the tree is
self-consistent *now*.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional

from . import rules as _rules  # noqa: F401  (import populates the registry)
from .baseline import (
    DEFAULT_BASELINE,
    apply_baseline,
    load_baseline,
    prune_baseline,
    write_baseline,
)
from .drift import analyze_repo_drift
from .engine import (
    LintEngine,
    SCOPES,
    all_rules,
    iter_python_files,
    relativize,
)
from .findings import LintReport
from .protocol import PROTOCOL_MODULES, analyze_repo_tables


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--scope", action="append", choices=SCOPES, default=None,
        dest="scopes", metavar="SCOPE",
        help="lint this scope; repeatable (default: src only — "
             "benchmarks/ and tests/ are opt-in)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="machine-readable report on stdout",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help=f"baseline file of grandfathered findings "
             f"(default: {DEFAULT_BASELINE} if it exists)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file; report all findings",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="snapshot current error findings as the new baseline and exit",
    )
    parser.add_argument(
        "--prune-baseline", action="store_true",
        help="drop baseline fingerprints whose file no longer exists, "
             "rewrite the baseline, and exit",
    )
    parser.add_argument(
        "--no-protocol", action="store_true",
        help="skip the protocol-table analyzer and the PROTO007 drift pass",
    )
    parser.add_argument(
        "--protocol-only", action="store_true",
        help="run only the protocol-table analyzer and drift pass "
             "(skip AST rules)",
    )
    parser.add_argument(
        "--strict-ignores", action="store_true",
        help="escalate unused '# simcheck: ignore' pragmas (SUPP001) "
             "from notes to errors",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every registered rule and exit",
    )


def _list_rules() -> int:
    for rule in all_rules():
        scopes = ",".join(rule.scopes)
        print(f"{rule.id:<9} [{scopes}] {rule.title}")
    print(f"{'SUPP001':<9} [engine] note: unused/unknown suppression pragma")
    print(f"{'PROTO001':<9} [tables] unhandled (state, event) pair")
    print(f"{'PROTO002':<9} [tables] ambiguous transitions for one stimulus")
    print(f"{'PROTO003':<9} [tables] emitted/awaited message without peer")
    print(f"{'PROTO004':<9} [tables] static wait-for cycle (deadlock)")
    print(f"{'PROTO005':<9} [tables] unknown state/event/role in a row")
    print(f"{'PROTO006':<9} [tables] note: message types never referenced")
    print(f"{'PROTO007':<9} [tables] transition table drifted from handler "
          f"code")
    return 0


def run_lint(args) -> int:
    if args.list_rules:
        return _list_rules()

    if args.no_protocol and args.protocol_only:
        print(
            "error: --no-protocol and --protocol-only are mutually "
            "exclusive",
            file=sys.stderr,
        )
        return 2

    root = os.getcwd()

    if args.prune_baseline:
        baseline_path = args.baseline or DEFAULT_BASELINE
        try:
            kept, dropped = prune_baseline(baseline_path, root)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot prune baseline: {exc}", file=sys.stderr)
            return 2
        print(
            f"pruned {baseline_path}: dropped {dropped} stale "
            f"fingerprint(s), kept {kept}"
        )
        return 0

    scopes = tuple(args.scopes) if args.scopes else ("src",)
    for path in args.paths:
        if not os.path.exists(path):
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2

    linted = {
        relativize(path, root) for path in iter_python_files(args.paths)
    }

    report = LintReport()
    if args.protocol_only:
        report.files_checked = 0
    else:
        engine = LintEngine(scopes=scopes, root=root)
        result = engine.run(args.paths)
        report.findings = list(result.findings)
        report.suppressed = result.suppressed
        report.files_checked = result.files_checked

    # The protocol pass fires only when the run actually covers the
    # modules that define the tables.
    if not args.no_protocol:
        wanted = [rel for rel in PROTOCOL_MODULES if rel in linted]
        if wanted:
            table_findings, checked = analyze_repo_tables(root, wanted)
            report.findings.extend(table_findings)
            report.tables_checked = len(checked)
            drift_findings, _ = analyze_repo_drift(root, wanted)
            report.findings.extend(drift_findings)

    if args.strict_ignores:
        report.findings = [
            dataclasses.replace(f, severity="error")
            if f.rule == "SUPP001" else f
            for f in report.findings
        ]

    report.sort()

    if args.write_baseline:
        baseline_path = args.baseline or DEFAULT_BASELINE
        entries = write_baseline(baseline_path, report.findings)
        print(
            f"wrote {baseline_path}: {entries} fingerprint(s) covering "
            f"{len(report.errors)} error finding(s)"
        )
        return 0

    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(DEFAULT_BASELINE):
        baseline_path = DEFAULT_BASELINE
    if baseline_path and not args.no_baseline:
        try:
            baseline = load_baseline(baseline_path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot read baseline: {exc}", file=sys.stderr)
            return 2
        report.findings, report.grandfathered = apply_baseline(
            report.findings, baseline
        )

    if args.json:
        print(report.to_json())
    else:
        for finding in report.findings:
            print(finding.render())
        print(report.summary())
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="simcheck",
        description="static determinism/unit lints + protocol-table checks",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
