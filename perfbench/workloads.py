"""The benchmark's two workloads: their inputs, one op each, and the checks on its output.

``shipped``   one full report on ``data/tmf_chart.json``: load, saturate with a
              shuffled rule schedule, ``check_all``, ``build_table``,
              ``emit_families``.
``delta8x2``  the same op on ``delta8_extend(chart, 2)``, built inside the op.

The oracle's soundness trials are not a workload: ``probes.oracle_block``
runs them in the traced run.

Every op's output is checked against hand-written references (the frozen
table in ``tests/golden_table.py`` and the frozen family sets behind
``golden_diff``), never against an earlier output of the engine.
"""

from __future__ import annotations

import importlib
import random
import runpy
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
CHART = ROOT / "data" / "tmf_chart.json"
GOLDEN = ROOT / "tests" / "golden_table.py"

ENGINE_MODULES = ("algebra", "chartdata", "sequences", "rules", "families", "oracle")

Call = Callable[..., Any]


def plain_call(name: str, fn: Callable, *args, **kwargs):
    """Call ``fn`` untraced; a tracer's ``call`` has the same signature."""
    return fn(*args, **kwargs)


def import_engine() -> SimpleNamespace:
    """Import ``les_deduce`` afresh, so that every set-up pays the package import."""
    for name in [m for m in sys.modules if m == "les_deduce" or m.startswith("les_deduce.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"les_deduce.{m}") for m in ENGINE_MODULES}
    )


@dataclass
class Failure:
    op: int
    message: str


@dataclass
class Report:
    base_max_stem: int
    store: Any
    verdicts: list
    rows: list
    families: Any


class Workload:
    """One workload's inputs, its op, and the check of each op's output."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.engine = import_engine()
        self.golden_rows = runpy.run_path(str(GOLDEN))["ROWS"]
        self.copies = 2 if name == "delta8x2" else 0
        self.baseline: Optional[str] = None

    def op(self, i: int, call: Call = plain_call) -> Report:
        return self._report(random.Random(self.seed + i), call)

    def prepare(self) -> Optional[Failure]:
        """Untimed, before the loop: the default-schedule report on ``shipped``,
        whose ``serialize()`` every shuffled-schedule op must reproduce."""
        if self.name != "shipped":
            return None
        report = self._report(None, plain_call)
        self.baseline = report.store.serialize()
        return self.check(-1, report)

    def check(self, i: int, out: Report) -> Optional[Failure]:
        problem = self._report_problem(out)
        return Failure(i, problem) if problem else None

    @staticmethod
    def output_counts(out: Optional[Report]) -> dict:
        """Sizes of one op's outputs, for the traced run's per-layer counts."""
        if out is None:
            return {}
        return {
            "sequences.facts": len(out.store.facts),
            "sequences.derivations": len(out.store.log),
            "sequences.junctions": len(out.verdicts),
            "sequences.undetermined": sum(v.verdict == "undetermined" for v in out.verdicts),
            "families.rows": len(out.rows),
        }

    # -- ops ---------------------------------------------------------------

    def _report(self, rng: Optional[random.Random], call: Call) -> Report:
        e = self.engine
        chart = call("chartdata.load", e.chartdata.load, CHART)
        base_max_stem = chart.max_stem
        if self.copies:
            chart = call("chartdata.delta8_extend", e.chartdata.delta8_extend, chart, self.copies)
        store = call("rules.saturate", e.rules.saturate, chart, rng=rng)
        verdicts = call("sequences.check_all", e.sequences.check_all, store, chart)
        rows = call("families.build_table", e.families.build_table, store, chart)
        families = call("families.emit_families", e.families.emit_families, rows, chart)
        return Report(base_max_stem, store, verdicts, rows, families)

    # -- checks ------------------------------------------------------------

    def _report_problem(self, report: Report) -> Optional[str]:
        rows = [r for r in report.rows if r.img_p3.stem <= report.base_max_stem]
        problem = table_mismatch(rows, self.golden_rows)
        if problem:
            return problem
        diff = report.families.golden_diff()
        if diff:
            return f"families: {diff[0]}"
        if report.store.contradictions:
            return f"store contradiction: {report.store.contradictions[0].describe()}"
        bad = [v for v in report.verdicts if v.verdict == "contradiction"]
        if bad:
            return f"exactness contradiction: {bad[0].junction} {bad[0].detail}"
        if self.baseline is not None and report.store.serialize() != self.baseline:
            return "shuffled-schedule serialize() differs from the default schedule"
        return None


def table_mismatch(rows: list, golden: list) -> Optional[str]:
    """First difference between the table rows and the frozen transcription:
    row order, img(p2), img(p1), lift, display name and the (T) columns."""
    if len(rows) != len(golden):
        return f"table has {len(rows)} rows, reference has {len(golden)}"
    for row, (g_p3, g_p2, g_t2, g_p1, g_lift, g_t1, g_name) in zip(rows, golden):
        where = row.img_p3.name
        if where != g_p3:
            return f"row {where}: expected {g_p3} in this position"
        if g_t2 not in row.tech_p2:
            return f"row {where}: img(p2) technique {row.tech_p2} lacks {g_t2}"
        if g_p2 == "0":
            if row.img_p2 is None or not row.img_p2.is_zero:
                return f"row {where}: img(p2) should vanish"
            continue
        got_p2 = row.p2_element.name if row.p2_element else None
        if got_p2 != g_p2:
            return f"row {where}: img(p2) {got_p2} != {g_p2}"
        got_lift = row.lift_i1.name if row.lift_i1 else None
        if g_p1 == "0":
            if row.img_p1 is None or not row.img_p1.is_zero:
                return f"row {where}: img(p1) should vanish"
        else:
            got_p1 = row.p1_element.name if row.p1_element else None
            if got_p1 != g_p1:
                return f"row {where}: img(p1) {got_p1} != {g_p1}"
        if got_lift != g_lift:
            return f"row {where}: lift {got_lift} != {g_lift}"
        if g_t1 not in row.tech_p1:
            return f"row {where}: sphere-column technique {row.tech_p1} lacks {g_t1}"
        if row.tmf_name != g_name:
            return f"row {where}: name {row.tmf_name!r} != {g_name!r}"
    return None
