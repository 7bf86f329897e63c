"""Summary table, three-options classification, and the periodic family reports.

A table row is built for every class in the image of p₃: its projection to the
Moore module, the projection of that to the sphere, the inclusion lift when the
sphere projection vanishes, and display names.  Rows with a nonzero Moore-level
value then classify into one of three family kinds:

* ``directP1``  the sphere projection is nonzero: a 192-periodic family of
  simple 2-torsion classes with that Hurewicz image;
* ``caseI``     the projection vanishes and the lift is a torsion class inside
  the Hurewicz image (stem > 3): a family with nonzero Hurewicz image;
* ``caseII``    the lift misses the Hurewicz image entirely: a family with
  trivial Hurewicz image, one stem below the lift.

The two golden sets asserted by ``emit_families`` are frozen here: the seven
caseII base stems and the nine Hurewicz-image names whose simple 2-torsion was
not previously recorded (prior-known ones carry a dataset flag and are
reported but excluded from the golden list).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .algebra import Element, Value
from .chartdata import ChartFile
from .sequences import FactStore, fact_key
from .rules import fact_labels

TRIVIAL_HUREWICZ_BASE_STEMS = frozenset({23, 47, 71, 74, 95, 119, 167})

NEW_ORDER_TWO_IMAGES = frozenset(
    {"κν", "4κ̄", "κ̄²η²", "ηΔκ̄²", "4Δ²κ̄", "κ̄⁴", "η²Δ²κ̄²", "2Δ⁴·2κ̄", "4Δ⁶κ̄"}
)


class IncompleteRowError(ValueError):
    """A row violates the lift obligation: zero projection but no lift found."""


def _single(value: Optional[Value]) -> Optional[Element]:
    """The element of a known value with exactly one element, else None."""
    if value is not None and value.is_known and len(value.span) == 1:
        return next(iter(value.span))
    return None


class TableRow(NamedTuple):
    img_p3: Element
    img_p2: Optional[Value]  # None = unknown
    tech_p2: Tuple[str, ...]
    img_p1: Optional[Value]
    lift_i1: Optional[Element]
    tech_p1: Tuple[str, ...]
    tmf_name: Optional[str]
    flagged: bool = False

    @property
    def p2_element(self) -> Optional[Element]:
        return _single(self.img_p2)

    @property
    def p1_element(self) -> Optional[Element]:
        return _single(self.img_p1)


def _minimal_lifts(store: FactStore, include_map: str) -> Dict[Element, Element]:
    """Target → least source among the ``include_map`` facts valued exactly that target."""
    lifts: Dict[Element, Element] = {}
    for key, value in store.facts.items():
        name, _, _ = key.partition("|")
        target = _single(value) if name == include_map else None
        if target is None:
            continue
        source = store.sources[key]
        if target not in lifts or source < lifts[target]:
            lifts[target] = source
    return lifts


def _ordered_labels(labels: FrozenSet[str]) -> Tuple[str, ...]:
    return tuple(sorted(label for label in labels if label in {"1", "2", "3", "4"}))


def build_table(store: FactStore, chart: ChartFile) -> List[TableRow]:
    """One row per image-of-p₃ class, sorted by (stem, filtration).

    Emission is a pure function of the saturated store; unknown values are
    rendered explicitly, and rows touched by a contradiction are flagged but
    still emitted.
    """
    contradicted = {c.fact for c in store.contradictions}
    lifts = _minimal_lifts(store, "i1")
    p2_keys = [fact_key("p2", y) for y in store.p3_image]
    moore = [_single(store.facts.get(key)) for key in p2_keys]
    p1_keys = [None if m is None else fact_key("p1", m) for m in moore]
    lift_list = [lifts.get(m) for m in moore]
    lift_keys = [None if lift is None else fact_key("i1", lift) for lift in lift_list]
    labels = fact_labels(store, {*p2_keys, *p1_keys, *lift_keys} - {None})
    rows: List[TableRow] = []
    rows_in = zip(store.p3_image, p2_keys, moore, p1_keys, lift_list, lift_keys)
    for y, p2_key, m, p1_key, m_lift, lift_key in rows_in:
        p2_value = store.facts.get(p2_key)
        tech_p2 = _ordered_labels(labels.get(p2_key, frozenset()))
        img_p1: Optional[Value] = None
        lift: Optional[Element] = None
        tech_p1: Tuple[str, ...] = ()
        name: Optional[str] = None
        flagged = p2_key in contradicted
        if m is not None:
            img_p1 = store.facts.get(p1_key)
            flagged = flagged or p1_key in contradicted
            p1_labels = labels.get(p1_key, frozenset())
            s = _single(img_p1)
            if s is not None:
                name = chart.tmf_name(s, y.key, "imgP1")
                tech_p1 = _ordered_labels(p1_labels)
            elif img_p1 is not None and img_p1.is_zero:
                lift = m_lift
                tech_p1 = _ordered_labels(p1_labels | labels.get(lift_key, frozenset()))
                if lift is not None:
                    name = chart.tmf_name(lift, y.key, "lift")
        rows.append(
            TableRow(y, p2_value, tech_p2, img_p1, lift, tech_p1, name, flagged)
        )
    return rows


class FamilyReport(NamedTuple):
    base_stem: int
    period: int
    kind: str  # caseI | caseII | directP1
    witness: Element  # the p₃-image class anchoring the family
    hurewicz_image_name: Optional[str]

    def describe(self) -> str:
        name = f" image {self.hurewicz_image_name}" if self.hurewicz_image_name else ""
        torsion = ", simple 2-torsion" if self.kind == "directP1" else ""
        return (
            f"{self.kind}: stems {self.base_stem} + {self.period}k{name}{torsion} "
            f"(witness {self.witness.key})"
        )


@dataclass
class FamiliesResult:
    case_i: List[FamilyReport] = field(default_factory=list)
    case_ii: List[FamilyReport] = field(default_factory=list)
    direct_p1: List[FamilyReport] = field(default_factory=list)
    suppressed_direct_p1: List[FamilyReport] = field(default_factory=list)
    outside_hypotheses: List[str] = field(default_factory=list)
    review_notes: List[str] = field(default_factory=list)

    def golden_diff(self) -> List[str]:
        """Differences against the frozen family sets; empty means acceptance."""
        diff: List[str] = []
        got_stems = {r.base_stem % 192 for r in self.case_ii}
        if got_stems != TRIVIAL_HUREWICZ_BASE_STEMS:
            missing = sorted(TRIVIAL_HUREWICZ_BASE_STEMS - got_stems)
            extra = sorted(got_stems - TRIVIAL_HUREWICZ_BASE_STEMS)
            diff.append(f"caseII base stems: missing {missing}, unexpected {extra}")
        if len(self.case_ii) != len(TRIVIAL_HUREWICZ_BASE_STEMS):
            diff.append(f"caseII count {len(self.case_ii)} != {len(TRIVIAL_HUREWICZ_BASE_STEMS)}")
        got_names = {r.hurewicz_image_name for r in self.direct_p1}
        if got_names != NEW_ORDER_TWO_IMAGES:
            missing = sorted(NEW_ORDER_TWO_IMAGES - got_names)
            extra = sorted(str(n) for n in got_names - NEW_ORDER_TWO_IMAGES)
            diff.append(f"directP1 names: missing {missing}, unexpected {extra}")
        return diff


def classify_three_options(row: TableRow, chart: ChartFile) -> Optional[FamilyReport]:
    """Apply the three-way family construction to one table row.

    Requires a nonzero Moore-level projection.  A zero sphere projection with
    no recorded lift is an error: exactness guarantees a lift exists, so its
    absence means the dataset is incomplete.
    """
    m = row.p2_element
    if m is None:
        return None
    s = row.p1_element
    if s is not None:
        return FamilyReport(
            base_stem=s.stem,
            period=192,
            kind="directP1",
            witness=row.img_p3,
            hurewicz_image_name=row.tmf_name,
        )
    if row.img_p1 is None or not row.img_p1.is_zero:
        return None
    lift = row.lift_i1
    if lift is None:
        raise IncompleteRowError(
            f"row {row.img_p3.key}: p1 image vanishes but no i1-lift of {m.key} is recorded"
        )
    in_hurewicz = chart.hurewicz.get(lift.key, False)
    torsion = chart.orders.get(lift.key) not in (None, "inf")
    if in_hurewicz and torsion and lift.stem > 3:
        return FamilyReport(
            base_stem=lift.stem,
            period=192,
            kind="caseI",
            witness=row.img_p3,
            hurewicz_image_name=row.tmf_name,
        )
    if not in_hurewicz:
        return FamilyReport(
            base_stem=lift.stem - 1,
            period=192,
            kind="caseII",
            witness=row.img_p3,
            hurewicz_image_name=None,
        )
    return None


def emit_families(rows: List[TableRow], chart: ChartFile) -> FamiliesResult:
    """All family reports, deduplicated modulo the 192-periodicity.

    Prior-known simple-2-torsion images (a dataset flag sourced from the
    earlier literature) are reported separately and excluded from the golden
    directP1 list; near-duplicate display names for one sphere class are
    surfaced for human review instead of being merged.
    """
    result = FamiliesResult()
    seen: Dict[Tuple[str, int], Tuple[FamilyReport, TableRow]] = {}
    names_by_element: Dict[str, set] = {}
    for row in rows:
        m = row.p2_element
        if m is None:
            continue
        if (
            row.img_p1 is not None
            and row.img_p1.is_zero
            and row.lift_i1 is not None
            and chart.hurewicz.get(row.lift_i1.key, False)
            and row.lift_i1.stem <= 3
        ):
            result.outside_hypotheses.append(
                f"row {row.img_p3.key}: lift {row.lift_i1.key} in stem ≤ 3, outside the "
                f"case-I hypotheses"
            )
        report = classify_three_options(row, chart)
        if report is None:
            continue
        for element in (row.p1_element, row.lift_i1):
            if element is not None and row.tmf_name:
                names_by_element.setdefault(element.key, set()).add(row.tmf_name)
        key = (report.kind, report.base_stem % 192)
        previous = seen.get(key)
        if previous is None or report.base_stem < previous[0].base_stem:
            seen[key] = (report, row)
    for report, row in sorted(seen.values(), key=lambda kept: (kept[0].kind, kept[0].base_stem)):
        if report.kind == "caseI":
            result.case_i.append(report)
        elif report.kind == "caseII":
            result.case_ii.append(report)
        elif row.p1_element.key in chart.prior_order_two:
            result.suppressed_direct_p1.append(report)
        else:
            result.direct_p1.append(report)
    for element_key, names in sorted(names_by_element.items()):
        if len(names) > 1:
            result.review_notes.append(
                f"{element_key} appears under distinct names {sorted(names)}; "
                f"kept verbatim, flagged for review"
            )
    return result


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _cell(value: Optional[Value]) -> str:
    if value is None:
        return "?"
    if value.is_zero:
        return "0"
    if not value.is_known:
        return "≠0"
    return ", ".join(sorted(e.name for e in value.span))


def render_table_markdown(rows: List[TableRow]) -> str:
    header = "| img(p₃) | img(p₂) | (T) | img(p₁) | i₁⁻¹(−) | (T) | name in tmf₊ |"
    sep = "|---|---|---|---|---|---|---|"
    lines = [header, sep]
    for row in rows:
        p2 = _cell(row.img_p2)
        t2 = ",".join(row.tech_p2)
        if row.p2_element is None:
            p1 = lift = t1 = name = ""
        else:
            p1 = _cell(row.img_p1)
            lift = row.lift_i1.name if row.lift_i1 is not None else ""
            t1 = ",".join(row.tech_p1)
            name = row.tmf_name or ""
        mark = " ⚠" if row.flagged else ""
        lines.append(
            f"| {row.img_p3.name}{mark} | {p2} | {t2} | {p1} | {lift} | {t1} | {name} |"
        )
    return "\n".join(lines) + "\n"


def render_table_csv(rows: List[TableRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["imgP3", "imgP2", "techP2", "imgP1", "liftI1", "techP1", "tmfName", "flagged"])
    for row in rows:
        writer.writerow(
            [
                row.img_p3.name,
                _cell(row.img_p2),
                ",".join(row.tech_p2),
                _cell(row.img_p1) if row.p2_element is not None else "",
                row.lift_i1.name if row.lift_i1 is not None else "",
                ",".join(row.tech_p1),
                row.tmf_name or "",
                "1" if row.flagged else "",
            ]
        )
    return buffer.getvalue()


def table_document(rows: List[TableRow]) -> List[dict]:
    out = []
    for row in rows:
        out.append(
            {
                "imgP3": row.img_p3.key,
                "imgP2": row.img_p2.serialize() if row.img_p2 is not None else None,
                "techP2": list(row.tech_p2),
                "imgP1": row.img_p1.serialize() if row.img_p1 is not None else None,
                "liftI1": row.lift_i1.key if row.lift_i1 is not None else None,
                "techP1": list(row.tech_p1),
                "tmfName": row.tmf_name,
                "flagged": row.flagged,
            }
        )
    return out


def render_table_json(rows: List[TableRow]) -> str:
    return json.dumps(table_document(rows), ensure_ascii=False, indent=1) + "\n"
