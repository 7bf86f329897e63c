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

A verdict never reads an absent dataset entry as a value.  A row whose
verdict reads the i₁-lift, the lift's Hurewicz flag or its order, where the
chart leaves that entry out, raises ``MissingPremiseError`` in
``classify_three_options``; ``emit_families`` turns each such row into an
``undetermined`` line naming the entry and still reports every family it
can decide.

The two golden sets are frozen here: the seven caseII base stems and the nine
Hurewicz-image names whose simple 2-torsion was not previously recorded
(prior-known ones carry a dataset flag and are reported but excluded from the
golden list).  ``emit_families`` does not assert them:
``FamiliesResult.golden_diff()`` compares a result against them, and
``les-deduce families`` exits 3 when it finds a difference.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .algebra import Element, Value, acyclic, new_tuple
from .chartdata import ChartFile
from .sequences import FactStore, fact_key
from .rules import fact_labels

PERIOD = 192  # every family repeats with the Δ⁸-periodicity

TRIVIAL_HUREWICZ_BASE_STEMS = frozenset({23, 47, 71, 74, 95, 119, 167})

NEW_ORDER_TWO_IMAGES = frozenset(
    {"κν", "4κ̄", "κ̄²η²", "ηΔκ̄²", "4Δ²κ̄", "κ̄⁴", "η²Δ²κ̄²", "2Δ⁴·2κ̄", "4Δ⁶κ̄"}
)


class MissingPremiseError(ValueError):
    """A row's family verdict reads a dataset entry that the chart leaves out:
    the i₁-lift, its Hurewicz flag or its order."""


def _single(value: Optional[Value]) -> Optional[Element]:
    """The element of a value with exactly one element, else None; a
    one-class span is always known."""
    if value is not None and len(value.span) == 1:
        (element,) = value.span
        return element
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
    for (name, source), value in store.facts.items():
        target = _single(value) if name == include_map else None
        if target is None:
            continue
        if target not in lifts or source < lifts[target]:
            lifts[target] = source
    return lifts


_TECHNIQUES = frozenset({"1", "2", "3", "4"})


def _ordered_labels(labels: Iterable[str]) -> Tuple[str, ...]:
    return tuple(sorted(_TECHNIQUES.intersection(labels)))


@acyclic
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
        tech_p2 = _ordered_labels(labels.get(p2_key, ()))
        img_p1: Optional[Value] = None
        lift: Optional[Element] = None
        tech_p1: Tuple[str, ...] = ()
        name: Optional[str] = None
        flagged = p2_key in contradicted
        if m is not None:
            img_p1 = store.facts.get(p1_key)
            flagged = flagged or p1_key in contradicted
            p1_labels = labels.get(p1_key, ())
            s = _single(img_p1)
            if s is not None:
                name = chart.tmf_name(s, y.key, "imgP1")
                tech_p1 = _ordered_labels(p1_labels)
            elif img_p1 is not None and img_p1.is_zero:
                lift = m_lift
                tech_p1 = _ordered_labels((*p1_labels, *labels.get(lift_key, ())))
                if lift is not None:
                    name = chart.tmf_name(lift, y.key, "lift")
        rows.append(new_tuple(TableRow, (y, p2_value, tech_p2, img_p1, lift, tech_p1, name, flagged)))
    return rows


class FamilyReport(NamedTuple):
    base_stem: int
    kind: str  # caseI | caseII | directP1
    witness: Element  # the p₃-image class anchoring the family
    hurewicz_image_name: Optional[str]

    def describe(self) -> str:
        name = f" image {self.hurewicz_image_name}" if self.hurewicz_image_name else ""
        torsion = ", simple 2-torsion" if self.kind == "directP1" else ""
        return (
            f"{self.kind}: stems {self.base_stem} + {PERIOD}k{name}{torsion} "
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
    undetermined: List[str] = field(default_factory=list)  # rows missing a premise

    def golden_diff(self) -> List[str]:
        """Differences against the frozen family sets; empty means acceptance."""
        diff: List[str] = []
        got_stems = {r.base_stem % PERIOD for r in self.case_ii}
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


def missing_lift(row: TableRow) -> Optional[str]:
    """Why ``row`` is incomplete when its p₁ image vanishes but no i₁-lift is
    recorded (exactness says one exists, so the dataset lacks it); else None."""
    if row.lift_i1 is None and row.img_p1 is not None and row.img_p1.is_zero:
        return f"row {row.img_p3.key}: p1 image vanishes but no i1-lift of {row.p2_element.key} is recorded"
    return None


def classify_three_options(row: TableRow, chart: ChartFile) -> Optional[FamilyReport]:
    """Apply the three-way family construction to one table row.

    Requires a nonzero Moore-level projection.  An absent entry is no
    verdict: a zero sphere projection with no recorded lift (exactness
    guarantees one, so the dataset lacks it), a lift with no Hurewicz flag,
    or one flagged true in stem > 3 with no order, raises
    ``MissingPremiseError`` naming the entry.  A lift flagged true in stem
    ≤ 3 lies outside the case-I hypotheses and gives None.
    """
    if row.p2_element is None:
        return None
    s = row.p1_element
    if s is not None:
        return FamilyReport(s.stem, "directP1", row.img_p3, row.tmf_name)
    if row.img_p1 is None or not row.img_p1.is_zero:
        return None
    lift = row.lift_i1
    if lift is None:
        raise MissingPremiseError(missing_lift(row))
    in_hurewicz = chart.hurewicz.get(lift.key)
    if in_hurewicz is None:
        raise MissingPremiseError(f"no Hurewicz flag for {lift.key} (hurewiczFlags), witness {row.img_p3.key}")
    if not in_hurewicz:
        return FamilyReport(lift.stem - 1, "caseII", row.img_p3, None)
    if lift.stem <= 3:
        return None
    order = chart.orders.get(lift.key)
    if order is None:
        raise MissingPremiseError(f"no order for {lift.key} (elements.order), witness {row.img_p3.key}")
    return FamilyReport(lift.stem, "caseI", row.img_p3, row.tmf_name) if order != "inf" else None


@acyclic
def emit_families(rows: List[TableRow], chart: ChartFile) -> FamiliesResult:
    """All family reports, deduplicated modulo the 192-periodicity, and a
    line for each row whose verdict misses a premise (``undetermined``).

    Prior-known simple-2-torsion images (a dataset flag sourced from the
    earlier literature) are reported separately and excluded from the golden
    directP1 list; near-duplicate display names for one sphere class are
    surfaced for human review instead of being merged.
    """
    result = FamiliesResult()
    seen: Dict[Tuple[str, int], Tuple[FamilyReport, Element]] = {}  # with the class it reports on
    names_by_element: Dict[str, set] = {}
    for row in rows:
        try:
            report = classify_three_options(row, chart)
        except MissingPremiseError as exc:
            result.undetermined.append(str(exc))
            continue
        lift = row.lift_i1
        if report is None:
            # A lift with no verdict is flagged true: a false flag gives
            # caseII and a missing one an undetermined line.
            if lift is not None and lift.stem <= 3:
                result.outside_hypotheses.append(
                    f"row {row.img_p3.key}: lift {lift.key} in stem ≤ 3, outside the "
                    f"case-I hypotheses"
                )
            continue
        element = row.p1_element if lift is None else lift
        if row.tmf_name:
            names_by_element.setdefault(element.key, set()).add(row.tmf_name)
        key = (report.kind, report.base_stem % PERIOD)
        previous = seen.get(key)
        if previous is None or report.base_stem < previous[0].base_stem:
            seen[key] = (report, element)
    for report, element in sorted(seen.values(), key=lambda kept: (kept[0].kind, kept[0].base_stem)):
        if report.kind == "caseI":
            result.case_i.append(report)
        elif report.kind == "caseII":
            result.case_ii.append(report)
        elif element.key in chart.prior_order_two:
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


def _cells(row: TableRow) -> List[str]:
    """The seven table cells of ``row``, shared by the markdown and the CSV.
    The p₁ cell is blank on a row with no Moore-level element, and the lift
    cell is "?" on a row that needs a lift and has none recorded."""
    if row.lift_i1 is not None:
        lift = row.lift_i1.name
    else:
        lift = "?" if missing_lift(row) else ""
    return [
        row.img_p3.name,
        _cell(row.img_p2),
        ",".join(row.tech_p2),
        "" if row.p2_element is None else _cell(row.img_p1),
        lift,
        ",".join(row.tech_p1),
        row.tmf_name or "",
    ]


def render_table_markdown(rows: List[TableRow]) -> str:
    lines = [
        "| img(p₃) | img(p₂) | (T) | img(p₁) | i₁⁻¹(−) | (T) | name in tmf₊ |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        cells = _cells(row)
        if row.flagged:
            cells[0] += " ⚠"
        lines.append(f"| {' | '.join(cells)} |")
    return "\n".join(lines) + "\n"


def render_table_csv(rows: List[TableRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["imgP3", "imgP2", "techP2", "imgP1", "liftI1", "techP1", "tmfName", "flagged"])
    for row in rows:
        writer.writerow([*_cells(row), "1" if row.flagged else ""])
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
