"""Table rows, the three-way family classification, and the family reports."""

import dataclasses
import json
import re

import pytest

from les_deduce import chartdata
from les_deduce.families import (
    MissingPremiseError,
    TRIVIAL_HUREWICZ_BASE_STEMS,
    NEW_ORDER_TWO_IMAGES,
    build_table,
    classify_three_options,
    emit_families,
    render_table_csv,
    render_table_json,
    render_table_markdown,
)
from les_deduce.rules import saturate

from conftest import DATA

def row_by_name(rows, name):
    return next(r for r in rows if r.img_p3.name == name)


@pytest.fixture(scope="module")
def rows(store, chart):
    return build_table(store, chart)


class TestBuildTable:
    def test_row_y_26_4(self, rows):
        row = row_by_name(rows, "y_{26,4}")
        assert {e.name for e in row.img_p2.span} == {"m_{24,6}"}
        assert "2" in row.tech_p2
        assert row.img_p1.is_zero
        assert row.lift_i1.name == "s_{24,0}"
        assert row.tmf_name == "8Δ"

    def test_row_y_20_2(self, rows):
        row = row_by_name(rows, "y_{20,2}")
        assert {e.name for e in row.img_p2.span} == {"m_{18,2}"}
        assert "3" in row.tech_p2
        assert {e.name for e in row.img_p1.span} == {"s_{17,2}"}
        assert row.lift_i1 is None
        assert row.tmf_name == "κν"

    def test_row_y_3_1(self, rows):
        row = row_by_name(rows, "y_{3,1}")
        assert row.img_p2.is_zero
        assert row.img_p1 is None and row.lift_i1 is None and row.tmf_name is None

    def test_per_row_name_override(self, rows):
        assert row_by_name(rows, "y_{118,8}").tmf_name == "2Δ⁴κ̄"
        assert row_by_name(rows, "y_{119,3}").tmf_name == "2Δ⁴·2κ̄"

    def test_rows_sorted(self, rows):
        keys = [(r.img_p3.stem, r.img_p3.filtration) for r in rows]
        assert keys == sorted(keys)


class TestClassifyThreeOptions:
    def test_case_ii(self, rows, chart):
        report = classify_three_options(row_by_name(rows, "y_{26,4}"), chart)
        assert report.kind == "caseII" and report.base_stem == 23

    def test_direct_p1(self, rows, chart):
        report = classify_three_options(row_by_name(rows, "y_{20,2}"), chart)
        assert report.kind == "directP1"
        assert report.base_stem == 17
        assert report.describe().endswith(", simple 2-torsion (witness Y:y_{20,2})")
        assert report.hurewicz_image_name == "κν"

    def test_case_i(self, rows, chart):
        report = classify_three_options(row_by_name(rows, "y_{8,2}"), chart)
        assert report.kind == "caseI" and report.base_stem == 6

    def test_zero_projection_gives_nothing(self, rows, chart):
        assert classify_three_options(row_by_name(rows, "y_{3,1}"), chart) is None

    def test_missing_lift_is_an_error(self, rows, chart):
        # The lift is a premise like its flag: no verdict, and a line naming it.
        row = row_by_name(rows, "y_{26,4}")
        broken = row._replace(lift_i1=None)
        line = "row Y:y_{26,4}: p1 image vanishes but no i1-lift of M:m_{24,6} is recorded"
        with pytest.raises(MissingPremiseError, match=re.escape(line)):
            classify_three_options(broken, chart)
        result = emit_families([broken], chart)
        assert result.undetermined == [line]
        assert result.case_ii == [] and result.outside_hypotheses == []

    def test_low_stem_lift_reported_not_dropped(self, rows, chart):
        # A Hurewicz-image torsion lift in stem ≤ 3 falls outside the case-I
        # hypotheses: no family, but the row is surfaced for review.
        row = row_by_name(rows, "y_{8,2}")
        low = row._replace(lift_i1=chart.elements["S:s_{3,1}"])
        assert classify_three_options(low, chart) is None
        result = emit_families([low], chart)
        assert result.case_i == [] and result.case_ii == []
        assert any("stem ≤ 3" in note for note in result.outside_hypotheses)


class TestEmitFamilies:
    def test_golden_sets(self, rows, chart):
        result = emit_families(rows, chart)
        assert {r.base_stem for r in result.case_ii} == TRIVIAL_HUREWICZ_BASE_STEMS
        assert {r.hurewicz_image_name for r in result.direct_p1} == NEW_ORDER_TWO_IMAGES
        assert all("simple 2-torsion" in r.describe() for r in result.direct_p1)
        assert not any("2-torsion" in r.describe() for r in result.case_i + result.case_ii)
        assert result.golden_diff() == []
        assert result.undetermined == []

    def test_case_ii_lifts_outside_hurewicz_image(self, rows, chart):
        result = emit_families(rows, chart)
        for report in result.case_ii:
            row = next(r for r in rows if r.img_p3 == report.witness)
            assert chart.hurewicz[row.lift_i1.key] is False

    def test_every_witness_traces_to_nonzero_projection(self, rows, chart, store):
        from les_deduce.sequences import fact_key

        result = emit_families(rows, chart)
        for report in result.case_i + result.case_ii + result.direct_p1:
            key = fact_key("p2", report.witness)
            value = store.facts[key]
            assert value.is_known and value.span
            assert store.derivations[key]

    def test_family_stems_stable_under_two_copies(self, chart):
        from les_deduce.chartdata import delta8_extend

        ext = delta8_extend(chart, 2)
        store = saturate(ext)
        result = emit_families(build_table(store, ext), ext)
        assert {r.base_stem % 192 for r in result.case_ii} == TRIVIAL_HUREWICZ_BASE_STEMS
        assert result.undetermined == []

    def test_every_row_missing_a_lift_is_named(self, rows, chart, chart_document):
        # Without ranks[80], y_{82,6} and y_{102,10} lose their lifts: both
        # rows are named, and every other family is still reported.
        doc = json.loads(json.dumps(chart_document))
        del doc["ranks"][80]
        broken = chartdata.from_document(doc)
        result = emit_families(build_table(saturate(broken), broken), broken)
        assert result.undetermined == [
            "row Y:y_{82,6}: p1 image vanishes but no i1-lift of M:m_{80,16} is recorded",
            "row Y:y_{102,10}: p1 image vanishes but no i1-lift of M:m_{100,20} is recorded",
        ]
        full = emit_families(rows, chart)
        dropped = {"Y:y_{82,6}", "Y:y_{102,10}"}
        assert result.case_i == [r for r in full.case_i if r.witness.key not in dropped]
        assert (result.case_ii, result.direct_p1) == (full.case_ii, full.direct_p1)
        assert result.suppressed_direct_p1 == full.suppressed_direct_p1
        assert result.review_notes == full.review_notes

    def test_prior_known_images_reported_separately(self, rows, chart):
        result = emit_families(rows, chart)
        suppressed = {r.hurewicz_image_name for r in result.suppressed_direct_p1}
        assert "ηΔκ̄³" in suppressed and "κ̄⁵" in suppressed
        assert suppressed.isdisjoint(NEW_ORDER_TWO_IMAGES)

    def test_near_duplicate_name_flagged(self, rows, chart):
        result = emit_families(rows, chart)
        assert any("s_{116,4}" in note for note in result.review_notes)

    def test_truncated_dataset_drops_high_families(self, chart_document):
        doc = json.loads(json.dumps(chart_document))
        keep = {
            e["module"] + ":" + e["name"] for e in doc["elements"] if e["stem"] < 160
        }
        doc["elements"] = [e for e in doc["elements"] if e["module"] + ":" + e["name"] in keep]
        doc["actions"] = [
            a
            for a in doc["actions"]
            if a["source"] in keep and all(v in keep for v in a.get("value") or [])
        ]
        doc["classifications"] = [c for c in doc["classifications"] if c["element"] in keep]
        doc["hurewiczFlags"] = {k: v for k, v in doc["hurewiczFlags"].items() if k in keep}
        doc["ranks"] = [
            r
            for r in doc["ranks"]
            if all(v in keep for v in r["middle"])
            and all(v in keep for v in r["cokernel"] or [])
            and all(v in keep for v in r["kernel"] or [])
        ]
        doc["axioms"] = [
            a for a in doc["axioms"] if a["source"] in keep and all(v in keep for v in a["value"])
        ]
        truncated = chartdata.from_document(doc)
        store = saturate(truncated)
        rows = build_table(store, truncated)
        result = emit_families(rows, truncated)
        stems = {r.base_stem for r in result.case_ii}
        assert 167 not in stems
        assert {23, 47, 71, 74, 95, 119} <= stems


SHIPPED_TEXT = DATA.read_text(encoding="utf-8")
SHIPPED = json.loads(SHIPPED_TEXT)
# (what is deleted, the element it is about, the line a verdict that reads it gives)
PREMISES = [
    (("hurewiczFlags", key), key, "no Hurewicz flag for {} (hurewiczFlags)") for key in SHIPPED["hurewiczFlags"]
] + [
    (("elements", i, "order"), f"{e['module']}:{e['name']}", "no order for {} (elements.order)")
    for i, e in enumerate(SHIPPED["elements"]) if "order" in e
]


def _reads(row, chart, key, deleted):
    """Whether the verdict on ``row`` reads the entry ``deleted`` about ``key``:
    a zero sphere projection reads its lift's flag, and, where that flag is
    true and the lift lies above stem 3, its lift's order."""
    lift = row.lift_i1
    if row.p2_element is None or row.img_p1 is None or not row.img_p1.is_zero or lift is None or lift.key != key:
        return False
    return deleted[0] == "hurewiczFlags" or (chart.hurewicz.get(key) is True and lift.stem > 3)


class TestMissingPremises:
    """An absent flag or order is no verdict.  Deleting one raises a located
    ``ChartValidationError``, leaves every report as it was, or turns exactly
    the verdicts that read it into ``undetermined`` lines that name it; it
    never adds or changes a caseII or directP1 report."""

    @pytest.fixture(scope="class")
    def base(self):
        chart = chartdata.loads(SHIPPED_TEXT)
        rows = build_table(saturate(chart), chart)
        return render_table_json(rows), emit_families(rows, chart)

    def test_counts(self):
        assert [deleted[0] for deleted, _, _ in PREMISES].count("hurewiczFlags") == 42
        assert [deleted[0] for deleted, _, _ in PREMISES].count("elements") == 42

    @pytest.mark.parametrize("deleted, key, line", PREMISES, ids=[f"{d[0]}-{k}" for d, k, _ in PREMISES])
    def test_single_deletion(self, base, deleted, key, line):
        table, families = base
        doc = json.loads(SHIPPED_TEXT)
        entry = doc
        for step in deleted[:-1]:
            entry = entry[step]
        del entry[deleted[-1]]
        try:
            chart = chartdata.from_document(doc)
        except chartdata.ChartValidationError as error:
            assert re.match(r"\w+\[\d+\]: ", str(error)), str(error)
            return
        rows = build_table(saturate(chart), chart)
        assert render_table_json(rows) == table
        result = emit_families(rows, chart)
        readers = [row for row in rows if _reads(row, chart, key, deleted)]
        assert result.undetermined == [f"{line.format(key)}, witness {row.img_p3.key}" for row in readers]
        expected = emit_families([row for row in rows if row not in readers], chart)
        assert dataclasses.replace(result, undetermined=[]) == expected
        for got, was in ((result.case_ii, families.case_ii), (result.direct_p1, families.direct_p1)):
            assert set(got) <= set(was)
        assert result.suppressed_direct_p1 == families.suppressed_direct_p1


class TestRendering:
    def test_markdown_byte_stable(self, rows, chart, store):
        first = render_table_markdown(rows)
        second = render_table_markdown(build_table(store, chart))
        assert first == second
        assert first.splitlines()[2].startswith("| y_{3,1} |")

    def test_csv_and_json_forms(self, rows):
        csv_text = render_table_csv(rows)
        assert csv_text.count("\n") == len(rows) + 1
        doc = json.loads(render_table_json(rows))
        assert len(doc) == len(rows)
        assert doc[0]["imgP3"] == "Y:y_{3,1}"
