"""Table rows, the three-way family classification, and the family reports."""

import json

import pytest

from les_deduce import chartdata
from les_deduce.families import (
    IncompleteRowError,
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
        row = row_by_name(rows, "y_{26,4}")
        broken = row._replace(lift_i1=None)
        with pytest.raises(IncompleteRowError):
            classify_three_options(broken, chart)
        with pytest.raises(IncompleteRowError):
            emit_families([broken], chart)

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
            assert value.is_known_nonzero
            assert store.derivations[key]

    def test_family_stems_stable_under_two_copies(self, chart):
        from les_deduce.chartdata import delta8_extend

        ext = delta8_extend(chart, 2)
        store = saturate(ext)
        result = emit_families(build_table(store, ext), ext)
        assert {r.base_stem % 192 for r in result.case_ii} == TRIVIAL_HUREWICZ_BASE_STEMS

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
