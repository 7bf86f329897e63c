"""Dataset loading, validation, periodic expansion, and the Δ⁸ extension."""

import json

import pytest

from les_deduce import chartdata
from les_deduce.algebra import ModuleId
from les_deduce.chartdata import (
    ChartValidationError,
    delta8_extend,
    expand_periodic,
    monomial_name_m,
    monomial_name_y,
)

from golden_table import ROWS

MINIMAL = {
    "schemaVersion": "1",
    "maxStem": 10,
    "generators": [{"name": "η", "stem": 1, "filtration": 1}],
    "elements": [],
    "actions": [],
    "classifications": [],
    "hurewiczFlags": {},
    "exceptionalSets": {"EM": [], "FS": [], "FM": [], "delta8Closure": False},
    "ranks": [],
    "axioms": [],
    "tmfNameOverrides": [],
    "periodicPresentations": {},
}


class TestLoad:
    def test_shipped_dataset_elements(self, chart):
        for img_p3, *_ in ROWS:
            assert f"Y:{img_p3}" in chart.elements
        assert chart.element("Y:y_{3,1}").stem == 3
        assert chart.element("Y:y_{170,4}").filtration == 4

    def test_empty_dataset_is_valid(self):
        chart = chartdata.from_document(dict(MINIMAL))
        assert chart.elements == {}

    def test_degree_mismatch_rejected(self):
        doc = dict(MINIMAL)
        doc["elements"] = [
            {"module": "Y", "name": "a", "stem": 4, "filtration": 1},
            {"module": "Y", "name": "b", "stem": 6, "filtration": 2},
        ]
        doc["actions"] = [{"generator": "η", "source": "Y:a", "value": ["Y:b"]}]
        with pytest.raises(ChartValidationError, match="stem"):
            chartdata.from_document(doc)

    def test_dangling_reference_rejected(self):
        doc = dict(MINIMAL)
        doc["actions"] = [{"generator": "η", "source": "Y:ghost", "value": []}]
        with pytest.raises(ChartValidationError, match="ghost"):
            chartdata.from_document(doc)

    def test_unknown_field_rejected(self):
        doc = dict(MINIMAL)
        doc["surprise"] = 1
        with pytest.raises(ChartValidationError, match="surprise"):
            chartdata.from_document(doc)

    def test_exceptional_listing_pinned(self):
        doc = dict(MINIMAL)
        doc["exceptionalSets"] = {
            "EM": ["Δη"],
            "FS": [],
            "FM": [],
            "delta8Closure": False,
        }
        with pytest.raises(ChartValidationError, match="EM"):
            chartdata.from_document(doc)

    def test_rank_dimensions_checked(self):
        doc = dict(MINIMAL)
        doc["elements"] = [
            {"module": "Y", "name": "y_{8,2}", "stem": 8, "filtration": 2},
            {"module": "M", "name": "m_{6,2}", "stem": 6, "filtration": 2},
        ]
        doc["classifications"] = [
            {"element": "Y:y_{8,2}", "context": "LES-2.3", "kind": "torsion"}
        ]
        doc["ranks"] = [
            {
                "context": "SES-2.8",
                "stem": 8,
                "cokernel": ["M:m_{6,2}"],
                "middle": ["Y:y_{8,2}"],
                "kernel": ["M:m_{6,2}"],
            }
        ]
        with pytest.raises(ChartValidationError, match="stem 8"):
            chartdata.from_document(doc)

    def test_elements_of_is_sorted_per_degree(self, chart):
        ys = chart.elements_of(ModuleId.Y)
        assert ys == sorted(e for e in chart.elements.values() if e.module is ModuleId.Y)
        assert chart.elements_of(ModuleId.Y, 45) == [e for e in ys if e.stem == 45]
        assert chart.elements_of(ModuleId.Y, 500) == []

    def test_classification_lookup(self, chart):
        from les_deduce.algebra import ClassificationKind, LesContext

        m50 = chart.element("M:m_{50,6}")
        assert chart.classification(m50, LesContext.LES_23) is ClassificationKind.PERIODIC_EXCEPTIONAL
        assert chart.classification(m50, LesContext.LES_24) is not ClassificationKind.PERIODIC_EXCEPTIONAL
        assert chart.classification(chart.element("Y:y_{3,1}"), LesContext.LES_24) is None

    def test_round_trip_is_byte_exact(self, chart):
        text = chartdata.dumps(chart)
        again = chartdata.dumps(chartdata.loads(text))
        assert text == again


class TestExpandPeriodic:
    def test_y_bound_24(self):
        names = {m.element.name for m in expand_periodic(ModuleId.Y, 24)}
        assert "1" in names
        assert monomial_name_y(1, 1) not in names  # stem 26 is out of bound
        for v in range(13):
            assert monomial_name_y(0, v) in names

    def test_m_bound_6_is_one_lightning_flash(self):
        monomials = expand_periodic(ModuleId.M, 6)
        names = [m.element.name for m in monomials]
        assert names == [
            monomial_name_m(0, 0, 0),
            monomial_name_m(0, 0, 1),
            monomial_name_m(0, 1, 0),
            monomial_name_m(0, 0, 2),
            monomial_name_m(0, 1, 1),
            monomial_name_m(0, 1, 2),
        ]

    def test_bound_zero(self):
        for module in (ModuleId.Y, ModuleId.M, ModuleId.S):
            monomials = expand_periodic(module, 0)
            assert monomials
            assert all(m.stem == 0 for m in monomials)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            expand_periodic(ModuleId.Y, -1)

    def test_y_generating_set_reproduced(self):
        # The eight generator monomials over F₂[v₁, Δ⁸] at their minimal stems.
        names = {m.element.name for m in expand_periodic(ModuleId.Y, 176)}
        for n, v in ((0, 0), (1, 1), (2, 2), (3, 3), (4, 1), (5, 2), (6, 3), (7, 4)):
            assert monomial_name_y(n, v) in names

    def test_y_delta8_periodicity(self):
        bound = 250
        monomials = expand_periodic(ModuleId.Y, bound)
        index = {(m.delta, m.v1) for m in monomials}
        for n, v in index:
            if 24 * (n + 8) + 2 * v <= bound:
                assert (n + 8, v) in index
            if n >= 8:
                assert (n - 8, v) in index

    def test_exceptional_monomials_exist_in_m_expansion(self, chart):
        names = {m.element.name for m in expand_periodic(ModuleId.M, 176)}
        for monomial in chart.exceptional_sets["EM"] + chart.exceptional_sets["FM"]:
            assert monomial in names

    def test_m_k0_fraction_is_dataset_driven(self, chart):
        # The shipped presentation matches the default fraction; emptying it
        # must remove the k = 0 lifts from the expansion.
        default = expand_periodic(ModuleId.M, 60, chart.periodic_presentations)
        bare = expand_periodic(
            ModuleId.M, 60, {"M": {"k0Positions": {str(i): [] for i in range(8)}}}
        )
        assert {m.element.name for m in bare} < {m.element.name for m in default}
        assert all(m.v1 >= 4 for m in bare)


class TestDelta8Extend:
    def test_copies_one_replicates_elements(self, chart):
        ext = delta8_extend(chart, 1)
        assert "Y:y_{195,1}" in ext.elements
        assert ext.element("Y:y_{195,1}").stem == 195
        assert ext.tmf_names["S:s_{216,0}"] == "Δ⁸·8Δ"

    def test_copies_zero_identity(self, chart):
        assert delta8_extend(chart, 0) is chart

    def test_nu_multiple_flag_not_replicated(self, chart):
        ext = delta8_extend(chart, 1)
        assert chart.hurewicz["S:s_{3,1}"] is True
        assert ext.hurewicz["S:s_{195,1}"] is False

    def test_composition(self, chart):
        once_twice = delta8_extend(delta8_extend(chart, 1), 1)
        straight = delta8_extend(chart, 2)
        assert set(once_twice.elements) == set(straight.elements)

    def test_reextension_is_idempotent_on_copies(self, chart):
        # The k = 1 copies of an extended chart are re-created identically and
        # must not count as collisions.
        ext = delta8_extend(chart, 1)
        again = delta8_extend(ext, 1)
        assert "Y:y_{195,1}" in again.elements

    def test_name_collision_detected(self):
        doc = dict(MINIMAL)
        doc["elements"] = [
            {"module": "Y", "name": "blob", "stem": 3, "filtration": 1},
            {"module": "Y", "name": "blob·Δ⁸", "stem": 7, "filtration": 1},
        ]
        chart = chartdata.from_document(doc)
        with pytest.raises(ChartValidationError, match="collision"):
            delta8_extend(chart, 1)
