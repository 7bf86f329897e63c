"""Dataset loading, validation, periodic expansion, and the Δ⁸ extension."""

import importlib.util
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from les_deduce import chartdata
from les_deduce.algebra import ModuleId
from les_deduce.chartdata import (
    ChartValidationError,
    delta8_extend,
    expand_periodic,
    monomial_name_m,
    monomial_name_y,
)

from les_deduce.cli import main
from les_deduce.rules import saturate

from conftest import DATA, REPO
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
        assert chart.elements["Y:y_{3,1}"].stem == 3
        assert chart.elements["Y:y_{170,4}"].filtration == 4

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

        m50 = chart.elements["M:m_{50,6}"]
        assert chart.classification(m50, LesContext.LES_23) is ClassificationKind.PERIODIC_EXCEPTIONAL
        assert chart.classification(m50, LesContext.LES_24) is not ClassificationKind.PERIODIC_EXCEPTIONAL
        assert chart.classification(chart.elements["Y:y_{3,1}"], LesContext.LES_24) is None

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
        assert ext.elements["Y:y_{195,1}"].stem == 195
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
        with pytest.raises(ChartValidationError, match="Y:blob·Δ⁸"):
            delta8_extend(chart, 1)


_DELETE = object()


def _set(path, value):
    """A mutation that sets the entry at ``path`` to ``value``, or deletes it."""

    def mutate(doc):
        for step in path[:-1]:
            doc = doc[step]
        if value is _DELETE:
            del doc[path[-1]]
        else:
            doc[path[-1]] = value

    return mutate


SHIPPED_TEXT = DATA.read_text(encoding="utf-8")
SHIPPED = json.loads(SHIPPED_TEXT)
V1_ON_Y44 = next(
    ("actions", i)
    for i, action in enumerate(SHIPPED["actions"])
    if (action["generator"], action["source"]) == ("v₁", "Y:y_{44,8}")
)

Y50_IN_LES23 = next(
    ("classifications", i)
    for i, c in enumerate(SHIPPED["classifications"])
    if (c["element"], c["context"]) == ("Y:y_{50,4}", "LES-2.3")
)


# (mutation of the shipped document, location the error must name)
MALFORMED = {
    "element-without-module": (_set(("elements", 0, "module"), _DELETE), r"elements\[0\]"),
    "action-without-generator": (_set(("actions", 0, "generator"), _DELETE), r"actions\[0\]"),
    "axiom-without-map": (_set(("axioms", 0, "map"), _DELETE), r"axioms\[0\]"),
    "stem-not-a-number": (_set(("elements", 0, "stem"), "x"), r"elements\[0\]: stem"),
    "stem-as-string": (_set(("elements", 0, "stem"), "6"), r"elements\[0\]: stem"),
    "unknown-module": (_set(("elements", 0, "module"), "Q"), r"elements\[0\]: unknown module"),
    "unknown-context": (
        _set(("classifications", 0, "context"), "LES-9"),
        r"classifications\[0\]: unknown context",
    ),
    "elements-as-object": (_set(("elements",), {}), "top level: elements"),
    "unknown-axiom-map": (_set(("axioms", 0, "map"), "nosuch"), r"axioms\[0\]: unknown map"),
    "hurewicz-flag-not-bool": (
        _set(("hurewiczFlags", "S:s_{100,20}"), "no"),
        r"hurewiczFlags\['S:s_\{100,20\}'\]: must be a boolean",
    ),
    "negative-max-stem": (_set(("maxStem",), -1), "top level: maxStem"),
    "flash-positions-not-a-list": (
        _set(("periodicPresentations", "M", "k0Positions", "3"), 5),
        "periodicPresentations.M.k0Positions",
    ),
    "min-v1-not-an-integer": (
        _set(("periodicPresentations", "Y", "minV1ByDeltaMod8", 0), "0"),
        "periodicPresentations.Y",
    ),
    "torsion-y-without-v1-action": (
        _set(V1_ON_Y44, _DELETE),
        r"torsion class Y:y_\{44,8\} in LES-2.3 has no v₁ action",
    ),
    "axiom-source-off-spec": (
        _set(("axioms", 0), {"map": "p2", "source": "S:s_{3,1}", "value": ["Y:y_{44,8}"]}),
        r"axiom p2\(S:s_\{3,1\}\): source must live in module Y",
    ),
    "axiom-value-module-off-spec": (
        _set(("axioms", 0, "value"), ["Y:y_{44,8}"]),
        r"axiom p2\(Y:y_\{30,2\}\): Y:y_\{44,8\} should live in module M at stem 28",
    ),
    "axiom-value-stem-off-spec": (
        _set(("axioms", 0, "value"), ["M:m_{80,16}"]),
        r"axiom p2\(Y:y_\{30,2\}\): M:m_\{80,16\} should live in module M at stem 28",
    ),
    "exceptional-without-route": (
        _set(Y50_IN_LES23 + ("kind",), "periodicExceptional"),
        r"classification: Y:y_\{50,4\} marked exceptional in LES-2.3, but no exceptional listing",
    ),
}


def _sites(node, path=()):
    """(path, value) of every record, field and list entry below ``node``."""
    children = node.items() if type(node) is dict else enumerate(node) if type(node) is list else ()
    for key, child in children:
        yield path + (key,), child
        yield from _sites(child, path + (key,))


SITES = list(_sites(SHIPPED))
OTHER_TYPES = (7, "x", True, None, [], {})


@st.composite
def mutations(draw):
    """Delete one entry of the shipped document, or give it another JSON type."""
    path, value = draw(st.sampled_from(SITES))
    replacements = [_DELETE] + [v for v in OTHER_TYPES if type(v) is not type(value)]
    return path, draw(st.sampled_from(replacements))


class TestMalformedDocuments:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_rejected_with_location(self, name, tmp_path, capsys):
        mutate, location = MALFORMED[name]
        doc = json.loads(DATA.read_text(encoding="utf-8"))
        mutate(doc)
        with pytest.raises(ChartValidationError, match=location):
            chartdata.from_document(doc)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(SystemExit) as exit_:
            main(["validate", str(path)])
        err = capsys.readouterr().err
        assert exit_.value.code == 1
        assert err.startswith("validation error:") and "Traceback" not in err

    @given(mutations())
    @example((V1_ON_Y44, _DELETE))
    @settings(max_examples=100, deadline=None)
    def test_single_mutation_is_rejected_or_saturates(self, mutation):
        path, value = mutation
        doc = json.loads(SHIPPED_TEXT)
        _set(path, value)(doc)
        try:
            chart = chartdata.from_document(doc)
        except ChartValidationError:
            return
        saturate(chart, with_periodic=False)


class TestShippedDataset:
    def test_build_script_regenerates_the_shipped_file(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "build_dataset", REPO / "scripts" / "build_dataset.py"
        )
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "OUT", tmp_path / "tmf_chart.json")
        script.main()
        assert (tmp_path / "tmf_chart.json").read_bytes() == DATA.read_bytes()
