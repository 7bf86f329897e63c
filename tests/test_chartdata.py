"""Dataset loading, validation, periodic expansion, and the Δ⁸ extension."""

import copy
import dataclasses
import importlib.util
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from les_deduce import chartdata
from les_deduce.algebra import GENERATORS, Classification, ClassificationKind, LesContext, ModuleId, Value
from les_deduce.chartdata import (
    ChartValidationError,
    SesRecord,
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
    "elements": [],
    "actions": [],
    "classifications": [],
    "hurewiczFlags": {},
    "ranks": [],
    "axioms": [],
    "tmfNameOverrides": [],
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

    # The exceptional listings live in ``EXCEPTIONAL_LISTINGS`` alone: a
    # document that restates them is rejected like any unknown field.
    @pytest.mark.parametrize("field, value", [
        ("surprise", 1),
        ("exceptionalSets", {"EM": ["Δη"], "FS": [], "FM": [], "delta8Closure": False}),
    ])
    def test_unknown_field_rejected(self, field, value):
        doc = dict(MINIMAL)
        doc[field] = value
        with pytest.raises(ChartValidationError) as error:
            chartdata.from_document(doc)
        assert str(error.value) == f"top level: unknown fields [{field!r}]"

    def test_rank_dimensions_checked(self):
        doc = dict(MINIMAL)
        doc["elements"] = [
            {"module": "Y", "name": "y_{8,2}", "stem": 8, "filtration": 2},
            {"module": "M", "name": "m_{6,2}", "stem": 6, "filtration": 2},
        ]
        doc["actions"] = [{"generator": "v₁", "source": "Y:y_{8,2}"}]
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

    def test_classification_lookup(self, chart):
        from les_deduce.algebra import ClassificationKind, LesContext

        kinds = {(c.element.key, c.context): c.kind for c in chart.classifications}
        assert kinds[("M:m_{50,6}", LesContext.LES_23)] is ClassificationKind.PERIODIC_EXCEPTIONAL
        assert kinds.get(("M:m_{50,6}", LesContext.LES_24)) is not ClassificationKind.PERIODIC_EXCEPTIONAL
        assert ("Y:y_{3,1}", LesContext.LES_24) not in kinds

    def test_round_trip_is_byte_exact(self, chart):
        text = chartdata.dumps(chart)
        again = chartdata.dumps(chartdata.loads(text))
        assert text == again

    def test_nonzero_axiom_round_trips(self):
        doc = json.loads(SHIPPED_TEXT)
        doc["axioms"][0] = {"map": "p2", "source": "Y:y_{30,2}", "nonzero": True}
        chart = chartdata.from_document(doc)
        assert chart.axioms[0].value == Value.nonzero_unknown()
        text = chartdata.dumps(chart)
        assert json.loads(text)["axioms"][0] == doc["axioms"][0]
        assert chartdata.dumps(chartdata.loads(text)) == text


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

    def test_exceptional_monomials_exist_in_m_expansion(self):
        # Each stem of the E^M and F^M listings holds a Moore monomial.
        stems = {m.stem for m in expand_periodic(ModuleId.M, 176)}
        for context in (LesContext.LES_23, LesContext.LES_24):
            listing, listing_stems = chartdata.EXCEPTIONAL_LISTINGS[(context, ModuleId.M)]
            assert listing_stems <= stems, listing

    def test_m_k0_lifts_follow_the_flash_positions(self):
        # The k = 0 lifts on Δⁿ (v₁-power below 4) are exactly the positions
        # ``M_K0_POSITIONS[n mod 8]`` of the lightning flash.
        bound = 250
        lifts = {}
        for m in expand_periodic(ModuleId.M, bound):
            if m.v1 < 4:
                lifts.setdefault(m.delta, set()).add((m.v1, m.eta))
        for n in range((bound - 4) // 24 + 1):
            wanted = {chartdata.FLASH_POSITIONS[pos] for pos in chartdata.M_K0_POSITIONS[n % 8]}
            assert lifts.get(n, set()) == wanted, n


def _shifted_key(key, k):
    """The key of the k-th Δ⁸ copy of a shipped element (all are named x_{i,j})."""
    module, name = key.split(":")
    letter, degree = name[:-1].split("_{")
    stem, filtration = degree.split(",")
    return f"{module}:{letter}_{{{int(stem) + 192 * k},{filtration}}}"


_Y = [
    {"module": "Y", "name": f"y_{{{stem},{filtration}}}", "stem": stem, "filtration": filtration}
    for stem, filtration in ((3, 1), (4, 2), (195, 1), (196, 2))
]


def _clash(name, first, second, changed):
    """Two sets of record lists holding ``first`` and ``second``, where the Δ⁸
    copy of ``first`` lands: in the first set ``second`` equals that copy, in
    the other it is updated by ``changed``."""
    lists = {"elements": _Y} if name != "elements" else {}
    return {**lists, name: [first, second]}, {**lists, name: [first, dict(second, **changed)]}


# kind -> (records where a copy lands on an equal record, records where it
# lands on an unequal one, the ext's count of that kind, what the error names)
CLASHES = {
    "element": (
        {"elements": _Y[:1] + _Y[2:3]},
        {"elements": _Y[:1] + [dict(_Y[2], order=2)]},
        lambda ext: len(ext.elements),
        r"Y:y_\{195,1\}",
    ),
    "action": (
        *_clash(
            "actions",
            {"generator": "η", "source": "Y:y_{3,1}", "value": ["Y:y_{4,2}"]},
            {"generator": "η", "source": "Y:y_{195,1}", "value": ["Y:y_{196,2}"]},
            {"value": []},
        ),
        lambda ext: len(ext.actions.facts()),
        r"η·Y:y_\{195,1\}",
    ),
    "classification": (
        *_clash(
            "classifications",
            {"element": "Y:y_{3,1}", "context": "LES-2.4", "kind": "periodicNonexceptional"},
            {"element": "Y:y_{195,1}", "context": "LES-2.4", "kind": "periodicNonexceptional"},
            {"kind": "torsion"},
        ),
        lambda ext: len(ext.classifications),
        r"Y:y_\{195,1\} in LES-2.4",
    ),
    "ranks": (
        *_clash(
            "ranks",
            {"context": "SES-2.7", "stem": 3, "middle": ["Y:y_{3,1}"]},
            {"context": "SES-2.7", "stem": 195, "middle": ["Y:y_{195,1}"]},
            {"middle": []},
        ),
        lambda ext: len(ext.ses_records),
        "SES-2.7 at stem 195",
    ),
    "override": (
        *_clash(
            "tmfNameOverrides",
            {"row": "Y:y_{3,1}", "column": "imgP1", "name": "a"},
            {"row": "Y:y_{195,1}", "column": "imgP1", "name": "Δ⁸·a"},
            {"name": "b"},
        ),
        lambda ext: len(ext.tmf_name_overrides),
        r"Y:y_\{195,1\} in column imgP1",
    ),
}



def _past_checks(**records):
    """A chart on ``_Y`` and the sphere class s_{3,1}, holding typed
    ``records`` (``ChartFile`` fields) that the loader never checked."""
    sphere = {"module": "S", "name": "s_{3,1}", "stem": 3, "filtration": 1}
    chart = chartdata.from_document(dict(MINIMAL, elements=_Y + [sphere]))
    e = chart.elements
    return dataclasses.replace(chart, **{field: make(e) for field, make in records.items()})


# case -> a chart with one record whose Δ⁸ copy fails a check, and the whole
# message; the record itself is never checked.
COPY_MALFORMED = {
    "ranks-off-degree": lambda: (
        _past_checks(ses_records=lambda e: [SesRecord("SES-2.7", 3, (e["Y:y_{4,2}"],), None, None)]),
        "Δ⁸ copy 1: ranks SES-2.7@195: Y:y_{196,2} should live in module Y at stem 195",
    ),
    "rank-mismatch": lambda: (
        _past_checks(ses_records=lambda e: [SesRecord("SES-2.7", 3, (e["Y:y_{3,1}"],), (), ())]),
        "Δ⁸ copy 1: ranks SES-2.7@195: rank mismatch |middle|=1 != |cokernel|=0 + |kernel|=0",
    ),
    "unclassified-middle": lambda: (
        _past_checks(ses_records=lambda e: [SesRecord("SES-2.8", 3, (e["Y:y_{3,1}"],), None, None)]),
        "Δ⁸ copy 1: ranks SES-2.8@195: middle element Y:y_{195,1} must be classified torsion or "
        "exceptional in LES-2.3",
    ),
    "kernel-order-not-two": lambda: (
        _past_checks(ses_records=lambda e: [SesRecord("SES-2.9", 4, (), None, (e["S:s_{3,1}"],))]),
        "Δ⁸ copy 1: ranks SES-2.9@196: kernel element S:s_{195,1} must carry order 2 (it lies in ker(·2))",
    ),
    "duplicate-action": lambda: (
        chartdata.from_document(dict(MINIMAL, **CLASHES["action"][1])),
        "Δ⁸ copy 1: duplicate action η·Y:y_{195,1}",
    ),
    "axiom-source-off-spec": lambda: (
        _past_checks(axioms=lambda e: [chartdata.MapAxiom("i2", e["Y:y_{3,1}"], Value.zero())]),
        "Δ⁸ copy 1: axiom i2(Y:y_{195,1}): source must live in module M",
    ),
    "axiom-value-off-degree": lambda: (
        _past_checks(
            axioms=lambda e: [chartdata.MapAxiom("p2", e["Y:y_{3,1}"], Value.known(frozenset({e["Y:y_{4,2}"]})))]
        ),
        "Δ⁸ copy 1: axiom p2(Y:y_{195,1}): Y:y_{196,2} should live in module M at stem 193",
    ),
}

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

    def test_copy_keeps_its_filtration(self):
        # Δ⁸ has filtration 0, so each copy sits at the original's filtration.
        doc = dict(MINIMAL, elements=[{"module": "Y", "name": "y_{3,1}", "stem": 3, "filtration": 1}])
        ext = delta8_extend(chartdata.from_document(doc), 2)
        assert [(e.name, e.stem, e.filtration) for e in ext.elements.values()] == [
            ("y_{3,1}", 3, 1), ("y_{195,1}", 195, 1), ("y_{387,1}", 387, 1),
        ]

    @pytest.mark.parametrize("kind", sorted(CLASHES))
    def test_equal_copy_is_skipped(self, kind):
        present, _, count, _ = CLASHES[kind]
        ext = delta8_extend(chartdata.from_document(dict(MINIMAL, **present)), 1)
        assert count(ext) == 3

    @pytest.mark.parametrize("kind", sorted(CLASHES))
    def test_unequal_copy_is_rejected(self, kind):
        _, clashing, _, key = CLASHES[kind]
        chart = chartdata.from_document(dict(MINIMAL, **clashing))
        with pytest.raises(ChartValidationError, match=key):
            delta8_extend(chart, 1)

    def test_axiom_copy_is_skipped_only_when_equal(self):
        axioms = [{"map": "p2", "source": "Y:y_{3,1}"}, {"map": "p2", "source": "Y:y_{195,1}"}]
        equal, unequal = _clash("axioms", *axioms, {"nonzero": True})
        assert len(delta8_extend(chartdata.from_document(dict(MINIMAL, **equal)), 1).axioms) == 3
        assert len(delta8_extend(chartdata.from_document(dict(MINIMAL, **unequal)), 1).axioms) == 4

    def test_present_hurewicz_flag_wins(self):
        sphere = [{"module": "S", "name": f"s_{{{stem},1}}", "stem": stem, "filtration": 1} for stem in (3, 195)]
        alone = chartdata.from_document(dict(MINIMAL, elements=sphere[:1], hurewiczFlags={"S:s_{3,1}": True}))
        assert delta8_extend(alone, 1).hurewicz["S:s_{195,1}"] is True
        flags = {"S:s_{3,1}": True, "S:s_{195,1}": False}
        both = chartdata.from_document(dict(MINIMAL, elements=sphere, hurewiczFlags=flags))
        assert delta8_extend(both, 1).hurewicz == dict(flags, **{"S:s_{387,1}": False})

    @pytest.mark.parametrize("copies", [2, 4])
    def test_shifted_chart_is_what_the_loader_reads(self, chart, copies):
        ext = delta8_extend(chart, copies)
        again = chartdata.from_document(chartdata.to_document(ext))
        for field in dataclasses.fields(ext):
            got, want = getattr(ext, field.name), getattr(again, field.name)
            if field.name == "actions":
                got, want = got.facts(), want.facts()
            elif type(got) is list:
                got, want = sorted(got, key=repr), sorted(want, key=repr)
            assert got == want, field.name

    def test_copies_are_checked_not_the_chart(self):
        # The loader rejects a torsion Y class without a v₁ action, so build
        # the chart past it: the copy is checked, the chart is not.
        chart = chartdata.from_document(dict(MINIMAL, elements=_Y[:1]))
        y3 = chart.elements["Y:y_{3,1}"]
        chart = dataclasses.replace(
            chart, classifications=[Classification(y3, LesContext.LES_23, ClassificationKind.TORSION)]
        )
        with pytest.raises(ChartValidationError) as error:
            delta8_extend(chart, 1)
        assert str(error.value) == "Δ⁸ copy 1: torsion class Y:y_{195,1} in LES-2.3 has no v₁ action"

    @pytest.mark.parametrize("name", sorted(COPY_MALFORMED))
    def test_copy_errors_name_the_copy(self, name):
        chart, message = COPY_MALFORMED[name]()
        with pytest.raises(ChartValidationError) as error:
            delta8_extend(chart, 1)
        assert str(error.value) == message

    def test_copies_follow_the_chart_in_order(self, chart):
        ext = delta8_extend(chart, 2)
        assert list(ext.elements) == [_shifted_key(key, k) for k in range(3) for key in chart.elements]
        assert [c.element.key for c in ext.classifications] == [
            _shifted_key(c.element.key, k) for k in range(3) for c in chart.classifications
        ]
        assert [r.stem for r in ext.ses_records] == [r.stem + 192 * k for k in range(3) for r in chart.ses_records]
        assert [a.source.key for a in ext.axioms] == [
            _shifted_key(a.source.key, k) for k in range(3) for a in chart.axioms
        ]



class TestIngestSharesValues:
    @pytest.mark.parametrize("copies", [0, 2])
    def test_empty_spans_are_the_shared_values(self, chart, copies):
        ext = delta8_extend(chart, copies)
        values = [fact.value for fact in ext.actions.facts()] + [axiom.value for axiom in ext.axioms]
        empty = [value for value in values if not value.span]
        assert {value.serialize() for value in empty} == {"0", "nonzero"}
        assert all(value is Value.zero() or value is Value.nonzero_unknown() for value in empty)

    def test_equal_classification_is_skipped_when_merging(self, chart):
        records = chartdata._ChartRecords(chart)
        present = chart.classifications[0]
        records.add_classifications([present, Classification(*present)], "here[{}]")
        assert records.classifications == chart.classifications

    def test_clashing_classification_is_rejected_when_merging(self, chart):
        records = chartdata._ChartRecords(chart)
        present = chart.classifications[0]
        assert present.kind is ClassificationKind.TORSION
        clashing = present._replace(kind=ClassificationKind.PERIODIC_NONEXCEPTIONAL)
        with pytest.raises(ChartValidationError) as error:
            records.add_classifications([present, clashing], "here[{}]")
        assert str(error.value) == "here[1]: duplicate classification for M:m_{100,20} in LES-2.3"

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


def _append(path, record):
    """A mutation that appends a copy of ``record`` to the list at ``path``."""

    def mutate(doc):
        for step in path:
            doc = doc[step]
        doc.append(dict(record))

    return mutate


SHIPPED_TEXT = DATA.read_text(encoding="utf-8")
SHIPPED = json.loads(SHIPPED_TEXT)
V1_ON_Y44 = next(
    ("actions", i)
    for i, action in enumerate(SHIPPED["actions"])
    if (action["generator"], action["source"]) == ("v₁", "Y:y_{44,8}")
)

NONZERO_ACTION = next(("actions", i) for i, a in enumerate(SHIPPED["actions"]) if a.get("nonzero"))

KBAR_ON_M105 = next(
    ("actions", i)
    for i, action in enumerate(SHIPPED["actions"])
    if (action["generator"], action["source"]) == ("κ̄", "M:m_{105,17}")
)


def _in_les23(key):
    return next(
        ("classifications", i)
        for i, c in enumerate(SHIPPED["classifications"])
        if (c["element"], c["context"]) == (key, "LES-2.3")
    )


Y50_IN_LES23, Y3_IN_LES23, M100_IN_LES23 = map(_in_les23, ("Y:y_{50,4}", "Y:y_{3,1}", "M:m_{100,20}"))
S8 = next(("elements", i) for i, e in enumerate(SHIPPED["elements"]) if (e["module"], e["name"]) == ("S", "s_{8,2}"))
SES29_AT_6 = next(i for i, r in enumerate(SHIPPED["ranks"]) if (r["context"], r["stem"]) == ("SES-2.9", 6))
LAST_AXIOM = ("axioms", len(SHIPPED["axioms"]) - 1)


def _repeat_basis(doc):
    """SES-2.9@6 with each basis listed twice: the ranks still add up."""
    record = doc["ranks"][SES29_AT_6]
    record["middle"] = ["M:m_{6,2}", "M:m_{6,2}"]
    record["cokernel"] = ["S:s_{6,2}", "S:s_{6,2}"]


def _restate_engine_data(doc):
    """The generators and periodic presentations, as the earlier format stated them."""
    doc["generators"] = [{"name": g.name, "stem": g.stem_degree, "filtration": g.filtration_degree}
                         for g in GENERATORS.values()]
    doc["periodicPresentations"] = {
        "Y": {"pattern": "F₂[v₁,Δ⁸]", "minV1ByDeltaMod8": list(chartdata.Y_MIN_V1)},
        "M": {"k0Positions": {str(n): list(pos) for n, pos in chartdata.M_K0_POSITIONS.items()}},
    }


# (mutation of the shipped document, the whole message of the error it raises)
MALFORMED = {
    "element-without-module": (_set(("elements", 0, "module"), _DELETE), "elements[0]: missing field 'module'"),
    "action-without-generator": (_set(("actions", 0, "generator"), _DELETE), "actions[0]: missing field 'generator'"),
    "axiom-without-map": (_set(("axioms", 0, "map"), _DELETE), "axioms[0]: missing field 'map'"),
    "stem-not-a-number": (_set(("elements", 0, "stem"), "x"), "elements[0]: stem must be an integer, got 'x'"),
    "stem-as-string": (_set(("elements", 0, "stem"), "6"), "elements[0]: stem must be an integer, got '6'"),
    "unknown-module": (_set(("elements", 0, "module"), "Q"), "elements[0]: unknown module 'Q'"),
    "unknown-context": (
        _set(("classifications", 0, "context"), "LES-9"),
        "classifications[0]: unknown context 'LES-9'",
    ),
    "elements-as-object": (_set(("elements",), {}), "top level: elements must be a list, got {}"),
    "unknown-axiom-map": (_set(("axioms", 0, "map"), "nosuch"), "axioms[0]: unknown map 'nosuch'"),
    "hurewicz-flag-not-bool": (
        _set(("hurewiczFlags", "S:s_{100,20}"), "no"),
        "hurewiczFlags['S:s_{100,20}']: must be a boolean, got 'no'",
    ),
    "negative-max-stem": (_set(("maxStem",), -1), "top level: maxStem must be ≥ 0, got -1"),
    # The exceptional listings live in ``EXCEPTIONAL_LISTINGS`` alone.
    "exceptional-sets-restated": (
        _set(("exceptionalSets",), {
            "EM": ["Δη", "Δ²η²", "Δ²v₁η", "Δ³v₁η²", "Δ⁴η", "Δ⁵η²", "Δ⁵v₁η", "Δ⁶v₁η²"],
            "FS": ["8Δ", "4Δ²", "8Δ³", "2Δ⁴", "8Δ⁵", "4Δ⁶", "8Δ⁷"],
            "FM": ["v₁η²", "Δv₁η²", "Δ²v₁η²", "Δ³v₁η²", "Δ⁴v₁η²", "Δ⁵v₁η²", "Δ⁶v₁η²"],
            "delta8Closure": True,
        }),
        "top level: unknown fields ['exceptionalSets']",
    ),
    # So do the ring generators (``algebra.GENERATORS``) and the periodic
    # presentations: a document that restates either, as the earlier format
    # did, is rejected.
    "generators-restated": (
        _set(("generators",), [{"name": "Δ⁸", "stem": 192, "filtration": 1}]),
        "top level: unknown fields ['generators']",
    ),
    "earlier-format": (
        _restate_engine_data,
        "top level: unknown fields ['generators', 'periodicPresentations']",
    ),
    "presentations-restated": (
        _set(("periodicPresentations",), {"Y": {"minV1ByDeltaMod8": [0, 1, 2, 3, 1, 2, 3, 4]}}),
        "top level: unknown fields ['periodicPresentations']",
    ),
    "unknown-generator": (_set(("actions", 0, "generator"), "λ"), "actions[0]: unknown generator 'λ'"),
    "generator-not-a-string": (_set(("actions", 0, "generator"), 7), "actions[0]: generator must be a string, got 7"),
    "empty-generator": (_set(("actions", 0, "generator"), ""), "actions[0]: generator must not be empty"),
    "torsion-y-without-v1-action": (
        _set(V1_ON_Y44, _DELETE),
        "classifications[220]: torsion class Y:y_{44,8} in LES-2.3 has no v₁ action",
    ),
    "axiom-source-off-spec": (
        _set(("axioms", 0), {"map": "p2", "source": "S:s_{3,1}", "value": ["Y:y_{44,8}"]}),
        "axioms[0]: axiom p2(S:s_{3,1}): source must live in module Y",
    ),
    "axiom-value-module-off-spec": (
        _set(("axioms", 0, "value"), ["Y:y_{44,8}"]),
        "axioms[0]: axiom p2(Y:y_{30,2}): Y:y_{44,8} should live in module M at stem 28",
    ),
    "axiom-value-stem-off-spec": (
        _set(("axioms", 0, "value"), ["M:m_{80,16}"]),
        "axioms[0]: axiom p2(Y:y_{30,2}): M:m_{80,16} should live in module M at stem 28",
    ),
    "axiom-value-and-nonzero": (
        _set(("axioms", 0, "nonzero"), True),
        "axioms[0]: axiom p2(Y:y_{30,2}): both value and nonzero set",
    ),
    "nonzero-action-with-null-value": (
        _set(NONZERO_ACTION + ("value",), None),
        "actions[9]: value must be a list, got None",
    ),
    "value-null": (_set(("actions", 0, "value"), None), "actions[0]: value must be a list, got None"),
    "action-off-degree": (
        _set(KBAR_ON_M105 + ("value",), ["M:m_{100,20}"]),
        "actions[104]: action κ̄·M:m_{105,17}: κ̄·M:m_{105,17} lands in stem 125, got stem 100",
    ),
    "empty-tmf-name": (_set(("elements", 0, "tmfName"), ""), "elements[0]: tmfName must not be empty"),
    "empty-override-name": (
        _set(("tmfNameOverrides", 0, "name"), ""),
        "tmfNameOverrides[0]: name must not be empty",
    ),
    "duplicate-element": (
        _append(("elements",), SHIPPED["elements"][0]),
        "elements[207]: duplicate element M:m_{6,2}",
    ),
    "duplicate-classification": (
        _append(("classifications",), SHIPPED["classifications"][0]),
        "classifications[268]: duplicate classification for M:m_{100,20} in LES-2.3",
    ),
    "duplicate-ranks-record": (
        _append(("ranks",), SHIPPED["ranks"][0]),
        "ranks[93]: duplicate ranks record for SES-2.8 at stem 3",
    ),
    "duplicate-action": (
        _append(("actions",), SHIPPED["actions"][0]),
        "actions[156]: duplicate action v₁·Y:y_{101,15}",
    ),
    "duplicate-override": (
        _append(("tmfNameOverrides",), {"row": "Y:y_{119,3}", "column": "imgP1", "name": "zzz"}),
        "tmfNameOverrides[1]: duplicate override for Y:y_{119,3} in column imgP1",
    ),
    "negative-degree": (
        _set(("elements", 0, "stem"), -1),
        "elements[0]: element M:m_{6,2}: negative degree",
    ),
    "name-off-degree": (
        _set(("elements", 0, "filtration"), 3),
        "elements[0]: element M:m_{6,2} has stem/filtration (6,3) inconsistent with its name",
    ),
    "bad-order": (_set(("elements", 0, "order"), 3), "elements[0]: element M:m_{6,2}: bad order 3"),
    "order-null": (
        _set(("elements", 0, "order"), None),
        "elements[0]: order must be an integer or a string, got None",
    ),
    "unknown-override-column": (
        _set(("tmfNameOverrides", 0, "column"), "x"),
        "tmfNameOverrides[0]: unknown column 'x'",
    ),
    "hurewicz-flag-off-sphere": (
        _set(("hurewiczFlags", "Y:y_{3,1}"), True),
        "hurewiczFlags['Y:y_{3,1}']: hurewicz flag on non-sphere element Y:y_{3,1}",
    ),
    "empty-element-name": (
        _append(("elements",), {"module": "M", "name": "", "stem": 6, "filtration": 2}),
        "elements[207]: name must not be empty",
    ),
    "exceptional-without-route": (
        _set(Y50_IN_LES23 + ("kind",), "periodicExceptional"),
        "classifications[223]: Y:y_{50,4} marked exceptional in LES-2.3, "
        "but no exceptional listing there holds Y classes",
    ),
    "exceptional-off-listing-stem": (
        _set(M100_IN_LES23 + ("kind",), "periodicExceptional"),
        "classifications[0]: M:m_{100,20} marked exceptional in LES-2.3 but no EM monomial "
        "lives in stem 100 (mod 192)",
    ),
    "unclassified-middle": (
        _set(Y3_IN_LES23 + ("kind",), "periodicNonexceptional"),
        "ranks[0]: ranks SES-2.8@3: middle element Y:y_{3,1} must be classified torsion or exceptional in LES-2.3",
    ),
    "kernel-order-not-two": (
        _set(S8 + ("order",), 4),
        "ranks[65]: ranks SES-2.9@9: kernel element S:s_{8,2} must carry order 2 (it lies in ker(·2))",
    ),
    "rank-mismatch": (
        _set(("ranks", SES29_AT_6, "cokernel"), []),
        "ranks[64]: ranks SES-2.9@6: rank mismatch |middle|=1 != |cokernel|=0 + |kernel|=0",
    ),
    "basis-repeats-element": (_repeat_basis, "ranks[64]: cokernel repeats S:s_{6,2}"),
    "span-repeats-element": (
        _set(KBAR_ON_M105 + ("value",), ["M:m_{125,21}", "M:m_{125,21}"]),
        "actions[104]: value repeats M:m_{125,21}",
    ),
    # The last axiom, so that a location past index 0 is pinned for both a
    # reader defect and an ``add_axioms`` check.
    "last-axiom-dangling-value": (
        _set(LAST_AXIOM + ("value",), ["M:nosuch"]),
        "axioms[10]: dangling element reference 'M:nosuch'",
    ),
    "last-axiom-value-off-degree": (
        _set(LAST_AXIOM + ("value",), ["M:m_{6,2}"]),
        "axioms[10]: axiom eta(M:m_{156,18}): M:m_{6,2} should live in module M at stem 157",
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


def _pinned_mutations():
    """Every 19th site of ``SITES``, each deleted and, in a second mutation,
    given one other JSON type, picked by the site's index."""
    for index, (path, value) in enumerate(SITES[::19]):
        others = [v for v in OTHER_TYPES if type(v) is not type(value)]
        yield path, _DELETE
        yield path, others[index % len(others)]


def mutation_outcomes() -> str:
    """One JSON line per pinned mutation: its path, ``"delete"`` or the value
    set, and ``"loads"`` or the whole ``ChartValidationError`` message."""
    lines = []
    for path, value in _pinned_mutations():
        doc = json.loads(SHIPPED_TEXT)
        _set(path, value)(doc)
        try:
            chartdata.from_document(doc)
            outcome = "loads"
        except ChartValidationError as exc:
            outcome = str(exc)
        change = "delete" if value is _DELETE else {"set": value}
        lines.append(json.dumps([list(path), change, outcome], ensure_ascii=False))
    return "\n".join(lines) + "\n"


# To refresh: PYTHONPATH=src:tests python -c 'import test_chartdata as t;
# t.MUTATIONS_GOLDEN.write_text(t.mutation_outcomes(), encoding="utf-8")'
MUTATIONS_GOLDEN = REPO / "tests" / "golden" / "mutations.jsonl"


@st.composite
def mutations(draw):
    """Delete one entry of the shipped document, or give it another JSON type."""
    path, value = draw(st.sampled_from(SITES))
    replacements = [_DELETE] + [v for v in OTHER_TYPES if type(v) is not type(value)]
    return path, draw(st.sampled_from(replacements))


class TestMalformedDocuments:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_rejected_with_location(self, name, tmp_path, capsys):
        mutate, message = MALFORMED[name]
        doc = json.loads(DATA.read_text(encoding="utf-8"))
        mutate(doc)
        with pytest.raises(ChartValidationError) as error:
            chartdata.from_document(doc)
        assert str(error.value) == message
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(SystemExit) as exit_:
            main(["validate", str(path)])
        err = capsys.readouterr().err
        assert exit_.value.code == 1
        assert err == f"validation error: {message}\n"

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
        saturate(chart)

    @pytest.mark.parametrize("name", [None, "rank-mismatch"])
    def test_document_is_left_unchanged(self, name):
        """The loader writes none of the values it reads back into the caller's
        document, whether it loads or rejects it."""
        doc = json.loads(SHIPPED_TEXT)
        if name is not None:
            MALFORMED[name][0](doc)
        before = copy.deepcopy(doc)
        try:
            chartdata.from_document(doc)
        except ChartValidationError:
            assert name is not None
        assert doc == before

    def test_single_mutation_outcomes_are_pinned(self):
        """A fixed slice of the single mutations, and what the loader makes of
        each, byte for byte: it loads, or it raises exactly this message."""
        assert mutation_outcomes() == MUTATIONS_GOLDEN.read_text(encoding="utf-8")


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


_KIND_NAMES = {
    int: "integer", str: "string", bool: "boolean", type(None): "null",
    chartdata.ELEMENT: "element key", chartdata.ELEMENTS: "list of element keys",
    chartdata.BASIS: "list of element keys or null",
}


def field_row(name, field, kind, default):
    """The README's table row for one ``SCHEMA`` field."""
    if type(kind) is dict:
        kind_text = "one of " + ", ".join(f"`{value}`" for value in kind)
    else:
        kind_text = " or ".join(_KIND_NAMES[k] for k in (kind if type(kind) is tuple else (kind,)))
    if default in (chartdata.REQUIRED, chartdata.ABSENT):
        default_text = default
    else:
        default_text = f"`{json.dumps(default)}`"
    return f"| `{name}` | `{field}` | {kind_text} | {default_text} |"


def test_readme_field_table_matches_schema():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    rows = [line for line in readme.splitlines() if line.startswith("| `")]
    assert rows == [
        field_row(name, field, kind, default)
        for name, fields in chartdata.SCHEMA.items()
        for field, (kind, default) in fields.items()
    ]
