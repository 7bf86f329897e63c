"""Fact store semantics, image of p₃, derived SES records, exactness checking."""

from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from les_deduce import chartdata
from les_deduce.algebra import Element, ModuleId, Value, span_of
from les_deduce.rules import saturate
from les_deduce.sequences import (
    Contradiction,
    Derivation,
    FactStore,
    MAP_SPECS,
    SEQUENCES,
    check_all,
    fact_key,
    image_of_p3,
)

from golden_table import ROWS


class TestSequenceSpecs:
    def test_shifts_sum_to_triangle_degree(self):
        for seq in SEQUENCES.values():
            assert sum(m.stem_shift for m in seq.maps) == -1

    def test_map_inventory(self):
        assert MAP_SPECS["p2"].stem_shift == -2
        assert MAP_SPECS["p1"].stem_shift == -1
        assert MAP_SPECS["p3"].stem_shift == -3
        assert MAP_SPECS["v"].stem_shift == 2


class TestImageOfP3:
    def test_shipped_dataset_matches_table_column_one(self, chart):
        store = FactStore()
        hits = image_of_p3(store, chart)
        assert [e.name for e in hits] == [row[0] for row in ROWS]

    def test_nonzero_v1_excluded(self, chart):
        store = FactStore()
        hits = {e.name for e in image_of_p3(store, chart)}
        assert "y_{20,4}" not in hits
        assert "y_{30,2}" not in hits

    def test_empty_dataset(self):
        empty = chartdata.from_document(
            {
                "schemaVersion": "1",
                "maxStem": 0,
                "elements": [],
                "actions": [],
                "classifications": [],
                "hurewiczFlags": {},
                "ranks": [],
                "axioms": [],
                "tmfNameOverrides": [],
            }
        )
        assert image_of_p3(FactStore(), empty) == []


class TestStore:
    def setup_method(self):
        self.store = FactStore()
        self.y = Element(ModuleId.Y, 8, 2, "y_{8,2}")
        self.m = Element(ModuleId.M, 6, 2, "m_{6,2}")

    def test_monotone_upgrade(self):
        assert self.store.insert("p2", self.y, Value.nonzero_unknown(), "T2")
        assert self.store.get("p2", self.y) == Value.nonzero_unknown()
        assert self.store.insert("p2", self.y, Value.known(span_of(self.m)), "T2")
        assert self.store.get("p2", self.y) == Value.known(span_of(self.m))
        assert not self.store.contradictions

    def test_downgrade_is_contradiction(self):
        self.store.insert("p2", self.y, Value.known(span_of(self.m)), "T2")
        self.store.insert("p2", self.y, Value.zero(), "axiom")
        assert self.store.contradictions
        # original knowledge survives
        assert self.store.get("p2", self.y) == Value.known(span_of(self.m))

    def test_filtration_law_enforced(self):
        low = Element(ModuleId.M, 6, 1, "m_{6,1}")
        self.store.insert("p2", self.y, Value.known(span_of(low)), "T2")
        assert self.store.contradictions

    def test_alternative_derivations_logged(self):
        self.store.insert("p2", self.y, Value.zero(), "T1")
        self.store.insert("p2", self.y, Value.zero(), "T3a")
        rules = {d.rule for d in self.store.derivations[fact_key("p2", self.y)]}
        assert rules == {"T1", "T3a"}

    def test_mod_higher_values_merge_to_canonical(self):
        hi = Element(ModuleId.M, 6, 9, "m_{6,9}")
        self.store.insert("p2", self.y, Value.known(span_of(self.m, hi)), "axiom")
        self.store.insert("p2", self.y, Value.known(span_of(self.m)), "T2")
        assert not self.store.contradictions
        assert self.store.get("p2", self.y) == Value.known(span_of(self.m))


# Known values of p₂(y_{8,2}) that agree modulo higher filtration: m_{6,2}
# plus any set of the classes above it in the same bidegree.
_Y = Element(ModuleId.Y, 8, 2, "y_{8,2}")
_FLOOR = Element(ModuleId.M, 6, 2, "m_{6,2}")
_HIGHER = [Element(ModuleId.M, 6, f, f"m_{{6,{f}}}") for f in (3, 5, 9)]
_agreeing = st.tuples(
    st.sets(st.sampled_from(_HIGHER)).map(lambda extra: Value.known(span_of(_FLOOR, *extra))),
    st.sampled_from(["axiom", "T2", "LIN"]),
)


class TestCanonicalRepresentative:
    @given(st.lists(_agreeing, min_size=1, max_size=4))
    def test_any_insertion_order_gives_one_state(self, inserts):
        key = fact_key("p2", _Y)
        least = min((value for value, _ in inserts), key=lambda v: v.serialize())
        expected = {Derivation(rule, (), value) for value, rule in inserts}
        for order in permutations(inserts):
            store = FactStore()
            for value, rule in order:
                store.insert("p2", _Y, value, rule)
            assert not store.contradictions
            assert store.facts[key] == least
            assert set(store.derivations[key]) == expected
            assert len(store.derivations[key]) == len(expected)


_KEY = fact_key("p2", _Y)
_M = Value.known(span_of(_FLOOR))
_M_HI = Value.known(span_of(_FLOOR, _HIGHER[2]))  # m_{6,2} + m_{6,9}
_LOW = Value.known(span_of(Element(ModuleId.M, 6, 1, "m_{6,1}")))
_ZERO, _NONZERO = Value.zero(), Value.nonzero_unknown()


class TestInsertBranches:
    """Every branch of ``FactStore.insert`` on one key, p₂(y_{8,2}): each case
    inserts ``(value, rule, inputs)`` in turn and pins the whole store and the
    return value of each call."""

    @staticmethod
    def run(*inserts):
        store = FactStore()
        returned = [store.insert("p2", _Y, value, rule, inputs) for value, rule, inputs in inserts]
        return store, returned

    @staticmethod
    def assert_store(store, value, derivations, contradictions=()):
        assert store.facts == ({_KEY: value} if value is not None else {})
        assert all(source is _Y for _, source in store.facts)
        assert store.derivations == ({_KEY: derivations} if derivations else {})
        assert store.log == [_KEY] * len(derivations)
        assert store.contradictions == list(contradictions)

    def test_new_key(self):
        store, returned = self.run((_M, "T2", ("SES-2.8@8",)))
        assert returned == [True]
        self.assert_store(store, _M, [Derivation("T2", ("SES-2.8@8",), _M)])
        ((_, source),) = store.facts
        assert source is _Y

    def test_equal_known_value(self):
        store, returned = self.run((_M, "T2", ()), (Value.known(span_of(_FLOOR)), "LIN", ("x",)))
        assert returned == [True, True]
        self.assert_store(store, _M, [Derivation("T2", (), _M), Derivation("LIN", ("x",), _M)])

    @pytest.mark.parametrize(
        "first, second", [(_M_HI, _M), (_M, _M_HI)], ids=["smaller-last", "smaller-first"]
    )
    def test_smaller_representative_wins(self, first, second):
        store, returned = self.run((first, "axiom", ()), (second, "T2", ()))
        assert returned == [True, True]
        self.assert_store(store, _M, [Derivation("axiom", (), first), Derivation("T2", (), second)])

    def test_nonzero_unknown_upgraded_to_known(self):
        store, returned = self.run((_NONZERO, "T2", ()), (_M, "LIN", ()))
        assert returned == [True, True]
        self.assert_store(store, _M, [Derivation("T2", (), _NONZERO), Derivation("LIN", (), _M)])

    def test_known_nonzero_absorbs_nonzero_unknown(self):
        store, returned = self.run((_M, "LIN", ()), (_NONZERO, "T2", ()))
        assert returned == [True, True]
        self.assert_store(store, _M, [Derivation("LIN", (), _M), Derivation("T2", (), _NONZERO)])

    def test_nonzero_unknown_twice(self):
        store, returned = self.run((_NONZERO, "T2", ()), (_NONZERO, "EXC", ()))
        assert returned == [True, True]
        self.assert_store(store, _NONZERO, [Derivation("T2", (), _NONZERO), Derivation("EXC", (), _NONZERO)])

    @pytest.mark.parametrize("nonzero", [_NONZERO, _M], ids=["unknown", "known"])
    def test_zero_then_nonzero(self, nonzero):
        store, returned = self.run((_ZERO, "T1", ()), (nonzero, "T2", ()), (nonzero, "T2", ()))
        assert returned == [True, False, False]
        contradiction = Contradiction(_KEY, _ZERO, nonzero, "T1", "T2")
        self.assert_store(store, _ZERO, [Derivation("T1", (), _ZERO)], [contradiction])

    @pytest.mark.parametrize("nonzero", [_NONZERO, _M], ids=["unknown", "known"])
    def test_nonzero_then_zero(self, nonzero):
        store, returned = self.run((nonzero, "T2", ()), (_ZERO, "axiom", ()))
        assert returned == [True, False]
        contradiction = Contradiction(_KEY, nonzero, _ZERO, "T2", "axiom")
        self.assert_store(store, nonzero, [Derivation("T2", (), nonzero)], [contradiction])

    def test_filtration_law(self):
        store, returned = self.run((_LOW, "T2", ()), (_LOW, "T2", ()))
        assert returned == [False, False]
        self.assert_store(store, None, [], [Contradiction(_KEY, _LOW, _LOW, "T2", "T2 (filtration law)")])

    def test_filtration_law_against_a_stored_value(self):
        store, returned = self.run((_NONZERO, "T2", ()), (_LOW, "LIN", ()))
        assert returned == [True, False]
        contradiction = Contradiction(_KEY, _LOW, _LOW, "LIN", "LIN (filtration law)")
        self.assert_store(store, _NONZERO, [Derivation("T2", (), _NONZERO)], [contradiction])

    def test_repeated_derivation(self):
        store, returned = self.run((_M, "T2", ("a",)), (_M, "T2", ("a",)), (_M_HI, "T2", ("a",)))
        assert returned == [True, False, True]
        self.assert_store(store, _M, [Derivation("T2", ("a",), _M), Derivation("T2", ("a",), _M_HI)])

    def test_inputs_as_a_list(self):
        inputs = ["a", "b"], ("a", "b"), iter(["a", "b"])
        store, returned = self.run(*((_M, "T2", each) for each in inputs))
        assert returned == [True, False, False]
        self.assert_store(store, _M, [Derivation("T2", ("a", "b"), _M)])
        assert type(store.derivations[_KEY][0].inputs) is tuple


class TestKeyText:
    """Facts are keyed by (map, element); the text form ``map|MODULE:name``
    appears only in the output, which lists facts in text order."""

    # Element order puts stem 28 first; text order puts "y_{100" first.
    LOW, HIGH = Element(ModuleId.Y, 28, 2, "y_{28,2}"), Element(ModuleId.Y, 100, 2, "y_{100,2}")

    def store(self):
        store = FactStore()
        store.insert("p2", self.LOW, _NONZERO, "LIN", (fact_key("p2", self.HIGH), "κ̄·Y:y_{100,2}"))
        store.insert("p2", self.HIGH, _NONZERO, "T2", ("SES-2.8@100",))
        return store

    def test_serialize_sorts_by_text_key(self):
        store = self.store()
        assert sorted(store.facts) == [fact_key("p2", self.LOW), fact_key("p2", self.HIGH)]
        assert store.serialize() == "p2|Y:y_{100,2} = nonzero\np2|Y:y_{28,2} = nonzero\np3image: \n"

    def test_log_renders_key_valued_inputs(self):
        assert self.store().log_document() == [
            {"fact": "p2|Y:y_{28,2}", "value": "nonzero", "rule": "LIN",
             "inputs": ["p2|Y:y_{100,2}", "κ̄·Y:y_{100,2}"]},
            {"fact": "p2|Y:y_{100,2}", "value": "nonzero", "rule": "T2", "inputs": ["SES-2.8@100"]},
        ]


def ses_record(chart, context, stem):
    (record,) = [r for r in chart.ses_records if (r.context, r.stem) == (context, stem)]
    return record


class TestDerivedSES:
    def test_degree_50_bases(self, chart):
        ses = ses_record(chart, "SES-2.8", 50)
        assert [e.name for e in ses.cokernel] == ["m_{50,6}"]
        assert sorted(e.name for e in ses.middle) == ["y_{50,4}", "y_{50,6}"]
        assert [e.name for e in ses.kernel] == ["m_{48,6}"]

    def test_degree_45_middle(self, chart):
        ses = ses_record(chart, "SES-2.8", 45)
        assert sorted(e.name for e in ses.middle) == ["y_{45,3}", "y_{45,9}"]

    def test_unrestricted_context_accepted(self):
        # SES-2.7 carries the full (not torsion-restricted) bases; its middle
        # needs no classification, and the same engine shapes apply.
        chart = chartdata.from_document(
            ses27_document(
                [("Y", "y_{10,2}", 10, 2), ("M", "m_{8,2}", 8, 2)],
                {"cokernel": [], "middle": ["Y:y_{10,2}"], "kernel": ["M:m_{8,2}"]},
            )
        )
        ses = ses_record(chart, "SES-2.7", 10)
        assert [e.name for e in ses.kernel] == ["m_{8,2}"]
        store = saturate(chart)
        value = store.get("p2", chart.elements["Y:y_{10,2}"])
        assert value is not None and {e.name for e in value.span} == {"m_{8,2}"}
        # Every LES-2.3 kernel lies in ker η, whichever context records it.
        assert store.get("eta", chart.elements["M:m_{8,2}"]) == Value.zero()


def ses27_document(elements, record, axioms=()):
    """A dataset with the given (module, name, stem, filtration) elements and
    one SES-2.7 record at stem 10; bases absent from ``record`` are null."""
    return {
        "schemaVersion": "1",
        "maxStem": 20,
        "elements": [
            {"module": module, "name": name, "stem": stem, "filtration": filtration}
            for module, name, stem, filtration in elements
        ],
        "actions": [],
        "classifications": [],
        "hurewiczFlags": {},
        "ranks": [
            {"context": "SES-2.7", "stem": 10, "cokernel": None, "kernel": None, **record}
        ],
        "axioms": list(axioms),
        "tmfNameOverrides": [],
    }


class TestExactness:
    def test_shipped_dataset_consistent_at_every_junction(self, chart, store):
        verdicts = check_all(store, chart)
        stems = {e.stem for e in chart.elements.values()}
        assert len(verdicts) == 3 * 3 * len(stems)
        assert {v.verdict for v in verdicts} == {"exact", "undetermined"}

    def test_zero_modules_trivially_exact(self, chart, store):
        # Anchored at stem 17, LES-2.3 visits M and Y in stems 15-17 only,
        # and the chart has no class there.
        assert not [
            e
            for e in chart.elements.values()
            if e.module in (ModuleId.M, ModuleId.Y) and 15 <= e.stem <= 17
        ]
        verdicts = [v for v in check_all(store, chart) if (v.sequence, v.stem) == ("LES-2.3", 17)]
        assert [v.junction for v in verdicts] == ["i2->p2@17", "p2->eta@15", "eta->i2@16"]
        assert all((v.verdict, v.detail) == ("exact", "zero modules") for v in verdicts)

    @pytest.mark.parametrize(
        "projection, detail",
        [
            ({"value": ["M:g"]}, "p2(i2(M:c)) = M:g ≠ 0"),
            ({"nonzero": True}, "p2 nonzero on img i2(M:c)"),
        ],
        ids=["known", "nonzero"],
    )
    def test_nonvanishing_composite_is_a_contradiction(self, projection, detail):
        doc = ses27_document(
            [("Y", "w", 10, 2), ("M", "c", 10, 1), ("M", "g", 8, 2)],
            {"middle": ["Y:w"]},
            [
                {"map": "i2", "source": "M:c", "value": ["Y:w"]},
                {"map": "p2", "source": "Y:w", **projection},
            ],
        )
        chart = chartdata.from_document(doc)
        store = saturate(chart)
        assert store.contradictions == []
        bad = [v for v in check_all(store, chart) if v.verdict == "contradiction"]
        assert [(v.sequence, v.junction, v.detail) for v in bad] == [
            ("LES-2.3", "i2->p2@10", detail)
        ]

    def test_poisoned_axiom_flags_contradiction(self, chart_document):
        import json

        doc = json.loads(json.dumps(chart_document))
        doc["axioms"].append({"map": "p2", "source": "Y:y_{8,2}", "value": []})
        poisoned = chartdata.from_document(doc)
        store = saturate(poisoned)
        assert store.contradictions
        assert any(c.fact == fact_key("p2", poisoned.elements["Y:y_{8,2}"]) for c in store.contradictions)

    def test_poisoned_contradictions_recorded_once(self, chart_document):
        import json
        import random

        doc = json.loads(json.dumps(chart_document))
        doc["axioms"].append({"map": "p2", "source": "Y:y_{8,2}", "value": []})
        poisoned = chartdata.from_document(doc)
        outputs = {saturate(poisoned, rng=random.Random(seed)).serialize() for seed in range(20)}
        assert len(outputs) == 1
        (output,) = outputs
        # T2 gives y_{8,2} one value (its rank-1 kernel's generator), so the
        # axiom clashes with exactly one emission.
        contradictions = [line for line in output.splitlines() if line.startswith("contradiction: ")]
        assert contradictions == ["contradiction: p2|Y:y_{8,2}: 0 [axiom] vs M:m_{6,2} [T2]"]
