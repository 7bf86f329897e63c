"""Fact store semantics, image of p₃, derived SES bases, exactness checking."""

import pytest

from les_deduce import chartdata
from les_deduce.algebra import Element, ModuleId, Value, span_of
from les_deduce.rules import saturate
from les_deduce.sequences import (
    FactStore,
    IncompleteDataError,
    MAP_SPECS,
    SEQUENCES,
    build_derived_ses,
    check_exactness,
    fact_key,
    image_of_p3,
    load_axioms,
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
                "generators": [],
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
        )
        assert image_of_p3(FactStore(), empty) == []

    def test_missing_v1_action_names_element(self, chart_document):
        import json

        doc = json.loads(json.dumps(chart_document))
        doc["actions"] = [
            a
            for a in doc["actions"]
            if not (a["generator"] == "v₁" and a["source"] == "Y:y_{44,8}")
        ]
        crippled = chartdata.from_document(doc)
        with pytest.raises(IncompleteDataError, match=r"y_\{44,8\}"):
            image_of_p3(FactStore(), crippled)


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


class TestDerivedSES:
    def test_degree_50_bases(self, chart):
        ses = build_derived_ses(chart, 50, "SES-2.8")
        assert [e.name for e in ses.cokernel] == ["m_{50,6}"]
        assert sorted(e.name for e in ses.middle) == ["y_{50,4}", "y_{50,6}"]
        assert [e.name for e in ses.kernel] == ["m_{48,6}"]
        assert (ses.left_rank, ses.right_rank) == (1, 1)

    def test_degree_45_middle(self, chart):
        ses = build_derived_ses(chart, 45, "SES-2.8")
        assert sorted(e.name for e in ses.middle) == ["y_{45,3}", "y_{45,9}"]

    def test_empty_degree(self, chart):
        ses = build_derived_ses(chart, 37, "SES-2.8")
        assert ses.middle == () and ses.cokernel == () and ses.kernel == ()

    def test_partial_rank_data_is_an_error(self, chart):
        with pytest.raises(IncompleteDataError):
            build_derived_ses(chart, 3, "SES-2.8")  # cokernel unknown at stem 3

    def test_unrestricted_context_accepted(self):
        # SES-2.7 carries the full (not torsion-restricted) bases; its middle
        # needs no classification, and the same engine shapes apply.
        doc = {
            "schemaVersion": "1",
            "maxStem": 20,
            "generators": [],
            "elements": [
                {"module": "Y", "name": "y_{10,2}", "stem": 10, "filtration": 2},
                {"module": "M", "name": "m_{8,2}", "stem": 8, "filtration": 2},
            ],
            "actions": [],
            "classifications": [],
            "hurewiczFlags": {},
            "exceptionalSets": {"EM": [], "FS": [], "FM": [], "delta8Closure": False},
            "ranks": [
                {
                    "context": "SES-2.7",
                    "stem": 10,
                    "cokernel": [],
                    "middle": ["Y:y_{10,2}"],
                    "kernel": ["M:m_{8,2}"],
                }
            ],
            "axioms": [],
            "tmfNameOverrides": [],
            "periodicPresentations": {},
        }
        chart = chartdata.from_document(doc)
        ses = build_derived_ses(chart, 10, "SES-2.7")
        assert ses.right_rank == 1
        store = saturate(chart, with_periodic=False)
        value = store.get("p2", chart.element("Y:y_{10,2}"))
        assert value is not None and {e.name for e in value.span} == {"m_{8,2}"}


class TestExactness:
    def test_shipped_dataset_consistent_at_every_junction(self, chart, store):
        for stem in (24, 26, 29, 50, 70, 102):
            for seq_id in ("LES-2.2", "LES-2.3", "LES-2.4"):
                for verdict in check_exactness(store, chart, seq_id, stem):
                    assert verdict.verdict in ("exact", "undetermined")

    def test_zero_modules_trivially_exact(self, chart, store):
        verdicts = check_exactness(store, chart, "LES-2.3", 500)
        assert all(v.verdict == "exact" for v in verdicts)

    def test_poisoned_axiom_flags_contradiction(self, chart_document):
        import json

        doc = json.loads(json.dumps(chart_document))
        doc["axioms"].append({"map": "p2", "source": "Y:y_{8,2}", "value": []})
        poisoned = chartdata.from_document(doc)
        store = saturate(poisoned)
        assert store.contradictions
        assert any("p2|Y:y_{8,2}" in c.fact for c in store.contradictions)

    def test_poisoned_contradictions_recorded_once(self, chart_document):
        import json
        import random

        doc = json.loads(json.dumps(chart_document))
        doc["axioms"].append({"map": "p2", "source": "Y:y_{8,2}", "value": []})
        poisoned = chartdata.from_document(doc)
        outputs = {saturate(poisoned, rng=random.Random(seed)).serialize() for seed in range(20)}
        assert len(outputs) == 1
        (output,) = outputs
        assert sum(line.startswith("contradiction: ") for line in output.splitlines()) == 2
