"""Each inference rule against its recorded chart instances and its guards."""

import random
import re
from collections import Counter

import pytest

from les_deduce.algebra import (
    ActionFact,
    ActionTable,
    ClassificationKind,
    Element,
    LesContext,
    GENERATORS,
    ModuleId,
    Value,
    span_of,
)
from les_deduce.chartdata import (
    EXCEPTIONAL_LISTINGS,
    ChartFile,
    SesRecord,
    delta8_extend,
    exceptional_map,
    expand_periodic,
    load,
)
from les_deduce.families import build_table, emit_families
from les_deduce.oracle import check_soundness, enumerate_fillings, random_instance
from les_deduce import rules
from les_deduce.rules import (
    _BASE_LABELS,
    _CHASE_PARENTS,
    _MAP_SOURCES,
    _pushes,
    ALL_RULES,
    CHART_ONLY,
    fact_labels,
    periodic_values,
    rule_exact,
    rule_linearity,
    rule_t1,
    rule_t2,
    rule_t3,
    rule_t4,
    saturate,
)
from les_deduce.sequences import (
    MAP_SPECS,
    FactStore,
    check_all,
    fact_key,
    image_of_p3,
    key_text,
    load_axioms,
)

from conftest import DATA

_SHIFT = re.compile(r"^([a-z])_\{(-?\d+),(-?\d+)\}$")


def fact_at(chart, map_name, key):
    """The fact key of ``map_name`` on the chart element with key ``key``."""
    return fact_key(map_name, chart.elements[key])


def known(store, chart, map_name, key):
    """Value of a fact looked up by element key string."""
    return store.facts.get(fact_at(chart, map_name, key))


def rules_for(store, chart, map_name, key):
    return {d.rule for d in store.derivations.get(fact_at(chart, map_name, key), [])}


@pytest.fixture(scope="module")
def chart_x2(chart):
    return delta8_extend(chart, 2)


@pytest.fixture(scope="module")
def store_x2(chart_x2):
    return saturate(chart_x2)


def derivation_sets(store):
    return {key: set(derivations) for key, derivations in store.derivations.items()}


def t4_parents(store):
    """(zero, nonzero): the stored T4 derivations counted by their parent
    p(y′), each checked to share its push with a LIN derivation of the same
    fact exactly when the parent is zero."""
    counts = [0, 0]
    for key, derivations in store.derivations.items():
        lin = {d.inputs for d in derivations if d.rule == "LIN"}
        for d in derivations:
            if d.rule == "T4":
                parent, action, _ = d.inputs
                zero = store.facts[parent].is_zero
                assert ((parent, action) in lin) == zero, (key, d)
                counts[not zero] += 1
    return tuple(counts)


def mini_chart(records, elements, actions=(), axioms=()):
    return ChartFile(
        max_stem=300,
        elements={e.key: e for e in elements},
        actions=ActionTable(actions),
        classifications=[],
        hurewicz={},
        orders={},
        tmf_names={},
        tmf_name_overrides={},
        nu_multiples=frozenset(),
        prior_order_two=frozenset(),
        ses_records=list(records),
        axioms=list(axioms),
    )


class TestPeriodicFormulas:
    def test_inclusion_on_v1_powers(self, chart):
        emissions = periodic_values(chart)
        by_source = {(e.map, e.source.name): e.value for e in emissions}
        # i₂(Δ²v₁⁴) = Δ²v₁⁴
        value = by_source[("i2", "Δ²v₁⁴")]
        assert {el.name for el in value.span} == {"Δ²v₁⁴"}

    def test_projection_to_sphere(self, chart):
        emissions = periodic_values(chart)
        by_source = {(e.map, e.source.name): e.value for e in emissions}
        # p₁(v₁⁵η) = c₄η²
        value = by_source[("p1", "v₁⁵η")]
        assert {el.name for el in value.span} == {"c₄η²"}

    def test_c6_terms_gated_at_k_one(self, chart):
        # No 2-divisible c₆ monomial exists below c₄-power one, so no
        # inclusion fact can fire outside the stated range.
        monomials = expand_periodic(ModuleId.S, 176)
        assert all(m.v1 >= 1 for m in monomials if m.c6)

    def test_per_facts_do_not_reach_the_table(self, store):
        assert all(not e.periodic for e in store.p3_image)


@pytest.fixture(
    scope="module", params=[(0, 868), (1, 3656), (2, 8364), (4, 23540)],
    ids=["shipped", "delta8x1", "delta8x2", "delta8x4"],
)
def with_and_without_periodic(request, chart):
    copies, periodic_count = request.param
    target = delta8_extend(chart, copies)
    return target, saturate(target), saturate(target, with_periodic=True), periodic_count


class TestPeriodicValuesOutOfTheStore:
    """Default saturation leaves out the periodic values; nothing else moves."""

    def test_default_store_has_no_periodic_fact(self, with_and_without_periodic):
        _, default, _, _ = with_and_without_periodic
        assert not any(source.periodic for _, source in default.facts)

    def test_serialize_drops_exactly_the_periodic_lines(self, with_and_without_periodic):
        _, default, full, periodic_count = with_and_without_periodic
        periodic = {key for key in full.facts if key[1].periodic}
        assert len(periodic) == periodic_count
        texts = {key_text(key) for key in periodic}
        kept = [
            line for line in full.serialize().splitlines(keepends=True)
            if line.partition(" = ")[0] not in texts
        ]
        assert "".join(kept) == default.serialize()

    def test_stored_periodic_facts_are_the_periodic_values(self, with_and_without_periodic):
        target, _, full, _ = with_and_without_periodic
        values = {fact_key(e.map, e.source): e.value for e in periodic_values(target)}
        stored = {key: value for key, value in full.facts.items() if key[1].periodic}
        assert stored == values

    def test_with_periodic_store_has_no_contradiction(self, with_and_without_periodic):
        # Every periodic value still passes the filtration law in FactStore.insert.
        _, _, full, _ = with_and_without_periodic
        assert full.contradictions == []

    def test_labels_rows_families_and_verdicts_agree(self, with_and_without_periodic):
        target, default, full, _ = with_and_without_periodic
        full_labels = {
            key: labels for key, labels in fact_labels(full, full.derivations).items()
            if not key[1].periodic
        }
        assert full_labels == fact_labels(default, default.derivations)
        rows = build_table(default, target)
        assert rows == build_table(full, target)
        assert emit_families(rows, target) == emit_families(build_table(full, target), target)
        assert check_all(default, target) == check_all(full, target)


class TestExceptionalRule:
    def test_exceptional_inclusion_upgraded_to_torsion_value(self, chart, store):
        # i₂ of the degree-50 exceptional class ends up on the surviving
        # torsion generator, upgraded from mere nonzeroness.
        value = known(store, chart, "i2", "M:m_{50,6}")
        assert value is not None and {e.name for e in value.span} == {"y_{50,6}"}
        assert "EXC" in rules_for(store, chart, "i2", "M:m_{50,6}")

    def test_sphere_level_exceptional(self, chart, store):
        value = known(store, chart, "i1", "S:s_{24,0}")
        assert {e.name for e in value.span} == {"m_{24,6}"}
        assert "EXC" in rules_for(store, chart, "i1", "S:s_{24,0}")

    def test_routes(self):
        # EXC's map is the map of the class's LES out of its module other
        # than the self-map.
        routes = {route: exceptional_map(*route) for route in EXCEPTIONAL_LISTINGS}
        assert routes == {
            (LesContext.LES_23, ModuleId.M): "i2",
            (LesContext.LES_24, ModuleId.S): "i1",
            (LesContext.LES_24, ModuleId.M): "p1",
        }

    def test_delta8_closure_verdicts(self, chart):
        ext = delta8_extend(chart, 1)
        kinds = {(c.element.key, c.context): c.kind for c in ext.classifications}
        # M:m_{242,6} is Δ⁸·m_{50,6}
        assert kinds[("M:m_{242,6}", LesContext.LES_23)] is ClassificationKind.PERIODIC_EXCEPTIONAL


class TestT1:
    def test_vanishing_kernel_zeroes(self, chart, store):
        assert known(store, chart, "p2", "Y:y_{3,1}").is_zero
        assert known(store, chart, "p2", "Y:y_{161,7}").is_zero
        assert "T1" in rules_for(store, chart, "p2", "Y:y_{3,1}")

    def test_guard_kernel_rank_one(self, chart, store):
        assert "T1" not in rules_for(store, chart, "p2", "Y:y_{45,3}")

    def test_lift_identification(self, chart, store):
        value = known(store, chart, "i1", "S:s_{24,0}")
        assert {e.name for e in value.span} == {"m_{24,6}"}
        assert "T1" in rules_for(store, chart, "i1", "S:s_{24,0}")


class TestT2:
    def test_unique_generator(self, chart, store):
        assert {e.name for e in known(store, chart, "p2", "Y:y_{8,2}").span} == {"m_{6,2}"}
        assert {e.name for e in known(store, chart, "p2", "Y:y_{167,3}").span} == {"m_{165,3}"}
        assert "T2" in rules_for(store, chart, "p2", "Y:y_{8,2}")

    def test_guard_nonzero_cokernel(self, chart, store):
        assert "T2" not in rules_for(store, chart, "p2", "Y:y_{45,3}")

    def test_rank_two_kernel_gives_only_nonzeroness(self):
        mid = [Element(ModuleId.Y, 10, 1, "u"), Element(ModuleId.Y, 10, 3, "w")]
        ker = [Element(ModuleId.M, 8, 1, "k1"), Element(ModuleId.M, 8, 5, "k2")]
        record = SesRecord("SES-2.8", 10, tuple(mid), (), tuple(ker))
        chart = mini_chart([record], mid + ker)
        store = FactStore()
        for em in rule_t2(store, chart):
            store.insert(em.map, em.source, em.value, em.rule, em.inputs)
        assert known(store, chart, "p2", "Y:u") == Value.nonzero_unknown()


class TestT3:
    def test_degree_45_shape(self, chart, store):
        # T3a kills the higher middle class; EXACT completes the record, and
        # the completion carries T3a's label.
        assert {e.name for e in known(store, chart, "p2", "Y:y_{45,3}").span} == {"m_{43,9}"}
        assert known(store, chart, "p2", "Y:y_{45,9}").is_zero
        assert {e.name for e in known(store, chart, "i2", "M:m_{45,5}").span} == {"y_{45,9}"}
        assert "T3a" in rules_for(store, chart, "p2", "Y:y_{45,9}")
        assert "3" in fact_labels(store, store.derivations)[fact_at(chart, "p2", "Y:y_{45,3}")]

    def test_degree_107_basis_matching(self, chart, store):
        assert {e.name for e in known(store, chart, "p2", "Y:y_{107,11}").span} == {"m_{105,17}"}
        assert {e.name for e in known(store, chart, "p2", "Y:y_{107,3}").span} == {"m_{105,3}"}
        assert "T3b" in rules_for(store, chart, "p2", "Y:y_{107,11}")

    def test_iso_shape_identifies_both_lifts(self, chart, store):
        assert {e.name for e in known(store, chart, "i1", "S:s_{105,17}").span} == {"m_{105,17}"}
        assert {e.name for e in known(store, chart, "i1", "S:s_{105,3}").span} == {"m_{105,3}"}
        assert "T3a" in rules_for(store, chart, "i1", "S:s_{105,3}")

    def test_high_class_above_kernel_dies(self, chart, store):
        assert known(store, chart, "p2", "Y:y_{57,11}").is_zero
        assert "T3a" in rules_for(store, chart, "p2", "Y:y_{57,11}")

    def test_guard_silent_when_filtrations_reversed(self):
        # Cokernel filtration below both middle classes: no exclusion possible
        # (kernel sits high enough that the ceiling clause stays quiet too).
        c = Element(ModuleId.M, 10, 1, "c")
        mid = [Element(ModuleId.Y, 10, 2, "u"), Element(ModuleId.Y, 10, 5, "w")]
        ker = [Element(ModuleId.M, 8, 6, "k")]
        record = SesRecord("SES-2.8", 10, tuple(mid), (c,), tuple(ker))
        chart = mini_chart([record], [c] + mid + ker)
        assert rule_t3(FactStore(), chart) == []


class TestLinearity:
    def test_kappabar_pushforward(self, chart, store):
        assert {e.name for e in known(store, chart, "p2", "Y:y_{82,6}").span} == {"m_{80,16}"}
        assert "LIN" in rules_for(store, chart, "p2", "Y:y_{82,6}")
        assert {e.name for e in known(store, chart, "p2", "Y:y_{133,11}").span} == {"m_{131,17}"}

    def test_zero_action_on_value_kills_image(self, chart, store):
        # κ̄·m_{126,20} = 0 forces the next projection in the chain to vanish.
        assert known(store, chart, "p2", "Y:y_{148,18}").is_zero

    def test_guard_unknown_action(self):
        kbar = GENERATORS["κ̄"]
        y = Element(ModuleId.Y, 10, 2, "y")
        ky = Element(ModuleId.Y, 30, 6, "ky")
        m = Element(ModuleId.M, 8, 2, "m")
        chart = mini_chart([], [y, ky, m], actions=[ActionFact(kbar, y, Value.known(span_of(ky)))])
        store = FactStore()
        store.insert("p2", y, Value.known(span_of(m)), "axiom")
        assert rule_linearity(store, chart, store.facts) == []  # κ̄·m unrecorded


class TestPushPlan:
    # The plan is keyed by source element; every map out of its module pushes it.
    KBAR, V1 = GENERATORS["κ̄"], GENERATORS["v₁"]
    OUT_OF_Y = {spec.name for spec in MAP_SPECS.values() if spec.source is ModuleId.Y}

    def test_pushes_by_generator_name_with_labels(self):
        # v₁ sorts before κ̄, and each push is labelled g·x.
        a, ka = Element(ModuleId.Y, 62, 2, "a"), Element(ModuleId.Y, 82, 6, "ka")
        va = Element(ModuleId.Y, 64, 2, "va")
        chart = mini_chart([], [a, ka, va], actions=[
            ActionFact(self.KBAR, a, Value.known(span_of(ka))),
            ActionFact(self.V1, a, Value.known(span_of(va))),
        ])
        by_key = chart.actions.by_key
        pushes = ((by_key[("v₁", "Y:a")], va, "v₁·Y:a"), (by_key[("κ̄", "Y:a")], ka, "κ̄·Y:a"))
        assert chart.push_plan == {a: pushes}
        # A fact on a under any map: only the maps out of Y push it.
        store = FactStore()
        for name in MAP_SPECS:
            store.insert(name, a, Value.zero(), "axiom")
        walked = [(map_name, action, target) for _, map_name, _, action, target, _ in
                  _pushes(store, chart, store.facts, _MAP_SOURCES)]
        assert walked == [(name, action, target) for name in MAP_SPECS if name in self.OUT_OF_Y
                          for action, target, _ in pushes]

    def test_skips_sums_nonzero_marks_and_zeros(self):
        a, c, d, z = (Element(ModuleId.Y, 62, f, name) for f, name in ((2, "a"), (1, "c"), (0, "d"), (3, "z")))
        ka, kb = Element(ModuleId.Y, 82, 6, "ka"), Element(ModuleId.Y, 82, 9, "kb")
        chart = mini_chart([], [a, c, d, z, ka, kb], actions=[
            ActionFact(self.KBAR, a, Value.known(span_of(ka))),
            ActionFact(self.KBAR, c, Value.known(span_of(ka, kb))),
            ActionFact(self.KBAR, d, Value.nonzero_unknown()),
            ActionFact(self.KBAR, z, Value.zero()),
        ])
        pushes = ((chart.actions.by_key[("κ̄", "Y:a")], ka, "κ̄·Y:a"),)
        assert chart.push_plan == {a: pushes}


class TestT4:
    # T4 derives the zero; EXACT completes the record from it, and the
    # completion carries T4's label.
    def test_degree_50(self, chart, store):
        assert known(store, chart, "p2", "Y:y_{50,6}").is_zero
        assert {e.name for e in known(store, chart, "p2", "Y:y_{50,4}").span} == {"m_{48,6}"}
        assert "T4" in rules_for(store, chart, "p2", "Y:y_{50,6}")
        assert "4" in fact_labels(store, store.derivations)[fact_at(chart, "p2", "Y:y_{50,4}")]

    def test_degree_70(self, chart, store):
        assert known(store, chart, "p2", "Y:y_{70,10}").is_zero
        assert {e.name for e in known(store, chart, "p2", "Y:y_{70,8}").span} == {"m_{68,10}"}
        assert "T4" in rules_for(store, chart, "p2", "Y:y_{70,10}")
        assert "4" in fact_labels(store, store.derivations)[fact_at(chart, "p2", "Y:y_{70,8}")]

    def test_fires_exactly_at_the_two_recorded_degrees(self, chart, store):
        # Extra firings would be review events; the shipped dataset has none.
        t4_facts = {
            key
            for key, derivations in store.derivations.items()
            if any(d.rule == "T4" for d in derivations)
        }
        assert t4_facts == {fact_at(chart, "p2", "Y:y_{50,6}"), fact_at(chart, "p2", "Y:y_{70,10}")}
        labels = fact_labels(store, store.derivations)
        rows = ["Y:y_{50,4}", "Y:y_{50,6}", "Y:y_{70,8}", "Y:y_{70,10}"]
        assert all("4" in labels[fact_at(chart, "p2", key)] for key in rows)

    def test_derives_only_what_lin_pushes(self, store, store_x2):
        # From a zero parent T4 stores LIN's own zero on the same push; only
        # a nonzero parent with an uncharted push gives a fact LIN lacks.
        assert t4_parents(store) == (1, 1)
        assert t4_parents(store_x2) == (3, 3)
        instances = (random_instance(random.Random(seed)) for seed in range(400))
        assert tuple(map(sum, zip(*(t4_parents(saturate(i)) for i in instances)))) == (6, 0)

    def test_nonzero_parent_is_sound(self):
        # The extended-linearity branch proper: p(yp) = m is nonzero and κ̄·m
        # is uncharted, yet κ̄·m would sit at filtration ≥ 2 + 4, above the
        # whole upper kernel (filtration 5), so p(y) = 0.  LIN cannot derive
        # this; the brute-force oracle confirms it and EXACT's completion.
        kbar = GENERATORS["κ̄"]
        yp = Element(ModuleId.Y, 10, 1, "yp")
        m = Element(ModuleId.M, 8, 2, "m")
        other = Element(ModuleId.Y, 30, 3, "other")
        y = Element(ModuleId.Y, 30, 5, "y")
        c = Element(ModuleId.M, 30, 1, "c")
        g = Element(ModuleId.M, 28, 5, "g")
        lower = SesRecord("SES-2.8", 10, (yp,), (), (m,))
        upper = SesRecord("SES-2.8", 30, (other, y), (c,), (g,))
        chart = mini_chart(
            [lower, upper],
            [yp, m, other, y, c, g],
            actions=[ActionFact(kbar, yp, Value.known(span_of(y)))],
        )
        store = saturate(chart)
        assert known(store, chart, "p2", "Y:yp") == Value.known(span_of(m))
        assert known(store, chart, "p2", "Y:y").is_zero
        assert rules_for(store, chart, "p2", "Y:y") == {"T4"}
        assert store.derivations[fact_key("p2", y)][0].inputs[0] == fact_key("p2", yp)
        assert known(store, chart, "p2", "Y:other") == Value.known(span_of(g))
        assert "EXACT" in rules_for(store, chart, "p2", "Y:other")
        assert known(store, chart, "i2", "M:c") == Value.known(span_of(y))
        assert "EXACT" in rules_for(store, chart, "i2", "M:c")
        fillings = enumerate_fillings(chart)
        assert len(fillings) == 1
        assert check_soundness(chart, store, fillings) == []

    def test_guard_floor_within_kernel_range(self):
        kbar = GENERATORS["κ̄"]
        yp = Element(ModuleId.Y, 10, 2, "yp")
        y = Element(ModuleId.Y, 30, 6, "y")
        other = Element(ModuleId.Y, 30, 3, "other")
        mp = Element(ModuleId.M, 8, 2, "mp")
        gen = Element(ModuleId.M, 28, 9, "gen")  # kernel reaches filtration 9
        record = SesRecord("SES-2.8", 30, (other, y), None, (gen,))
        chart = mini_chart(
            [record], [yp, y, other, mp, gen], actions=[ActionFact(kbar, yp, Value.known(span_of(y)))]
        )
        store = FactStore()
        store.insert("p2", yp, Value.known(span_of(mp)), "axiom")
        assert rule_t4(store, chart, store.facts) == []  # pushed floor 6 does not clear 9


class TestExactCompletion:
    def test_degree_54_axiom_resolution(self, chart, store):
        # The shipped projection on the higher Moore class forces the lower
        # one to vanish and pins its inclusion lift.
        assert known(store, chart, "p1", "M:m_{54,2}").is_zero
        assert {e.name for e in known(store, chart, "i1", "S:s_{54,2}").span} == {"m_{54,2}"}
        assert "EXACT" in rules_for(store, chart, "p1", "M:m_{54,2}")

    def test_degree_153_basis_adjustment(self, chart, store):
        assert known(store, chart, "p2", "Y:y_{153,11}").is_zero
        assert "EXACT" in rules_for(store, chart, "p2", "Y:y_{153,11}")

    def test_degree_102_rederivation_carries_filtration_label(self, store):
        labels = fact_labels(store, store.derivations)
        assert "3" in labels[fact_key("p2", Element(ModuleId.Y, 102, 10, "y_{102,10}"))]
        assert "3" in labels[fact_key("p2", Element(ModuleId.Y, 102, 2, "y_{102,2}"))]

    def test_ambiguous_direction_stays_silent(self):
        gen = Element(ModuleId.M, 8, 5, "gen")
        u = Element(ModuleId.Y, 10, 1, "u")
        w = Element(ModuleId.Y, 10, 4, "w")
        record = SesRecord("SES-2.8", 10, (u, w), None, (gen,))
        chart = mini_chart([record], [gen, u, w])
        store = FactStore()
        store.insert("p2", u, Value.known(span_of(gen)), "axiom")
        emissions = rule_exact(store, chart, store.facts)
        assert all(e.source != w for e in emissions)

    def test_each_lift_rests_on_one_stored_zero(self, chart, store):
        includes = {record.include_map for record in chart.ses_records}
        lifts = {
            key: [d for d in derivations if d.rule == "EXACT"]
            for key, derivations in store.derivations.items()
            if key[0] in includes
        }
        lifts = {key: derivations for key, derivations in lifts.items() if derivations}
        assert len(lifts) == 15
        for key, derivations in lifts.items():
            assert len(derivations) == 1, key
            (parent,) = [k for k in derivations[0].inputs if type(k) is tuple]
            assert store.facts[parent].is_zero, key

    def test_rejected_zero_lifts_nothing(self):
        # Oracle seed 220: EXACT adjusts u by w to p₁(u) = 0, which the store
        # rejects against the axiom p₁(u) = g, so no inclusion lift rests on it.
        instance = random_instance(random.Random(220))
        store = saturate(instance)
        assert [c.describe() for c in store.contradictions] == [
            "p1|M:x1s22f3: S:x3s21f9 [axiom] vs 0 [EXACT]"
        ]
        assert fact_at(instance, "i1", "S:x2s22f0") not in store.facts


class TestSaturation:
    def test_empty_chart_empty_store(self):
        chart = mini_chart([], [])
        store = saturate(chart)
        assert store.facts == {}

    def test_idempotent(self, chart, store):
        count = len(store.facts)
        log = len(store.log)
        again = saturate(chart, store=store)
        assert len(again.facts) == count
        assert len(again.log) == log

    def test_schedules_agree(self, chart, store, chart_x2, store_x2):
        for target, expected in ((chart, store), (chart_x2, store_x2)):
            for seed in range(5):
                shuffled = saturate(target, rng=random.Random(seed))
                assert shuffled.serialize() == expected.serialize()
                assert derivation_sets(shuffled) == derivation_sets(expected)
                assert fact_labels(shuffled, shuffled.derivations) == fact_labels(
                    expected, expected.derivations
                )

    @pytest.mark.parametrize("extended", [False, True], ids=["shipped", "delta8x2"])
    def test_chart_only_rules_ignore_the_store(self, chart, store, chart_x2, store_x2, extended):
        # The strata rest on this: a chart-only rule emits the same facts
        # whatever the store holds, so firing it once suffices.
        target, saturated = (chart_x2, store_x2) if extended else (chart, store)
        chart_only = [(name, rule) for name, rule in ALL_RULES if name in CHART_ONLY]
        assert {name for name, _ in chart_only} == {"PERIODIC", "EXC", "T1", "T2", "T3"}
        for name, rule in chart_only:
            assert rule(FactStore(), target) == rule(saturated, target), name

    def test_extension_builds_its_own_plans(self, chart):
        # The push plan and the record plans belong to one chart: an
        # extension made after the shipped chart has built and used both must
        # saturate as one made from a fresh load.
        saturate(chart)
        extended = delta8_extend(chart, 2)
        assert len(extended.rank_one_records) == 3 * len(chart.rank_one_records)
        assert len(extended.push_plan) == 3 * len(chart.push_plan)
        got = saturate(extended)
        fresh = saturate(delta8_extend(load(DATA), 2))
        assert got.serialize() == fresh.serialize()
        assert got.log_document() == fresh.log_document()

    def test_given_store_reaches_the_same_fixpoint(self, chart, store):
        # LIN's first call on a store passed in visits every fact already there.
        seeded = FactStore()
        load_axioms(seeded, chart)
        image_of_p3(seeded, chart)
        assert saturate(chart, store=seeded).serialize() == store.serialize()

    def test_every_value_change_is_logged(self, chart, store):
        # Semi-naive LIN reads changed facts off the log, so no insert may
        # change a stored value without appending to it.
        class CheckedStore(FactStore):
            def insert(self, map_name, source, value, rule, inputs=()):
                key = fact_key(map_name, source)
                before, logged = self.facts.get(key), len(self.log)
                grew = super().insert(map_name, source, value, rule, inputs)
                if self.facts.get(key) != before:
                    assert self.log[logged:] and self.log[-1] == key
                return grew

        checked = CheckedStore()
        load_axioms(checked, chart)
        image_of_p3(checked, chart)
        assert saturate(chart, store=checked).serialize() == store.serialize()

    @pytest.mark.parametrize(
        "rule, source",
        [
            (rule_t4, "Y:y_{30,2}"),
            (rule_linearity, "Y:y_{65,13}"),
            (rule_exact, "Y:y_{57,11}"),
        ],
        ids=["T4", "LIN", "EXACT"],
    )
    def test_delta_restricts_the_visit(self, chart, store, rule, source):
        key = fact_at(chart, "p2", source)
        full = rule(store, chart, store.facts)
        assert rule(store, chart, []) == []
        visited = rule(store, chart, [key])
        assert visited and visited == [e for e in full if e.inputs[0] == key]
        # Semi-naive evaluation rests on this: the full visit is the union of
        # the visits of single facts.
        singles = [set(rule(store, chart, [k])) for k in store.facts]
        assert all(single <= set(full) for single in singles)
        assert set().union(*singles) == set(full)

    def test_no_contradictions_on_shipped_data(self, store):
        assert store.contradictions == []


def naive_saturate(chart):
    """Reference fixpoint: the chart-only rules once, then every looping rule
    over every fact (``delta=store.facts``) until a pass adds nothing."""
    store = FactStore()
    load_axioms(store, chart)
    image_of_p3(store, chart)
    for name, rule in ALL_RULES:
        if name in CHART_ONLY and name != "PERIODIC":
            for e in rule(store, chart):
                store.insert(e.map, e.source, e.value, e.rule, e.inputs)
    looping = [rule for name, rule in ALL_RULES if name not in CHART_ONLY]
    changed = True
    while changed:
        changed = False
        for rule in looping:
            for e in rule(store, chart, store.facts):
                changed |= store.insert(e.map, e.source, e.value, e.rule, e.inputs)
    return store


# The four seeds are oracle instances where an EXACT result is pushed on by
# T4 and LIN and then by EXACT again.
ORACLE_SEEDS = [*range(200), 9298, 10783, 27349, 54073]


class TestSemiNaiveMatchesNaive:
    def assert_same(self, semi_naive, naive):
        assert semi_naive.serialize() == naive.serialize()
        assert derivation_sets(semi_naive) == derivation_sets(naive)
        assert fact_labels(semi_naive, semi_naive.derivations) == fact_labels(
            naive, naive.derivations
        )

    @pytest.mark.parametrize("extended", [False, True], ids=["shipped", "delta8x2"])
    def test_charts(self, chart, store, chart_x2, store_x2, extended):
        target, saturated = (chart_x2, store_x2) if extended else (chart, store)
        self.assert_same(saturated, naive_saturate(target))

    def test_oracle_instances(self):
        # In 27349 and 54073 the store rejects T4's zero, so T4 is asked
        # whether it emits, not whether the store kept a T4 derivation.
        t4_seeds = []
        for seed in ORACLE_SEEDS:
            instance = random_instance(random.Random(seed))
            semi_naive = saturate(instance)
            self.assert_same(semi_naive, naive_saturate(instance))
            if rule_t4(semi_naive, instance, semi_naive.facts):
                t4_seeds.append(seed)
        assert {9298, 10783, 27349, 54073} <= set(t4_seeds)


def shipped_x2_and_oracle_instances(chart, chart_x2):
    """The shipped chart, its Δ⁸×2 extension and oracle seeds 0–199, each
    with the default and a shuffled schedule."""
    targets = [("shipped", chart), ("delta8x2", chart_x2)]
    targets += [(f"seed {seed}", random_instance(random.Random(seed))) for seed in range(200)]
    for name, target in targets:
        for rng in (None, random.Random(5)):
            yield f"{name}, {'shuffled' if rng else 'default'}", target, rng


class TestLogAgreesWithStore:
    def test_charts_and_oracle_instances(self, chart, chart_x2):
        # The first call of each looping rule visits ``store.facts`` in place
        # of the whole log: both must hold the same keys in the same order,
        # and log_document pairs each log entry with one stored derivation.
        for case, target, rng in shipped_x2_and_oracle_instances(chart, chart_x2):
            store = saturate(target, rng=rng)
            assert list(dict.fromkeys(store.log)) == list(store.facts), case
            assert Counter(store.log) == {key: len(found) for key, found in store.derivations.items()}, case


class TestExactFiresOnItsParent:
    def test_charts_and_oracle_instances(self, chart, chart_x2, monkeypatch):
        # Each EXACT emission cites the parent fact it is read off, and is
        # made only in a call whose delta holds that parent.
        emitted = []

        def checked(store, chart, delta):
            emissions = rule_exact(store, chart, delta)
            for emission in emissions:
                assert emission.inputs[0] in delta, (case, emission)
            emitted.extend(emissions)
            return emissions

        monkeypatch.setattr(rules, "ALL_RULES", tuple(
            (name, checked if name == "EXACT" else rule) for name, rule in ALL_RULES
        ))
        for case, target, rng in shipped_x2_and_oracle_instances(chart, chart_x2):
            saturate(target, rng=rng)
        assert emitted


def fixpoint_labels(store):
    """Reference labels: the least fixpoint over the whole store, re-applying
    every derivation (base labels, plus the labels of a completion's parents)
    until no fact's label set grows."""
    labels = {key: set() for key in store.derivations}
    changed = True
    while changed:
        changed = False
        for key, derivations in store.derivations.items():
            current = labels[key]
            for derivation in derivations:
                add = set(_BASE_LABELS.get(derivation.rule, frozenset()))
                if derivation.rule in _CHASE_PARENTS:
                    for parent in derivation.inputs:
                        if parent in labels:
                            add |= labels[parent]
                if not add <= current:
                    current |= add
                    changed = True
    return {key: frozenset(value) for key, value in labels.items()}


class TestFactLabelsMatchFixpoint:
    def assert_same(self, store):
        reference = fixpoint_labels(store)
        assert fact_labels(store, store.derivations) == reference
        keys = [*sorted(reference)[::3], fact_key("p2", Element(ModuleId.Y, 0, 0, "not_stored")), "dataset"]
        assert fact_labels(store, keys) == {key: reference[key] for key in keys if key in reference}

    @pytest.mark.parametrize("extended", [False, True], ids=["shipped", "delta8x2"])
    def test_charts(self, store, store_x2, extended):
        self.assert_same(store_x2 if extended else store)

    def test_oracle_instances(self):
        for seed in range(200):
            self.assert_same(saturate(random_instance(random.Random(seed))))

    def test_cycle_rooted_once(self):
        # a and b are LIN completions of each other; only a also rests on the
        # T2 fact c, and the walk must still end and reach c from b.
        a, b, c = (Element(ModuleId.M, 8, 1, name) for name in ("a", "b", "c"))
        store = FactStore()
        store.insert("p1", c, Value.nonzero_unknown(), "T2")
        key_a, key_b, key_c = (fact_key("p1", element) for element in (a, b, c))
        store.insert("p1", a, Value.nonzero_unknown(), "LIN", (key_b,))
        store.insert("p1", a, Value.nonzero_unknown(), "LIN", (key_c,))
        store.insert("p1", b, Value.nonzero_unknown(), "LIN", (key_a,))
        assert fact_labels(store, [key_a, key_b]) == {key_a: {"2"}, key_b: {"2"}}
        assert fact_labels(store, store.derivations) == fixpoint_labels(store)


def off_spec(store):
    """(checked, off-spec keys) over the stored facts on the nine sequence maps:
    the source must lie in the map's source module and a known value in its
    target module, at the source stem plus the map's stem shift."""
    checked, bad = 0, []
    for key, value in store.facts.items():
        map_name, source = key
        spec = MAP_SPECS.get(map_name)
        if spec is None:
            continue
        checked += 1
        where = (spec.target, source.stem + spec.stem_shift)
        if source.module is not spec.source or any((e.module, e.stem) != where for e in value.span):
            bad.append(key)
    return checked, bad


class TestFactsMatchMapSpecs:
    @pytest.mark.parametrize("extended", [False, True], ids=["shipped", "delta8x2"])
    def test_charts(self, store, store_x2, extended):
        checked, bad = off_spec(store_x2 if extended else store)
        assert checked >= (3 if extended else 1) * 386 and bad == []

    def test_oracle_instances(self):
        total = 0
        for seed in range(200):
            checked, bad = off_spec(saturate(random_instance(random.Random(seed))))
            assert bad == [], seed
            total += checked
        assert total > 200


class TestDelta8Equivariance:
    def test_three_copies(self, chart):
        # Criterion 8 checks one Δ⁸ copy; three copies must also carry every
        # fact of the base range at +192·k, and the family golden sets.
        extended = delta8_extend(chart, 3)
        store = saturate(extended)
        base = [
            (map_name, source, m)
            for map_name, source in store.facts
            if source.stem <= chart.max_stem
            and (m := _SHIFT.match(source.name)) is not None
        ]
        assert len(base) > 400
        missing = []
        for map_name, source, m in base:
            for k in (1, 2, 3):
                shifted = f"{m.group(1)}_{{{source.stem + 192 * k},{m.group(3)}}}"
                element = extended.elements.get(f"{source.module.value}:{shifted}")
                if element is None or fact_key(map_name, element) not in store.facts:
                    missing.append((map_name, source.key, k))
        assert missing == []
        assert emit_families(build_table(store, extended), extended).golden_diff() == []
