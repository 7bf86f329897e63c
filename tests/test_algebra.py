"""Span arithmetic, knowledge states, generator actions, the record tuples,
and the report stages' pause of the cyclic garbage collector."""

import copy
import gc
import pickle
import random
from operator import attrgetter

import pytest
from hypothesis import given, strategies as st

from les_deduce.algebra import (
    ActionFact,
    ActionTable,
    DegreeMismatchError,
    Element,
    GENERATORS,
    ModuleId,
    NAME_CONVENTION,
    UndefinedFloorError,
    Value,
    ZERO,
    acyclic,
    filtration_floor,
    span_add,
    span_of,
    values_equal_mod_higher,
)
from les_deduce import chartdata, families, rules, sequences
from les_deduce.chartdata import ChartValidationError
from les_deduce.families import _single
from les_deduce.oracle import run_soundness_trial


def el(module, stem, filt, name):
    return Element(ModuleId(module), stem, filt, name)


Y50_4 = el("Y", 50, 4, "y_{50,4}")
Y50_6 = el("Y", 50, 6, "y_{50,6}")
M6_2 = el("M", 6, 2, "m_{6,2}")
M48_6 = el("M", 48, 6, "m_{48,6}")
S24_0 = el("S", 24, 0, "s_{24,0}")

POOL = [Y50_4, Y50_6, el("Y", 50, 8, "y_{50,8}"), el("Y", 50, 11, "y_{50,11}")]

spans = st.sets(st.sampled_from(POOL)).map(frozenset)


class TestSpanAdd:
    def test_disjoint_union(self):
        assert span_add(span_of(Y50_4), span_of(Y50_6)) == span_of(Y50_4, Y50_6)

    def test_characteristic_two(self):
        assert span_add(span_of(Y50_4), span_of(Y50_4)) == ZERO

    def test_zero_identity(self):
        assert span_add(ZERO, span_of(M6_2)) == span_of(M6_2)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            span_add(span_of(Y50_4), span_of(M6_2))
        with pytest.raises(DegreeMismatchError):
            span_of(Y50_4, M6_2)

    @given(spans, spans, spans)
    def test_vector_space_laws(self, a, b, c):
        assert span_add(span_add(a, b), c) == span_add(a, span_add(b, c))
        assert span_add(a, b) == span_add(b, a)
        assert span_add(a, a) == ZERO
        assert span_add(a, ZERO) == a


class TestFiltrationFloor:
    def test_singleton(self):
        assert filtration_floor(span_of(M48_6)) == 6

    def test_min(self):
        assert filtration_floor(span_of(Y50_4, Y50_6)) == 4

    def test_lift_column_class(self):
        assert filtration_floor(span_of(S24_0)) == 0

    def test_zero_undefined(self):
        with pytest.raises(UndefinedFloorError):
            filtration_floor(ZERO)


class TestRingGenerator:
    # ``GENERATORS`` is the one home of the generators' degrees.
    def test_fixed_stem_degrees(self):
        assert {name: g.stem_degree for name, g in GENERATORS.items()} == {
            "η": 1, "ν": 3, "κ": 14, "κ̄": 20, "c₄": 8, "c₆": 12, "Δ": 24, "Δ⁸": 192, "v₁": 2, "2": 0,
        }
        assert all(g.name == name for name, g in GENERATORS.items())

    def test_kappabar_filtration_pinned(self):
        assert GENERATORS["κ̄"].filtration_degree == 4
        assert {name for name, g in GENERATORS.items() if g.filtration_degree} == {"η", "ν", "κ", "κ̄"}

    def test_delta8_has_filtration_zero(self):
        # The families are 192-periodic because Δ⁸ acts in filtration 0.
        assert GENERATORS["Δ⁸"] == ("Δ⁸", 192, 0)

    def test_unknown_name(self):
        assert "λ" not in GENERATORS
        assert ActionTable().act("λ", span_of(Y50_4)) is None


class TestActionFact:
    def test_stem_law(self):
        kbar = GENERATORS["κ̄"]
        src = el("Y", 62, 2, "y_{62,2}")
        good = el("Y", 82, 6, "y_{82,6}")
        ActionFact(kbar, src, Value.known(span_of(good)))
        with pytest.raises(DegreeMismatchError):
            ActionFact(kbar, src, Value.known(span_of(el("Y", 80, 6, "y_{80,6}"))))

    def test_filtration_law(self):
        kbar = GENERATORS["κ̄"]
        src = el("Y", 62, 2, "y_{62,2}")
        with pytest.raises(ValueError):
            ActionFact(kbar, src, Value.known(span_of(el("Y", 82, 5, "y_{82,5}"))))

    def test_value_is_required(self):
        with pytest.raises(TypeError):
            ActionFact(GENERATORS["v₁"], Y50_4)

    def test_zero_and_nonzero_unknown_accepted(self):
        v1 = GENERATORS["v₁"]
        assert ActionFact(v1, Y50_4, Value.nonzero_unknown()).value == Value.nonzero_unknown()
        assert ActionFact(v1, Y50_4, Value.zero()).value == Value.zero()

    def test_nonzero_unknown_skips_degree_checks(self):
        kbar = GENERATORS["κ̄"]
        src = el("Y", 62, 2, "y_{62,2}")
        assert not ActionFact(kbar, src, Value.nonzero_unknown()).value.is_known


class TestAct:
    def setup_method(self):
        self.kbar = GENERATORS["κ̄"]
        self.a = el("Y", 62, 2, "a")
        self.b = el("Y", 62, 5, "b")
        self.ka = el("Y", 82, 6, "ka")
        self.kb = el("Y", 82, 9, "kb")
        self.table = ActionTable(
            [
                ActionFact(self.kbar, self.a, Value.known(span_of(self.ka))),
                ActionFact(self.kbar, self.b, Value.known(span_of(self.kb))),
            ]
        )

    def test_zero_input(self):
        assert self.table.act("κ̄", ZERO) == Value.zero()

    def test_linearity(self):
        got = self.table.act("κ̄", span_of(self.a, self.b))
        assert got == Value.known(span_of(self.ka, self.kb))

    def test_unknown_term(self):
        c = el("Y", 62, 7, "c")
        assert self.table.act("κ̄", span_of(self.a, c)) is None

    def test_act_and_facts_follow_add(self):
        c = el("Y", 62, 1, "c")
        assert self.table.act("κ̄", span_of(c)) is None
        assert len(self.table.facts()) == 2
        self.table.add(ActionFact(self.kbar, c, Value.known(span_of(self.ka))))
        vc = el("Y", 64, 1, "vc")
        self.table.add(ActionFact(GENERATORS["v₁"], c, Value.known(span_of(vc))))
        assert self.table.act("κ̄", span_of(c)) == Value.known(span_of(self.ka))
        assert [(f.generator.name, f.source) for f in self.table.facts()] == [
            ("v₁", c), ("κ̄", self.a), ("κ̄", self.b), ("κ̄", c),
        ]

    def test_act_on_shipped_chart(self, chart):
        y62 = chart.elements["Y:y_{62,2}"]
        got = chart.actions.act("κ̄", frozenset({y62}))
        assert got == Value.known(frozenset({chart.elements["Y:y_{82,6}"]}))
        y3 = chart.elements["Y:y_{3,1}"]
        assert chart.actions.act("v₁", frozenset({y3})) == Value.zero()

    @given(st.sets(st.integers(0, 3)), st.sets(st.integers(0, 3)))
    def test_act_is_linear(self, ia, ib):
        sources = [el("Y", 62, i, f"src{i}") for i in range(4)]
        targets = [el("Y", 82, i + 4, f"tgt{i}") for i in range(4)]
        kbar = GENERATORS["κ̄"]
        table = ActionTable(
            ActionFact(kbar, s, Value.known(span_of(t))) for s, t in zip(sources, targets)
        )
        a = frozenset(sources[i] for i in ia)
        b = frozenset(sources[i] for i in ib)
        lhs = table.act("κ̄", span_add(a, b))
        rhs = span_add(table.act("κ̄", a).span, table.act("κ̄", b).span)
        assert lhs == Value.known(rhs)


class TestValueMerge:
    def test_equal_mod_higher(self):
        lo = Value.known(span_of(Y50_4))
        both = Value.known(span_of(Y50_4, Y50_6))
        assert values_equal_mod_higher(lo, both)

    def test_zero_never_merges_with_nonzero(self):
        assert not values_equal_mod_higher(Value.zero(), Value.known(span_of(Y50_6)))

    def test_same_floor_disagreement(self):
        a = Value.known(span_of(Y50_4))
        b = Value.known(span_of(el("Y", 50, 4, "y50other")))
        assert not values_equal_mod_higher(a, b)


class TestSharedValuesAndHashes:
    def test_zero_and_nonzero_unknown_are_shared(self):
        assert Value.zero() is Value.zero()
        assert Value.nonzero_unknown() is Value.nonzero_unknown()

    @pytest.mark.parametrize("shared", [Value.zero(), Value.nonzero_unknown()])
    def test_shared_values_stay_frozen(self, shared):
        with pytest.raises(AttributeError):
            shared.span = span_of(Y50_4)
        with pytest.raises(AttributeError):
            shared.state = shared.state

    def test_equal_elements_hash_equal(self):
        twin = el("Y", 50, 4, "y_{50,4}")
        rebuilt = Y50_6._replace(filtration=4, name="y_{50,4}")
        assert twin == Y50_4 == rebuilt
        assert hash(twin) == hash(Y50_4) == hash(rebuilt)
        assert len({Y50_4, twin, rebuilt}) == 1

    def test_periodic_flag_separates_equal_keys(self):
        periodic = Y50_4._replace(periodic=True)
        assert periodic.key == Y50_4.key
        assert periodic != Y50_4
        assert len({periodic, Y50_4}) == 2


class TestRecordTuples:
    """Every immutable record is a named tuple: the tuple's hash, equality and
    order, fields that cannot be assigned, and derived fields that follow
    ``_replace``."""

    def test_element_order_is_the_field_order(self, chart):
        from les_deduce.chartdata import delta8_extend, expand_periodic

        extended = delta8_extend(chart, 2)
        monomials = [
            m.element
            for module in (ModuleId.Y, ModuleId.M, ModuleId.S)
            for m in expand_periodic(module, extended.max_stem)
        ]
        elements = [*extended.elements.values(), *monomials]
        by_fields = sorted(elements, key=attrgetter("module", "stem", "filtration", "name", "periodic"))
        assert sorted(elements) == by_fields
        assert sorted(reversed(elements)) == by_fields

    def test_replace_rebuilds_derived_fields(self, chart):
        from les_deduce.chartdata import SesRecord

        renamed = Y50_6._replace(name="y_{50,4}")
        assert renamed.key == "Y:y_{50,4}" and renamed == el("Y", 50, 6, "y_{50,4}")
        assert Y50_4._replace(module=ModuleId.M).key == "M:y_{50,4}"
        with pytest.raises(TypeError):
            Y50_4._replace(key="Y:other")
        if hasattr(copy, "replace"):  # Python 3.13+
            assert copy.replace(Y50_6, name="y_{50,4}").key == "Y:y_{50,4}"

        record = next(r for r in chart.ses_records if len(r.middle) == 2)
        low, high = record.middle
        assert low.filtration <= high.filtration
        moved = record._replace(stem=record.stem + 192)
        assert moved.ref == f"{record.context}@{record.stem + 192}" and moved.middle == record.middle
        swapped = record._replace(middle=(high, low), kernel=None)
        assert swapped.middle == (low, high) and swapped.kernel is None and swapped == record._replace(kernel=None)
        with pytest.raises(TypeError):
            record._replace(ref="SES-2.7@0")

    def test_replace_and_copies_keep_the_checks(self, chart):
        fact = chart.actions.facts()[0]
        with pytest.raises(DegreeMismatchError):
            fact._replace(value=Value.known(span_of(M6_2)))
        record = chart.ses_records[0]
        for original in (Y50_4, fact, fact.generator, record):
            assert copy.copy(original) == original == pickle.loads(pickle.dumps(original))

    def test_fields_cannot_be_assigned(self, chart, store):
        from les_deduce.chartdata import MapAxiom, expand_periodic
        from les_deduce.families import build_table, emit_families
        from les_deduce.oracle import enumerate_fillings, random_instance
        from les_deduce.sequences import SEQUENCES, Contradiction, fact_key

        rows = build_table(store, chart)
        les = next(iter(SEQUENCES.values()))
        records = [
            Y50_4, GENERATORS["κ̄"], Value.known(span_of(Y50_4)), chart.actions.facts()[0],
            chart.ses_records[0], MapAxiom("p2", Y50_4, Value.zero()),
            expand_periodic(ModuleId.Y, 48)[0], les, les.maps[0],
            Contradiction(fact_key("p2", Y50_4), Value.zero(), Value.nonzero_unknown(), "T1", "T2"),
            rows[0], emit_families(rows, chart).case_ii[0],
            next(iter(enumerate_fillings(random_instance(random.Random(0)))[0].values())),
        ]
        assert {type(r).__name__ for r in records} == {
            "Element", "RingGenerator", "Value", "ActionFact", "SesRecord", "MapAxiom", "Monomial",
            "SequenceSpec", "MapSpec", "Contradiction", "TableRow", "FamilyReport", "JunctionFilling",
        }
        for record in records:
            assert isinstance(record, tuple)
            for field in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, field, getattr(record, field))
            with pytest.raises(AttributeError):
                record.extra = 1


class TestNameConvention:
    def test_consistent(self):
        el("Y", 50, 4, "y_{50,4}").check_name_convention()

    def test_inconsistent(self):
        with pytest.raises(ValueError):
            el("Y", 50, 4, "y_{50,6}").check_name_convention()

    def test_free_form_names_exempt(self):
        el("Y", 50, 4, "someclass").check_name_convention()

    @pytest.mark.parametrize("name, stem, filtration, consistent", [
        ("y_{50,4}", 50, 4, True), ("y_{050,4}", 50, 4, True), ("y_{-0,4}", 0, 4, True),
        ("y_{50,4}\n", 50, 4, True), ("y_{50,4}\n", 50, 5, False), ("Y_{50,5}", 50, 4, True),
        ("y_{50,4}x", 50, 5, True), ("y_{51,4}", 50, 4, False), ("", 50, 4, True),
    ])
    def test_agrees_with_the_pattern(self, name, stem, filtration, consistent):
        """The check passes exactly when ``NAME_CONVENTION`` does not match, or
        its stem and filtration groups read as the element's degree."""
        m = NAME_CONVENTION.match(name)
        assert (not m or (int(m[2]), int(m[3])) == (stem, filtration)) is consistent
        element = el("Y", stem, filtration, name)
        if consistent:
            element.check_name_convention()
        else:
            with pytest.raises(ValueError):
                element.check_name_convention()


def act_by_definition(table, generator_name, span):
    """``ActionTable.act`` as its docstring defines it, with no fast path: the
    sum of the terms' recorded values; None when a term is missing, or
    nonzero-unknown among several; nonzero-unknown as the only term."""
    facts = [table.by_key.get((generator_name, element.key)) for element in span]
    if None in facts:
        return None
    if any(not fact.value.is_known for fact in facts):
        return Value.nonzero_unknown() if len(facts) == 1 else None
    total = ZERO
    for fact in facts:
        total = span_add(total, fact.value.span)
    return Value.known(total)


class TestOneClassFastPaths:
    """The one-class paths of ``act``, ``filtration_floor``, ``span_of`` and
    ``families._single`` agree with the general definitions."""

    V1 = GENERATORS["v₁"]
    TARGETS = [el("Y", 52, f, f"y_{{52,{f}}}") for f in (11, 12, 14, 16)]  # above every source
    RECORDED = {
        "class": st.sampled_from(TARGETS).map(lambda t: Value.known(span_of(t))),
        "zero": st.just(Value.zero()),
        "nonzero": st.just(Value.nonzero_unknown()),
        "missing": st.none(),
    }

    @given(st.lists(st.one_of(*RECORDED.values()), min_size=len(POOL), max_size=len(POOL)), st.data())
    def test_act(self, recorded, data):
        """g·x recorded as a known class, a known zero, a bare nonzero mark,
        or not at all, for each x of ``POOL``; then ``act`` on one class and
        on a random span."""
        table = ActionTable(
            ActionFact(self.V1, source, value) for source, value in zip(POOL, recorded) if value is not None
        )
        for source, value in zip(POOL, recorded):
            got = table.act("v₁", frozenset({source}))
            assert got == act_by_definition(table, "v₁", frozenset({source}))
            assert got is value  # the recorded Value itself, or None
        span = data.draw(spans)
        assert table.act("v₁", span) == act_by_definition(table, "v₁", span)

    @given(st.sampled_from([*POOL, M6_2, M48_6, S24_0]))
    def test_filtration_floor_and_span_of(self, element):
        span = span_of(element)
        assert span == frozenset({element})
        assert filtration_floor(span) == min(e.filtration for e in span) == element.filtration

    @given(st.one_of(
        st.none(), st.just(Value.zero()), st.just(Value.nonzero_unknown()),
        st.sets(st.sampled_from(POOL), min_size=1, max_size=2).map(lambda s: Value.known(frozenset(s))),
    ))
    def test_single(self, value):
        """``_single`` on no value, zero, nonzero-unknown, one class and two."""
        by_definition = None
        if value is not None and value.is_known and len(value.span) == 1:
            by_definition = next(iter(value.span))
        assert _single(value) == by_definition


# The six stages of a report, each run on the output of the ones before it.
STAGES = {
    "loads": (chartdata.loads, lambda s: (s["text"],)),
    "delta8_extend": (chartdata.delta8_extend, lambda s: (s["chart"], 2)),
    "saturate": (rules.saturate, lambda s: (s["chart"],)),
    "check_all": (sequences.check_all, lambda s: (s["store"], s["chart"])),
    "build_table": (families.build_table, lambda s: (s["store"], s["chart"])),
    "emit_families": (families.emit_families, lambda s: (s["rows"], s["chart"])),
}


@pytest.fixture
def collector_restored():
    """Put the collector back as the test found it, whatever the test left."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def cyclic_garbage(run) -> int:
    """Objects in reference cycles that ``run()`` leaves once its result is
    dropped: what ``gc.collect()`` finds with the collector off throughout."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(scope="module", params=[0, 2], ids=["shipped", "delta8x2"])
def scale(request, chart):
    """Each stage's inputs on the shipped chart or its Δ⁸×2 extension."""
    extended = chartdata.delta8_extend(chart, request.param)
    store = rules.saturate(extended)
    return {
        "text": chartdata.dumps(extended),
        "chart": extended,
        "store": store,
        "rows": families.build_table(store, extended),
    }


@pytest.mark.usefixtures("collector_restored")
class TestAcyclic:
    """``acyclic`` pauses the cyclic collector in the report stages, which is
    sound only while the stages build no reference cycles: these tests keep
    both true."""

    @pytest.mark.parametrize("name", STAGES)
    def test_stage_carries_the_decorator(self, name):
        stage = STAGES[name][0]
        assert stage.__wrapped__.__name__ == name
        assert stage.__code__ is acyclic(len).__code__  # the wrapper is acyclic's own

    @pytest.mark.parametrize("name", STAGES)
    def test_stage_builds_no_cycles(self, scale, name):
        stage, args = STAGES[name]
        assert cyclic_garbage(lambda: stage(*args(scale))) == 0

    def test_oracle_trials_build_no_cycles(self):
        assert cyclic_garbage(lambda: [run_soundness_trial(seed) for seed in range(200)]) == 0

    def test_loader_failure_builds_no_cycles(self):
        raised = []

        def run():
            try:
                chartdata.loads('{"schemaVersion": "1", "surprise": true}')
            except ChartValidationError as exc:
                raised.append(str(exc))

        assert cyclic_garbage(run) == 0
        assert raised == ["top level: unknown fields ['surprise']"]

    def test_pauses_and_restores(self):
        seen = []

        @acyclic
        def probe():
            seen.append(gc.isenabled())
            return "done"

        gc.enable()
        assert probe() == "done" and gc.isenabled()
        assert seen == [False]

    def test_restores_after_a_raise(self):
        @acyclic
        def fails():
            assert not gc.isenabled()
            raise KeyError("boom")

        gc.enable()
        with pytest.raises(KeyError):
            fails()
        assert gc.isenabled()

    def test_leaves_a_paused_collector_paused(self):
        @acyclic
        def inner():
            return gc.isenabled()

        @acyclic
        def outer():
            return inner(), gc.isenabled()

        gc.disable()
        assert inner() is False and not gc.isenabled()
        gc.enable()
        assert outer() == (False, False) and gc.isenabled()
