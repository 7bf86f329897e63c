"""Span arithmetic, knowledge states, generator actions, and the record tuples."""

import copy
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
    ModuleId,
    RingGenerator,
    UndefinedFloorError,
    Value,
    ZERO,
    filtration_floor,
    span_add,
    span_of,
    values_equal_mod_higher,
)


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
    def test_fixed_stem_degrees(self):
        assert RingGenerator("κ̄", 20, 4).stem_degree == 20
        with pytest.raises(ValueError):
            RingGenerator("κ̄", 21, 4)

    def test_kappabar_filtration_pinned(self):
        with pytest.raises(ValueError):
            RingGenerator("κ̄", 20, 3)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            RingGenerator("λ", 2, 0)


class TestActionFact:
    def test_stem_law(self):
        kbar = RingGenerator("κ̄", 20, 4)
        src = el("Y", 62, 2, "y_{62,2}")
        good = el("Y", 82, 6, "y_{82,6}")
        ActionFact(kbar, src, Value.known(span_of(good)))
        with pytest.raises(DegreeMismatchError):
            ActionFact(kbar, src, Value.known(span_of(el("Y", 80, 6, "y_{80,6}"))))

    def test_filtration_law(self):
        kbar = RingGenerator("κ̄", 20, 4)
        src = el("Y", 62, 2, "y_{62,2}")
        with pytest.raises(ValueError):
            ActionFact(kbar, src, Value.known(span_of(el("Y", 82, 5, "y_{82,5}"))))

    def test_value_is_required(self):
        with pytest.raises(TypeError):
            ActionFact(RingGenerator("v₁", 2, 0), Y50_4)

    def test_zero_and_nonzero_unknown_accepted(self):
        v1 = RingGenerator("v₁", 2, 0)
        assert ActionFact(v1, Y50_4, Value.nonzero_unknown()).value == Value.nonzero_unknown()
        assert ActionFact(v1, Y50_4, Value.zero()).value == Value.zero()

    def test_nonzero_unknown_skips_degree_checks(self):
        kbar = RingGenerator("κ̄", 20, 4)
        src = el("Y", 62, 2, "y_{62,2}")
        assert not ActionFact(kbar, src, Value.nonzero_unknown()).value.is_known


class TestAct:
    def setup_method(self):
        self.kbar = RingGenerator("κ̄", 20, 4)
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

    def test_single_valued_follows_add(self):
        """``add`` drops the push plan, and ``act`` sees the added facts."""
        pushes = self.table.single_valued()
        assert pushes[self.a.key] == ((self.table.get("κ̄", self.a), self.ka, "κ̄·Y:a"),)
        c = el("Y", 62, 1, "c")
        assert c.key not in self.table.single_valued()
        assert self.table.act("κ̄", span_of(c)) is None
        self.table.add(ActionFact(self.kbar, c, Value.known(span_of(self.ka))))
        vc = el("Y", 64, 1, "vc")
        self.table.add(ActionFact(RingGenerator("v₁", 2, 0), c, Value.known(span_of(vc))))
        assert [(f.generator.name, t, label) for f, t, label in self.table.single_valued()[c.key]] == [
            ("v₁", vc, "v₁·Y:c"),
            ("κ̄", self.ka, "κ̄·Y:c"),
        ]
        assert self.table.act("κ̄", span_of(c)) == Value.known(span_of(self.ka))
        assert len(self.table.facts()) == 4

    def test_single_valued_skips_sums_and_nonzero_marks(self):
        c = el("Y", 62, 1, "c")
        d = el("Y", 62, 0, "d")
        z = el("Y", 62, 3, "z")
        self.table.add(ActionFact(self.kbar, c, Value.known(span_of(self.ka, self.kb))))
        self.table.add(ActionFact(self.kbar, d, Value.nonzero_unknown()))
        self.table.add(ActionFact(self.kbar, z, Value.zero()))
        assert sorted(self.table.single_valued()) == [self.a.key, self.b.key]
        assert [f.source for f, _, _ in self.table.single_valued()[self.a.key]] == [self.a]

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
        kbar = RingGenerator("κ̄", 20, 4)
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
            for m in expand_periodic(module, extended.max_stem, extended.periodic_presentations)
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
        with pytest.raises(ValueError):
            fact.generator._replace(stem_degree=fact.generator.stem_degree + 1)
        record = chart.ses_records[0]
        for original in (Y50_4, fact, fact.generator, record):
            assert copy.copy(original) == original == pickle.loads(pickle.dumps(original))

    def test_fields_cannot_be_assigned(self, chart, store):
        from les_deduce.chartdata import MapAxiom, expand_periodic
        from les_deduce.families import build_table, emit_families
        from les_deduce.oracle import enumerate_fillings, random_instance
        from les_deduce.sequences import SEQUENCES, Contradiction

        rows = build_table(store, chart)
        les = next(iter(SEQUENCES.values()))
        records = [
            Y50_4, RingGenerator("κ̄", 20, 4), Value.known(span_of(Y50_4)), chart.actions.facts()[0],
            chart.ses_records[0], MapAxiom("p2", Y50_4, Value.zero()),
            expand_periodic(ModuleId.Y, 48)[0], les, les.maps[0],
            Contradiction("p2|Y:y_{50,4}", Value.zero(), Value.nonzero_unknown(), "T1", "T2"),
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
