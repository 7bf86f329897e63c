"""Span arithmetic, knowledge states, and generator actions."""

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
        ActionFact(kbar, src, value=span_of(good))
        with pytest.raises(DegreeMismatchError):
            ActionFact(kbar, src, value=span_of(el("Y", 80, 6, "y_{80,6}")))

    def test_filtration_law(self):
        kbar = RingGenerator("κ̄", 20, 4)
        src = el("Y", 62, 2, "y_{62,2}")
        with pytest.raises(ValueError):
            ActionFact(kbar, src, value=span_of(el("Y", 82, 5, "y_{82,5}")))

    def test_exactly_one_of_value_or_nonzero(self):
        v1 = RingGenerator("v₁", 2, 0)
        with pytest.raises(ValueError):
            ActionFact(v1, Y50_4)
        ActionFact(v1, Y50_4, nonzero=True)
        ActionFact(v1, Y50_4, value=ZERO)


class TestAct:
    def setup_method(self):
        self.kbar = RingGenerator("κ̄", 20, 4)
        self.a = el("Y", 62, 2, "a")
        self.b = el("Y", 62, 5, "b")
        self.ka = el("Y", 82, 6, "ka")
        self.kb = el("Y", 82, 9, "kb")
        self.table = ActionTable(
            [
                ActionFact(self.kbar, self.a, value=span_of(self.ka)),
                ActionFact(self.kbar, self.b, value=span_of(self.kb)),
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

    def test_landing_on_follows_add(self):
        assert self.table.landing_on(self.ka) == (self.table.get("κ̄", self.a),)
        c = el("Y", 62, 1, "c")
        assert self.table.landing_on(self.a) == ()
        self.table.add(ActionFact(self.kbar, c, value=span_of(self.ka)))
        assert [f.source for f in self.table.landing_on(self.ka)] == [self.a, c]
        assert len(self.table.facts()) == 3

    def test_landing_on_skips_sums_and_nonzero_marks(self):
        c = el("Y", 62, 1, "c")
        d = el("Y", 62, 0, "d")
        self.table.add(ActionFact(self.kbar, c, value=span_of(self.ka, self.kb)))
        self.table.add(ActionFact(self.kbar, d, nonzero=True))
        assert [f.source for f in self.table.landing_on(self.ka)] == [self.a]

    def test_act_on_shipped_chart(self, chart):
        y62 = chart.element("Y:y_{62,2}")
        got = chart.actions.act("κ̄", frozenset({y62}))
        assert got == Value.known(frozenset({chart.element("Y:y_{82,6}")}))
        y3 = chart.element("Y:y_{3,1}")
        assert chart.actions.act("v₁", frozenset({y3})) == Value.zero()

    @given(st.sets(st.integers(0, 3)), st.sets(st.integers(0, 3)))
    def test_act_is_linear(self, ia, ib):
        sources = [el("Y", 62, i, f"src{i}") for i in range(4)]
        targets = [el("Y", 82, i + 4, f"tgt{i}") for i in range(4)]
        kbar = RingGenerator("κ̄", 20, 4)
        table = ActionTable(
            ActionFact(kbar, s, value=span_of(t)) for s, t in zip(sources, targets)
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


class TestNameConvention:
    def test_consistent(self):
        el("Y", 50, 4, "y_{50,4}").check_name_convention()

    def test_inconsistent(self):
        with pytest.raises(ValueError):
            el("Y", 50, 4, "y_{50,6}").check_name_convention()

    def test_free_form_names_exempt(self):
        el("Y", 50, 4, "someclass").check_name_convention()
