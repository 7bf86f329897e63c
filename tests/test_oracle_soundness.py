"""The brute-force filling oracle and engine soundness on synthetic data."""

import random

from hypothesis import given, settings, strategies as st

from les_deduce.algebra import Element, ModuleId, Value, span_of
from les_deduce.chartdata import SesRecord
from les_deduce.oracle import (
    check_soundness,
    enumerate_fillings,
    fact_holds,
    gf2_rank,
    random_instance,
    run_soundness_trial,
)
from les_deduce.rules import saturate

from test_rules import mini_chart


class TestGf2:
    def test_rank(self):
        assert gf2_rank([0b01, 0b10]) == 2
        assert gf2_rank([0b01, 0b01]) == 1
        assert gf2_rank([0b11, 0b01, 0b10]) == 2
        assert gf2_rank([]) == 0


class TestEnumeration:
    def test_forced_junction_has_unique_filling(self):
        # The (1, 2, 1) exclusion shape admits exactly one exact filling.
        c = Element(ModuleId.M, 45, 5, "c")
        u = Element(ModuleId.Y, 45, 3, "u")
        w = Element(ModuleId.Y, 45, 9, "w")
        g = Element(ModuleId.M, 43, 9, "g")
        record = SesRecord("SES-2.8", 45, (u, w), (c,), (g,))
        chart = mini_chart([record], [c, u, w, g])
        fillings = enumerate_fillings(chart)
        assert len(fillings) == 1
        jf = fillings[0][("SES-2.8", 45)]
        assert jf.include == (0b10,)  # c -> w
        assert jf.project == (0b1, 0b0)  # u -> g, w -> 0

    def test_ambiguous_junction_has_multiple_fillings(self):
        c = Element(ModuleId.M, 10, 1, "c")
        u = Element(ModuleId.Y, 10, 1, "u")
        w = Element(ModuleId.Y, 10, 1, "w")
        g = Element(ModuleId.M, 8, 1, "g")
        record = SesRecord("SES-2.8", 10, (u, w), (c,), (g,))
        chart = mini_chart([record], [c, u, w, g])
        assert len(enumerate_fillings(chart)) > 1

    def test_engine_stays_silent_when_fillings_disagree(self):
        c = Element(ModuleId.M, 10, 1, "c")
        u = Element(ModuleId.Y, 10, 1, "u")
        w = Element(ModuleId.Y, 10, 1, "w")
        g = Element(ModuleId.M, 8, 1, "g")
        record = SesRecord("SES-2.8", 10, (u, w), (c,), (g,))
        chart = mini_chart([record], [c, u, w, g])
        store = saturate(chart)
        assert store.get("p2", u) is None
        assert store.get("p2", w) is None


class TestFactHolds:
    def test_source_adjustment(self):
        u = Element(ModuleId.Y, 10, 1, "u")
        w = Element(ModuleId.Y, 10, 4, "w")
        g = Element(ModuleId.M, 8, 2, "g")
        record = SesRecord("SES-2.8", 10, (u, w), (), (g, Element(ModuleId.M, 8, 6, "h")))
        chart = mini_chart([record], [u, w, g])
        fillings = enumerate_fillings(chart)
        # In fillings where u and u+w differ, the zero claim on u holds as
        # long as some higher-filtration representative dies.
        for filling in fillings:
            jf = filling[("SES-2.8", 10)]
            raw_dies = jf.project[0] == 0
            adjusted_dies = jf.project[0] ^ jf.project[1] == 0
            expected = raw_dies or adjusted_dies
            assert fact_holds(chart, filling, "p2", u, Value.zero()) is expected

    def test_value_adjustment(self):
        u = Element(ModuleId.Y, 10, 1, "u")
        k1 = Element(ModuleId.M, 8, 1, "k1")
        k2 = Element(ModuleId.M, 8, 7, "k2")
        record = SesRecord("SES-2.8", 10, (u,), (), (k1, k2))
        chart = mini_chart([record], [u, k1, k2])
        for filling in enumerate_fillings(chart):
            jf = filling[("SES-2.8", 10)]
            claim = Value.known(span_of(k1))
            holds = fact_holds(chart, filling, "p2", u, claim)
            # k1 and k1 + k2 agree modulo the higher class k2
            assert holds is (jf.project[0] in (0b01, 0b11))


class TestSoundness:
    @given(st.integers(min_value=10_000, max_value=10_200))
    @settings(max_examples=30, deadline=None)
    def test_soundness_property(self, seed):
        _, violations = run_soundness_trial(seed)
        assert violations == []

    def test_store_contradictions_on_consistent_instances(self):
        """A known defect, pinned: the oracle cannot see store contradictions.

        ``random_instance`` draws its axioms from a real filling, so no
        saturated store should hold a contradiction, yet four seeds in 0-999
        do.  ``check_soundness`` reads only stored facts, so all four pass
        it.  Seed 220 sets the axiom p₁(u) = g against EXACT's p₁(u) = 0
        after adjusting u by w: both hold under the oracle's
        source-adjustment reading, so the store's equality is stricter than
        the oracle's.  Seed 92 sets T2 against LIN, which pushes T3b's
        adjusted p₁(x₀) = x₂ through κ̄·x₂ = 0 to p₁(x₄) = 0; no filling
        allows that, because the projection is injective.
        """
        seeds = [
            seed
            for seed in range(1000)
            if saturate(random_instance(random.Random(seed))).contradictions
        ]
        assert seeds == [61, 92, 220, 486]
        assert all(run_soundness_trial(seed)[1] == [] for seed in seeds)

    def test_t4_seeds_sound_with_the_root_defect_pinned(self):
        """Seeds 27349 and 54073: the engine was at fault, and T4's
        same-batch completion was what made it unsound.

        Each instance has two (1, 2, 1) records, a lower one with middle
        {u, w} (u below w) and an upper one κ̄-stem above, and κ̄ sends u to
        the lower middle class x₄ of the upper record.  The axioms give
        p(w) = g and p(x₄) = x₇, the upper kernel generator.  In 27349
        u = x₁, w = x₀; in 54073 u = x₀, w = x₁.

        * EXACT adjusts u by w to get p(u) = 0: a claim about u + w.
        * T4 and LIN push that zero through κ̄·u = x₄, an action recorded on
          the unadjusted class u, to p(x₄) = 0, which fails in one of the
          instance's two fillings.
        * The store rejects p(x₄) = 0 against the axiom.  But T4 also
          emitted, in the same batch, the completion p(x₅) = x₇ that rested
          on that zero, and the store kept it; EXACT then lifted the upper
          cokernel onto x₄ from it.  Those two stored facts were the
          seeds' oracle violations.

        T4 emits only its zero, and only EXACT completes a record, from
        stored zeros.  A rejected zero completes nothing, so both seeds are
        sound.  The root defect, pushing an adjusted zero through an action
        on the unadjusted class, remains: the two contradictions below pin
        it until linearity learns which basis an action is recorded on.
        """
        expected = {
            27349: [
                "p2|Y:x4s49f10: M:x7s47f15 [axiom] vs 0 [LIN]",
                "p2|Y:x4s49f10: M:x7s47f15 [axiom] vs 0 [T4]",
            ],
            54073: [
                "p1|M:x4s40f9: S:x7s39f14 [axiom] vs 0 [LIN]",
                "p1|M:x4s40f9: S:x7s39f14 [axiom] vs 0 [T4]",
            ],
        }
        for seed, contradictions in expected.items():
            chart = random_instance(random.Random(seed))
            store = saturate(chart)
            assert sorted(c.describe() for c in store.contradictions) == contradictions
            assert check_soundness(chart, store, enumerate_fillings(chart)) == [], seed

    def test_instances_exercise_every_rule(self):
        from collections import Counter

        counts = Counter()
        for seed in range(400):
            chart = random_instance(random.Random(seed))
            store = saturate(chart)
            for derivations in store.derivations.values():
                for d in derivations:
                    counts[d.rule] += 1
        for rule in ("T1", "T2", "T3a", "T3b", "T4", "LIN", "EXACT"):
            assert counts[rule] > 0, f"rule {rule} never fired in 400 instances"
