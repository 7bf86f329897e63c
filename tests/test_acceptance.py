"""Acceptance criteria, one test per criterion, each printing a verdict line.

Everything here is exact F2 arithmetic; the only tolerances are the stated
runtime budgets (10 s for the table, 60 s for the soundness sweep).
"""

import random
import re
import time

import pytest

from les_deduce.algebra import ModuleId
from les_deduce.chartdata import delta8_extend, expand_periodic
from les_deduce.families import (
    TRIVIAL_HUREWICZ_BASE_STEMS,
    NEW_ORDER_TWO_IMAGES,
    build_table,
    emit_families,
)
from les_deduce.oracle import run_soundness_trial
from les_deduce.rules import fact_labels, periodic_values, saturate
from les_deduce.sequences import check_all, fact_key

from golden_table import ROWS


def verdict(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' — ' + detail if detail else ''}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def rows(store, chart):
    return build_table(store, chart)


def test_criterion_1_table_reproduction(chart):
    started = time.time()
    store = saturate(chart)
    rows = build_table(store, chart)
    elapsed = time.time() - started

    problems = []
    assert len(rows) == len(ROWS)
    for row, (g_p3, g_p2, _, g_p1, g_lift, _, g_name) in zip(rows, ROWS):
        where = row.img_p3.name
        if where != g_p3:
            problems.append(f"{where}: row order vs {g_p3}")
            continue
        if g_p2 == "0":
            if row.img_p2 is None or not row.img_p2.is_zero:
                problems.append(f"{where}: img(p2) should vanish")
            continue
        got_p2 = row.p2_element.name if row.p2_element else None
        if got_p2 != g_p2:
            problems.append(f"{where}: img(p2) {got_p2} != {g_p2}")
            continue
        if g_p1 == "0":
            if row.img_p1 is None or not row.img_p1.is_zero:
                problems.append(f"{where}: img(p1) should vanish")
            got_lift = row.lift_i1.name if row.lift_i1 else None
            if got_lift != g_lift:
                problems.append(f"{where}: lift {got_lift} != {g_lift}")
        else:
            got_p1 = row.p1_element.name if row.p1_element else None
            if got_p1 != g_p1:
                problems.append(f"{where}: img(p1) {got_p1} != {g_p1}")
            if row.lift_i1 is not None:
                problems.append(f"{where}: unexpected lift next to nonzero img(p1)")
        if row.tmf_name != g_name:
            problems.append(f"{where}: name {row.tmf_name!r} != {g_name!r}")
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 10s")
    verdict(
        "1 (table reproduction)",
        not problems,
        problems[0] if problems else f"{len(rows)} rows exact in {elapsed:.1f}s",
    )


def test_criterion_2_technique_attribution(store, chart, rows):
    labels = fact_labels(store, store.derivations)
    problems = []
    for row, (g_p3, g_p2, g_t2, g_p1, g_lift, g_t1, _) in zip(rows, ROWS):
        key = fact_key("p2", row.img_p3)
        if g_t2 not in labels.get(key, frozenset()):
            problems.append(f"{g_p3}: no technique-{g_t2} derivation of img(p2)")
        if g_p2 in (None, "0") or g_t1 is None:
            continue
        phase2 = set()
        if row.p2_element is not None:
            phase2 |= labels.get(fact_key("p1", row.p2_element), frozenset())
        if row.lift_i1 is not None:
            phase2 |= labels.get(fact_key("i1", row.lift_i1), frozenset())
        if g_t1 not in phase2:
            problems.append(f"{g_p3}: no technique-{g_t1} derivation of the sphere column")
    verdict(
        "2 (technique attribution)",
        not problems,
        problems[0] if problems else f"all {len(rows)} rows attributed",
    )


def test_criterion_3_families(rows, chart):
    result = emit_families(rows, chart)
    problems = result.golden_diff()
    got_stems = sorted(r.base_stem for r in result.case_ii)
    verdict(
        "3 (families)",
        not problems,
        problems[0]
        if problems
        else f"caseII stems {got_stems}, {len(result.direct_p1)} new order-2 images",
    )
    assert sorted(TRIVIAL_HUREWICZ_BASE_STEMS) == got_stems
    assert {r.hurewicz_image_name for r in result.direct_p1} == NEW_ORDER_TWO_IMAGES


def test_criterion_4_periodic_formula_suite(chart):
    bound = 260
    y_index = {(m.delta, m.v1): m for m in expand_periodic(ModuleId.Y, bound)}
    m_index = {(m.delta, m.v1, m.eta): m for m in expand_periodic(ModuleId.M, bound)}
    s_index = {(m.delta, m.v1, m.eta, m.c6): m for m in expand_periodic(ModuleId.S, bound)}
    emitted = {}
    for em in periodic_values(chart, bound=bound):
        emitted[(em.map, em.source.key)] = em.value

    mismatches = []
    checked = 0

    def expect(map_name, source, target):
        nonlocal checked
        if source is None:
            return
        checked += 1
        got = emitted.get((map_name, source.element.key))
        if target is None:
            if got is not None:
                mismatches.append(f"{map_name}({source.element.name}) emitted without target")
        elif got is None or got.span != frozenset({target.element}):
            mismatches.append(f"{map_name}({source.element.name}) != {target.element.name}")

    for n in range(9):
        for k in range(7):
            expect("i2", m_index.get((n, 4 * k, 0)), y_index.get((n, 4 * k)))
            expect("i2", m_index.get((n, 4 * k + 1, 0)), y_index.get((n, 4 * k + 1)))
            expect("p2", y_index.get((n, 4 * k + 2)), m_index.get((n, 4 * k, 2)))
            expect("p2", y_index.get((n, 4 * k + 3)), m_index.get((n, 4 * k + 1, 2)))
            if k >= 1:
                for delta in (0, 1, 2):
                    expect("i1", s_index.get((n, k, delta, False)), m_index.get((n, 4 * k, delta)))
                expect("i1", s_index.get((n, k, 2, True)), m_index.get((n, 4 * k + 1, 2)))
                for eps in (1, 2):
                    expect("p1", m_index.get((n, 4 * k + 1, eps - 1)), s_index.get((n, k, eps, False)))
            else:
                for delta in (0, 1, 2):
                    source = s_index.get((n, 0, delta, False))
                    if source is not None and ("i1", source.element.key) in emitted:
                        mismatches.append(f"i1 fired outside its range on {source.element.name}")
    verdict(
        "4 (periodic formulas)",
        not mismatches,
        mismatches[0] if mismatches else f"{checked} instances, zero mismatches",
    )


def test_criterion_5_exactness(store, chart):
    verdicts = check_all(store, chart)
    bad = [v for v in verdicts if v.verdict == "contradiction"]
    ok = not bad and not store.contradictions
    verdict(
        "5 (exactness)",
        ok,
        f"{len(verdicts)} junctions, {len(bad)} contradictions, "
        f"{len(store.contradictions)} store conflicts",
    )


def test_criterion_6_oracle_soundness():
    started = time.time()
    trials = 1000
    facts = 0
    for seed in range(trials):
        n, violations = run_soundness_trial(seed)
        facts += n
        assert violations == [], f"seed {seed}: {violations}"
    elapsed = time.time() - started
    verdict(
        "6 (oracle soundness)",
        elapsed < 60.0,
        f"{trials} synthetic datasets, {facts} facts verified in {elapsed:.1f}s",
    )


def test_criterion_7_determinism(chart, store):
    baseline = store.serialize()
    for seed in range(100):
        shuffled = saturate(chart, rng=random.Random(seed))
        if shuffled.serialize() != baseline:
            verdict("7 (determinism)", False, f"schedule {seed} differs")
    verdict("7 (determinism)", True, "100 randomized schedules byte-identical")


_SHIFT = re.compile(r"^([a-z])_\{(-?\d+),(-?\d+)\}$")


def test_criterion_8_delta8_equivariance(chart):
    extended = delta8_extend(chart, 1)
    store = saturate(extended)
    # Periodic values are not in the store (criterion 4 covers them), so
    # every fact sits on a chart element.
    assert not any(source.periodic for _, source in store.facts)
    missing = []
    for key in store.facts:
        map_name, source = key
        if source.stem > chart.max_stem:
            continue
        m = _SHIFT.match(source.name)
        if m is None:
            continue
        shifted_name = f"{m.group(1)}_{{{int(m.group(2)) + 192},{m.group(3)}}}"
        shifted = extended.elements.get(f"{source.module.value}:{shifted_name}")
        if shifted is None or fact_key(map_name, shifted) not in store.facts:
            missing.append(key)
    rows = build_table(store, extended)
    result = emit_families(rows, extended)
    stems = {r.base_stem % 192 for r in result.case_ii}
    ok = not missing and stems == TRIVIAL_HUREWICZ_BASE_STEMS and result.golden_diff() == []
    verdict(
        "8 (Δ⁸ equivariance)",
        ok,
        f"{len(missing)} facts without a +192 counterpart; family stems mod 192 = {sorted(stems)}",
    )
