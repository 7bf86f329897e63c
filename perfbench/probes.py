"""Measurements the traced run adds after its loop: the scale ladder and the oracle block."""

from __future__ import annotations

import math
import random
from time import perf_counter
from typing import Dict, List, Tuple

from workloads import CHART

LADDER = (("shipped", 0), ("x1", 1), ("x2", 2), ("x4", 4))
LADDER_UNITS = {
    **{f"ladder.{point}.rules.saturate_s": "s" for point, _ in LADDER},
    **{f"ladder.{point}.chartdata.elements": "count" for point, _ in LADDER},
    "rules.growth_exponent": "ratio",
}
ORACLE_UNITS = {
    "oracle.random_instance_s": "s",
    "oracle.saturate_s": "s",
    "oracle.enumerate_fillings_s": "s",
    "oracle.check_soundness_s": "s",
    "oracle.fillings": "count",
    "oracle.facts_checked": "count",
    "oracle.violations": "count",
    "oracle.forced_facts": "count",
    "oracle.forced_derived": "count",
    "oracle.completeness": "ratio",
}

# Oracle trial seeds are drawn from [0, ORACLE_POOL); a traced run walks a
# consecutive block of ORACLE_TRIALS of them, wrapping around, from a start
# derived from the workload seed.
ORACLE_POOL = 100_000
ORACLE_STRIDE = 37_813
ORACLE_TRIALS = 1000

# Every seed in [0, ORACLE_POOL) whose soundness trial reports violations at
# the commit that introduced this benchmark, found by running the trial on the
# whole pool.  Each has 2 or 3 facts derived by T4, LIN and EXACT after an
# EXACT basis adjustment.  A violation on one of these is reported, with its
# seed; a violation on any other seed makes the run incorrect.
KNOWN_UNSOUND_SEEDS = frozenset({
    9298, 10783, 10938, 19088, 27349, 29939, 36475, 39080, 39986, 42354,
    46010, 52060, 54073, 57480, 59054, 64759, 69966, 72942, 74718, 74889,
    77154, 81971, 96631, 99423,
})


def oracle_seeds(seed: int) -> List[int]:
    start = seed * ORACLE_STRIDE % ORACLE_POOL
    return [(start + k) % ORACLE_POOL for k in range(ORACLE_TRIALS)]


def scale_ladder(engine) -> Tuple[Dict[str, float], List[str]]:
    """Saturate the shipped chart and its Δ⁸×1, ×2, ×4 extensions once each.

    ``rules.growth_exponent`` is log(time ratio) / log(element ratio) between
    the shipped chart and Δ⁸×4: 1 means saturation grows linearly.
    """
    metrics: Dict[str, float] = {}
    problems: List[str] = []
    base = engine.chartdata.load(CHART)
    for point, copies in LADDER:
        chart = engine.chartdata.delta8_extend(base, copies)
        started = perf_counter()
        store = engine.rules.saturate(chart)
        metrics[f"ladder.{point}.rules.saturate_s"] = perf_counter() - started
        metrics[f"ladder.{point}.chartdata.elements"] = len(chart.elements)
        if store.contradictions:
            problems.append(f"ladder {point}: {store.contradictions[0].describe()}")
    first, last = LADDER[0][0], LADDER[-1][0]
    metrics["rules.growth_exponent"] = math.log(
        metrics[f"ladder.{last}.rules.saturate_s"] / metrics[f"ladder.{first}.rules.saturate_s"]
    ) / math.log(
        metrics[f"ladder.{last}.chartdata.elements"] / metrics[f"ladder.{first}.chartdata.elements"]
    )
    return metrics, problems


def oracle_block(engine, seeds) -> Tuple[Dict[str, float], Dict[int, List[str]]]:
    """One soundness trial per seed, and the engine's completeness over them.

    A trial is ``random_instance``, ``saturate(with_periodic=False)``,
    ``enumerate_fillings`` and ``check_soundness``, each timed in wall clock.
    Times, ``oracle.fillings`` and ``oracle.facts_checked`` (facts with a
    non-axiom derivation, the ones ``check_soundness`` tests) are per trial;
    ``oracle.violations`` counts the trials that report a violation, which
    are returned by seed.

    Completeness: a (map, source) on a recorded junction is forced when one
    value holds in every filling (``fact_holds``), or failing that when it is
    nonzero in every filling.  The engine derives it when its store holds a
    value at least that specific which also holds in every filling.  Only the
    oracle's public ``enumerate_fillings``, ``fact_holds`` and
    ``JunctionFilling`` are used, so the count stays independent of the
    engine's rules.
    """
    oracle, Value = engine.oracle, engine.algebra.Value
    fact_key = engine.sequences.fact_key
    steps = ("random_instance", "saturate", "enumerate_fillings", "check_soundness")
    spent = dict.fromkeys(steps, 0.0)
    fillings_total = checked = forced = derived = 0
    unsound: Dict[int, List[str]] = {}
    for seed in seeds:
        t0 = perf_counter()
        chart = oracle.random_instance(random.Random(seed))
        t1 = perf_counter()
        store = engine.rules.saturate(chart, with_periodic=False)
        t2 = perf_counter()
        fillings = oracle.enumerate_fillings(chart)
        t3 = perf_counter()
        violations = oracle.check_soundness(chart, store, fillings)
        t4 = perf_counter()
        for step, elapsed in zip(steps, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            spent[step] += elapsed
        fillings_total += len(fillings)
        checked += sum(any(d.rule != "axiom" for d in derivations)
                       for derivations in store.derivations.values())
        if violations:
            unsound[seed] = violations

        def holds(map_name, source, value) -> bool:
            return all(oracle.fact_holds(chart, f, map_name, source, value) for f in fillings)

        for (map_name, source), spans in _filling_values(fillings).items():
            known = any(holds(map_name, source, Value.known(span)) for span in spans)
            if not known and not holds(map_name, source, Value.nonzero_unknown()):
                continue
            forced += 1
            got = store.facts.get(fact_key(map_name, source))
            if got is not None and (got.is_known or not known) and holds(map_name, source, got):
                derived += 1
    n = max(len(seeds), 1)
    metrics: Dict[str, float] = {f"oracle.{step}_s": spent[step] / n for step in steps}
    metrics.update({
        "oracle.fillings": fillings_total / n,
        "oracle.facts_checked": checked / n,
        "oracle.violations": len(unsound),
        "oracle.forced_facts": forced,
        "oracle.forced_derived": derived,
        "oracle.completeness": derived / forced if forced else 0.0,
    })
    return metrics, unsound


def _filling_values(fillings) -> Dict[tuple, set]:
    """Every (map, source) on a junction, with the spans it takes across fillings."""
    values: Dict[tuple, set] = {}
    for filling in fillings:
        for jf in filling.values():
            record = jf.record
            kernel = record.kernel or ()
            for source, mask in zip(record.middle, jf.project):
                span = frozenset(t for b, t in enumerate(kernel) if mask >> b & 1)
                values.setdefault((record.project_map, source), set()).add(span)
            for source, mask in zip(record.cokernel or (), jf.include):
                span = frozenset(t for b, t in enumerate(record.middle) if mask >> b & 1)
                values.setdefault((record.include_map, source), set()).add(span)
    return values
