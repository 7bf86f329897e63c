"""Monotone inference rules and the saturation loop.

Each rule is a pure function of (store, chart) returning emissions; firing a
rule twice adds nothing new, and every guard reads only dataset structure or
already-present facts, so the saturated store is independent of rule order.

``saturate`` evaluates in two strata.  EXC, T1, T2 and T3 read only the
chart, so they fire once.  T4, LIN and EXACT read the store and loop to the
fixpoint semi-naively (Bancilhon & Ramakrishnan, 1986): each also takes
``delta``, the fact keys that may have changed, visits only those facts
(``None`` visits all) and reaches the rest through indexes built once per
chart (``ActionTable.single_valued``, ``ChartFile.rank_one_records``).  A
shuffled schedule permutes the rules within each stratum.

The rules read a record's geometry off the ``SesRecord``, which derives it
from its LES in ``SEQUENCES``: the inclusion and projection maps, the bases
(sorted by filtration, so ``u, w = record.middle`` puts u lowest) and the
provenance name ``record.ref``.

The closed-form values on periodic-part monomials are not in the saturated
store: no rule, check or report reads them, and they are a pure function of
the chart, which ``periodic_values`` returns.  ``saturate(...,
with_periodic=True)`` still inserts them, as the PERIODIC rule.

Rule inventory, matching the techniques used to fill the summary table:

* ``T1``   vanishing kernel: rank-0 kernel kills the projection on the whole
  middle; with rank-1 cokernel and middle the inclusion is pinned too.
* ``T2``   vanishing cokernel: projection is injective on the middle, and a
  rank-1 kernel pins the value; larger kernels yield only nonzeroness.
* ``T3a``  filtration exclusion in a (1, 2, 1) shape, plus the (2, 2, 0)
  iso variant where the inclusion is an isomorphism pinned by filtration.
* ``T3b``  filtration matching in a (0, 2, 2) shape, the lower identification
  valid after a basis adjustment by strictly higher filtration.
* ``T4``   extended linearity: a generator multiple whose pushed-forward value
  is forced above everything the kernel offers must die, and rank-1
  surjectivity then pins the other middle generator.
* ``LIN``  module linearity p(t·x) = t·p(x) over recorded generator actions.
* ``EXACT`` rank-1 completion at a junction: surjectivity in one direction,
  basis adjustment in the other, and the induced inclusion pin.  This is the
  same move T3/T4 end with, recorded with provenance "exactness".
* ``PERIODIC`` the closed-form values of the inclusion/projection maps on
  periodic-part monomials (``periodic_values``); off by default.
* ``EXC``  exceptional classes are nonzero under the map of their LES out of
  their module other than the self-map (``chartdata.exceptional_map``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from .algebra import (
    ClassificationKind,
    Element,
    ModuleId,
    Value,
    filtration_floor,
    span_of,
)
from .chartdata import EXCEPTIONAL_LISTINGS, ChartFile, Monomial, exceptional_map, expand_periodic
from .sequences import (
    MAP_SPECS,
    FactStore,
    RULE_EXACT,
    RULE_EXC,
    RULE_LIN,
    RULE_PERIODIC,
    RULE_T1,
    RULE_T2,
    RULE_T3A,
    RULE_T3B,
    RULE_T4,
    fact_key,
    image_of_p3,
    load_axioms,
)


@dataclass(frozen=True)
class Emission:
    map: str
    source: Element
    value: Value
    rule: str
    inputs: Tuple[str, ...] = ()


Rule = Callable[..., List[Emission]]  # (store, chart), plus ``delta`` if it loops


# ---------------------------------------------------------------------------
# Periodic formulas
# ---------------------------------------------------------------------------

def periodic_values(chart: ChartFile, bound: Optional[int] = None) -> List[Emission]:
    """Inclusion/projection values on periodic-part monomials up to ``bound``
    (default ``chart.max_stem``).

    A formula instance fires only when both its domain monomial and its target
    monomial exist in the expanded presentations; the localized rows are not
    exact, so these facts are values only, never exactness constraints.
    """
    bound = chart.max_stem if bound is None else bound
    presentations = chart.periodic_presentations
    y_index = {(m.delta, m.v1): m for m in expand_periodic(ModuleId.Y, bound, presentations)}
    m_index = {
        (m.delta, m.v1, m.eta): m for m in expand_periodic(ModuleId.M, bound, presentations)
    }
    s_mons = expand_periodic(ModuleId.S, bound, presentations)
    s_index = {(m.delta, m.v1, m.eta, m.c6): m for m in s_mons}

    out: List[Emission] = []

    def emit(map_name: str, source: Monomial, target: Monomial) -> None:
        out.append(
            Emission(
                map_name,
                source.element,
                Value.known(span_of(target.element)),
                RULE_PERIODIC,
                (f"formula:{map_name}",),
            )
        )

    for (n, v, eta), mon in m_index.items():
        if eta == 0 and v % 4 in (0, 1):
            target = y_index.get((n, v))
            if target is not None:
                emit("i2", mon, target)
    for (n, v), mon in y_index.items():
        if v % 4 in (2, 3):
            target = m_index.get((n, v - 2, 2))
            if target is not None:
                emit("p2", mon, target)
    for (n, k, eta, c6), mon in s_index.items():
        if c6:
            target = m_index.get((n, 4 * k + 1, 2))
            if target is not None:
                emit("i1", mon, target)
        elif k >= 1:
            target = m_index.get((n, 4 * k, eta))
            if target is not None:
                emit("i1", mon, target)
    for (n, v, eta), mon in m_index.items():
        if v % 4 == 1 and v >= 5 and eta in (0, 1):
            k = (v - 1) // 4
            target = s_index.get((n, k, eta + 1, False))
            if target is not None:
                emit("p1", mon, target)
    return out


def rule_periodic(store: FactStore, chart: ChartFile, bound: Optional[int] = None) -> List[Emission]:
    """PERIODIC as a store rule, fired only by ``saturate(..., with_periodic=True)``."""
    return periodic_values(chart, bound)


# ---------------------------------------------------------------------------
# Exceptional classes
# ---------------------------------------------------------------------------

def rule_exceptional(store: FactStore, chart: ChartFile) -> List[Emission]:
    """Exceptional periodic classes include to nonzero torsion.

    In the Y-sequence the exceptional Moore classes have nonzero torsion image
    under the inclusion; in the sphere sequence the exceptional sphere classes
    do so under i₁ and the exceptional Moore classes under p₁.  Non-exceptional
    periodic classes stay out of the torsion bookkeeping entirely.  The
    (LES, module) → listing table ``EXCEPTIONAL_LISTINGS`` routes each class;
    the loader rejects a class it has no route for.
    """
    out: List[Emission] = []
    for c in chart.classifications:
        if c.kind is ClassificationKind.PERIODIC_EXCEPTIONAL:
            listing, _ = EXCEPTIONAL_LISTINGS[(c.context, c.element.module)]
            map_name = exceptional_map(c.context, c.element.module)
            cited = (f"{listing[0]}^{listing[1]}",)  # EM is cited as E^M
            out.append(Emission(map_name, c.element, Value.nonzero_unknown(), RULE_EXC, cited))
    return out


# ---------------------------------------------------------------------------
# Techniques 1-4
# ---------------------------------------------------------------------------

def rule_t1(store: FactStore, chart: ChartFile) -> List[Emission]:
    out: List[Emission] = []
    for record in chart.ses_records:
        if record.kernel is None or record.kernel:
            continue
        for element in record.middle:
            out.append(Emission(record.project_map, element, Value.zero(), RULE_T1, (record.ref,)))
        if record.cokernel is not None and len(record.cokernel) == 1 and len(record.middle) == 1:
            out.append(
                Emission(
                    record.include_map,
                    record.cokernel[0],
                    Value.known(span_of(record.middle[0])),
                    RULE_T1,
                    (record.ref,),
                )
            )
    return out


def rule_t2(store: FactStore, chart: ChartFile) -> List[Emission]:
    out: List[Emission] = []
    for record in chart.ses_records:
        if record.cokernel is None or record.cokernel:
            continue
        for element in record.middle:
            out.append(
                Emission(record.project_map, element, Value.nonzero_unknown(), RULE_T2, (record.ref,))
            )
        if record.kernel is not None and len(record.kernel) == 1:
            generator = record.kernel[0]
            for element in record.middle:
                out.append(
                    Emission(
                        record.project_map,
                        element,
                        Value.known(span_of(generator)),
                        RULE_T2,
                        (record.ref,),
                    )
                )
    return out


def rule_t3(store: FactStore, chart: ChartFile) -> List[Emission]:
    """Filtration arguments: the maps cannot decrease Adams–Novikov filtration.

    Shape guards are exact; when an inequality fails the rule stays silent
    rather than guessing.  Conclusions pinned only after a basis adjustment
    are claims modulo strictly higher filtration, which is how all chart
    names are read anyway.
    """
    out: List[Emission] = []
    for record in chart.ses_records:
        if record.kernel is None:
            continue
        ref = record.ref
        include, project = record.include_map, record.project_map
        # Any middle class strictly above everything the kernel offers must
        # project to zero, whatever the cokernel looks like.
        if record.kernel:
            ceiling = max(k.filtration for k in record.kernel)
            for element in record.middle:
                if element.filtration > ceiling:
                    out.append(Emission(project, element, Value.zero(), RULE_T3A, (ref,)))
        if record.cokernel is None:
            continue
        shape = (len(record.cokernel), len(record.middle), len(record.kernel))
        if shape == (1, 2, 1):
            c = record.cokernel[0]
            u, w = record.middle
            g = record.kernel[0]
            if c.filtration > u.filtration and w.filtration >= c.filtration and g.filtration >= u.filtration:
                out.append(Emission(include, c, Value.known(span_of(w)), RULE_T3A, (ref,)))
                out.append(Emission(project, w, Value.zero(), RULE_T3A, (ref,)))
                out.append(Emission(project, u, Value.known(span_of(g)), RULE_T3A, (ref,)))
        elif shape == (2, 2, 0):
            c1, c2 = record.cokernel
            m1, m2 = record.middle
            if (
                c1.filtration < c2.filtration
                and m1.filtration < m2.filtration
                and c2.filtration > m1.filtration
                and m2.filtration >= c2.filtration
                and m1.filtration >= c1.filtration
            ):
                out.append(Emission(include, c2, Value.known(span_of(m2)), RULE_T3A, (ref,)))
                out.append(Emission(include, c1, Value.known(span_of(m1)), RULE_T3A, (ref,)))
        elif shape == (0, 2, 2):
            u, w = record.middle
            k1, k2 = record.kernel
            if (
                u.filtration < w.filtration
                and k1.filtration == u.filtration
                and k2.filtration > k1.filtration
                and k2.filtration >= w.filtration
            ):
                out.append(Emission(project, w, Value.known(span_of(k2)), RULE_T3B, (ref,)))
                out.append(Emission(project, u, Value.known(span_of(k1)), RULE_T3B, (ref,)))
    return out


def rule_t4(
    store: FactStore, chart: ChartFile, delta: Optional[Iterable[str]] = None
) -> List[Emission]:
    """Extended linearity: push a known projection through a generator.

    If the middle class of a rank-1 record is a generator multiple y = g·y′
    with p(y′) known, and the pushed value g·p(y′) is forced (by the
    generator's filtration degree) strictly above everything in the kernel,
    then p(y) = 0 and rank-1 surjectivity pins the other middle generator.
    Applies only when the action of g on p(y′) is itself uncharted; otherwise
    plain linearity runs.  The visited facts are the p(y′); facts on maps
    that are no record's projection are skipped unread.
    """
    out: List[Emission] = []
    projects = {record.project_map for record in chart.ses_records}
    for parent_key in list(store.facts) if delta is None else delta:
        project, _, _ = parent_key.partition("|")
        if project not in projects:
            continue
        parent = store.facts[parent_key]
        if not parent.is_known:
            continue
        for action in chart.actions.single_valued(store.sources[parent_key]):
            (y,) = action.value
            for record in chart.rank_one_records.get(fact_key(project, y), ()):
                generator = record.kernel[0]
                if not parent.is_zero:
                    if chart.actions.act(action.generator.name, parent.span) is not None:
                        continue
                    floor = filtration_floor(parent.span) + action.generator.filtration_degree
                    if floor <= generator.filtration:
                        continue
                inputs = (parent_key, f"{action.generator.name}·{action.source.key}", record.ref)
                out.append(Emission(project, y, Value.zero(), RULE_T4, inputs))
                other = next(e for e in record.middle if e != y)
                out.append(
                    Emission(project, other, Value.known(span_of(generator)), RULE_T4, inputs)
                )
    return out


def rule_linearity(
    store: FactStore, chart: ChartFile, delta: Optional[Iterable[str]] = None
) -> List[Emission]:
    """Module linearity p(t·x) = t·p(x) over recorded generator actions.

    A fact's emissions depend only on its own value and the single-valued
    actions on its source.
    """
    out: List[Emission] = []
    for key in list(store.facts) if delta is None else delta:
        value = store.facts[key]
        if not value.is_known:
            continue
        map_name, _, _ = key.partition("|")
        if map_name not in MAP_SPECS:
            continue
        source = store.sources[key]
        if source.periodic:
            continue
        for action in chart.actions.single_valued(source):
            name = action.generator.name
            (new_source,) = action.value
            if value.is_zero:
                pushed: Optional[Value] = Value.zero()
            else:
                pushed = chart.actions.act(name, value.span)
            if pushed is None:
                continue
            out.append(
                Emission(
                    map_name,
                    new_source,
                    pushed,
                    RULE_LIN,
                    (key, f"{name}·{source.key}"),
                )
            )
    return out


def rule_exact(
    store: FactStore, chart: ChartFile, delta: Optional[Iterable[str]] = None
) -> List[Emission]:
    """Rank-1 completion at a recorded junction.

    With kernel {g} and middle {u, w} (u strictly below w): a vanishing value
    on one generator forces the other onto g by surjectivity; a value g on the
    higher generator lets the lower one be adjusted to 0 by a strictly
    higher-filtration basis change.  When the cokernel is rank 1 the induced
    inclusion is pinned onto whichever middle generator dies.  A record is
    revisited when either of its two projection facts is visited.
    """
    out: List[Emission] = []
    keys = list(store.facts) if delta is None else delta
    for record in dict.fromkeys(r for key in keys for r in chart.rank_one_records.get(key, ())):
        u, w = record.middle
        if u.filtration >= w.filtration:
            continue
        ref = record.ref
        project, include = record.project_map, record.include_map
        generator = record.kernel[0]
        key_u, key_w = fact_key(project, u), fact_key(project, w)
        fu, fw = store.facts.get(key_u), store.facts.get(key_w)
        lift_target: Optional[Element] = None
        if fw is not None and fw.is_known:
            if fw.is_zero:
                out.append(
                    Emission(project, u, Value.known(span_of(generator)), RULE_EXACT, (key_w, ref))
                )
                lift_target = w
            else:
                out.append(Emission(project, u, Value.zero(), RULE_EXACT, (key_w, ref)))
                lift_target = u
        if fu is not None and fu.is_zero:
            out.append(
                Emission(project, w, Value.known(span_of(generator)), RULE_EXACT, (key_u, ref))
            )
            lift_target = lift_target or u
        if lift_target is not None and record.cokernel is not None and len(record.cokernel) == 1:
            parents = tuple(
                key for key, v in ((key_u, fu), (key_w, fw)) if v is not None and v.is_known
            )
            out.append(
                Emission(
                    include,
                    record.cokernel[0],
                    Value.known(span_of(lift_target)),
                    RULE_EXACT,
                    parents + (ref,),
                )
            )
    return out


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------

# PERIODIC stays listed, though ``saturate`` skips it unless asked, because
# the benchmark's tracer (``perfbench/spans.py``) wraps the rules by name.
ALL_RULES: Tuple[Tuple[str, Rule], ...] = (
    ("PERIODIC", rule_periodic),
    ("EXC", rule_exceptional),
    ("T1", rule_t1),
    ("T2", rule_t2),
    ("T3", rule_t3),
    ("T4", rule_t4),
    ("LIN", rule_linearity),
    ("EXACT", rule_exact),
)

# Rules that never read the store: their emissions are fixed by the chart.
CHART_ONLY = frozenset({"PERIODIC", "EXC", "T1", "T2", "T3"})


def saturate(
    chart: ChartFile,
    store: Optional[FactStore] = None,
    rng: Optional[random.Random] = None,
    with_periodic: bool = False,
) -> FactStore:
    """Run all rules to a fixpoint; deterministic result for any schedule.

    Saturation runs in two strata.  The chart-only rules (``CHART_ONLY``)
    fire once, since firing them again would emit the same facts.  T4, LIN
    and EXACT read the store and loop until a pass adds nothing; each call
    after a rule's first visits only the keys logged since its own previous
    call, because every value change appends to ``store.log``.

    PERIODIC fires only with ``with_periodic=True``: the store then also
    holds the ``periodic_values`` of the chart, and every other fact is the
    same.  By default the store holds no fact on a periodic-part monomial.

    ``rng`` shuffles the rule order within each stratum (used by the
    determinism harness); axioms and the p₃ image are loaded before any rule
    fires, so every guard sees the same static data regardless of schedule.
    """
    if store is None:
        store = FactStore()
        load_axioms(store, chart)
        image_of_p3(store, chart)
    rules = [(name, rule) for name, rule in ALL_RULES if with_periodic or name != "PERIODIC"]
    chart_only = [(name, rule) for name, rule in rules if name in CHART_ONLY]
    looping = [(name, rule) for name, rule in rules if name not in CHART_ONLY]
    if rng is not None:
        rng.shuffle(chart_only)
    for _, rule in chart_only:
        _insert_all(store, rule(store, chart))
    seen: Dict[str, int] = {}  # length of store.log at each rule's previous call
    changed = True
    while changed:
        changed = False
        if rng is not None:
            rng.shuffle(looping)
        for name, rule in looping:
            delta = None
            if name in seen:
                delta = dict.fromkeys(key for key, _ in store.log[seen[name]:])
            seen[name] = len(store.log)
            if _insert_all(store, rule(store, chart, delta)):
                changed = True
    return store


def _insert_all(store: FactStore, emissions: List[Emission]) -> bool:
    """Insert every emission; True when any of them grew the store."""
    grew = False
    for emission in emissions:
        if store.insert(
            emission.map, emission.source, emission.value, emission.rule, emission.inputs
        ):
            grew = True
    return grew


# ---------------------------------------------------------------------------
# Technique attribution
# ---------------------------------------------------------------------------

_BASE_LABELS = {
    RULE_T1: frozenset({"1"}),
    RULE_T2: frozenset({"2"}),
    RULE_T3A: frozenset({"3"}),
    RULE_T3B: frozenset({"3"}),
    RULE_T4: frozenset({"4"}),
    RULE_EXACT: frozenset({"3"}),
    RULE_PERIODIC: frozenset({"periodic"}),
    RULE_EXC: frozenset({"exc"}),
    "axiom": frozenset({"axiom"}),
    "P3IMG": frozenset({"p3"}),
    RULE_LIN: frozenset(),
}

_CHASE_PARENTS = {RULE_LIN, RULE_EXACT}


def fact_labels(store: FactStore) -> Dict[str, FrozenSet[str]]:
    """Technique labels per fact: base rule ids, chased through linearity and
    exactness completions to their root derivations.

    Computed as a least fixpoint because completion steps can re-derive their
    own parents (the derivation graph is not acyclic).
    """
    labels: Dict[str, set] = {key: set() for key in store.derivations}
    changed = True
    while changed:
        changed = False
        for key, derivations in store.derivations.items():
            current = labels[key]
            for derivation in derivations:
                add = set(_BASE_LABELS.get(derivation.rule, frozenset()))
                if derivation.rule in _CHASE_PARENTS:
                    for parent in derivation.inputs:
                        if "|" in parent and parent in labels:
                            add |= labels[parent]
                if not add <= current:
                    current |= add
                    changed = True
    return {key: frozenset(value) for key, value in labels.items()}
