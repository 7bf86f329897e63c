"""Monotone inference rules and the saturation loop.

Each rule is a pure function of (store, chart) returning emissions, named
tuples of ``FactStore.insert``'s arguments; the store keeps each distinct
emission as a ``sequences.Derivation`` (rule, inputs, value).  Firing a rule
twice adds nothing new, and every guard reads only dataset structure or
already-present facts, so the saturated store is independent of rule order as
long as no contradiction arises.  A clash keeps the first stored value, so a
store with a contradiction can depend on the schedule (ROADMAP item 12).

``saturate`` evaluates in two strata.  EXC, T1, T2 and T3 read only the
chart, so they fire once.  T4, LIN and EXACT read the store and loop to the
fixpoint semi-naively (Bancilhon & Ramakrishnan, 1986): each also takes
``delta``, the fact keys that may have changed, visits only those facts
(pass ``store.facts`` to visit all) and reaches the rest through plans built
once per chart: the push plan ``ChartFile.push_plan`` (by fact key, the
target and provenance label of each single-valued action on the source,
from ``ActionTable.single_valued``) and the ``RankOnePlan`` of
each rank-1 record in ``ChartFile.rank_one_records``.  A visit only reads
them.  A shuffled schedule permutes the rules within each stratum.

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
* ``T2``   vanishing cokernel: projection is injective on the middle, one
  value per middle class: the generator of a rank-1 kernel, else nonzero.
* ``T3a``  filtration exclusion: a middle class above the whole kernel dies,
  and so does the higher middle class of a (1, 2, 1) shape (EXACT then
  completes it); plus the (2, 2, 0) iso variant where the inclusion is an
  isomorphism pinned by filtration.
* ``T3b``  filtration matching in a (0, 2, 2) shape, the lower identification
  valid after a basis adjustment by strictly higher filtration.
* ``T4``   extended linearity: LIN's push of p(y′) onto a rank-1 record's
  middle class y = g·y′ kills p(y) where p(y′) = 0 (LIN's own zero, labelled
  4) or where the uncharted push is forced above the kernel class (EXACT
  then completes its record).
* ``LIN``  module linearity p(t·x) = t·p(x) over recorded generator actions,
  by the walk ``_pushes`` that T4 shares.
* ``EXACT`` rank-1 completion at a junction: surjectivity in one direction,
  basis adjustment in the other, and the induced inclusion pin, read off a
  zero projection already in the store.  This is the only rule that
  completes a rank-1 record, recorded with provenance "exactness".
* ``PERIODIC`` the closed-form values of the inclusion/projection maps on
  periodic-part monomials (``periodic_values``); off by default.
* ``EXC``  exceptional classes are nonzero under the map of their LES out of
  their module other than the self-map (``chartdata.exceptional_map``).
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import Callable, Container, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .algebra import (
    ActionFact,
    ClassificationKind,
    Element,
    ModuleId,
    Value,
    filtration_floor,
    span_of,
)
from .chartdata import (
    EXCEPTIONAL_LISTINGS,
    SES_CONTEXTS,
    ChartFile,
    Monomial,
    exceptional_map,
    expand_periodic,
)
from .sequences import (
    MAP_SPECS,
    SEQUENCES,
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


class Emission(NamedTuple):
    """One fact a rule proposes: the arguments of ``FactStore.insert``, in order."""

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


def rule_periodic(store: FactStore, chart: ChartFile) -> List[Emission]:
    """PERIODIC as a store rule, fired only by ``saturate(..., with_periodic=True)``."""
    return periodic_values(chart)


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
        if record.kernel is not None and len(record.kernel) == 1:
            value = Value.known(span_of(record.kernel[0]))
        else:
            value = Value.nonzero_unknown()
        for element in record.middle:
            out.append(Emission(record.project_map, element, value, RULE_T2, (record.ref,)))
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
                out.append(Emission(project, w, Value.zero(), RULE_T3A, (ref,)))
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


# The projection map of every SES context, the only maps T4 pushes through.
_PROJECT_MAPS = frozenset(SEQUENCES[les.value].maps[1].name for les, _ in SES_CONTEXTS.values())


def _pushes(
    store: FactStore, chart: ChartFile, delta: Iterable[str], maps: Container[str]
) -> Iterator[Tuple[str, str, Value, ActionFact, Element, str]]:
    """Walk ``delta`` through the push plan: for each known fact f(x) on one
    of ``maps`` and each single-valued action g·x = t on its source, yield
    (key, f, f(x), g·x, t, "g·x").  Facts on periodic-part monomials are not
    pushed.  The plan is keyed by fact key (``ChartFile.push_plan``), so a
    key with no push costs one lookup.
    """
    plan = chart.push_plan
    facts, sources = store.facts, store.sources
    for key in delta:
        entry = plan.get(key)
        if entry is None:
            continue
        map_name, pushes = entry
        if map_name not in maps:
            continue
        value = facts[key]
        if not value.is_known or sources[key].periodic:
            continue
        for action, target, label in pushes:
            yield key, map_name, value, action, target, label


def rule_t4(store: FactStore, chart: ChartFile, delta: Iterable[str]) -> List[Emission]:
    """Extended linearity: LIN's push of p(y′) onto the middle class y = g·y′
    of a rank-1 record, bounded by filtration.

    T4 emits p(y) = 0 where p(y′) = 0, so that LIN's push is the same zero and
    T4 adds its label 4, or where the push g·p(y′) is uncharted and the
    generator's filtration degree forces it strictly above the kernel class.
    It emits only that zero: EXACT reads it off the store and completes the
    record (the other middle generator onto the kernel, the lift onto y), so
    a zero that the store rejects completes nothing.
    """
    out: List[Emission] = []
    rank_one, act, zero = chart.rank_one_records, chart.actions.act, Value.zero()
    for key, project, parent, action, y, label in _pushes(store, chart, delta, _PROJECT_MAPS):
        for plan in rank_one.get(fact_key(project, y), ()):
            if not parent.is_zero:
                if act(action.generator.name, parent.span) is not None:
                    continue
                floor = filtration_floor(parent.span) + action.generator.filtration_degree
                if floor <= plan.kernel.filtration:
                    continue
            out.append(Emission(project, y, zero, RULE_T4, (key, label, plan.ref)))
    return out


def rule_linearity(store: FactStore, chart: ChartFile, delta: Iterable[str]) -> List[Emission]:
    """Module linearity p(t·x) = t·p(x) over recorded generator actions.

    A fact's emissions depend only on its own value and the single-valued
    actions on its source: g·p(x) wherever it is charted, zero for p(x) = 0.
    """
    out: List[Emission] = []
    act, zero = chart.actions.act, Value.zero()
    for key, map_name, value, action, new_source, label in _pushes(store, chart, delta, MAP_SPECS):
        pushed = act(action.generator.name, value.span) if value.span else zero
        if pushed is not None:
            out.append(Emission(map_name, new_source, pushed, RULE_LIN, (key, label)))
    return out


def rule_exact(store: FactStore, chart: ChartFile, delta: Iterable[str]) -> List[Emission]:
    """Rank-1 completion at a recorded junction, the only rule that completes
    a rank-1 record.

    With kernel {g} and middle {u, w} (u no higher than w): a vanishing value
    on one generator forces the other onto g by surjectivity, at any
    filtrations.  A known nonzero value on w lets u be adjusted to 0 by a
    basis change, which needs w strictly above u; this is the only move with
    a filtration guard.  When the cokernel is rank 1 the induced inclusion is
    pinned onto whichever middle generator dies: the lift is read off the
    stored zero (p(w) = 0, else p(u) = 0), so a zero that the store rejects
    lifts nothing, and the zero of a basis adjustment lifts on the next call.
    A record is revisited when either of its two projection facts is visited;
    everything but the two stored values comes from its ``RankOnePlan``.
    """
    out: List[Emission] = []
    facts, rank_one, zero = store.facts, chart.rank_one_records, Value.zero()
    # Each record once, in first-visit order; a record has one shared plan.
    plans = {id(plan): plan for key in delta for plan in rank_one.get(key, ())}
    for plan in plans.values():
        project, u, w, key_u, key_w, ref = plan.project, plan.u, plan.w, plan.key_u, plan.key_w, plan.ref
        fu, fw = facts.get(key_u), facts.get(key_w)
        u_dies = fu is not None and fu.is_zero
        w_dies = fw is not None and fw.is_zero
        if w_dies:
            out.append(Emission(project, u, plan.onto_kernel, RULE_EXACT, (key_w, ref)))
        elif fw is not None and fw.is_known and u.filtration < w.filtration:
            out.append(Emission(project, u, zero, RULE_EXACT, (key_w, ref)))
        if u_dies:
            out.append(Emission(project, w, plan.onto_kernel, RULE_EXACT, (key_u, ref)))
        if plan.cokernel is not None and (w_dies or u_dies):
            lift, key = (plan.lift_w, key_w) if w_dies else (plan.lift_u, key_u)
            out.append(Emission(plan.include, plan.cokernel, lift, RULE_EXACT, (key, ref)))
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
    """Run all rules to a fixpoint, the same for any schedule unless a
    contradiction arises (see the module docstring).

    Saturation runs in two strata.  The chart-only rules (``CHART_ONLY``)
    fire once, since firing them again would emit the same facts.  T4, LIN
    and EXACT read the store and loop until a pass adds nothing; each call
    visits only the keys logged since the rule's own previous call (the
    whole log on its first call), because every value change appends to
    ``store.log`` and every key enters the log as it enters ``store.facts``.

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
            delta = dict.fromkeys(map(itemgetter(0), store.log[seen.get(name, 0):]))
            seen[name] = len(store.log)
            if _insert_all(store, rule(store, chart, delta)):
                changed = True
    return store


def _insert_all(store: FactStore, emissions: List[Emission]) -> bool:
    """Insert every emission; True when any of them grew the store."""
    grew = False
    insert = store.insert
    for emission in emissions:
        if insert(*emission):
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


def fact_labels(store: FactStore, keys: Iterable[str]) -> Dict[str, FrozenSet[str]]:
    """Technique labels of each of ``keys`` that the store has derived: the
    base rule ids of every derivation reachable from the fact through the
    parents of its linearity and exactness completions.  One walk per key
    visits each reachable fact once, so it ends on the cycles that completion
    steps close by re-deriving their own parents.
    """
    derivations = store.derivations
    labels: Dict[str, FrozenSet[str]] = {}
    for key in derivations.keys() & keys:
        found: set = set()
        reached, stack = {key}, [key]
        while stack:
            for derivation in derivations[stack.pop()]:
                found |= _BASE_LABELS.get(derivation.rule, frozenset())
                if derivation.rule in _CHASE_PARENTS:
                    for parent in derivation.inputs:
                        if parent in derivations and parent not in reached:
                            reached.add(parent)
                            stack.append(parent)
        labels[key] = frozenset(found)
    return labels
