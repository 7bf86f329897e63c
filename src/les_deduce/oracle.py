"""Brute-force exactness oracle for soundness testing.

For a small synthetic dataset, enumerate every filling of its recorded short
exact sequences: an injective inclusion and a surjective projection with
matching image/kernel, both respecting the filtration law, compatible with the
dataset's axioms and with linearity over its recorded generator actions.  A
derived fact is sound if it holds in every such filling, reading equality the
way chart names are read: the source may be adjusted by strictly
higher-filtration classes of its own basis, and a nonzero value is pinned only
up to strictly higher-filtration classes of the target basis.

The instance generator keeps total dimension small (at most 3 middle classes
per record, and ``enumerate_fillings`` refuses more than ``FILLING_CAP``
candidate combinations) and draws axioms from one concrete filling, so every
instance is consistent by construction.  Generator actions are only
attached upward (into the higher record), never into the adjustable low slot
of a rank-1 junction, mirroring how the real chart data is keyed.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import (
    ActionFact,
    ActionTable,
    Element,
    GENERATORS,
    ModuleId,
    Value,
)
from .chartdata import SES_CONTEXTS, ChartFile, MapAxiom, SesRecord
from .sequences import SEQUENCES, FactStore, key_text
from .rules import saturate


def gf2_rank(rows: Sequence[int]) -> int:
    """Rank of a list of bitmask rows over GF(2)."""
    basis: List[int] = []
    for row in rows:
        cur = row
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur:
            basis.append(cur)
            basis.sort(reverse=True)
    return len(basis)


class JunctionFilling(NamedTuple):
    """One exact filling of one SES record, as index bitmasks."""

    record: SesRecord
    include: Tuple[int, ...]  # per cokernel element: mask over middle
    project: Tuple[int, ...]  # per middle element: mask over kernel

    def masks(self, map_name: str) -> Tuple[int, ...]:
        """The masks of ``map_name``, one of the record's two maps."""
        return self.project if map_name == self.record.project_map else self.include


Filling = Dict[Tuple[str, int], JunctionFilling]


def _admissible_masks(source: Element, targets: Sequence[Element], allow_zero: bool) -> List[int]:
    masks = []
    for mask in range(1 << len(targets)):
        if mask == 0:
            if allow_zero:
                masks.append(mask)
            continue
        floor = min(t.filtration for i, t in enumerate(targets) if mask >> i & 1)
        if floor >= source.filtration:
            masks.append(mask)
    return masks


def _junction_candidates(record: SesRecord) -> List[JunctionFilling]:
    cokernel = list(record.cokernel or ())
    middle = list(record.middle)
    kernel = list(record.kernel or ())
    include_choices = [_admissible_masks(c, middle, allow_zero=False) for c in cokernel]
    project_choices = [_admissible_masks(u, kernel, allow_zero=True) for u in middle]
    out = []
    for include in itertools.product(*include_choices) if cokernel else [()]:
        if gf2_rank(include) != len(cokernel):
            continue
        for project in itertools.product(*project_choices) if middle else [()]:
            if gf2_rank(project) != len(kernel):
                continue
            # Exactness: the inclusion image must die under the projection.
            ok = True
            for mask in include:
                image = 0
                for i in range(len(middle)):
                    if mask >> i & 1:
                        image ^= project[i]
                if image:
                    ok = False
                    break
            if ok:
                out.append(JunctionFilling(record, tuple(include), tuple(project)))
    return out


def _axiom_matches(filling: JunctionFilling, axiom: MapAxiom) -> Optional[bool]:
    place = filling.record.place(axiom.map, axiom.source)
    if place is None:
        return None
    basis, targets = place
    got = filling.masks(axiom.map)[basis.index(axiom.source)]
    if not axiom.value.is_known:
        return got != 0
    want = 0
    for element in axiom.value.span:
        if element not in targets:
            return False
        want |= 1 << targets.index(element)
    return got == want


# The most candidate combinations ``enumerate_fillings`` will try.
FILLING_CAP = 200_000


def enumerate_fillings(chart: ChartFile) -> List[Filling]:
    """All joint fillings of the chart's records consistent with its data."""
    per_record: List[Tuple[SesRecord, List[JunctionFilling]]] = []
    for record in chart.ses_records:
        if record.cokernel is None or record.kernel is None:
            raise ValueError(f"oracle needs full bases for {record.ref}")
        candidates = _junction_candidates(record)
        candidates = [
            c
            for c in candidates
            if all(
                _axiom_matches(c, axiom) in (None, True)
                for axiom in chart.axioms
            )
        ]
        per_record.append((record, candidates))
    total = 1
    for _, candidates in per_record:
        total *= max(len(candidates), 1)
        if total > FILLING_CAP:
            raise ValueError("too many fillings to enumerate")
    out: List[Filling] = []
    for combo in itertools.product(*(candidates for _, candidates in per_record)):
        filling: Filling = {
            (jf.record.context, jf.record.stem): jf for jf in combo
        }
        if _linearity_compatible(chart, filling):
            out.append(filling)
    return out


def _project_value(filling: Filling, record: SesRecord, source: Element) -> Optional[frozenset]:
    jf = filling.get((record.context, record.stem))
    place = record.place(record.project_map, source)
    if jf is None or place is None:
        return None
    basis, kernel = place
    mask = jf.project[basis.index(source)]
    return frozenset(kernel[i] for i in range(len(kernel)) if mask >> i & 1)


def _linearity_compatible(chart: ChartFile, filling: Filling) -> bool:
    """p(g·x) must equal g·p(x) whenever both actions are recorded.

    When the action of g on the low value is uncharted, its filtration shadow
    still binds: multiplication by g exists in the module whether or not the
    chart names the product, so the high value is either zero or sits at least
    ``filtration_degree(g)`` above the low value's floor.
    """
    for fact in chart.actions.facts():
        if len(fact.value.span) != 1:
            continue
        (target,) = fact.value.span
        for record in chart.ses_records:
            if fact.source not in record.middle:
                continue
            low = _project_value(filling, record, fact.source)
            if low is None:
                continue
            target_record = next(
                (
                    r
                    for r in chart.ses_records
                    if r.context == record.context and target in r.middle
                ),
                None,
            )
            if target_record is None:
                continue
            high = _project_value(filling, target_record, target)
            if high is None:
                continue
            pushed = chart.actions.act(fact.generator.name, low)
            if pushed is not None and pushed.is_known:
                if pushed.span != high:
                    return False
            elif not low:
                if high:
                    return False
            else:
                low_floor = min(e.filtration for e in low)
                need = low_floor + fact.generator.filtration_degree
                if high and min(e.filtration for e in high) < need:
                    return False
    return True


def fact_holds(chart: ChartFile, filling: Filling, map_name: str, source: Element, value: Value) -> Optional[bool]:
    """Does a derived fact hold in one filling, modulo basis adjustments?

    Returns None when the fact does not live on an enumerated junction.
    """
    for record in chart.ses_records:
        jf = filling.get((record.context, record.stem))
        place = None if jf is None else record.place(map_name, source)
        if place is not None:
            basis, targets = place
            matrix = jf.masks(map_name)
            break
    else:
        return None

    src_idx = basis.index(source)
    adjustable = [i for i, e in enumerate(basis) if e.filtration > source.filtration]
    if value.is_known:
        want = 0
        for element in value.span:
            if element not in targets:
                return False
            want |= 1 << targets.index(element)
        if value.span:
            floor = min(e.filtration for e in value.span)
            higher_targets = sum(
                1 << i for i, e in enumerate(targets) if e.filtration > floor
            )
        else:
            higher_targets = 0
        for bits in range(1 << len(adjustable)):
            got = matrix[src_idx]
            for j, idx in enumerate(adjustable):
                if bits >> j & 1:
                    got ^= matrix[idx]
            if (got ^ want) & ~higher_targets == 0:
                return True
        return False
    # nonzeroUnknown: every representative must map to something nonzero.
    for bits in range(1 << len(adjustable)):
        got = matrix[src_idx]
        for j, idx in enumerate(adjustable):
            if bits >> j & 1:
                got ^= matrix[idx]
        if got == 0:
            return False
    return True


def check_soundness(chart: ChartFile, store: FactStore, fillings: Sequence[Filling]) -> List[str]:
    """Every engine-derived fact must hold in every filling."""
    violations = []
    derived = [
        (key, value)
        for key, value in store.facts.items()
        if any(d.rule != "axiom" for d in store.derivations.get(key, ()))
    ]
    for key, value in derived:
        map_name, source = key
        for filling in fillings:
            ok = fact_holds(chart, filling, map_name, source, value)
            if ok is False:
                violations.append(f"{key_text(key)} = {value.serialize()} fails in a filling")
                break
    return violations


# ---------------------------------------------------------------------------
# Synthetic instance generation
# ---------------------------------------------------------------------------

_GENERATOR = GENERATORS["κ̄"]


def random_instance(rng: random.Random) -> ChartFile:
    """A small consistent synthetic dataset with one or two junctions."""
    context = rng.choice(["SES-2.8", "SES-2.9"])
    include, project, _ = SEQUENCES[SES_CONTEXTS[context][0].value].maps
    coupled = rng.random() < 0.3

    elements: Dict[str, Element] = {}
    counter = itertools.count()

    def fresh(module: ModuleId, stem: int, filtration: int) -> Element:
        element = Element(module, stem, filtration, f"x{next(counter)}s{stem}f{filtration}")
        elements[element.key] = element
        return element

    def record_at(stem: int, middle: List[int], cokernel: List[int], kernel: List[int]) -> SesRecord:
        """A record with fresh basis classes at the given filtrations, drawn
        in the order middle, cokernel, kernel."""
        return SesRecord(
            context,
            stem,
            tuple(fresh(project.source, stem, f) for f in middle),
            tuple(fresh(include.source, stem, f) for f in cokernel),
            tuple(fresh(include.source, stem + project.stem_shift, f) for f in kernel),
        )

    def filtrations(n: int) -> List[int]:
        return [rng.randint(0, 9) for _ in range(n)]

    stem = rng.randint(10, 40)
    while True:
        c_dim, k_dim = rng.randint(0, 2), rng.randint(0, 2)
        if 1 <= c_dim + k_dim <= 3:
            break
    lower = record_at(stem, filtrations(c_dim + k_dim), filtrations(c_dim), filtrations(k_dim))
    records = [lower]
    actions: List[ActionFact] = []
    if coupled:
        # Mirror the lower shape one generator-stem up, with filtrations
        # shifted by the generator degree (plus jitter), so that linearity and
        # extended-linearity steps actually have legal targets.
        jitter = _GENERATOR.filtration_degree + rng.randint(0, 2)
        upper = record_at(
            stem + _GENERATOR.stem_degree,
            [e.filtration + jitter for e in lower.middle],
            [e.filtration + jitter for e in lower.cokernel],
            [e.filtration + jitter for e in lower.kernel],
        )
        records.append(upper)
        for src, dst in zip(lower.middle, upper.middle):
            if rng.random() < 0.8:
                actions.append(ActionFact(_GENERATOR, src, Value.known(frozenset({dst}))))
        for src, dst in zip(lower.kernel, upper.kernel):
            roll = rng.random()
            if roll < 0.6:
                actions.append(ActionFact(_GENERATOR, src, Value.known(frozenset({dst}))))
            elif roll < 0.75:
                actions.append(ActionFact(_GENERATOR, src, Value.zero()))

    chart = ChartFile(
        max_stem=stem + 200,
        elements=elements,
        actions=ActionTable(actions),
        classifications=[],
        hurewicz={},
        orders={},
        tmf_names={},
        tmf_name_overrides={},
        nu_multiples=frozenset(),
        prior_order_two=frozenset(),
        ses_records=records,
        axioms=[],
    )

    fillings = enumerate_fillings(chart)
    if not fillings:
        return random_instance(rng)

    # Draw axioms from one concrete filling so the instance stays consistent.
    seed_filling = rng.choice(fillings)
    axioms: List[MapAxiom] = []
    for record in records:
        for element in record.middle:
            if rng.random() < 0.25:
                span = _project_value(seed_filling, record, element)
                axioms.append(MapAxiom(record.project_map, element, Value.known(span)))
    chart.axioms.extend(axioms)
    return chart


def run_soundness_trial(seed: int) -> Tuple[int, List[str]]:
    """Saturate one synthetic instance and check every derivation against
    every brute-force filling; returns (facts checked, violations)."""
    rng = random.Random(seed)
    chart = random_instance(rng)
    store = saturate(chart)
    fillings = enumerate_fillings(chart)
    violations = check_soundness(chart, store, fillings)
    return len(store.facts), violations
