"""The three long exact sequences and the monotone fact store.

Map facts carry a knowledge state and a provenance; the store only upgrades
knowledge (unknown → nonzeroUnknown → known) and records every derivation,
including alternatives for already-known facts.  Conflicting known values
that do not agree modulo higher filtration become contradictions; they are
reported, never silently resolved, and never abort saturation.

Exactness is checked junction-locally, and only on the genuine long exact
sequences: facts whose source is a periodic-part monomial are bookkeeping for
the localized rows, which are not exact in general, so the checker skips them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .algebra import (
    Element,
    F2Span,
    ModuleId,
    Value,
    ZERO,
    filtration_floor,
    span_add,
    span_key,
    values_equal_mod_higher,
)
from .chartdata import ChartFile


@dataclass(frozen=True)
class MapSpec:
    name: str
    source: ModuleId
    target: ModuleId
    stem_shift: int


@dataclass(frozen=True)
class SequenceSpec:
    """One LES as an ordered triple of maps; shifts sum to the triangle degree."""

    id: str
    maps: Tuple[MapSpec, MapSpec, MapSpec]

    def __post_init__(self) -> None:
        if sum(m.stem_shift for m in self.maps) != -1:
            raise ValueError(f"{self.id}: stem shifts must sum to -1")


SEQUENCES: Dict[str, SequenceSpec] = {
    "LES-2.2": SequenceSpec(
        "LES-2.2",
        (
            MapSpec("i3", ModuleId.Y, ModuleId.A1, 0),
            MapSpec("p3", ModuleId.A1, ModuleId.Y, -3),
            MapSpec("v", ModuleId.Y, ModuleId.Y, 2),
        ),
    ),
    "LES-2.3": SequenceSpec(
        "LES-2.3",
        (
            MapSpec("i2", ModuleId.M, ModuleId.Y, 0),
            MapSpec("p2", ModuleId.Y, ModuleId.M, -2),
            MapSpec("eta", ModuleId.M, ModuleId.M, 1),
        ),
    ),
    "LES-2.4": SequenceSpec(
        "LES-2.4",
        (
            MapSpec("i1", ModuleId.S, ModuleId.M, 0),
            MapSpec("p1", ModuleId.M, ModuleId.S, -1),
            MapSpec("mul2", ModuleId.S, ModuleId.S, 0),
        ),
    ),
}

MAP_SPECS: Dict[str, MapSpec] = {m.name: m for seq in SEQUENCES.values() for m in seq.maps}

# Provenance rule identifiers.
AXIOM = "axiom"
RULE_T1 = "T1"
RULE_T2 = "T2"
RULE_T3A = "T3a"
RULE_T3B = "T3b"
RULE_T4 = "T4"
RULE_LIN = "LIN"
RULE_PERIODIC = "PERIODIC"
RULE_EXC = "EXC"
RULE_EXACT = "EXACT"
RULE_P3 = "P3IMG"


@dataclass(frozen=True)
class Derivation:
    rule: str
    inputs: Tuple[str, ...]
    value: Value


@dataclass(frozen=True)
class Contradiction:
    fact: str
    existing: Value
    incoming: Value
    existing_rule: str
    incoming_rule: str

    def describe(self) -> str:
        return (
            f"{self.fact}: {self.existing.serialize()} [{self.existing_rule}] vs "
            f"{self.incoming.serialize()} [{self.incoming_rule}]"
        )


def fact_key(map_name: str, source: Element) -> str:
    return f"{map_name}|{source.key}"


class FactStore:
    """Monotone store of map facts keyed by (map, source element)."""

    def __init__(self) -> None:
        self.facts: Dict[str, Value] = {}
        self.sources: Dict[str, Element] = {}
        self.derivations: Dict[str, List[Derivation]] = {}
        self.contradictions: List[Contradiction] = []
        self.p3_image: List[Element] = []
        self.log: List[Tuple[str, Derivation]] = []

    def get(self, map_name: str, source: Element) -> Optional[Value]:
        return self.facts.get(fact_key(map_name, source))

    def insert(
        self,
        map_name: str,
        source: Element,
        value: Value,
        rule: str,
        inputs: Iterable[str] = (),
    ) -> bool:
        """Record a fact; returns True when knowledge or the log grew.

        A known nonzero value must respect the filtration law (maps of the
        filtered charts never decrease filtration); violations are recorded as
        contradictions against the incoming derivation and otherwise ignored.
        Each distinct contradiction is recorded once, however often it recurs.
        """
        key = fact_key(map_name, source)
        derivation = Derivation(rule, tuple(inputs), value)
        if value.is_known_nonzero and filtration_floor(value.span) < source.filtration:
            self._record(Contradiction(key, value, value, rule, f"{rule} (filtration law)"))
            return False

        existing = self.facts.get(key)
        grew = False
        if existing is None:
            self.facts[key] = value
            self.sources[key] = source
            grew = True
        elif existing.is_known and value.is_known:
            if not values_equal_mod_higher(existing, value):
                self._contradict(key, existing, value, rule)
                return False
            # Canonicalize to the lexicographically smaller representative so
            # saturation is schedule-independent.
            canonical = min(existing, value, key=lambda v: v.serialize())
            if canonical != existing:
                self.facts[key] = canonical
                grew = True
        elif existing.is_known and not value.is_known:
            if existing.is_zero:
                self._contradict(key, existing, value, rule)
                return False
            # known nonzero absorbs nonzeroUnknown
        elif not existing.is_known and value.is_known:
            if value.is_zero:
                self._contradict(key, existing, value, rule)
                return False
            self.facts[key] = value
            grew = True
        # nonzeroUnknown vs nonzeroUnknown: nothing to do

        seen = self.derivations.setdefault(key, [])
        if derivation not in seen:
            seen.append(derivation)
            self.log.append((key, derivation))
            grew = True
        return grew

    def _contradict(self, key: str, existing: Value, incoming: Value, rule: str) -> None:
        existing_rule = self.derivations.get(key, [Derivation("?", (), existing)])[0].rule
        self._record(Contradiction(key, existing, incoming, existing_rule, rule))

    def _record(self, contradiction: Contradiction) -> None:
        if contradiction not in self.contradictions:
            self.contradictions.append(contradiction)

    def serialize(self) -> str:
        """Canonical byte representation of the saturated knowledge.

        Covers facts, the p3 image, and contradictions; the derivation log is
        replay metadata and is excluded (its order varies with the schedule).
        """
        lines = [f"{key} = {self.facts[key].serialize()}" for key in sorted(self.facts)]
        lines.append("p3image: " + ",".join(e.key for e in self.p3_image))
        for c in sorted(self.contradictions, key=lambda c: c.describe()):
            lines.append("contradiction: " + c.describe())
        return "\n".join(lines) + "\n"

    def log_document(self) -> List[dict]:
        return [
            {
                "fact": key,
                "value": derivation.value.serialize(),
                "rule": derivation.rule,
                "inputs": list(derivation.inputs),
            }
            for key, derivation in self.log
        ]


class IncompleteDataError(ValueError):
    """An operation needed chart data that the dataset does not carry."""


def load_axioms(store: FactStore, chart: ChartFile) -> None:
    """Seed the store: explicit axioms plus facts implied by chart structure.

    Connecting-map facts are never derived, only consumed: the v-map facts
    mirror the v₁ actions on Y, multiplication-by-2 facts mirror element
    orders, and η-kernel membership of every recorded kernel basis element
    becomes an η fact.
    """
    for axiom in chart.axioms:
        value = Value.nonzero_unknown() if axiom.nonzero else Value.known(axiom.value or ZERO)
        store.insert(axiom.map, axiom.source, value, AXIOM, ("dataset",))
    for fact in chart.actions.facts():
        if fact.generator.name == "v₁" and fact.source.module is ModuleId.Y:
            store.insert("v", fact.source, fact.as_value(), AXIOM, ("v₁-action",))
    for key, order in chart.orders.items():
        element = chart.elements[key]
        if element.module is not ModuleId.S:
            continue
        if order == 2:
            store.insert("mul2", element, Value.zero(), AXIOM, ("order",))
        elif order in (4, 8, "inf"):
            store.insert("mul2", element, Value.nonzero_unknown(), AXIOM, ("order",))
    for record in chart.ses_records:
        if record.context == "SES-2.8" and record.kernel:
            for element in record.kernel:
                store.insert("eta", element, Value.zero(), AXIOM, (f"kernel@{record.stem}",))


def image_of_p3(store: FactStore, chart: ChartFile) -> List[Element]:
    """Torsion Y-classes annihilated by v₁: exactly the image of p₃.

    Records each hit as a p₃ fact with unknown (but nonzero) preimage and
    returns the sorted list.  Missing v₁ data on an in-scope element is an
    error naming the element.
    """
    from .algebra import LesContext

    hits: List[Element] = []
    for element in chart.torsion_elements(ModuleId.Y, LesContext.LES_23):
        fact = chart.actions.get("v₁", element)
        if fact is None:
            raise IncompleteDataError(f"no v₁ action recorded for {element.key}")
        if fact.value is not None and not fact.value:
            hits.append(element)
    hits.sort(key=lambda e: (e.stem, e.filtration, e.name))
    store.p3_image = hits
    for element in hits:
        store.insert("p3hit", element, Value.nonzero_unknown(), RULE_P3, ("v₁·y=0",))
    return hits


@dataclass(frozen=True)
class DerivedSES:
    """One degree of a derived short exact sequence with its explicit bases."""

    context: str
    stem: int
    cokernel: Tuple[Element, ...]
    middle: Tuple[Element, ...]
    kernel: Tuple[Element, ...]

    @property
    def left_rank(self) -> int:
        return len(self.cokernel)

    @property
    def right_rank(self) -> int:
        return len(self.kernel)


def build_derived_ses(chart: ChartFile, stem: int, context: str) -> DerivedSES:
    record = chart.ses_record(context, stem)
    if record is None:
        if not chart.elements_of(_middle_module(context), stem):
            return DerivedSES(context, stem, (), (), ())
        raise IncompleteDataError(f"no rank data for {context} at stem {stem}")
    if record.cokernel is None or record.kernel is None:
        raise IncompleteDataError(f"partial rank data for {context} at stem {stem}")
    return DerivedSES(context, stem, record.cokernel, record.middle, record.kernel)


def _middle_module(context: str) -> ModuleId:
    return ModuleId.Y if context in ("SES-2.7", "SES-2.8") else ModuleId.M


@dataclass(frozen=True)
class JunctionVerdict:
    sequence: str
    stem: int
    junction: str  # "map1->map2" composite position
    verdict: str  # exact | undetermined | contradiction
    detail: str = ""


def check_exactness(store: FactStore, chart: ChartFile, sequence_id: str, stem: int) -> List[JunctionVerdict]:
    """Junction-local exactness report for one LES at one stem.

    With partial knowledge only necessary conditions are checked (composites
    of consecutive known facts must vanish); the verdict is then
    "undetermined" unless a violation is found.  A junction whose three
    positions carry no chart elements at all is trivially exact.
    """
    seq = SEQUENCES[sequence_id]
    verdicts: List[JunctionVerdict] = []
    cyclic = list(seq.maps) + [seq.maps[0]]
    # Walk stems so that map1 lands where map2 starts, anchored at `stem` for
    # the first map's source.
    for idx in range(3):
        map1, map2 = cyclic[idx], cyclic[idx + 1]
        source_stem = stem if idx == 0 else stem + sum(m.stem_shift for m in seq.maps[:idx])
        junction_stem = source_stem + map1.stem_shift
        label = f"{map1.name}->{map2.name}@{junction_stem}"
        sources = [e for e in chart.elements_of(map1.source, source_stem)]
        junction_elems = chart.elements_of(map1.target, junction_stem)
        targets = chart.elements_of(map2.target, junction_stem + map2.stem_shift)
        if not sources and not junction_elems and not targets:
            verdicts.append(JunctionVerdict(sequence_id, stem, label, "exact", "zero modules"))
            continue
        violation = None
        for element in sources:
            value = store.get(map1.name, element)
            if value is None or not value.is_known_nonzero:
                continue
            image = value.span
            # Composite must vanish: push the image through map2 where known.
            total: F2Span = ZERO
            complete = True
            blocked_nonzero = None
            for member in sorted(image):
                nxt = store.get(map2.name, member)
                if nxt is None:
                    complete = False
                    break
                if not nxt.is_known:
                    blocked_nonzero = member
                    complete = False
                    break
                total = span_add(total, nxt.span)
            if complete and total:
                violation = f"{map2.name}({map1.name}({element.key})) = {span_key(total)} ≠ 0"
                break
            if blocked_nonzero is not None and len(image) == 1:
                violation = f"{map2.name} nonzero on img {map1.name}({element.key})"
                break
        if violation:
            verdicts.append(JunctionVerdict(sequence_id, stem, label, "contradiction", violation))
        else:
            verdicts.append(JunctionVerdict(sequence_id, stem, label, "undetermined"))
    return verdicts


def check_all(store: FactStore, chart: ChartFile) -> List[JunctionVerdict]:
    stems = sorted({e.stem for e in chart.elements.values() if not e.periodic})
    out: List[JunctionVerdict] = []
    for sequence_id in ("LES-2.2", "LES-2.3", "LES-2.4"):
        for stem in stems:
            out.extend(check_exactness(store, chart, sequence_id, stem))
    return out
