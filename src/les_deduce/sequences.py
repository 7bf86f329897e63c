"""The three long exact sequences and the monotone fact store.

Map facts carry a knowledge state and a provenance; the store only upgrades
knowledge (unknown → nonzeroUnknown → known) and records every derivation,
including alternatives for already-known facts.  Conflicting known values
that do not agree modulo higher filtration become contradictions; they are
reported, never silently resolved, and never abort saturation.

``check_all`` is the exactness report: it walks each LES's three junctions
once per anchor stem and tests the composites of consecutive known facts on
the chart's elements.  Periodic-part monomials are never chart elements, so
the checker never reads the facts on them: they are bookkeeping for the
localized rows, which are not exact in general.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .algebra import (
    ClassificationKind,
    Element,
    F2Span,
    LesContext,
    ModuleId,
    Value,
    ZERO,
    _KNOWN,
    filtration_floor,
    new_tuple,
    span_add,
    span_key,
    values_equal_mod_higher,
)

if TYPE_CHECKING:  # chartdata checks axiom maps against MAP_SPECS
    from .chartdata import ChartFile, SesRecord


class MapSpec(NamedTuple):
    name: str
    source: ModuleId
    target: ModuleId
    stem_shift: int


class SequenceSpec(NamedTuple):
    """One LES as an ordered triple of maps; shifts sum to the triangle degree."""

    id: str
    maps: Tuple[MapSpec, MapSpec, MapSpec]


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


class Derivation(NamedTuple):
    rule: str
    inputs: Tuple[str, ...]
    value: Value


class Contradiction(NamedTuple):
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
    """The store's key of the fact ``map_name`` on ``source``.

    ``FactStore.insert`` and ``FactStore.get`` write the same format inline."""
    return f"{map_name}|{source.key}"


class RankOnePlan(NamedTuple):
    """What the rules read off a record with kernel {g} and middle {u, w} (u
    no higher than w) on each visit, built once per chart.  The keys and
    values are computed here; the other fields copy the record's, so a visit
    reads tuple fields instead of ``SesRecord`` properties."""

    project: str
    include: str
    u: Element
    w: Element
    key_u: str  # the projection fact keys p|u and p|w
    key_w: str
    ref: str
    kernel: Element  # g
    onto_kernel: Value  # g as a known value
    lift_u: Value  # u and w as known values
    lift_w: Value
    cokernel: Optional[Element]  # the class of a rank-1 cokernel, else None

    @classmethod
    def of(cls, record: SesRecord) -> "RankOnePlan":
        (u, w), (g,), project, cokernel = record.middle, record.kernel, record.project_map, record.cokernel
        return new_tuple(cls, (
            project, record.include_map, u, w, fact_key(project, u), fact_key(project, w), record.ref, g,
            Value.known(frozenset((g,))), Value.known(frozenset((u,))), Value.known(frozenset((w,))),
            cokernel[0] if cokernel is not None and len(cokernel) == 1 else None,
        ))


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
        return self.facts.get(f"{map_name}|{source.key}")  # fact_key, inline

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
        key = f"{map_name}|{source.key}"  # fact_key, inline
        known, span = value.state is _KNOWN, value.span
        if known and span and filtration_floor(span) < source.filtration:
            self._record(Contradiction(key, value, value, rule, f"{rule} (filtration law)"))
            return False
        if type(inputs) is not tuple:
            inputs = tuple(inputs)
        existing = self.facts.get(key)
        if existing is None:  # a new fact: four writes, nothing to compare
            derivation = new_tuple(Derivation, (rule, inputs, value))
            self.facts[key] = value
            self.sources[key] = source
            self.derivations[key] = [derivation]
            self.log.append((key, derivation))
            return True

        grew = False
        if existing.state is _KNOWN:
            if known:
                if span != existing.span:
                    if not values_equal_mod_higher(existing, value):
                        self._contradict(key, existing, value, rule)
                        return False
                    # Canonicalize to the lexicographically smaller
                    # representative so saturation is schedule-independent.
                    if value.serialize() < existing.serialize():
                        self.facts[key] = value
                        grew = True
            elif not existing.span:  # known zero vs nonzeroUnknown
                self._contradict(key, existing, value, rule)
                return False
            # known nonzero absorbs nonzeroUnknown
        elif known:  # nonzeroUnknown upgraded, unless to zero
            if not span:
                self._contradict(key, existing, value, rule)
                return False
            self.facts[key] = value
            grew = True
        # nonzeroUnknown vs nonzeroUnknown: nothing to do

        derivation = new_tuple(Derivation, (rule, inputs, value))
        seen = self.derivations[key]
        if derivation not in seen:
            seen.append(derivation)
            self.log.append((key, derivation))
            grew = True
        return grew

    def _contradict(self, key: str, existing: Value, incoming: Value, rule: str) -> None:
        existing_rule = self.derivations[key][0].rule
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


def load_axioms(store: FactStore, chart: ChartFile) -> None:
    """Seed the store: explicit axioms plus facts implied by chart structure.

    Connecting-map facts are never derived, only consumed: the v-map facts
    mirror the v₁ actions on Y, multiplication-by-2 facts mirror element
    orders, and η-kernel membership of every recorded kernel basis element
    in M (the SES-2.7 and SES-2.8 records) becomes an η fact.
    """
    module_y, module_s, module_m = ModuleId.Y, ModuleId.S, ModuleId.M
    zero, nonzero = Value.zero(), Value.nonzero_unknown()
    for axiom in chart.axioms:
        store.insert(axiom.map, axiom.source, axiom.value, AXIOM, ("dataset",))
    for fact in chart.actions.facts():
        if fact.generator.name == "v₁" and fact.source.module is module_y:
            store.insert("v", fact.source, fact.value, AXIOM, ("v₁-action",))
    for key, order in chart.orders.items():
        element = chart.elements[key]
        if element.module is not module_s:
            continue
        if order == 2:
            store.insert("mul2", element, zero, AXIOM, ("order",))
        elif order in (4, 8, "inf"):
            store.insert("mul2", element, nonzero, AXIOM, ("order",))
    for record in chart.ses_records:
        if record.side_module is module_m and record.kernel:
            for element in record.kernel:
                store.insert("eta", element, zero, AXIOM, (f"kernel@{record.stem}",))


def image_of_p3(store: FactStore, chart: ChartFile) -> List[Element]:
    """Torsion Y-classes annihilated by v₁: exactly the image of p₃.

    Records each hit as a p₃ fact with unknown (but nonzero) preimage and
    returns the sorted list.  The loader guarantees every in-scope element a
    v₁ action (``chartdata._ChartRecords.add_classification``).
    """
    module_y, les_23, torsion = ModuleId.Y, LesContext.LES_23, ClassificationKind.TORSION
    hits: List[Element] = []
    for c in chart.classifications:
        element = c.element
        if c.kind is not torsion or c.context is not les_23 or element.module is not module_y:
            continue
        if chart.actions.get("v₁", element).value.is_zero:
            hits.append(element)
    hits.sort(key=lambda e: (e.stem, e.filtration, e.name))
    store.p3_image = hits
    nonzero = Value.nonzero_unknown()
    for element in hits:
        store.insert("p3hit", element, nonzero, RULE_P3, ("v₁·y=0",))
    return hits


class JunctionVerdict(NamedTuple):
    sequence: str
    stem: int
    junction: str  # "map1->map2" composite position
    verdict: str  # exact | undetermined | contradiction
    detail: str = ""


def check_all(store: FactStore, chart: ChartFile) -> List[JunctionVerdict]:
    """Junction-local exactness report: each LES's three junctions at every
    anchor stem, the stems of the chart's elements.

    The anchor stem is the source stem of the sequence's first map, and each
    junction's source stem is the previous junction's stem.  With partial
    knowledge only necessary conditions are checked (composites of
    consecutive known facts must vanish); the verdict is then "undetermined"
    unless a violation is found.  A junction whose three positions carry no
    chart elements at all is trivially exact.
    """
    stems_of: Dict[ModuleId, set] = {}  # module → the stems of its chart elements
    elements = chart.elements
    for element in elements.values():
        stems_of.setdefault(element.module, set()).add(element.stem)
    stems = sorted(set().union(*stems_of.values()))
    # Only a known nonzero value on a chart element can give a violation:
    # (map, source module) → source stem → those elements, each with its
    # value, in sorted order, since the first that gives one wins.
    candidates: Dict[Tuple[str, ModuleId], Dict[int, List[Tuple[Element, Value]]]] = {}
    for key, value in store.facts.items():
        if value.state is _KNOWN and value.span:
            map_name, _, source_key = key.partition("|")
            element = elements.get(source_key)
            if element is not None:
                by_stem = candidates.setdefault((map_name, element.module), {})
                by_stem.setdefault(element.stem, []).append((element, value))
    for by_stem in candidates.values():
        for group in by_stem.values():
            group.sort(key=itemgetter(0))
    out: List[JunctionVerdict] = []
    for seq in SEQUENCES.values():
        # Each junction's label prefix, its maps and their stem shifts, their
        # candidates and the stems of the three modules it visits.
        junctions = [
            (f"{map1.name}->{map2.name}@", map1, map2, map1.stem_shift, map2.stem_shift,
             candidates.get((map1.name, map1.source), {}),
             stems_of.get(map1.source, ()), stems_of.get(map1.target, ()), stems_of.get(map2.target, ()))
            for map1, map2 in zip(seq.maps, seq.maps[1:] + seq.maps[:1])
        ]
        seq_id = seq.id
        for stem in stems:
            source_stem = stem
            for prefix, map1, map2, shift1, shift2, by_stem, source_stems, middle_stems, target_stems in junctions:
                junction_stem = source_stem + shift1
                if source_stem in source_stems:
                    detail = ""
                    for element, value in by_stem.get(source_stem, ()):
                        detail = _composite_violation(store, map1, map2, element, value)
                        if detail:
                            break
                    verdict = "contradiction" if detail else "undetermined"
                elif junction_stem in middle_stems or junction_stem + shift2 in target_stems:
                    verdict, detail = "undetermined", ""
                else:
                    verdict, detail = "exact", "zero modules"
                label = f"{prefix}{junction_stem}"
                out.append(new_tuple(JunctionVerdict, (seq_id, stem, label, verdict, detail)))
                source_stem = junction_stem
    return out


def _composite_violation(
    store: FactStore, map1: MapSpec, map2: MapSpec, element: Element, value: Value
) -> str:
    """Why map2 ∘ map1 cannot vanish on ``element``, whose map1 ``value`` is
    known and nonzero, or "" if the known facts do not show it: the image
    pushes through map2 to a nonzero sum, or a single-class image meets a
    nonzero map2 value that is not known."""
    total: F2Span = ZERO
    for member in sorted(value.span):
        pushed = store.get(map2.name, member)
        if pushed is None:
            return ""
        if not pushed.is_known:
            if len(value.span) == 1:
                return f"{map2.name} nonzero on img {map1.name}({element.key})"
            return ""
        total = span_add(total, pushed.span)
    if total:
        return f"{map2.name}({map1.name}({element.key})) = {span_key(total)} ≠ 0"
    return ""
