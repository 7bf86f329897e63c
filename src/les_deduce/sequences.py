"""The three long exact sequences and the monotone fact store.

Map facts carry a knowledge state and a provenance; the store only upgrades
knowledge (unknown → nonzeroUnknown → known) and records every derivation,
including alternatives for already-known facts.  Conflicting known values
that do not agree modulo higher filtration become contradictions; they are
reported, never silently resolved, and never abort saturation.

A fact's key, and a derivation's citation of it, is its ``FactKey`` (map name,
source element); its text form ``map|MODULE:name`` (``key_text``) is output
only: ``serialize``, the derivation log, contradiction and violation lines.

``check_all`` is the exactness report: it walks each LES's three junctions
once per anchor stem and tests the composites of consecutive known facts on
the chart's elements.  It skips the facts on periodic-part monomials: they
are bookkeeping for the localized rows, which are not exact in general.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from .algebra import (
    ClassificationKind,
    Element,
    F2Span,
    LesContext,
    ModuleId,
    Value,
    ZERO,
    _KNOWN,
    acyclic,
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


FactKey = Tuple[str, Element]  # (map name, source element)


def key_text(key: FactKey) -> str:
    """The text form ``map|MODULE:name`` of a fact key, for the output only."""
    return f"{key[0]}|{key[1].key}"


class Derivation(NamedTuple):
    rule: str
    inputs: Tuple[Union[str, FactKey], ...]  # a cited parent fact by its key
    value: Value


class Contradiction(NamedTuple):
    fact: FactKey
    existing: Value
    incoming: Value
    existing_rule: str
    incoming_rule: str

    def describe(self) -> str:
        return (
            f"{key_text(self.fact)}: {self.existing.serialize()} [{self.existing_rule}] vs "
            f"{self.incoming.serialize()} [{self.incoming_rule}]"
        )


def fact_key(map_name: str, source: Element) -> FactKey:
    """The store's key of the fact ``map_name`` on ``source``."""
    return (map_name, source)


class RankOnePlan(NamedTuple):
    """What the rules read off a record with kernel {g} and middle {u, w} (u
    no higher than w) on each visit, built once per chart.  The keys and
    values are computed here; the other fields copy the record's, so a visit
    reads tuple fields instead of ``SesRecord`` properties."""

    project: str
    include: str
    u: Element
    w: Element
    key_u: FactKey  # the projection fact keys (p, u) and (p, w)
    key_w: FactKey
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
            project, record.include_map, u, w, (project, u), (project, w), record.ref, g,
            Value.known(frozenset((g,))), Value.known(frozenset((u,))), Value.known(frozenset((w,))),
            cokernel[0] if cokernel is not None and len(cokernel) == 1 else None,
        ))


class FactStore:
    """Monotone store of map facts keyed by ``FactKey``, (map name, source element).

    Each derivation is held once, in ``derivations[key]``.  ``log`` lists the
    key of every stored derivation in the order they were stored, so a key's
    n-th log entry is ``derivations[key][n]``, and the keys in order of first
    appearance in the log are the keys of ``facts`` in order.
    """

    def __init__(self) -> None:
        self.facts: Dict[FactKey, Value] = {}
        self.derivations: Dict[FactKey, List[Derivation]] = {}
        self.contradictions: List[Contradiction] = []
        self.p3_image: List[Element] = []
        self.log: List[FactKey] = []  # the key of each stored derivation, in order

    def get(self, map_name: str, source: Element) -> Optional[Value]:
        return self.facts.get((map_name, source))

    def insert(
        self,
        map_name: str,
        source: Element,
        value: Value,
        rule: str,
        inputs: Iterable[Union[str, FactKey]] = (),
    ) -> bool:
        """Record a fact; returns True when knowledge or the log grew.

        A known nonzero value must respect the filtration law (maps of the
        filtered charts never decrease filtration); violations are recorded as
        contradictions against the incoming derivation and otherwise ignored.
        Each distinct contradiction is recorded once, however often it recurs.
        """
        key = (map_name, source)
        known, span = value.state is _KNOWN, value.span
        if known and span and filtration_floor(span) < source.filtration:
            self._record(Contradiction(key, value, value, rule, f"{rule} (filtration law)"))
            return False
        if type(inputs) is not tuple:
            inputs = tuple(inputs)
        existing = self.facts.get(key)
        if existing is None:  # a new fact: three writes, nothing to compare
            self.facts[key] = value
            self.derivations[key] = [new_tuple(Derivation, (rule, inputs, value))]
            self.log.append(key)
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
            self.log.append(key)
            grew = True
        return grew

    def _contradict(self, key: FactKey, existing: Value, incoming: Value, rule: str) -> None:
        existing_rule = self.derivations[key][0].rule
        self._record(Contradiction(key, existing, incoming, existing_rule, rule))

    def _record(self, contradiction: Contradiction) -> None:
        if contradiction not in self.contradictions:
            self.contradictions.append(contradiction)

    def serialize(self) -> str:
        """Canonical byte representation of the saturated knowledge.

        Covers facts (in the order of their keys' text), the p3 image, and
        contradictions; the derivation log is replay metadata and is excluded
        (its order varies with the schedule).
        """
        texts = sorted(((key_text(key), value) for key, value in self.facts.items()), key=itemgetter(0))
        lines = [f"{text} = {value.serialize()}" for text, value in texts]
        lines.append("p3image: " + ",".join(e.key for e in self.p3_image))
        for c in sorted(self.contradictions, key=lambda c: c.describe()):
            lines.append("contradiction: " + c.describe())
        return "\n".join(lines) + "\n"

    def log_document(self) -> List[dict]:
        """The derivation log, each key's n-th log entry paired with its n-th
        derivation, with fact keys and cited parent facts as text."""
        derivations = {key: iter(found) for key, found in self.derivations.items()}
        document = []
        for key in self.log:
            derivation = next(derivations[key])
            document.append({
                "fact": key_text(key),
                "value": derivation.value.serialize(),
                "rule": derivation.rule,
                "inputs": [key_text(i) if type(i) is tuple else i for i in derivation.inputs],
            })
        return document


def load_axioms(store: FactStore, chart: ChartFile) -> None:
    """Seed the store: explicit axioms plus facts implied by chart structure.

    Connecting-map facts are never derived, only consumed: the v-map facts
    mirror the v₁ actions on Y, multiplication-by-2 facts mirror element
    orders, and η-kernel membership of every recorded kernel basis element
    in M (the SES-2.7 and SES-2.8 records) becomes an η fact.
    """
    module_y, module_s, module_m = ModuleId.Y, ModuleId.S, ModuleId.M
    zero, nonzero = Value.zero(), Value.nonzero_unknown()
    insert, elements = store.insert, chart.elements
    for axiom in chart.axioms:
        insert(axiom.map, axiom.source, axiom.value, AXIOM, ("dataset",))
    for generator, source, value in chart.actions.facts():
        if generator.name == "v₁" and source.module is module_y:
            insert("v", source, value, AXIOM, ("v₁-action",))
    for key, order in chart.orders.items():
        element = elements[key]
        if element.module is not module_s:
            continue
        if order == 2:
            insert("mul2", element, zero, AXIOM, ("order",))
        elif order in (4, 8, "inf"):
            insert("mul2", element, nonzero, AXIOM, ("order",))
    for _, stem, _, _, kernel, _, maps in chart.ses_records:
        if kernel and maps[0].source is module_m:  # the kernel's module
            cited = (f"kernel@{stem}",)
            for element in kernel:
                insert("eta", element, zero, AXIOM, cited)


def image_of_p3(store: FactStore, chart: ChartFile) -> List[Element]:
    """Torsion Y-classes annihilated by v₁: exactly the image of p₃.

    Records each hit as a p₃ fact with unknown (but nonzero) preimage and
    returns the sorted list.  The loader guarantees every in-scope element a
    v₁ action (``chartdata._ChartRecords.add_classifications``).
    """
    module_y, les_23, torsion = ModuleId.Y, LesContext.LES_23, ClassificationKind.TORSION
    actions = chart.actions.by_key
    hits: List[Element] = []
    for element, context, kind in chart.classifications:
        if kind is torsion and context is les_23 and element.module is module_y:
            if actions[("v₁", element.key)].value.is_zero:
                hits.append(element)
    hits.sort(key=lambda e: (e.stem, e.filtration, e.name))
    store.p3_image = hits
    insert, nonzero = store.insert, Value.nonzero_unknown()
    for element in hits:
        insert("p3hit", element, nonzero, RULE_P3, ("v₁·y=0",))
    return hits


class JunctionVerdict(NamedTuple):
    sequence: str
    stem: int
    junction: str  # "map1->map2" composite position
    verdict: str  # exact | undetermined | contradiction
    detail: str = ""


@acyclic
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
    for element in chart.elements.values():
        stems_of.setdefault(element.module, set()).add(element.stem)
    stems = sorted(set().union(*stems_of.values()))
    # Only a known nonzero value on a chart element can give a violation:
    # (map, source module) → source stem → those elements, each with its
    # value, in sorted order, since the first that gives one wins.
    candidates: Dict[Tuple[str, ModuleId], Dict[int, List[Tuple[Element, Value]]]] = {}
    for (map_name, element), value in store.facts.items():
        if value.state is _KNOWN and value.span and not element.periodic:
            by_stem = candidates.setdefault((map_name, element.module), {})
            by_stem.setdefault(element.stem, []).append((element, value))
    for by_stem in candidates.values():
        for group in by_stem.values():
            group.sort(key=itemgetter(0))
    out: List[JunctionVerdict] = []
    for seq in SEQUENCES.values():
        # One column of verdicts per junction, over every anchor stem, then
        # the rows: a junction's source stem is the anchor stem shifted by the
        # junctions before it.
        seq_id, columns, offset = seq.id, [], 0
        for map1, map2 in zip(seq.maps, seq.maps[1:] + seq.maps[:1]):
            prefix, shift1, shift2 = f"{map1.name}->{map2.name}@", map1.stem_shift, map2.stem_shift
            by_stem = candidates.get((map1.name, map1.source), {})
            source_stems, middle_stems, target_stems = (
                stems_of.get(map1.source, ()), stems_of.get(map1.target, ()), stems_of.get(map2.target, ())
            )
            column = []
            for stem in stems:
                source_stem = stem + offset
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
                column.append(new_tuple(JunctionVerdict, (seq_id, stem, f"{prefix}{junction_stem}", verdict, detail)))
            columns.append(column)
            offset += shift1
        out.extend(chain.from_iterable(zip(*columns)))
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
