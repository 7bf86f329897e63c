"""Chart dataset format: load/validate/save, periodic-part expansion, Δ⁸ extension.

The dataset is a single JSON document (UTF-8, schemaVersion "1") with top-level
keys {schemaVersion, maxStem, generators, elements, actions, classifications,
hurewiczFlags, exceptionalSets, ranks, axioms, tmfNameOverrides,
periodicPresentations}.  Element references everywhere use the key format
"MODULE:name".  Unknown top-level or record fields are rejected so golden files
stay byte-stable.

Periodic parts are not stored element-by-element.  Each module carries a small
presentation (a monomial pattern) that ``expand_periodic`` unfolds up to a stem
bound; the per-part formulas of the deduction rules act on those monomials.
The Moore-module pattern is a lightning flash on generators Δⁿv₁⁴ᵏ, full for
k ≥ 1, with the k = 0 fraction listed per Δ-power (mod 8) because no closed
formula covers it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .algebra import (
    ActionFact,
    ActionTable,
    Classification,
    ClassificationKind,
    DegreeMismatchError,
    Element,
    F2Span,
    LesContext,
    ModuleId,
    RingGenerator,
    span_of,
)

SCHEMA_VERSION = "1"

# Frozen exceptional-element listings; datasets must match these verbatim.
EXCEPTIONAL_EM = (
    "Δη", "Δ²η²", "Δ²v₁η", "Δ³v₁η²", "Δ⁴η", "Δ⁵η²", "Δ⁵v₁η", "Δ⁶v₁η²",
)
EXCEPTIONAL_FS = ("8Δ", "4Δ²", "8Δ³", "2Δ⁴", "8Δ⁵", "4Δ⁶", "8Δ⁷")
EXCEPTIONAL_FM = (
    "v₁η²", "Δv₁η²", "Δ²v₁η²", "Δ³v₁η²", "Δ⁴v₁η²", "Δ⁵v₁η²", "Δ⁶v₁η²",
)

ALLOWED_ORDERS = {1, 2, 4, 8}  # plus None (unknown) and "inf" (torsion free)

_SUP = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _pow(base: str, exponent: int) -> str:
    if exponent == 0:
        return ""
    if exponent == 1:
        return base
    return base + str(exponent).translate(_SUP)


def monomial_name_m(delta: int, v1: int, eta: int) -> str:
    return _pow("Δ", delta) + _pow("v₁", v1) + _pow("η", eta) or "1"


def monomial_name_y(delta: int, v1: int) -> str:
    return _pow("Δ", delta) + _pow("v₁", v1) or "1"


def monomial_name_s(delta: int, c4: int, eta: int) -> str:
    return _pow("Δ", delta) + _pow("c₄", c4) + _pow("η", eta) or "1"


def monomial_name_s_c6(delta: int, c4: int) -> str:
    return "2" + _pow("Δ", delta) + _pow("c₄", c4) + "c₆"


# Minimum v₁-power of a Y periodic monomial, by Δ-exponent mod 8:
# F₂[v₁, Δ⁸]{1, Δv₁, Δ²v₁², Δ³v₁³, Δ⁴v₁, Δ⁵v₁², Δ⁶v₁³, Δ⁷v₁⁴}.
Y_MIN_V1 = (0, 1, 2, 3, 1, 2, 3, 4)

# Lightning-flash positions as (extra v₁-power, η-power); filtration = η-power.
FLASH_POSITIONS = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))

# Which flash positions survive on the k = 0 generators Δⁿ (n mod 8); the full
# flash lifts for every k ≥ 1.  This per-element fraction is chart data: it is
# exactly the union of the Δ⁰ flash with the two exceptional listings.
M_K0_POSITIONS = {
    0: (0, 1, 2, 3, 4, 5),
    1: (1, 5),
    2: (2, 4, 5),
    3: (5,),
    4: (1, 5),
    5: (2, 4, 5),
    6: (5,),
    7: (),
}


@dataclass(frozen=True)
class Monomial:
    """A periodic-part basis monomial, tagged with its exponents."""

    element: Element
    delta: int
    v1: int
    eta: int
    c6: bool = False

    @property
    def stem(self) -> int:
        return self.element.stem


# A derived-SES record ties one degree of one short exact sequence to explicit
# bases.  ``cokernel``/``kernel`` may be None (unknown); an empty list is a
# known rank-0 assertion.  SES-2.7 is the unrestricted Y-level sequence (full
# cokernel/kernel of the η map); SES-2.8/SES-2.9 are its torsion-and-
# exceptional restrictions at the Y and sphere levels.
@dataclass(frozen=True)
class SesRecord:
    context: str  # "SES-2.7", "SES-2.8" or "SES-2.9"
    stem: int  # stem of the middle term
    middle: tuple[Element, ...]
    cokernel: Optional[tuple[Element, ...]]
    kernel: Optional[tuple[Element, ...]]

    KERNEL_SHIFT = {"SES-2.7": 2, "SES-2.8": 2, "SES-2.9": 1}
    MAPS = {"SES-2.7": ("i2", "p2"), "SES-2.8": ("i2", "p2"), "SES-2.9": ("i1", "p1")}

    @property
    def kernel_stem(self) -> int:
        return self.stem - self.KERNEL_SHIFT[self.context]

    @property
    def include_map(self) -> str:
        return self.MAPS[self.context][0]

    @property
    def project_map(self) -> str:
        return self.MAPS[self.context][1]


@dataclass(frozen=True)
class MapAxiom:
    map: str
    source: Element
    value: Optional[F2Span]  # None encodes nonzero-unknown
    nonzero: bool = False


@dataclass
class ChartFile:
    """A fully validated chart dataset, immutable by convention after load.

    The lookup indexes behind ``elements_of`` and ``classification`` are built
    on first use and kept for the life of the chart.
    """

    schema_version: str
    max_stem: int
    generators: Dict[str, RingGenerator]
    elements: Dict[str, Element]
    actions: ActionTable
    classifications: List[Classification]
    hurewicz: Dict[str, bool]
    orders: Dict[str, object]
    tmf_names: Dict[str, str]
    tmf_name_overrides: Dict[tuple[str, str], str]
    nu_multiples: frozenset[str]
    prior_order_two: frozenset[str]
    exceptional_sets: Dict[str, tuple[str, ...]]
    delta8_closure: bool
    ses_records: List[SesRecord]
    axioms: List[MapAxiom]
    periodic_presentations: Dict[str, dict]

    def element(self, key: str) -> Element:
        return self.elements[key]

    @cached_property
    def _elements_by_degree(self) -> Dict[tuple, List[Element]]:
        # (module, stem) and (module, None) -> sorted elements
        index: Dict[tuple, List[Element]] = {}
        for e in sorted(self.elements.values()):
            index.setdefault((e.module, e.stem), []).append(e)
            index.setdefault((e.module, None), []).append(e)
        return index

    @cached_property
    def _kinds(self) -> Dict[tuple, ClassificationKind]:
        # (element, context) -> kind of its first classification
        index: Dict[tuple, ClassificationKind] = {}
        for c in self.classifications:
            index.setdefault((c.element, c.context), c.kind)
        return index

    def elements_of(self, module: ModuleId, stem: Optional[int] = None) -> List[Element]:
        return list(self._elements_by_degree.get((module, stem), ()))

    def classification(self, element: Element, context: LesContext) -> Optional[ClassificationKind]:
        return self._kinds.get((element, context))

    def torsion_elements(self, module: ModuleId, context: LesContext) -> List[Element]:
        keys = {
            c.element.key
            for c in self.classifications
            if c.context is context and c.kind is ClassificationKind.TORSION
        }
        return sorted(e for e in self.elements.values() if e.module is module and e.key in keys)

    def ses_record(self, context: str, stem: int) -> Optional[SesRecord]:
        for record in self.ses_records:
            if record.context == context and record.stem == stem:
                return record
        return None

    def tmf_name(self, element: Element, row_key: str = "", column: str = "") -> Optional[str]:
        if row_key and column:
            override = self.tmf_name_overrides.get((row_key, column))
            if override:
                return override
        return self.tmf_names.get(element.key)


class ChartValidationError(ValueError):
    """A structural or referential defect in a dataset, with its location."""


def _require_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ChartValidationError(f"{where}: unknown fields {sorted(unknown)}")


_KEY_RE = re.compile(r"^(S|M|Y|A1):(.+)$")


def _parse_span(keys: Sequence[str], elements: Dict[str, Element], where: str) -> F2Span:
    members = []
    for key in keys:
        if key not in elements:
            raise ChartValidationError(f"{where}: dangling element reference {key!r}")
        members.append(elements[key])
    if len(set(members)) != len(members):
        raise ChartValidationError(f"{where}: duplicate element in span")
    try:
        return span_of(*members)
    except DegreeMismatchError as exc:
        raise ChartValidationError(f"{where}: {exc}") from exc


def loads(text: str) -> ChartFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChartValidationError(f"malformed JSON: {exc}") from exc
    return from_document(doc)


def load(path: str | Path) -> ChartFile:
    return loads(Path(path).read_text(encoding="utf-8"))


def from_document(doc: dict) -> ChartFile:
    _require_keys(
        doc,
        {
            "schemaVersion", "maxStem", "generators", "elements", "actions",
            "classifications", "hurewiczFlags", "exceptionalSets", "ranks",
            "axioms", "tmfNameOverrides", "periodicPresentations",
        },
        "top level",
    )
    if doc.get("schemaVersion") != SCHEMA_VERSION:
        raise ChartValidationError(
            f"unsupported schemaVersion {doc.get('schemaVersion')!r}, want {SCHEMA_VERSION!r}"
        )
    max_stem = int(doc.get("maxStem", 0))

    generators: Dict[str, RingGenerator] = {}
    for record in doc.get("generators", []):
        _require_keys(set(record) and record, {"name", "stem", "filtration"}, "generator")
        try:
            gen = RingGenerator(record["name"], int(record["stem"]), int(record["filtration"]))
        except ValueError as exc:
            raise ChartValidationError(f"generator {record.get('name')!r}: {exc}") from exc
        if gen.name in generators:
            raise ChartValidationError(f"duplicate generator {gen.name}")
        generators[gen.name] = gen

    elements: Dict[str, Element] = {}
    orders: Dict[str, object] = {}
    tmf_names: Dict[str, str] = {}
    nu_multiples = set()
    prior_order_two = set()
    for record in doc.get("elements", []):
        _require_keys(
            record,
            {"module", "name", "stem", "filtration", "order", "tmfName", "nuMultiple", "priorOrderTwo"},
            f"element {record.get('name')!r}",
        )
        element = Element(
            ModuleId(record["module"]),
            int(record["stem"]),
            int(record["filtration"]),
            record["name"],
        )
        if element.stem < 0 or element.filtration < 0:
            raise ChartValidationError(f"element {element.key}: negative degree")
        try:
            element.check_name_convention()
        except ValueError as exc:
            raise ChartValidationError(str(exc)) from exc
        if element.key in elements:
            raise ChartValidationError(f"duplicate element {element.key}")
        elements[element.key] = element
        order = record.get("order")
        if order is not None:
            if order != "inf" and order not in ALLOWED_ORDERS:
                raise ChartValidationError(f"element {element.key}: bad order {order!r}")
            orders[element.key] = order
        if record.get("tmfName"):
            tmf_names[element.key] = record["tmfName"]
        if record.get("nuMultiple"):
            nu_multiples.add(element.key)
        if record.get("priorOrderTwo"):
            prior_order_two.add(element.key)

    actions = ActionTable()
    for record in doc.get("actions", []):
        _require_keys(record, {"generator", "source", "value", "nonzero"}, "action")
        gen_name = record["generator"]
        if gen_name not in generators:
            raise ChartValidationError(f"action references unknown generator {gen_name!r}")
        source_key = record["source"]
        if source_key not in elements:
            raise ChartValidationError(f"action on unknown element {source_key!r}")
        where = f"action {gen_name}·{source_key}"
        value: Optional[F2Span]
        if record.get("nonzero"):
            if record.get("value") is not None:
                raise ChartValidationError(f"{where}: both value and nonzero set")
            value = None
        else:
            value = _parse_span(record.get("value", []), elements, where)
        try:
            fact = ActionFact(
                generators[gen_name],
                elements[source_key],
                value=value,
                nonzero=record.get("nonzero", False),
            )
            actions.add(fact)
        except ValueError as exc:
            raise ChartValidationError(f"{where}: {exc}") from exc

    classifications: List[Classification] = []
    seen_classifications = set()
    for record in doc.get("classifications", []):
        _require_keys(record, {"element", "context", "kind"}, "classification")
        key = record["element"]
        if key not in elements:
            raise ChartValidationError(f"classification of unknown element {key!r}")
        context = LesContext(record["context"])
        dedup = (key, context)
        if dedup in seen_classifications:
            raise ChartValidationError(f"duplicate classification for {key} in {context.value}")
        seen_classifications.add(dedup)
        classifications.append(Classification(elements[key], context, ClassificationKind(record["kind"])))

    hurewicz: Dict[str, bool] = {}
    for key, flag in doc.get("hurewiczFlags", {}).items():
        if key not in elements:
            raise ChartValidationError(f"hurewicz flag on unknown element {key!r}")
        if elements[key].module is not ModuleId.S:
            raise ChartValidationError(f"hurewicz flag on non-sphere element {key}")
        hurewicz[key] = bool(flag)

    exc_doc = doc.get("exceptionalSets", {})
    _require_keys(exc_doc, {"EM", "FS", "FM", "delta8Closure"}, "exceptionalSets")
    exceptional = {
        "EM": tuple(exc_doc.get("EM", [])),
        "FS": tuple(exc_doc.get("FS", [])),
        "FM": tuple(exc_doc.get("FM", [])),
    }
    for label, want in (("EM", EXCEPTIONAL_EM), ("FS", EXCEPTIONAL_FS), ("FM", EXCEPTIONAL_FM)):
        if exceptional[label] and exceptional[label] != want:
            raise ChartValidationError(f"exceptionalSets.{label} does not match the fixed listing")

    ses_records: List[SesRecord] = []
    seen_records = set()
    for record in doc.get("ranks", []):
        _require_keys(record, {"context", "stem", "middle", "cokernel", "kernel"}, "ranks record")
        context = record["context"]
        if context not in SesRecord.KERNEL_SHIFT:
            raise ChartValidationError(f"ranks record: unknown context {context!r}")
        stem = int(record["stem"])
        if (context, stem) in seen_records:
            raise ChartValidationError(f"duplicate ranks record for {context} at stem {stem}")
        seen_records.add((context, stem))
        where = f"ranks {context}@{stem}"

        def _basis(keys_or_none, expected_module, expected_stem):
            if keys_or_none is None:
                return None
            basis = []
            for key in keys_or_none:
                if key not in elements:
                    raise ChartValidationError(f"{where}: dangling reference {key!r}")
                element = elements[key]
                if element.module is not expected_module:
                    raise ChartValidationError(
                        f"{where}: {key} should live in module {expected_module.value}"
                    )
                if element.stem != expected_stem:
                    raise ChartValidationError(f"{where}: {key} should be in stem {expected_stem}")
                basis.append(element)
            return tuple(sorted(basis))

        if context in ("SES-2.7", "SES-2.8"):
            mid_mod, side_mod = ModuleId.Y, ModuleId.M
            coker_mod = ModuleId.M
        else:
            mid_mod, side_mod = ModuleId.M, ModuleId.S
            coker_mod = ModuleId.S
        kernel_stem = stem - SesRecord.KERNEL_SHIFT[context]
        middle = _basis(record.get("middle", []), mid_mod, stem)
        cokernel = _basis(record.get("cokernel"), coker_mod, stem)
        kernel = _basis(record.get("kernel"), side_mod, kernel_stem)
        if middle is None:
            raise ChartValidationError(f"{where}: middle basis is required")
        if cokernel is not None and kernel is not None and len(middle) != len(cokernel) + len(kernel):
            raise ChartValidationError(
                f"{where}: rank mismatch |middle|={len(middle)} != "
                f"|cokernel|={len(cokernel)} + |kernel|={len(kernel)}"
            )
        ses_records.append(SesRecord(context, stem, middle, cokernel, kernel))

    axioms: List[MapAxiom] = []
    for record in doc.get("axioms", []):
        _require_keys(record, {"map", "source", "value", "nonzero"}, "axiom")
        source_key = record["source"]
        if source_key not in elements:
            raise ChartValidationError(f"axiom on unknown element {source_key!r}")
        where = f"axiom {record['map']}({source_key})"
        if record.get("nonzero"):
            axioms.append(MapAxiom(record["map"], elements[source_key], None, True))
        else:
            span = _parse_span(record.get("value", []), elements, where)
            axioms.append(MapAxiom(record["map"], elements[source_key], span))

    overrides: Dict[tuple[str, str], str] = {}
    for record in doc.get("tmfNameOverrides", []):
        _require_keys(record, {"row", "column", "name"}, "tmfNameOverride")
        if record["row"] not in elements:
            raise ChartValidationError(f"tmfNameOverride for unknown row {record['row']!r}")
        if record["column"] not in ("imgP1", "lift"):
            raise ChartValidationError(f"tmfNameOverride: bad column {record['column']!r}")
        overrides[(record["row"], record["column"])] = record["name"]

    presentations = doc.get("periodicPresentations", {})
    _require_keys(presentations, {"Y", "M", "S"}, "periodicPresentations")

    chart = ChartFile(
        schema_version=doc["schemaVersion"],
        max_stem=max_stem,
        generators=generators,
        elements=elements,
        actions=actions,
        classifications=classifications,
        hurewicz=hurewicz,
        orders=orders,
        tmf_names=tmf_names,
        tmf_name_overrides=overrides,
        nu_multiples=frozenset(nu_multiples),
        prior_order_two=frozenset(prior_order_two),
        exceptional_sets=exceptional,
        delta8_closure=bool(exc_doc.get("delta8Closure", False)),
        ses_records=ses_records,
        axioms=axioms,
        periodic_presentations=presentations,
    )
    _validate_semantics(chart)
    return chart


def _validate_semantics(chart: ChartFile) -> None:
    for record in chart.ses_records:
        if record.context == "SES-2.7":
            continue  # unrestricted middle: no classification obligation
        context = LesContext.LES_23 if record.context == "SES-2.8" else LesContext.LES_24
        for element in record.middle:
            kind = chart.classification(element, context)
            if kind is None or kind is ClassificationKind.PERIODIC_NONEXCEPTIONAL:
                raise ChartValidationError(
                    f"ranks {record.context}@{record.stem}: middle element {element.key} "
                    f"must be classified torsion or exceptional in {context.value}"
                )
        if record.context == "SES-2.9" and record.kernel:
            for element in record.kernel:
                if chart.orders.get(element.key) != 2:
                    raise ChartValidationError(
                        f"ranks SES-2.9@{record.stem}: kernel element {element.key} "
                        f"must carry order 2 (it lies in ker(·2))"
                    )
    for classification in chart.classifications:
        if classification.kind is ClassificationKind.PERIODIC_EXCEPTIONAL:
            element = classification.element
            listing = "EM" if classification.context is LesContext.LES_23 else (
                "FS" if element.module is ModuleId.S else "FM"
            )
            stems = _exceptional_stems(listing)
            if stems and element.stem % 192 not in stems:
                raise ChartValidationError(
                    f"classification: {element.key} marked exceptional in "
                    f"{classification.context.value} but no {listing} monomial lives in stem "
                    f"{element.stem} (mod 192)"
                )


def _exceptional_stems(listing: str) -> frozenset[int]:
    # Stems (mod 192) of the fixed exceptional monomials.
    if listing == "EM":
        stems = {25, 50, 51, 76, 97, 122, 123, 148}
    elif listing == "FS":
        stems = {24, 48, 72, 96, 120, 144, 168}
    else:
        stems = {4, 28, 52, 76, 100, 124, 148}
    return frozenset(stems)


def to_document(chart: ChartFile) -> dict:
    elements = []
    for element in sorted(chart.elements.values()):
        record: dict = {
            "module": element.module.value,
            "name": element.name,
            "stem": element.stem,
            "filtration": element.filtration,
        }
        if element.key in chart.orders:
            record["order"] = chart.orders[element.key]
        if element.key in chart.tmf_names:
            record["tmfName"] = chart.tmf_names[element.key]
        if element.key in chart.nu_multiples:
            record["nuMultiple"] = True
        if element.key in chart.prior_order_two:
            record["priorOrderTwo"] = True
        elements.append(record)
    actions = []
    for fact in chart.actions.facts():
        record = {"generator": fact.generator.name, "source": fact.source.key}
        if fact.nonzero:
            record["nonzero"] = True
        else:
            record["value"] = sorted(e.key for e in fact.value or ())
        actions.append(record)
    ranks = []
    for ses in sorted(chart.ses_records, key=lambda r: (r.context, r.stem)):
        ranks.append(
            {
                "context": ses.context,
                "stem": ses.stem,
                "middle": [e.key for e in ses.middle],
                "cokernel": None if ses.cokernel is None else [e.key for e in ses.cokernel],
                "kernel": None if ses.kernel is None else [e.key for e in ses.kernel],
            }
        )
    axioms = []
    for axiom in chart.axioms:
        record = {"map": axiom.map, "source": axiom.source.key}
        if axiom.nonzero:
            record["nonzero"] = True
        else:
            record["value"] = sorted(e.key for e in axiom.value or ())
        axioms.append(record)
    return {
        "schemaVersion": chart.schema_version,
        "maxStem": chart.max_stem,
        "generators": [
            {"name": g.name, "stem": g.stem_degree, "filtration": g.filtration_degree}
            for g in sorted(chart.generators.values(), key=lambda g: g.name)
        ],
        "elements": elements,
        "actions": actions,
        "classifications": [
            {"element": c.element.key, "context": c.context.value, "kind": c.kind.value}
            for c in sorted(
                chart.classifications, key=lambda c: (c.element.key, c.context.value)
            )
        ],
        "hurewiczFlags": dict(sorted(chart.hurewicz.items())),
        "exceptionalSets": {
            "EM": list(chart.exceptional_sets["EM"]),
            "FS": list(chart.exceptional_sets["FS"]),
            "FM": list(chart.exceptional_sets["FM"]),
            "delta8Closure": chart.delta8_closure,
        },
        "ranks": ranks,
        "axioms": axioms,
        "tmfNameOverrides": [
            {"row": row, "column": column, "name": name}
            for (row, column), name in sorted(chart.tmf_name_overrides.items())
        ],
        "periodicPresentations": chart.periodic_presentations,
    }


def dumps(chart: ChartFile) -> str:
    return json.dumps(to_document(chart), ensure_ascii=False, indent=1, sort_keys=True) + "\n"


def save(chart: ChartFile, path: str | Path) -> None:
    Path(path).write_text(dumps(chart), encoding="utf-8")


# ---------------------------------------------------------------------------
# Periodic-part expansion
# ---------------------------------------------------------------------------

def expand_periodic(
    module: ModuleId, stem_bound: int, presentations: Optional[dict] = None
) -> List[Monomial]:
    """All periodic-part monomials of one module with stem ≤ stem_bound.

    ``presentations`` is the dataset's periodicPresentations section; it may
    override the minimal v₁-powers of the Y pattern and, for the Moore module,
    must be consulted for the per-element k = 0 flash fraction (no closed
    formula covers it).  Without a presentation the module defaults apply.
    """
    if stem_bound < 0:
        raise ValueError("stem bound must be ≥ 0")
    presentations = presentations or {}
    y_min = tuple(presentations.get("Y", {}).get("minV1ByDeltaMod8", Y_MIN_V1))
    if len(y_min) != 8:
        raise ChartValidationError("periodicPresentations.Y needs eight minimal v₁-powers")
    k0_doc = presentations.get("M", {}).get("k0Positions")
    if k0_doc is None:
        k0_positions = M_K0_POSITIONS
    else:
        k0_positions = {int(key): tuple(value) for key, value in k0_doc.items()}
        if set(k0_positions) != set(range(8)):
            raise ChartValidationError("periodicPresentations.M.k0Positions needs keys 0-7")
    out: List[Monomial] = []
    if module is ModuleId.Y:
        n = 0
        while 24 * n <= stem_bound:
            v = y_min[n % 8]
            while 24 * n + 2 * v <= stem_bound:
                element = Element(ModuleId.Y, 24 * n + 2 * v, 0, monomial_name_y(n, v), periodic=True)
                out.append(Monomial(element, n, v, 0))
                v += 1
            n += 1
    elif module is ModuleId.M:
        n = 0
        while 24 * n <= stem_bound:
            k = 0
            while 24 * n + 8 * k <= stem_bound:
                positions = range(6) if k >= 1 else k0_positions[n % 8]
                for pos in positions:
                    extra_v, eta = FLASH_POSITIONS[pos]
                    v = 4 * k + extra_v
                    stem = 24 * n + 2 * v + eta
                    if stem > stem_bound:
                        continue
                    element = Element(ModuleId.M, stem, eta, monomial_name_m(n, v, eta), periodic=True)
                    out.append(Monomial(element, n, v, eta))
                k += 1
            n += 1
    elif module is ModuleId.S:
        n = 0
        while 24 * n <= stem_bound:
            k = 0
            while 24 * n + 8 * k <= stem_bound:
                for eta in (0, 1, 2):
                    stem = 24 * n + 8 * k + eta
                    if stem > stem_bound:
                        continue
                    element = Element(ModuleId.S, stem, eta, monomial_name_s(n, k, eta), periodic=True)
                    out.append(Monomial(element, n, k, eta))
                if k >= 1:
                    stem = 24 * n + 8 * k + 4
                    if stem <= stem_bound:
                        element = Element(
                            ModuleId.S, stem, 1, monomial_name_s_c6(n, k - 1), periodic=True
                        )
                        out.append(Monomial(element, n, k, 2, c6=True))
                k += 1
            n += 1
    else:
        raise ValueError(f"module {module.value} has no periodic presentation")
    return sorted(out, key=lambda m: (m.stem, m.element.filtration, m.element.name))


# ---------------------------------------------------------------------------
# Δ⁸ extension
# ---------------------------------------------------------------------------

_SHIFT_NAME = re.compile(r"^([a-z])_\{(-?\d+),(-?\d+)\}$")


def _shifted_name(element: Element, copies: int) -> str:
    m = _SHIFT_NAME.match(element.name)
    if m:
        return f"{m.group(1)}_{{{element.stem + 192 * copies},{m.group(3)}}}"
    return element.name + "·Δ⁸" * copies


def delta8_extend(chart: ChartFile, copies: int) -> ChartFile:
    """Replicate every record at stem + 192k for k ≤ copies.

    Hurewicz flags replicate except on integer multiples of ν, whose shifted
    copies leave the Hurewicz image.  Names following the x_{i,j} convention
    are recomputed so the convention invariant still holds.
    """
    if copies < 0:
        raise ValueError("copies must be ≥ 0")
    if copies == 0:
        return chart

    delta8 = chart.generators.get("Δ⁸")
    filt_shift = delta8.filtration_degree if delta8 else 0

    def shift(element: Element, k: int) -> Element:
        if k == 0:
            return element
        return Element(
            element.module,
            element.stem + 192 * k,
            element.filtration + filt_shift * k,
            _shifted_name(element, k),
        )

    elements = dict(chart.elements)
    orders = dict(chart.orders)
    tmf_names = dict(chart.tmf_names)
    hurewicz = dict(chart.hurewicz)
    nu_multiples = set(chart.nu_multiples)
    prior_order_two = set(chart.prior_order_two)
    base_elements = list(chart.elements.values())
    for k in range(1, copies + 1):
        for element in base_elements:
            copy = shift(element, k)
            if copy.key in elements:
                # Re-extending an already extended chart re-creates identical
                # copies; only a genuinely different class is a collision.
                if elements[copy.key] == copy:
                    continue
                raise ChartValidationError(f"Δ⁸ extension: name collision at {copy.key}")
            elements[copy.key] = copy
            if element.key in orders:
                orders[copy.key] = orders[element.key]
            if element.key in tmf_names:
                tmf_names[copy.key] = "Δ⁸·" * k + tmf_names[element.key]
            if element.key in hurewicz:
                if element.key in nu_multiples:
                    hurewicz[copy.key] = False
                else:
                    hurewicz[copy.key] = hurewicz[element.key]
            if element.key in prior_order_two:
                prior_order_two.add(copy.key)

    def shift_span(span: F2Span, k: int) -> F2Span:
        return frozenset(shift(e, k) for e in span)

    actions = ActionTable(chart.actions.facts())
    for k in range(1, copies + 1):
        for fact in chart.actions.facts():
            actions.add(
                ActionFact(
                    fact.generator,
                    shift(fact.source, k),
                    value=None if fact.value is None else shift_span(fact.value, k),
                    nonzero=fact.nonzero,
                )
            )

    classifications = list(chart.classifications)
    seen_classifications = {(c.element.key, c.context) for c in classifications}
    for k in range(1, copies + 1):
        for c in chart.classifications:
            copy = Classification(shift(c.element, k), c.context, c.kind)
            if (copy.element.key, copy.context) not in seen_classifications:
                seen_classifications.add((copy.element.key, copy.context))
                classifications.append(copy)

    ses_records = list(chart.ses_records)
    seen_records = {(r.context, r.stem) for r in ses_records}
    for k in range(1, copies + 1):
        for record in chart.ses_records:
            copy = SesRecord(
                record.context,
                record.stem + 192 * k,
                tuple(shift(e, k) for e in record.middle),
                None if record.cokernel is None else tuple(shift(e, k) for e in record.cokernel),
                None if record.kernel is None else tuple(shift(e, k) for e in record.kernel),
            )
            if (copy.context, copy.stem) not in seen_records:
                seen_records.add((copy.context, copy.stem))
                ses_records.append(copy)

    axioms = list(chart.axioms)
    for k in range(1, copies + 1):
        for axiom in chart.axioms:
            copy = MapAxiom(
                axiom.map,
                shift(axiom.source, k),
                None if axiom.value is None else shift_span(axiom.value, k),
                axiom.nonzero,
            )
            if copy not in axioms:
                axioms.append(copy)

    overrides = dict(chart.tmf_name_overrides)
    for k in range(1, copies + 1):
        for (row_key, column), name in chart.tmf_name_overrides.items():
            shifted_row = shift(chart.elements[row_key], k)
            overrides[(shifted_row.key, column)] = "Δ⁸·" * k + name

    return ChartFile(
        schema_version=chart.schema_version,
        max_stem=chart.max_stem + 192 * copies,
        generators=chart.generators,
        elements=elements,
        actions=actions,
        classifications=classifications,
        hurewicz=hurewicz,
        orders=orders,
        tmf_names=tmf_names,
        tmf_name_overrides=overrides,
        nu_multiples=frozenset(nu_multiples),
        prior_order_two=frozenset(prior_order_two),
        exceptional_sets=chart.exceptional_sets,
        delta8_closure=chart.delta8_closure,
        ses_records=ses_records,
        axioms=axioms,
        periodic_presentations=chart.periodic_presentations,
    )
