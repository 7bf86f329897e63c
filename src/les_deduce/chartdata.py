"""Chart dataset format: load/validate/save, periodic-part expansion, Δ⁸ extension.

The dataset is a single JSON document (UTF-8, schemaVersion "1") with top-level
keys {schemaVersion, maxStem, generators, elements, actions, classifications,
hurewiczFlags, exceptionalSets, ranks, axioms, tmfNameOverrides,
periodicPresentations}.  Element references everywhere use the key format
"MODULE:name".  Unknown top-level or record fields are rejected so golden files
stay byte-stable.

A ``ranks`` record is one degree of a derived SES, a slice of LES-2.3
(SES-2.7, SES-2.8) or LES-2.4 (SES-2.9).  ``SesRecord`` reads its maps, the
modules of its bases and its kernel stem off ``sequences.SEQUENCES``, and the
loader checks every basis against them.  Axioms are checked against
``MAP_SPECS`` the same way (source module, value module and stem), and a class
classified exceptional needs a route in ``EXCEPTIONAL_LISTINGS``.

Periodic parts are not stored element-by-element.  Each module carries a small
presentation (a monomial pattern) that ``expand_periodic`` unfolds up to a stem
bound; the per-part formulas of the deduction rules act on those monomials.
The Moore-module pattern is a lightning flash on generators Δⁿv₁⁴ᵏ, full for
k ≥ 1, with the k = 0 fraction listed per Δ-power (mod 8) because no closed
formula covers it.

``delta8_extend`` adds Δ⁸-shifted copies of every record to the document and
loads the result with ``from_document``, so an extended chart passes the same
checks as a loaded one.  Among those checks: every class classified torsion
in LES-2.3 on Y needs a v₁ action, which ``image_of_p3`` reads.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

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
from .sequences import MAP_SPECS, SEQUENCES, fact_key

SCHEMA_VERSION = "1"

# Frozen exceptional-element listings; datasets must match these verbatim.
EXCEPTIONAL_EM = (
    "Δη", "Δ²η²", "Δ²v₁η", "Δ³v₁η²", "Δ⁴η", "Δ⁵η²", "Δ⁵v₁η", "Δ⁶v₁η²",
)
EXCEPTIONAL_FS = ("8Δ", "4Δ²", "8Δ³", "2Δ⁴", "8Δ⁵", "4Δ⁶", "8Δ⁷")
EXCEPTIONAL_FM = (
    "v₁η²", "Δv₁η²", "Δ²v₁η²", "Δ³v₁η²", "Δ⁴v₁η²", "Δ⁵v₁η²", "Δ⁶v₁η²",
)

# Where a periodic class may be exceptional: (LES, module of the class) → the
# listing its monomial comes from, and the stems (mod 192) of that listing.
EXCEPTIONAL_LISTINGS = {
    (LesContext.LES_23, ModuleId.M): ("EM", frozenset({25, 50, 51, 76, 97, 122, 123, 148})),
    (LesContext.LES_24, ModuleId.S): ("FS", frozenset({24, 48, 72, 96, 120, 144, 168})),
    (LesContext.LES_24, ModuleId.M): ("FM", frozenset({4, 28, 52, 76, 100, 124, 148})),
}


def exceptional_map(context: LesContext, module: ModuleId) -> str:
    """The map of ``context``'s LES out of ``module`` that is not its self-map:
    the map on which an exceptional class of ``module`` is nonzero."""
    return next(
        m.name for m in SEQUENCES[context.value].maps if m.source is module and m.target is not module
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


# A derived SES 0 → coker → middle → ker → 0 is a slice of one LES, whose first
# two maps are the inclusion and the projection.  Each context names its LES
# and whether its middle classes must be classified torsion or exceptional
# there: SES-2.7 is the unrestricted Y-level sequence (full cokernel/kernel of
# the η map); SES-2.8/SES-2.9 are its torsion-and-exceptional restrictions at
# the Y and sphere levels.
SES_CONTEXTS: Dict[str, Tuple[LesContext, bool]] = {
    "SES-2.7": (LesContext.LES_23, False),
    "SES-2.8": (LesContext.LES_23, True),
    "SES-2.9": (LesContext.LES_24, True),
}


@dataclass(frozen=True)
class SesRecord:
    """One degree of a derived SES; each basis is stored sorted by (filtration,
    name), and None is an unknown basis (an empty one asserts rank 0).  Maps,
    modules and stems are read off the record's LES in ``SEQUENCES``."""

    context: str  # a key of SES_CONTEXTS
    stem: int  # stem of the middle term
    middle: tuple[Element, ...]
    cokernel: Optional[tuple[Element, ...]]
    kernel: Optional[tuple[Element, ...]]

    def __post_init__(self) -> None:
        for name in ("middle", "cokernel", "kernel"):
            basis = getattr(self, name)
            if basis is not None:
                basis = tuple(sorted(basis, key=lambda e: (e.filtration, e.name)))
                object.__setattr__(self, name, basis)
        # Not a field: the LES maps, (inclusion, projection, self-map).
        object.__setattr__(self, "_maps", SEQUENCES[SES_CONTEXTS[self.context][0].value].maps)

    @property
    def include_map(self) -> str:
        return self._maps[0].name

    @property
    def project_map(self) -> str:
        return self._maps[1].name

    @property
    def middle_module(self) -> ModuleId:
        return self._maps[1].source

    @property
    def side_module(self) -> ModuleId:  # of the cokernel and the kernel
        return self._maps[0].source

    @property
    def kernel_stem(self) -> int:
        return self.stem + self._maps[1].stem_shift

    @property
    def ref(self) -> str:
        """The record's name in provenance and messages, e.g. ``SES-2.8@50``."""
        return f"{self.context}@{self.stem}"

    def place(self, map_name: str, source: Element) -> Optional[Tuple[tuple, tuple]]:
        """Where the fact ``map_name`` on ``source`` sits in this record: the
        basis holding ``source`` and the basis the value lies in, or None."""
        if map_name == self.project_map and source in self.middle:
            return self.middle, self.kernel or ()
        if map_name == self.include_map and self.cokernel and source in self.cokernel:
            return self.cokernel, self.middle
        return None


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

    @cached_property
    def rank_one_records(self) -> Dict[str, List[SesRecord]]:
        """Projection fact key p|x → the records with kernel rank 1 and middle
        rank 2 that have x in their middle, in ``ses_records`` order."""
        index: Dict[str, List[SesRecord]] = {}
        for record in self.ses_records:
            if record.kernel is not None and len(record.kernel) == 1 and len(record.middle) == 2:
                for element in record.middle:
                    index.setdefault(fact_key(record.project_map, element), []).append(record)
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


_REQUIRED = object()
_JSON_TYPES = {
    int: "an integer", str: "a string", bool: "a boolean", list: "a list",
    dict: "an object", type(None): "null",
}


def _field(record: dict, name: str, types: tuple, where: str, default=_REQUIRED):
    """``record[name]``, which must have one of the JSON ``types``.

    Types are matched exactly, so nothing is coerced: ``"6"`` and ``true``
    are not integers.
    """
    if name not in record:
        if default is _REQUIRED:
            raise ChartValidationError(f"{where}: missing field {name!r}")
        return default
    value = record[name]
    if type(value) not in types:
        wanted = " or ".join(_JSON_TYPES[t] for t in types)
        raise ChartValidationError(f"{where}: {name} must be {wanted}, got {value!r}")
    return value


def _records(doc: dict, name: str, fields: set) -> List[tuple[str, dict]]:
    """The top-level list ``name`` as (location, record) pairs; each record is
    an object with no fields beyond ``fields``."""
    out = []
    for index, record in enumerate(_field(doc, name, (list,), "top level", [])):
        where = f"{name}[{index}]"
        if type(record) is not dict:
            raise ChartValidationError(f"{where}: must be an object")
        _require_keys(record, fields, where)
        out.append((where, record))
    return out


def _choice(kind, record: dict, name: str, where: str):
    """The string field ``name`` read as a member of the enum ``kind``."""
    value = _field(record, name, (str,), where)
    try:
        return kind(value)
    except ValueError:
        raise ChartValidationError(f"{where}: unknown {name} {value!r}") from None


def _element(record: dict, name: str, elements: Dict[str, Element], where: str) -> Element:
    key = _field(record, name, (str,), where)
    if key not in elements:
        raise ChartValidationError(f"{where}: unknown element {key!r}")
    return elements[key]


def _keys(keys: Sequence, elements: Dict[str, Element], where: str) -> List[Element]:
    members = []
    for key in keys:
        if type(key) is not str or key not in elements:
            raise ChartValidationError(f"{where}: dangling element reference {key!r}")
        members.append(elements[key])
    return members


def _require_degree(element: Element, module: ModuleId, stem: int, where: str) -> None:
    if (element.module, element.stem) != (module, stem):
        raise ChartValidationError(
            f"{where}: {element.key} should live in module {module.value} at stem {stem}"
        )


def _parse_span(keys: Sequence[str], elements: Dict[str, Element], where: str) -> F2Span:
    members = _keys(keys, elements, where)
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ChartValidationError(f"not UTF-8 text: {exc}") from exc
    return loads(text)


def from_document(doc: dict) -> ChartFile:
    if type(doc) is not dict:
        raise ChartValidationError("top level: must be an object")
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
    max_stem = _field(doc, "maxStem", (int,), "top level", 0)
    if max_stem < 0:
        raise ChartValidationError(f"top level: maxStem must be ≥ 0, got {max_stem}")

    generators: Dict[str, RingGenerator] = {}
    for where, record in _records(doc, "generators", {"name", "stem", "filtration"}):
        name = _field(record, "name", (str,), where)
        stem = _field(record, "stem", (int,), where)
        filtration = _field(record, "filtration", (int,), where)
        try:
            gen = RingGenerator(name, stem, filtration)
        except ValueError as exc:
            raise ChartValidationError(f"{where}: generator {name!r}: {exc}") from exc
        if gen.name in generators:
            raise ChartValidationError(f"duplicate generator {gen.name}")
        generators[gen.name] = gen

    elements: Dict[str, Element] = {}
    orders: Dict[str, object] = {}
    tmf_names: Dict[str, str] = {}
    nu_multiples = set()
    prior_order_two = set()
    element_fields = {
        "module", "name", "stem", "filtration", "order", "tmfName", "nuMultiple", "priorOrderTwo",
    }
    for where, record in _records(doc, "elements", element_fields):
        element = Element(
            _choice(ModuleId, record, "module", where),
            _field(record, "stem", (int,), where),
            _field(record, "filtration", (int,), where),
            _field(record, "name", (str,), where),
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
            if order != "inf" and (type(order) is not int or order not in ALLOWED_ORDERS):
                raise ChartValidationError(f"element {element.key}: bad order {order!r}")
            orders[element.key] = order
        if _field(record, "tmfName", (str,), where, ""):
            tmf_names[element.key] = record["tmfName"]
        if _field(record, "nuMultiple", (bool,), where, False):
            nu_multiples.add(element.key)
        if _field(record, "priorOrderTwo", (bool,), where, False):
            prior_order_two.add(element.key)

    actions = ActionTable()
    for where, record in _records(doc, "actions", {"generator", "source", "value", "nonzero"}):
        gen_name = _field(record, "generator", (str,), where)
        if gen_name not in generators:
            raise ChartValidationError(f"{where}: unknown generator {gen_name!r}")
        source = _element(record, "source", elements, where)
        where = f"action {gen_name}·{source.key}"
        value: Optional[F2Span]
        nonzero = _field(record, "nonzero", (bool,), where, False)
        if nonzero:
            if record.get("value") is not None:
                raise ChartValidationError(f"{where}: both value and nonzero set")
            value = None
        else:
            value = _parse_span(_field(record, "value", (list,), where, []), elements, where)
        try:
            actions.add(ActionFact(generators[gen_name], source, value=value, nonzero=nonzero))
        except ValueError as exc:
            raise ChartValidationError(f"{where}: {exc}") from exc

    classifications: List[Classification] = []
    seen_classifications = set()
    for where, record in _records(doc, "classifications", {"element", "context", "kind"}):
        element = _element(record, "element", elements, where)
        context = _choice(LesContext, record, "context", where)
        dedup = (element, context)
        if dedup in seen_classifications:
            raise ChartValidationError(
                f"duplicate classification for {element.key} in {context.value}"
            )
        seen_classifications.add(dedup)
        kind = _choice(ClassificationKind, record, "kind", where)
        classifications.append(Classification(element, context, kind))

    hurewicz: Dict[str, bool] = {}
    for key, flag in _field(doc, "hurewiczFlags", (dict,), "top level", {}).items():
        where = f"hurewiczFlags[{key!r}]"
        if key not in elements:
            raise ChartValidationError(f"{where}: unknown element {key!r}")
        if elements[key].module is not ModuleId.S:
            raise ChartValidationError(f"hurewicz flag on non-sphere element {key}")
        if type(flag) is not bool:
            raise ChartValidationError(f"{where}: must be a boolean, got {flag!r}")
        hurewicz[key] = flag

    exc_doc = _field(doc, "exceptionalSets", (dict,), "top level", {})
    _require_keys(exc_doc, {"EM", "FS", "FM", "delta8Closure"}, "exceptionalSets")
    exceptional = {
        label: tuple(_field(exc_doc, label, (list,), "exceptionalSets", []))
        for label in ("EM", "FS", "FM")
    }
    for label, want in (("EM", EXCEPTIONAL_EM), ("FS", EXCEPTIONAL_FS), ("FM", EXCEPTIONAL_FM)):
        if exceptional[label] and exceptional[label] != want:
            raise ChartValidationError(f"exceptionalSets.{label} does not match the fixed listing")

    ses_records: List[SesRecord] = []
    seen_records = set()
    rank_fields = {"context", "stem", "middle", "cokernel", "kernel"}
    for where, record in _records(doc, "ranks", rank_fields):
        context = _field(record, "context", (str,), where)
        if context not in SES_CONTEXTS:
            raise ChartValidationError(f"{where}: unknown context {context!r}")
        stem = _field(record, "stem", (int,), where)
        if (context, stem) in seen_records:
            raise ChartValidationError(f"duplicate ranks record for {context} at stem {stem}")
        seen_records.add((context, stem))
        where = f"ranks {context}@{stem}"
        bases = {}
        for name, default in (("middle", []), ("cokernel", None), ("kernel", None)):
            keys = _field(record, name, (list, type(None)), where, default)
            bases[name] = None if keys is None else _keys(keys, elements, where)
        if bases["middle"] is None:
            raise ChartValidationError(f"{where}: middle basis is required")
        ses = SesRecord(context, stem, **bases)
        for basis, module, basis_stem in (
            (ses.middle, ses.middle_module, stem),
            (ses.cokernel or (), ses.side_module, stem),
            (ses.kernel or (), ses.side_module, ses.kernel_stem),
        ):
            for element in basis:
                _require_degree(element, module, basis_stem, where)
        if None not in (ses.cokernel, ses.kernel) and len(ses.middle) != len(ses.cokernel) + len(ses.kernel):
            raise ChartValidationError(
                f"{where}: rank mismatch |middle|={len(ses.middle)} != "
                f"|cokernel|={len(ses.cokernel)} + |kernel|={len(ses.kernel)}"
            )
        ses_records.append(ses)

    axioms: List[MapAxiom] = []
    for where, record in _records(doc, "axioms", {"map", "source", "value", "nonzero"}):
        map_name = _field(record, "map", (str,), where)
        if map_name not in MAP_SPECS:
            raise ChartValidationError(f"{where}: unknown map {map_name!r}")
        spec = MAP_SPECS[map_name]
        source = _element(record, "source", elements, where)
        where = f"axiom {map_name}({source.key})"
        if source.module is not spec.source:
            raise ChartValidationError(f"{where}: source must live in module {spec.source.value}")
        if _field(record, "nonzero", (bool,), where, False):
            axioms.append(MapAxiom(map_name, source, None, True))
            continue
        span = _parse_span(_field(record, "value", (list,), where, []), elements, where)
        for element in span:
            _require_degree(element, spec.target, source.stem + spec.stem_shift, where)
        axioms.append(MapAxiom(map_name, source, span))

    overrides: Dict[tuple[str, str], str] = {}
    for where, record in _records(doc, "tmfNameOverrides", {"row", "column", "name"}):
        row = _element(record, "row", elements, where)
        column = _field(record, "column", (str,), where)
        if column not in ("imgP1", "lift"):
            raise ChartValidationError(f"tmfNameOverride: bad column {column!r}")
        overrides[(row.key, column)] = _field(record, "name", (str,), where)

    presentations = _field(doc, "periodicPresentations", (dict,), "top level", {})
    _check_presentations(presentations)

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
        delta8_closure=_field(exc_doc, "delta8Closure", (bool,), "exceptionalSets", False),
        ses_records=ses_records,
        axioms=axioms,
        periodic_presentations=presentations,
    )
    _validate_semantics(chart)
    return chart


def _check_presentations(presentations: dict) -> None:
    """The pattern data ``expand_periodic`` reads: eight minimal v₁-powers
    for Y and, for M, the k = 0 flash positions of each Δ-power mod 8."""
    where = "periodicPresentations"
    _require_keys(presentations, {"Y", "M", "S"}, where)
    for module in presentations:
        _field(presentations, module, (dict,), where)
    y_min = _field(presentations.get("Y", {}), "minV1ByDeltaMod8", (list,), f"{where}.Y", [0] * 8)
    if len(y_min) != 8 or any(type(v) is not int or v < 0 for v in y_min):
        raise ChartValidationError(f"{where}.Y needs eight minimal v₁-powers, got {y_min!r}")
    k0 = _field(presentations.get("M", {}), "k0Positions", (dict,), f"{where}.M", None)
    if k0 is None:
        return
    if sorted(map(str, k0)) != [str(n) for n in range(8)]:
        raise ChartValidationError(f"{where}.M.k0Positions needs keys 0-7")
    for key, positions in k0.items():
        if type(positions) is not list or any(
            type(pos) is not int or not 0 <= pos < len(FLASH_POSITIONS) for pos in positions
        ):
            raise ChartValidationError(f"{where}.M.k0Positions[{key!r}]: bad flash positions")


def _validate_semantics(chart: ChartFile) -> None:
    # image_of_p3 reads the v₁ action on every torsion Y class.
    for element in chart.torsion_elements(ModuleId.Y, LesContext.LES_23):
        if chart.actions.get("v₁", element) is None:
            raise ChartValidationError(
                f"classification: torsion class {element.key} in {LesContext.LES_23.value} "
                f"has no v₁ action"
            )
    for record in chart.ses_records:
        context, classified = SES_CONTEXTS[record.context]
        if not classified:
            continue
        for element in record.middle:
            kind = chart.classification(element, context)
            if kind is None or kind is ClassificationKind.PERIODIC_NONEXCEPTIONAL:
                raise ChartValidationError(
                    f"ranks {record.ref}: middle element {element.key} "
                    f"must be classified torsion or exceptional in {context.value}"
                )
        # A sphere kernel class lies in ker(·2), which the dataset states as order 2.
        if record.side_module is ModuleId.S:
            for element in record.kernel or ():
                if chart.orders.get(element.key) != 2:
                    raise ChartValidationError(
                        f"ranks {record.ref}: kernel element {element.key} "
                        f"must carry order 2 (it lies in ker(·2))"
                    )
    for classification in chart.classifications:
        if classification.kind is ClassificationKind.PERIODIC_EXCEPTIONAL:
            element, context = classification.element, classification.context
            route = EXCEPTIONAL_LISTINGS.get((context, element.module))
            if route is None:
                raise ChartValidationError(
                    f"classification: {element.key} marked exceptional in {context.value}, "
                    f"but no exceptional listing there holds {element.module.value} classes"
                )
            listing, stems = route
            if element.stem % 192 not in stems:
                raise ChartValidationError(
                    f"classification: {element.key} marked exceptional in "
                    f"{context.value} but no {listing} monomial lives in stem "
                    f"{element.stem} (mod 192)"
                )


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

    ``presentations`` is the dataset's periodicPresentations section, as the
    loader checked it; it may override the minimal v₁-powers of the Y pattern
    and, for the Moore module, must be consulted for the per-element k = 0
    flash fraction (no closed formula covers it).  Without a presentation the
    module defaults apply.
    """
    if stem_bound < 0:
        raise ValueError("stem bound must be ≥ 0")
    presentations = presentations or {}
    y_min = tuple(presentations.get("Y", {}).get("minV1ByDeltaMod8", Y_MIN_V1))
    k0_doc = presentations.get("M", {}).get("k0Positions")
    if k0_doc is None:
        k0_positions = M_K0_POSITIONS
    else:
        k0_positions = {int(key): tuple(value) for key, value in k0_doc.items()}
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


def _renamed(record: dict, rename: Dict[str, str]) -> dict:
    """A copy of ``record`` with every element reference renamed."""
    copy = dict(record)
    for field in ("element", "source", "row"):
        if field in record:
            copy[field] = rename[record[field]]
    for field in ("value", "middle", "cokernel", "kernel"):
        if record.get(field) is not None:
            copy[field] = [rename[key] for key in record[field]]
    return copy


def delta8_extend(chart: ChartFile, copies: int) -> ChartFile:
    """Add a copy of every record at stem + 192k for each k ≤ copies.

    The k-th copy renames elements by ``_shifted_name``, adds 192k to stems
    and k times the filtration degree of Δ⁸ to filtrations, and prefixes tmf
    names with Δ⁸· k times.  Copies of ν-multiples are not marked as such and
    have Hurewicz flag false.  The copies are added to ``to_document(chart)``,
    skipping any equal to a record already present, and the result is loaded
    with ``from_document``, whose checks reject every other clash.
    """
    if copies < 0:
        raise ValueError("copies must be ≥ 0")
    if copies == 0:
        return chart

    doc = to_document(chart)
    delta8 = chart.generators.get("Δ⁸")
    filt_shift = delta8.filtration_degree if delta8 else 0
    new: Dict[str, List[dict]] = defaultdict(list)
    for k in range(1, copies + 1):
        prefix = "Δ⁸·" * k
        rename = {key: f"{e.module.value}:{_shifted_name(e, k)}" for key, e in chart.elements.items()}
        for record in doc["elements"]:
            key = f"{record['module']}:{record['name']}"
            copy = dict(
                record,
                name=_shifted_name(chart.elements[key], k),
                stem=record["stem"] + 192 * k,
                filtration=record["filtration"] + filt_shift * k,
            )
            copy.pop("nuMultiple", None)
            if "tmfName" in record:
                copy["tmfName"] = prefix + record["tmfName"]
            new["elements"].append(copy)
            if key in chart.hurewicz:
                doc["hurewiczFlags"].setdefault(
                    rename[key], chart.hurewicz[key] and key not in chart.nu_multiples
                )
        for name in ("actions", "classifications", "axioms"):
            new[name] += [_renamed(record, rename) for record in doc[name]]
        for record in doc["ranks"]:
            new["ranks"].append(dict(_renamed(record, rename), stem=record["stem"] + 192 * k))
        for record in doc["tmfNameOverrides"]:
            new["tmfNameOverrides"].append(dict(_renamed(record, rename), name=prefix + record["name"]))
    for name, records in new.items():
        # A section's records share one field order, which the copies keep,
        # so equal records have equal reprs.
        present = set(map(repr, doc[name]))
        for record in records:
            if repr(record) not in present:
                present.add(repr(record))
                doc[name].append(record)
    doc["maxStem"] += 192 * copies
    return from_document(doc)
