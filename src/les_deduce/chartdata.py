"""Chart dataset format: load/validate/save, periodic-part expansion, Δ⁸ extension.

The dataset is a single JSON document (UTF-8, schemaVersion "1") with top-level
keys {schemaVersion, maxStem, hurewiczFlags, exceptionalSets,
periodicPresentations} plus the record lists of ``SCHEMA``, which states each
record field's JSON kind and default once.  Element references everywhere use
the key format "MODULE:name".  Unknown top-level or record fields are rejected
so golden files stay byte-stable.  ``_READERS`` compiles each list's kinds
and defaults at import; ``_records`` reads a value of its field's exact JSON
type, or a known element key, inline and leaves enums, lists, nulls and
defects to ``_read``.  An action or axiom value with an empty span is the
shared ``Value.zero()`` or ``Value.nonzero_unknown()``, and its Δ⁸ copies are
too.

A ``ranks`` record is one degree of a derived SES, a slice of LES-2.3
(SES-2.7, SES-2.8) or LES-2.4 (SES-2.9).  ``SesRecord`` reads its maps, the
modules of its bases and its kernel stem off ``sequences.SEQUENCES``, and the
loader checks every basis against them.  Axioms are checked against
``MAP_SPECS`` the same way (source module, value module and stem), and a class
classified exceptional needs a route in ``EXCEPTIONAL_LISTINGS``.

Periodic parts are not stored element-by-element.  Each module carries a small
presentation (a monomial pattern) that ``expand_periodic`` unfolds up to a stem
bound; the per-part formulas of the deduction rules act on those monomials.

``delta8_extend`` shifts the loaded chart's objects: each copy of an element
moves 192 stems and the filtration degree of Δ⁸ up, and the copies of the
other records refer to the shifted elements.  Every record check runs once,
as the record enters: ``_ChartRecords`` checks each loaded record and each Δ⁸
copy in the method that adds it, and the base chart of an extension is not
checked again.  A check builds its message, location included, only when it
fails; the tests pin every message in full.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .algebra import (
    ActionFact,
    ActionTable,
    Classification,
    ClassificationKind,
    DegreeMismatchError,
    Element,
    LesContext,
    ModuleId,
    Push,
    RingGenerator,
    Value,
    checked_newargs,
    checked_replace,
    new_tuple,
    span_of,
)
from .sequences import MAP_SPECS, SEQUENCES, RankOnePlan, fact_key

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


class Monomial(NamedTuple):
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
# Each context's LES maps (inclusion, projection, self-map), and the order of a basis.
_SES_MAPS = {context: SEQUENCES[les.value].maps for context, (les, _) in SES_CONTEXTS.items()}
_BASIS_ORDER = attrgetter("filtration", "name")


def _sorted_basis(basis) -> Optional[tuple]:
    if basis is None:
        return None
    return tuple(sorted(basis, key=_BASIS_ORDER)) if len(basis) > 1 else tuple(basis)


class _SesRecordFields(NamedTuple):
    context: str  # a key of SES_CONTEXTS
    stem: int  # stem of the middle term
    middle: tuple[Element, ...]
    cokernel: Optional[tuple[Element, ...]]
    kernel: Optional[tuple[Element, ...]]
    # Derived from the context and the stem: the record's name in provenance
    # and messages, e.g. ``SES-2.8@50``, and its LES maps (inclusion,
    # projection, self-map).
    ref: str
    maps: tuple


class SesRecord(_SesRecordFields):
    """One degree of a derived SES; each basis is stored sorted by (filtration,
    name), and None is an unknown basis (an empty one asserts rank 0).  Maps,
    modules and stems are read off the record's LES in ``SEQUENCES``; ``ref``
    and ``maps`` are fields, derived when the record is built."""

    __slots__ = ()
    _takes = 5

    def __new__(cls, context: str, stem: int, middle, cokernel, kernel) -> "SesRecord":
        return new_tuple(cls, (
            context, stem, _sorted_basis(middle), _sorted_basis(cokernel), _sorted_basis(kernel),
            f"{context}@{stem}", _SES_MAPS[context],
        ))

    _replace = __replace__ = checked_replace
    __getnewargs__ = checked_newargs

    @property
    def include_map(self) -> str:
        return self.maps[0].name

    @property
    def project_map(self) -> str:
        return self.maps[1].name

    @property
    def middle_module(self) -> ModuleId:
        return self.maps[1].source

    @property
    def side_module(self) -> ModuleId:  # of the cokernel and the kernel
        return self.maps[0].source

    @property
    def kernel_stem(self) -> int:
        return self.stem + self.maps[1].stem_shift

    def place(self, map_name: str, source: Element) -> Optional[Tuple[tuple, tuple]]:
        """Where the fact ``map_name`` on ``source`` sits in this record: the
        basis holding ``source`` and the basis the value lies in, or None."""
        if map_name == self.project_map and source in self.middle:
            return self.middle, self.kernel or ()
        if map_name == self.include_map and self.cokernel and source in self.cokernel:
            return self.cokernel, self.middle
        return None


class MapAxiom(NamedTuple):
    """A chart-read map value: a known span (possibly zero) or nonzero-unknown."""

    map: str
    source: Element
    value: Value


@dataclass
class ChartFile:
    """A chart dataset whose every record passed the ``_ChartRecords`` checks
    as it entered; immutable by convention after load, so the plans of
    ``rank_one_records`` and ``push_plan`` are built on first use and kept for
    its life.
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
    def rank_one_records(self) -> Dict[str, List[RankOnePlan]]:
        """Projection fact key p|x → the plan of each record with kernel rank 1
        and middle rank 2 that has x in its middle, in ``ses_records`` order."""
        index: Dict[str, List[RankOnePlan]] = {}
        for record in self.ses_records:
            if record.kernel is not None and len(record.kernel) == 1 and len(record.middle) == 2:
                plan = RankOnePlan.of(record)
                for key in (plan.key_u, plan.key_w):
                    index.setdefault(key, []).append(plan)
        return index

    @cached_property
    def push_plan(self) -> Dict[str, Tuple[str, Tuple[Push, ...]]]:
        """Fact key f|x → (f, the pushes ``actions.single_valued()`` holds for
        x), for each source x with a push and each map f out of its module."""
        plan: Dict[str, Tuple[str, Tuple[Push, ...]]] = {}
        for pushes in self.actions.single_valued().values():
            source = pushes[0][0].source
            for spec in MAP_SPECS.values():
                if spec.source is source.module:
                    plan[fact_key(spec.name, source)] = (spec.name, pushes)
        return plan

    def tmf_name(self, element: Element, row_key: str, column: str) -> Optional[str]:
        override = self.tmf_name_overrides.get((row_key, column))
        return override or self.tmf_names.get(element.key)


class ChartValidationError(ValueError):
    """A structural or referential defect in a dataset, with its location."""


# The record lists of a document: field → (kind, default).  A kind is an
# exact JSON type or a tuple of them, an enum as a {value: member} dict, or an
# element reference: ELEMENT (a "MODULE:name" key), ELEMENTS (a list of keys)
# or BASIS (a list of keys, or null for an unknown basis).  ``_records``
# checks the JSON values of a document against it; the Δ⁸ copies of
# ``delta8_extend`` are made from objects that passed, and skip only this.
ELEMENT, ELEMENTS, BASIS = "element", "elements", "basis"
REQUIRED = "required"
ABSENT = "absent"  # ``value`` left out: the zero span, or none beside ``nonzero``


def _enum(members) -> dict:
    return {getattr(m, "value", m): m for m in members}


_VALUE_FIELDS = {"value": (ELEMENTS, ABSENT), "nonzero": (bool, False)}
SCHEMA: Dict[str, Dict[str, tuple]] = {
    "generators": {"name": (str, REQUIRED), "stem": (int, REQUIRED), "filtration": (int, REQUIRED)},
    "elements": {
        "module": (_enum(ModuleId), REQUIRED), "name": (str, REQUIRED),
        "stem": (int, REQUIRED), "filtration": (int, REQUIRED),
        "order": ((int, str), None),  # one of ALLOWED_ORDERS or "inf"
        "tmfName": (str, None), "nuMultiple": (bool, False), "priorOrderTwo": (bool, False),
    },
    "actions": {"generator": (str, REQUIRED), "source": (ELEMENT, REQUIRED), **_VALUE_FIELDS},
    "classifications": {
        "element": (ELEMENT, REQUIRED), "context": (_enum(LesContext), REQUIRED),
        "kind": (_enum(ClassificationKind), REQUIRED),
    },
    "ranks": {
        "context": (_enum(SES_CONTEXTS), REQUIRED), "stem": (int, REQUIRED),
        "middle": (ELEMENTS, ()), "cokernel": (BASIS, None), "kernel": (BASIS, None),
    },
    "axioms": {"map": (_enum(MAP_SPECS), REQUIRED), "source": (ELEMENT, REQUIRED), **_VALUE_FIELDS},
    "tmfNameOverrides": {
        "row": (ELEMENT, REQUIRED), "column": (_enum(("imgP1", "lift")), REQUIRED), "name": (str, REQUIRED),
    },
}

# Each record list's field kinds and optional-field defaults, built once for ``_records``.
_READERS = {
    name: ({f: kind for f, (kind, _) in fields.items()}, {f: d for f, (_, d) in fields.items() if d is not REQUIRED})
    for name, fields in SCHEMA.items()
}

_JSON_TYPES = {
    int: "an integer", str: "a string", bool: "a boolean", list: "a list",
    dict: "an object", type(None): "null",
}
_REFERENCE_TYPES = {ELEMENT: (str,), ELEMENTS: (list,), BASIS: (list, type(None))}


def _require_keys(obj: dict, allowed, where: str) -> None:
    unknown = obj.keys() - allowed
    if unknown:
        raise ChartValidationError(f"{where}: unknown fields {sorted(unknown)}")


def _read(value, name: str, kind, where: str, elements=None):
    """``value``, the field ``name`` of an object, read as ``kind`` (see ``SCHEMA``):
    JSON types match exactly, so nothing is coerced (``"6"`` is not an integer),
    no string is empty, enum values resolve to members, an element key is
    unknown (``_records`` reads a known one) and no list of element keys
    repeats one."""
    if type(value) is str and type(kind) is dict and value in kind:
        return kind[value]
    if type(value) is list and kind in (ELEMENTS, BASIS):
        for index, key in enumerate(value):
            if type(key) is not str or key not in elements:
                raise ChartValidationError(f"{where}: dangling element reference {key!r}")
            if value.index(key) != index:
                raise ChartValidationError(f"{where}: {name} repeats {key}")
        return [elements[key] for key in value]
    # What is left is a value of an exact or tuple kind, a null basis or a defect.
    if type(kind) is dict:
        types = (str,)
    else:
        types = _REFERENCE_TYPES.get(kind) or (kind if type(kind) is tuple else (kind,))
    if type(value) not in types:
        wanted = " or ".join(_JSON_TYPES[t] for t in types)
        raise ChartValidationError(f"{where}: {name} must be {wanted}, got {value!r}")
    if value == "":
        raise ChartValidationError(f"{where}: {name} must not be empty")
    if type(kind) is dict:
        raise ChartValidationError(f"{where}: unknown {name} {value!r}")
    if kind is ELEMENT:
        raise ChartValidationError(f"{where}: unknown element {value!r}")
    return value


def _field(obj: dict, name: str, kind, where: str, default=REQUIRED):
    """``obj[name]`` read as ``kind``, or ``default`` if absent."""
    if name in obj:
        return _read(obj[name], name, kind, where)
    if default is REQUIRED:
        raise ChartValidationError(f"{where}: missing field {name!r}")
    return default


def _records(doc: dict, name: str, elements: Dict[str, Element]) -> Iterator[tuple[str, dict]]:
    """The top-level list ``name`` as (location, fields) pairs: each record
    read against ``SCHEMA[name]``, with the defaults of its absent fields.
    A value of its field's exact JSON type, or a known element key, is read
    here; ``_read`` takes enums, lists, nulls and defects."""
    kinds, defaults = _READERS[name]
    for index, record in enumerate(_field(doc, name, list, "top level", [])):
        where = f"{name}[{index}]"
        if type(record) is not dict:
            raise ChartValidationError(f"{where}: must be an object")
        if not record.keys() <= kinds.keys():
            _require_keys(record, kinds, where)
        fields = defaults.copy()
        for field, value in record.items():
            kind = kinds[field]
            if type(value) is kind and value != "":
                fields[field] = value
            elif kind is ELEMENT and type(value) is str and value in elements:
                fields[field] = elements[value]
            else:
                fields[field] = _read(value, field, kind, where, elements)
        if len(fields) < len(kinds):
            missing = next(field for field in kinds if field not in fields)
            raise ChartValidationError(f"{where}: missing field {missing!r}")
        yield where, fields


def _off_degree(element: Element, module: ModuleId, stem: int, where: str) -> ChartValidationError:
    """The error for ``element``, which should live in ``module`` at ``stem``."""
    return ChartValidationError(f"{where}: {element.key} should live in module {module.value} at stem {stem}")


def _value(fields: dict, where: str, head: str) -> Value:
    """The ``value``/``nonzero`` pair of an action or axiom record: a span,
    where an absent or empty one is the shared ``Value.zero()``, or the
    shared bare nonzero mark, never both.  A defect's message names the
    record by ``head`` formatted with its fields, e.g. ``axiom {map}``."""
    members = fields["value"]
    if fields["nonzero"] and members is not ABSENT:
        raise ChartValidationError(f"{where}: {head.format(**fields)}: both value and nonzero set")
    if fields["nonzero"]:
        return Value.nonzero_unknown()
    if members is ABSENT or not members:
        return Value.zero()
    try:
        return Value.known(span_of(*members))
    except DegreeMismatchError as exc:
        raise ChartValidationError(f"{where}: {head.format(**fields)}: {exc}") from exc


def _value_fields(value: Value) -> dict:
    """The ``value``/``nonzero`` pair that ``_value`` reads back as ``value``."""
    if value.is_known:
        return {"value": sorted(e.key for e in value.span)}
    return {"nonzero": True}


# What a second record under one identity key reports, by record list; the
# fields are the key's.  Axioms have no identity key.
_DUPLICATE = {
    "elements": "duplicate element {}",
    "actions": "duplicate action {}·{}",
    "classifications": "duplicate classification for {} in {.value}",
    "ranks": "duplicate ranks record for {} at stem {}",
    "tmfNameOverrides": "duplicate override for {} in column {}",
}


# Enum members read in the record checks, as globals: cheaper than a class attribute.
_TORSION, _EXCEPTIONAL = ClassificationKind.TORSION, ClassificationKind.PERIODIC_EXCEPTIONAL
_NONEXCEPTIONAL = ClassificationKind.PERIODIC_NONEXCEPTIONAL
_LES_23, _MODULE_S, _MODULE_Y = LesContext.LES_23, ModuleId.S, ModuleId.Y


class _ChartRecords:
    """The record containers of a chart being built, and every check that a
    typed record passes, run once as it enters.  ``from_document`` fills empty
    ones; ``delta8_extend`` adds its copies to ``_ChartRecords(chart)``, whose
    records it does not check again.

    Each method checks its record first on its own, then against the records
    already present: elements enter first, then actions, then
    classifications, then ``ranks`` records.  A record that repeats the
    identity key of one already present (see ``_DUPLICATE``) is rejected,
    except that when ``merge`` is set, one equal to the present record is
    skipped, and an axiom equal to one present too.
    """

    def __init__(self, chart: Optional[ChartFile] = None) -> None:
        """Empty containers, or copies of ``chart``'s that merge what is added."""
        self.merge = chart is not None
        self.elements = dict(chart.elements) if chart else {}
        self.orders = dict(chart.orders) if chart else {}
        self.tmf_names = dict(chart.tmf_names) if chart else {}
        self.nu_multiples = set(chart.nu_multiples) if chart else set()
        self.prior_order_two = set(chart.prior_order_two) if chart else set()
        self.actions = chart.actions.copy() if chart else ActionTable()
        self.classifications = list(chart.classifications) if chart else []
        self.ses_records = list(chart.ses_records) if chart else []
        self.axioms = list(chart.axioms) if chart else []
        self.tmf_name_overrides = dict(chart.tmf_name_overrides) if chart else {}
        self._classified = {(c.element.key, c.context): c for c in self.classifications}
        self._ranked = {(r.context, r.stem): r for r in self.ses_records}
        self._axiom_set = set(self.axioms)

    def fields(self) -> dict:
        """The ``ChartFile`` fields these containers fill."""
        return dict(
            elements=self.elements, orders=self.orders, tmf_names=self.tmf_names,
            nu_multiples=frozenset(self.nu_multiples), prior_order_two=frozenset(self.prior_order_two),
            actions=self.actions, classifications=self.classifications, ses_records=self.ses_records,
            axioms=self.axioms, tmf_name_overrides=self.tmf_name_overrides,
        )

    def _is_new(self, name: str, key: tuple, present, record, where: str) -> bool:
        """Whether ``record`` goes in under ``key``, where ``present`` (or
        None) already is: False to skip an equal one when merging."""
        if present is None:
            return True
        if self.merge and present == record:
            return False
        raise ChartValidationError(f"{where}: " + _DUPLICATE[name].format(*key))

    def add_element(
        self, element: Element, order, tmf_name: Optional[str], nu_multiple: bool,
        prior_order_two: bool, where: str,
    ) -> None:
        key = element.key
        if element.stem < 0 or element.filtration < 0:
            raise ChartValidationError(f"{where}: element {key}: negative degree")
        try:
            element.check_name_convention()
        except ValueError as exc:
            raise ChartValidationError(f"{where}: {exc}") from exc
        if order is not None and order != "inf" and order not in ALLOWED_ORDERS:
            raise ChartValidationError(f"{where}: element {key}: bad order {order!r}")
        present = self.elements.get(key)
        if present is not None:
            present = (
                present, self.orders.get(key), self.tmf_names.get(key),
                key in self.nu_multiples, key in self.prior_order_two,
            )
            record = (element, order, tmf_name, nu_multiple, prior_order_two)
            if not self._is_new("elements", (key,), present, record, where):
                return
        self.elements[key] = element
        if order is not None:
            self.orders[key] = order
        if tmf_name is not None:
            self.tmf_names[key] = tmf_name
        if nu_multiple:
            self.nu_multiples.add(key)
        if prior_order_two:
            self.prior_order_two.add(key)

    def add_action(self, generator: RingGenerator, source: Element, value: Value, where: str) -> None:
        try:
            fact = ActionFact(generator, source, value)
        except ValueError as exc:
            raise ChartValidationError(f"{where}: action {generator.name}·{source.key}: {exc}") from exc
        key = (generator.name, source.key)
        if self._is_new("actions", key, self.actions.get(generator.name, source), fact, where):
            self.actions.add(fact)

    def add_classification(self, classification: Classification, where: str) -> None:
        """A classification: a torsion Y class in LES-2.3 with its v₁ action,
        an exceptional class where an exceptional listing can hold it."""
        element, context, kind = classification
        if (
            kind is _TORSION and context is _LES_23 and element.module is _MODULE_Y
            and self.actions.get("v₁", element) is None
        ):
            raise ChartValidationError(
                f"{where}: torsion class {element.key} in {context.value} has no v₁ action"
            )
        if kind is _EXCEPTIONAL:
            route = EXCEPTIONAL_LISTINGS.get((context, element.module))
            if route is None:
                raise ChartValidationError(
                    f"{where}: {element.key} marked exceptional in {context.value}, "
                    f"but no exceptional listing there holds {element.module.value} classes"
                )
            listing, stems = route
            if element.stem % 192 not in stems:
                raise ChartValidationError(
                    f"{where}: {element.key} marked exceptional in {context.value} but no "
                    f"{listing} monomial lives in stem {element.stem} (mod 192)"
                )
        key = (element.key, context)
        if self._is_new("classifications", key, self._classified.get(key), classification, where):
            self._classified[key] = classification
            self.classifications.append(classification)

    def add_ranks(self, ses: SesRecord, where: str) -> None:
        """A ``ranks`` record: each basis in its module and stem, and the
        ranks adding up where both sides are known.  In SES-2.8 and SES-2.9
        each middle class is classified torsion or exceptional, and each
        sphere kernel class has order 2."""
        middle, cokernel, kernel = ses.middle, ses.cokernel, ses.kernel
        for basis, module, basis_stem in (
            (middle, ses.middle_module, ses.stem),
            (cokernel or (), ses.side_module, ses.stem),
            (kernel or (), ses.side_module, ses.kernel_stem),
        ):
            for element in basis:
                if element.module is not module or element.stem != basis_stem:
                    raise _off_degree(element, module, basis_stem, f"{where}: ranks {ses.ref}")
        if cokernel is not None and kernel is not None and len(middle) != len(cokernel) + len(kernel):
            raise ChartValidationError(
                f"{where}: ranks {ses.ref}: rank mismatch |middle|={len(middle)} != "
                f"|cokernel|={len(cokernel)} + |kernel|={len(kernel)}"
            )
        context, classified = SES_CONTEXTS[ses.context]
        if classified:
            for element in middle:
                present = self._classified.get((element.key, context))
                if present is None or present.kind is _NONEXCEPTIONAL:
                    raise ChartValidationError(
                        f"{where}: ranks {ses.ref}: middle element {element.key} "
                        f"must be classified torsion or exceptional in {context.value}"
                    )
            # A sphere kernel class lies in ker(·2), which the dataset states as order 2.
            if ses.side_module is _MODULE_S:
                for element in kernel or ():
                    if self.orders.get(element.key) != 2:
                        raise ChartValidationError(
                            f"{where}: ranks {ses.ref}: kernel element {element.key} "
                            f"must carry order 2 (it lies in ker(·2))"
                        )
        key = (ses.context, ses.stem)
        if self._is_new("ranks", key, self._ranked.get(key), ses, where):
            self._ranked[key] = ses
            self.ses_records.append(ses)

    def add_axiom(self, axiom: MapAxiom, where: str) -> None:
        """An axiom: its source and each class of its value where its map
        puts them."""
        spec, source = MAP_SPECS[axiom.map], axiom.source
        if source.module is not spec.source:
            raise ChartValidationError(
                f"{where}: axiom {axiom.map}({source.key}): source must live in module {spec.source.value}"
            )
        stem = source.stem + spec.stem_shift
        for element in axiom.value.span:
            if element.module is not spec.target or element.stem != stem:
                raise _off_degree(element, spec.target, stem, f"{where}: axiom {axiom.map}({source.key})")
        if self.merge:
            if axiom in self._axiom_set:
                return
            self._axiom_set.add(axiom)
        self.axioms.append(axiom)

    def add_override(self, cell: tuple[str, str], name: str, where: str) -> None:
        if self._is_new("tmfNameOverrides", cell, self.tmf_name_overrides.get(cell), name, where):
            self.tmf_name_overrides[cell] = name


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
    top_level = {"schemaVersion", "maxStem", "hurewiczFlags", "exceptionalSets", "periodicPresentations"}
    _require_keys(doc, top_level | SCHEMA.keys(), "top level")
    if doc.get("schemaVersion") != SCHEMA_VERSION:
        raise ChartValidationError(
            f"unsupported schemaVersion {doc.get('schemaVersion')!r}, want {SCHEMA_VERSION!r}"
        )
    max_stem = _field(doc, "maxStem", int, "top level", 0)
    if max_stem < 0:
        raise ChartValidationError(f"top level: maxStem must be ≥ 0, got {max_stem}")

    records = _ChartRecords()
    elements = records.elements
    generators: Dict[str, RingGenerator] = {}
    for where, fields in _records(doc, "generators", elements):
        try:
            gen = RingGenerator(fields["name"], fields["stem"], fields["filtration"])
        except ValueError as exc:
            raise ChartValidationError(f"{where}: generator {fields['name']!r}: {exc}") from exc
        if gen.name in generators:
            raise ChartValidationError(f"{where}: duplicate generator {gen.name}")
        generators[gen.name] = gen

    for where, fields in _records(doc, "elements", elements):
        element = Element(fields["module"], fields["stem"], fields["filtration"], fields["name"])
        records.add_element(
            element, fields["order"], fields["tmfName"], fields["nuMultiple"], fields["priorOrderTwo"], where
        )

    for where, fields in _records(doc, "actions", elements):
        gen_name, source = fields["generator"], fields["source"]
        if gen_name not in generators:
            raise ChartValidationError(f"{where}: unknown generator {gen_name!r}")
        value = _value(fields, where, "action {generator}·{source.key}")
        records.add_action(generators[gen_name], source, value, where)

    for where, fields in _records(doc, "classifications", elements):
        records.add_classification(Classification(fields["element"], fields["context"], fields["kind"]), where)

    hurewicz: Dict[str, bool] = {}
    for key, flag in _field(doc, "hurewiczFlags", dict, "top level", {}).items():
        where = f"hurewiczFlags[{key!r}]"
        if key not in elements:
            raise ChartValidationError(f"{where}: unknown element {key!r}")
        if elements[key].module is not ModuleId.S:
            raise ChartValidationError(f"{where}: hurewicz flag on non-sphere element {key}")
        if type(flag) is not bool:
            raise ChartValidationError(f"{where}: must be a boolean, got {flag!r}")
        hurewicz[key] = flag

    exc_doc = _field(doc, "exceptionalSets", dict, "top level", {})
    _require_keys(exc_doc, {"EM", "FS", "FM", "delta8Closure"}, "exceptionalSets")
    exceptional = {}
    for label, want in (("EM", EXCEPTIONAL_EM), ("FS", EXCEPTIONAL_FS), ("FM", EXCEPTIONAL_FM)):
        exceptional[label] = tuple(_field(exc_doc, label, list, "exceptionalSets", []))
        if exceptional[label] and exceptional[label] != want:
            raise ChartValidationError(f"exceptionalSets.{label} does not match the fixed listing")

    for where, fields in _records(doc, "ranks", elements):
        ses = SesRecord(fields["context"], fields["stem"], fields["middle"], fields["cokernel"], fields["kernel"])
        records.add_ranks(ses, where)

    for where, fields in _records(doc, "axioms", elements):
        value = _value(fields, where, "axiom {map}({source.key})")
        records.add_axiom(MapAxiom(fields["map"], fields["source"], value), where)

    for where, fields in _records(doc, "tmfNameOverrides", elements):
        records.add_override((fields["row"].key, fields["column"]), fields["name"], where)

    presentations = _field(doc, "periodicPresentations", dict, "top level", {})
    _check_presentations(presentations)

    return ChartFile(
        schema_version=doc["schemaVersion"],
        max_stem=max_stem,
        generators=generators,
        hurewicz=hurewicz,
        exceptional_sets=exceptional,
        delta8_closure=_field(exc_doc, "delta8Closure", bool, "exceptionalSets", False),
        periodic_presentations=presentations,
        **records.fields(),
    )


def _check_presentations(presentations: dict) -> None:
    """The pattern data ``expand_periodic`` reads: eight minimal v₁-powers
    for Y and, for M, the k = 0 flash positions of each Δ-power mod 8."""
    where = "periodicPresentations"
    _require_keys(presentations, {"Y", "M", "S"}, where)
    for module in presentations:
        _field(presentations, module, dict, where)
    y_min = _field(presentations.get("Y", {}), "minV1ByDeltaMod8", list, f"{where}.Y", [0] * 8)
    if len(y_min) != 8 or any(type(v) is not int or v < 0 for v in y_min):
        raise ChartValidationError(f"{where}.Y needs eight minimal v₁-powers, got {y_min!r}")
    k0 = _field(presentations.get("M", {}), "k0Positions", dict, f"{where}.M", None)
    if k0 is None:
        return
    if sorted(map(str, k0)) != [str(n) for n in range(8)]:
        raise ChartValidationError(f"{where}.M.k0Positions needs keys 0-7")
    for key, positions in k0.items():
        if type(positions) is not list or any(
            type(pos) is not int or not 0 <= pos < len(FLASH_POSITIONS) for pos in positions
        ):
            raise ChartValidationError(f"{where}.M.k0Positions[{key!r}]: bad flash positions")


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
    actions = [
        {"generator": fact.generator.name, "source": fact.source.key, **_value_fields(fact.value)}
        for fact in chart.actions.facts()
    ]
    ranks = [
        {
            "context": ses.context,
            "stem": ses.stem,
            "middle": [e.key for e in ses.middle],
            "cokernel": None if ses.cokernel is None else [e.key for e in ses.cokernel],
            "kernel": None if ses.kernel is None else [e.key for e in ses.kernel],
        }
        for ses in sorted(chart.ses_records, key=lambda r: (r.context, r.stem))
    ]
    axioms = [
        {"map": axiom.map, "source": axiom.source.key, **_value_fields(axiom.value)}
        for axiom in chart.axioms
    ]
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


# --- Periodic-part expansion ---

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
        for n in range(stem_bound // 24 + 1):
            for v in range(y_min[n % 8], (stem_bound - 24 * n) // 2 + 1):
                element = Element(ModuleId.Y, 24 * n + 2 * v, 0, monomial_name_y(n, v), periodic=True)
                out.append(Monomial(element, n, v, 0))
    elif module is ModuleId.M:
        for n in range(stem_bound // 24 + 1):
            for k in range((stem_bound - 24 * n) // 8 + 1):
                positions = range(6) if k >= 1 else k0_positions[n % 8]
                for pos in positions:
                    extra_v, eta = FLASH_POSITIONS[pos]
                    v = 4 * k + extra_v
                    stem = 24 * n + 2 * v + eta
                    if stem > stem_bound:
                        continue
                    element = Element(ModuleId.M, stem, eta, monomial_name_m(n, v, eta), periodic=True)
                    out.append(Monomial(element, n, v, eta))
    elif module is ModuleId.S:
        for n in range(stem_bound // 24 + 1):
            for k in range((stem_bound - 24 * n) // 8 + 1):
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
    else:
        raise ValueError(f"module {module.value} has no periodic presentation")
    return sorted(out, key=lambda m: (m.stem, m.element.filtration, m.element.name))


# --- Δ⁸ extension ---

_SHIFT_NAME = re.compile(r"^([a-z])_\{-?\d+,-?\d+\}$")


def _name_letter(element: Element) -> Optional[str]:
    """The x of an x_{i,j} name, which ``_shifted`` re-encodes, else None."""
    m = _SHIFT_NAME.match(element.name)
    return m.group(1) if m else None


def _shifted(element: Element, letter: Optional[str], k: int, filt_shift: int) -> Element:
    """The k-th Δ⁸ copy of ``element``, whose ``_name_letter`` is ``letter``:
    192k stems and k·``filt_shift`` filtrations up, with an x_{i,j} name
    re-encoding the new degree and any other name suffixed ·Δ⁸ k times."""
    stem, filtration = element.stem + 192 * k, element.filtration + filt_shift * k
    name = f"{letter}_{{{stem},{filtration}}}" if letter else element.name + "·Δ⁸" * k
    return Element(element.module, stem, filtration, name)


def _shifted_value(value: Value, shifted: Dict[Element, Element]) -> Value:
    """``value`` with each class of its span replaced by its copy; an empty
    span (the zero or the bare nonzero mark) leaves ``value`` as it is."""
    if not value.span:
        return value
    return Value.known(span_of(*(shifted[e] for e in value.span)))


def delta8_extend(chart: ChartFile, copies: int) -> ChartFile:
    """``chart`` with a Δ⁸-shifted copy of every record for each k ≤ copies.

    The k-th copy of an element is ``_shifted``.  It keeps the original's
    order and prior-order-2 mark and prefixes its tmf name with Δ⁸· k times;
    copies of ν-multiples are not marked as such and have Hurewicz flag false,
    unless a flag is already present.  The copies of the other records
    (``ranks`` records at stem + 192k) refer to the shifted elements.  Each
    copy passes every ``_ChartRecords`` check and the constructors' own checks
    once; only the JSON-type checks of ``_records`` are skipped.  Each
    container holds the chart's records first, then copy 1, copy 2 and so on.
    A copy equal to the record under its identity key, or an axiom equal to
    one present, is skipped; any other clash is a ``ChartValidationError``.
    """
    if copies < 0:
        raise ValueError("copies must be ≥ 0")
    if copies == 0:
        return chart

    delta8 = chart.generators.get("Δ⁸")
    filt_shift = delta8.filtration_degree if delta8 else 0
    records = _ChartRecords(chart)
    hurewicz = dict(chart.hurewicz)
    facts = chart.actions.facts()
    letters = [(element, _name_letter(element)) for element in chart.elements.values()]
    for k in range(1, copies + 1):
        where, prefix = f"Δ⁸ copy {k}", "Δ⁸·" * k
        shifted = {element: _shifted(element, letter, k, filt_shift) for element, letter in letters}
        for element, copy in shifted.items():
            key = element.key
            tmf_name = chart.tmf_names.get(key)
            records.add_element(
                copy, chart.orders.get(key), tmf_name and prefix + tmf_name, False,
                key in chart.prior_order_two, where,
            )
            if key in chart.hurewicz:
                hurewicz.setdefault(copy.key, chart.hurewicz[key] and key not in chart.nu_multiples)
        for fact in facts:
            value = _shifted_value(fact.value, shifted)
            records.add_action(fact.generator, shifted[fact.source], value, where)
        for c in chart.classifications:
            records.add_classification(Classification(shifted[c.element], c.context, c.kind), where)
        for ses in chart.ses_records:
            bases = [
                None if basis is None else [shifted[e] for e in basis]
                for basis in (ses.middle, ses.cokernel, ses.kernel)
            ]
            records.add_ranks(SesRecord(ses.context, ses.stem + 192 * k, *bases), where)
        for axiom in chart.axioms:
            value = _shifted_value(axiom.value, shifted)
            records.add_axiom(MapAxiom(axiom.map, shifted[axiom.source], value), where)
        for (row, column), name in chart.tmf_name_overrides.items():
            records.add_override((shifted[chart.elements[row]].key, column), prefix + name, where)
    return replace(chart, max_stem=chart.max_stem + 192 * copies, hurewicz=hurewicz, **records.fields())
