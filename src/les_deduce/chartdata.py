"""Chart dataset format: load/validate/save, periodic-part expansion, Δ⁸ extension.

The dataset is a single JSON document (UTF-8, schemaVersion "1") with top-level
keys {schemaVersion, maxStem, hurewiczFlags} plus the record lists of
``SCHEMA``, which states each record field's JSON kind and default once.
Element references everywhere use the key format "MODULE:name".  Unknown
top-level or record fields are rejected so golden files stay byte-stable.
``_records`` reads every valid record value inline; ``_read`` takes top-level
values and names defects.  An action or axiom value with an empty span is the
shared ``Value.zero()`` or ``Value.nonzero_unknown()``, and its Δ⁸ copies are too.

A ``ranks`` record is one degree of a derived SES, a slice of LES-2.3
(SES-2.7, SES-2.8) or LES-2.4 (SES-2.9).  ``SesRecord`` reads its maps, the
modules of its bases and its kernel stem off ``sequences.SEQUENCES``, and the
loader checks every basis against them.  Axioms are checked against
``MAP_SPECS`` the same way (source module, value module and stem), and a class
classified exceptional needs a route in ``EXCEPTIONAL_LISTINGS``.  An action
names one of ``algebra.GENERATORS``.  The document states chart data only:
the generators' degrees, the exceptional listings and the periodic-part
presentations are facts about tmf that the engine holds.

Periodic parts are not stored element-by-element.  Each module has a small
presentation (a monomial pattern, with ``Y_MIN_V1`` and ``M_K0_POSITIONS``)
that ``expand_periodic`` unfolds up to a stem bound; the per-part formulas of
the deduction rules act on those monomials.

``delta8_extend`` shifts the loaded chart's objects: Δ⁸ has stem 192 and
filtration 0, so each copy of an element moves 192 stems up and keeps its
filtration, and the copies of the other records refer to the shifted
elements.  Every record check runs once, as the record enters, in the one
``_ChartRecords`` method that adds its record list: the loader and each Δ⁸
copy feed it a whole list.  A check builds its message, location included,
only when it fails; the tests pin every message in full.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .algebra import (
    ActionFact,
    ActionTable,
    Classification,
    ClassificationKind,
    DegreeMismatchError,
    Element,
    GENERATORS,
    NAME_CONVENTION,
    LesContext,
    ModuleId,
    Value,
    acyclic,
    checked_newargs,
    checked_replace,
    new_tuple,
    span_of,
)
from .sequences import MAP_SPECS, SEQUENCES, FactKey, RankOnePlan

SCHEMA_VERSION = "1"

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
    return next(m.name for m in SEQUENCES[context.value].maps if m.source is module and m.target is not module)

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

    def place(self, map_name: str, source: Element) -> Optional[Tuple[tuple, tuple]]:
        """Where the fact ``map_name`` on ``source`` sits in this record: the
        basis holding ``source`` and the basis the value lies in, or None."""
        if map_name == self.project_map and source in self.middle:
            return self.middle, self.kernel or ()
        if map_name == self.include_map and self.cokernel and source in self.cokernel:
            return self.cokernel, self.middle
        return None


# One entry of the push plan: an action g·x = t with one-element value, its
# target t and the label "g·x" that provenance cites it by.
Push = Tuple[ActionFact, Element, str]


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

    max_stem: int
    elements: Dict[str, Element]
    actions: ActionTable
    classifications: List[Classification]
    hurewicz: Dict[str, bool]
    orders: Dict[str, object]
    tmf_names: Dict[str, str]
    tmf_name_overrides: Dict[tuple[str, str], str]
    nu_multiples: frozenset[str]
    prior_order_two: frozenset[str]
    ses_records: List[SesRecord]
    axioms: List[MapAxiom]

    @cached_property
    def rank_one_records(self) -> Dict[FactKey, List[RankOnePlan]]:
        """Projection fact key (p, x) → the plan of each record with kernel rank 1
        and middle rank 2 that has x in its middle, in ``ses_records`` order."""
        index: Dict[FactKey, List[RankOnePlan]] = {}
        for record in self.ses_records:
            if record.kernel is not None and len(record.kernel) == 1 and len(record.middle) == 2:
                plan = RankOnePlan.of(record)
                for key in (plan.key_u, plan.key_w):
                    index.setdefault(key, []).append(plan)
        return index

    @cached_property
    def push_plan(self) -> Dict[Element, Tuple[Push, ...]]:
        """Source element x → the pushes on x, for each x with an action whose
        value is one element; every map out of x's module pushes them.  A
        source's pushes go by generator name, as ``actions.facts()`` lists
        them: that order fixes the order of LIN's emissions."""
        plan: Dict[Element, List[Push]] = {}
        for fact in self.actions.facts():
            if len(fact.value.span) == 1:
                (target,) = fact.value.span
                source = fact.source
                plan.setdefault(source, []).append((fact, target, f"{fact.generator.name}·{source.key}"))
        return {source: tuple(pushes) for source, pushes in plan.items()}

    def tmf_name(self, element: Element, row_key: str, column: str) -> Optional[str]:
        return self.tmf_name_overrides.get((row_key, column)) or self.tmf_names.get(element.key)


_NO_RECORDS = ChartFile(0, {}, ActionTable(), [], {}, {}, {}, {}, frozenset(), frozenset(), [], [])


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
    "elements": {
        "module": (_enum(ModuleId), REQUIRED), "name": (str, REQUIRED),
        "stem": (int, REQUIRED), "filtration": (int, REQUIRED),
        "order": ((int, str), None),  # one of ALLOWED_ORDERS or "inf"
        "tmfName": (str, None), "nuMultiple": (bool, False), "priorOrderTwo": (bool, False),
    },
    "actions": {"generator": (GENERATORS, REQUIRED), "source": (ELEMENT, REQUIRED), **_VALUE_FIELDS},
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
    a top-level value, or a record value ``_records`` found defective, which
    raises.  JSON types match exactly (``"6"`` is not an integer), no string is
    empty, and no list of element keys repeats one."""
    if type(value) is list and kind in (ELEMENTS, BASIS):
        for index, key in enumerate(value):
            if type(key) is not str or key not in elements:
                raise ChartValidationError(f"{where}: dangling element reference {key!r}")
            if value.index(key) != index:
                raise ChartValidationError(f"{where}: {name} repeats {key}")
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


def _field(obj: dict, name: str, kind, where: str, default=REQUIRED, elements=None):
    """``obj[name]`` read as ``kind``, or ``default`` if absent."""
    if name in obj:
        return _read(obj[name], name, kind, where, elements)
    if default is REQUIRED:
        raise ChartValidationError(f"{where}: missing field {name!r}")
    return default


def _records(doc: dict, name: str, elements: Dict[str, Element]) -> Iterator[dict]:
    """The fields of each record of the top-level list ``name``, read against
    ``SCHEMA[name]``, with the defaults of its absent fields.  Valid values are
    read inline, an enum value or element key with one lookup; only a defect
    formats the record's location, and ``_field`` names it."""
    kinds, defaults = _READERS[name]
    # An element key reads like an enum value, with the elements for members.
    members = {field: elements if kind is ELEMENT else kind for field, kind in kinds.items()}
    for index, record in enumerate(_field(doc, name, list, "top level", [])):
        if type(record) is not dict:
            raise ChartValidationError(f"{name}[{index}]: must be an object")
        fields = defaults.copy()
        try:
            for field, value in record.items():
                kind = members[field]  # a KeyError for an unknown field
                if type(value) is kind and value != "":
                    fields[field] = value
                elif type(kind) is dict:  # a KeyError or TypeError for an unknown value
                    fields[field] = kind[value]
                elif type(value) is list and (kind is ELEMENTS or kind is BASIS):
                    fields[field] = [elements[key] for key in value]
                    if len(value) > 1 and len(set(value)) < len(value):
                        break  # a repeated key
                elif value is None and kind is BASIS or type(kind) is tuple and type(value) in kind and value != "":
                    fields[field] = value
                else:
                    break  # a wrong type, or ""
            else:
                if len(fields) == len(kinds):
                    yield fields
                    continue
                field = next(field for field in kinds if field not in fields)  # a missing field
        except (KeyError, TypeError):  # an unknown field, value or key, or an unhashable one
            pass
        where = f"{name}[{index}]"
        _require_keys(record, kinds, where)
        _field(record, field, kinds[field], where, REQUIRED, elements)


def _defect(where: str, i, message: str) -> ChartValidationError:
    """The error for ``message`` about the record at ``where.format(i)``."""
    return ChartValidationError(f"{where.format(i)}: {message}")


def _off_degree(element: Element, module: ModuleId, stem: int) -> str:
    """The defect of ``element``, which should live in ``module`` at ``stem``."""
    return f"{element.key} should live in module {module.value} at stem {stem}"


def _value(fields: dict, where: str, i: int, head: str) -> Value:
    """The ``value``/``nonzero`` pair of an action or axiom record: a span,
    where an absent or empty one is the shared ``Value.zero()``, or the
    shared bare nonzero mark, never both.  A defect's message names the
    record by ``head`` formatted with its fields, e.g. ``axiom {map}``."""
    members = fields["value"]
    if fields["nonzero"] and members is not ABSENT:
        raise _defect(where, i, f"{head.format(**fields)}: both value and nonzero set")
    if fields["nonzero"]:
        return Value.nonzero_unknown()
    if members is ABSENT or not members:
        return Value.zero()
    try:
        return Value.known(span_of(*members))
    except DegreeMismatchError as exc:
        raise _defect(where, i, f"{head.format(**fields)}: {exc}") from exc


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
    """The record containers of a chart being built, and every check that a typed
    record passes, run once as it enters.  ``from_document`` fills empty ones;
    ``delta8_extend`` adds each copy to ``_ChartRecords(chart)``, whose records it
    does not check again.  One method adds each record list, one row per record,
    at a location such as ``"ranks[{}]"`` that a failed check formats with the
    row's index.  It checks each record on its own, then against the records
    present (elements enter first, then actions, classifications and ``ranks``),
    with one dict lookup per identity key.  A record that repeats the identity key
    of one present (``_DUPLICATE``) is rejected, except that when ``merge`` is set,
    one equal to it is skipped, and an axiom equal to one present too."""

    def __init__(self, chart: ChartFile = _NO_RECORDS) -> None:
        """Empty containers, or copies of ``chart``'s that merge what is added."""
        self.merge = chart is not _NO_RECORDS
        self.elements = dict(chart.elements)
        self.orders = dict(chart.orders)
        self.tmf_names = dict(chart.tmf_names)
        self.nu_multiples = set(chart.nu_multiples)
        self.prior_order_two = set(chart.prior_order_two)
        self.actions = chart.actions.copy()
        self.classifications = list(chart.classifications)
        self.ses_records = list(chart.ses_records)
        self.axioms = list(chart.axioms)
        self.tmf_name_overrides = dict(chart.tmf_name_overrides)
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

    def _clash(self, name: str, key: tuple, present, record, where: str, i: int) -> None:
        """``record`` repeats the ``key`` of ``present``: a merge skips it if equal."""
        if not (self.merge and present == record):
            raise _defect(where, i, _DUPLICATE[name].format(*key))

    def add_elements(self, rows: Iterable[tuple], where: str) -> None:
        """Rows (element, order, tmf name, ν-multiple, prior order 2)."""
        elements, orders, tmf_names = self.elements, self.orders, self.tmf_names
        nu_multiples, prior_order_two = self.nu_multiples, self.prior_order_two
        for i, row in enumerate(rows):
            element, order, tmf_name, nu_multiple, prior = row
            key = element.key
            if element.stem < 0 or element.filtration < 0:
                raise _defect(where, i, f"element {key}: negative degree")
            try:
                element.check_name_convention()
            except ValueError as exc:
                raise _defect(where, i, str(exc)) from exc
            if order is not None and order != "inf" and order not in ALLOWED_ORDERS:
                raise _defect(where, i, f"element {key}: bad order {order!r}")
            present = elements.get(key)
            if present is not None:
                present = present, orders.get(key), tmf_names.get(key), key in nu_multiples, key in prior_order_two
                self._clash("elements", (key,), present, row, where, i)
                continue
            elements[key] = element
            if order is not None:
                orders[key] = order
            if tmf_name is not None:
                tmf_names[key] = tmf_name
            if nu_multiple:
                nu_multiples.add(key)
            if prior:
                prior_order_two.add(key)

    def add_actions(self, rows: Iterable[tuple], where: str) -> None:
        """Rows (generator, source, value)."""
        by_key = self.actions.by_key
        for i, (generator, source, value) in enumerate(rows):
            try:
                fact = ActionFact(generator, source, value)
            except ValueError as exc:
                raise _defect(where, i, f"action {generator.name}·{source.key}: {exc}") from exc
            key = (generator.name, source.key)
            present = by_key.get(key)
            if present is None:
                by_key[key] = fact
            else:
                self._clash("actions", key, present, fact, where, i)

    def add_classifications(self, rows: Iterable[tuple], where: str) -> None:
        """Classifications: a torsion Y class in LES-2.3 with its v₁ action, an
        exceptional class where an exceptional listing can hold it."""
        actions, classified, classifications = self.actions.by_key, self._classified, self.classifications
        for i, classification in enumerate(rows):
            element, context, kind = classification
            if kind is _TORSION and context is _LES_23 and element.module is _MODULE_Y:
                if ("v₁", element.key) not in actions:
                    raise _defect(where, i, f"torsion class {element.key} in {context.value} has no v₁ action")
            elif kind is _EXCEPTIONAL:
                route = EXCEPTIONAL_LISTINGS.get((context, element.module))
                if route is None:
                    raise _defect(
                        where, i, f"{element.key} marked exceptional in {context.value}, "
                        f"but no exceptional listing there holds {element.module.value} classes"
                    )
                if element.stem % 192 not in route[1]:
                    raise _defect(
                        where, i, f"{element.key} marked exceptional in {context.value} but no "
                        f"{route[0]} monomial lives in stem {element.stem} (mod 192)"
                    )
            key = (element.key, context)
            present = classified.get(key)
            if present is None:
                classified[key] = classification
                classifications.append(classification)
            else:
                self._clash("classifications", key, present, classification, where, i)

    def add_ranks(self, rows: Iterable[tuple], where: str) -> None:
        """``ranks`` records: each basis in its module and stem, the ranks adding
        up where both sides are known; in SES-2.8 and SES-2.9 each middle class
        classified torsion or exceptional, and each sphere kernel class of order 2."""
        classified, orders, ranked, ses_records = self._classified, self.orders, self._ranked, self.ses_records
        for i, ses in enumerate(rows):
            name, stem, middle, cokernel, kernel, ref, (include, project, _) = ses
            side = include.source
            for basis, module, basis_stem in (
                (middle, project.source, stem), (cokernel or (), side, stem),
                (kernel or (), side, stem + project.stem_shift),
            ):
                for element in basis:
                    if element.module is not module or element.stem != basis_stem:
                        raise _defect(where, i, f"ranks {ref}: " + _off_degree(element, module, basis_stem))
            if cokernel is not None and kernel is not None and len(middle) != len(cokernel) + len(kernel):
                raise _defect(
                    where, i, f"ranks {ref}: rank mismatch |middle|={len(middle)} != "
                    f"|cokernel|={len(cokernel)} + |kernel|={len(kernel)}"
                )
            context, restricted = SES_CONTEXTS[name]
            for element in middle if restricted else ():
                present = classified.get((element.key, context))
                if present is None or present.kind is _NONEXCEPTIONAL:
                    raise _defect(
                        where, i, f"ranks {ref}: middle element {element.key} "
                        f"must be classified torsion or exceptional in {context.value}"
                    )
            # A sphere kernel class lies in ker(·2), which the dataset states as order 2.
            for element in (kernel or ()) if restricted and side is _MODULE_S else ():
                if orders.get(element.key) != 2:
                    raise _defect(
                        where, i, f"ranks {ref}: kernel element {element.key} must carry order 2 (it lies in ker(·2))"
                    )
            key = (name, stem)
            present = ranked.get(key)
            if present is None:
                ranked[key] = ses
                ses_records.append(ses)
            else:
                self._clash("ranks", key, present, ses, where, i)

    def add_axioms(self, rows: Iterable[tuple], where: str) -> None:
        """Axioms, with source and value classes where their maps put them."""
        axioms, present = self.axioms, self._axiom_set
        for i, axiom in enumerate(rows):
            map_name, source, value = axiom
            spec = MAP_SPECS[map_name]
            if source.module is not spec.source:
                raise _defect(
                    where, i, f"axiom {map_name}({source.key}): source must live in module {spec.source.value}"
                )
            stem, target = source.stem + spec.stem_shift, spec.target
            for element in value.span:
                if element.module is not target or element.stem != stem:
                    raise _defect(where, i, f"axiom {map_name}({source.key}): " + _off_degree(element, target, stem))
            if self.merge:
                if axiom in present:
                    continue
                present.add(axiom)
            axioms.append(axiom)

    def add_overrides(self, rows: Iterable[tuple], where: str) -> None:
        """Rows ((row key, column), name)."""
        overrides = self.tmf_name_overrides
        for i, (cell, name) in enumerate(rows):
            present = overrides.get(cell)
            if present is None:
                overrides[cell] = name
            else:
                self._clash("tmfNameOverrides", cell, present, name, where, i)


@acyclic
def loads(text: str) -> ChartFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChartValidationError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise ChartValidationError("malformed JSON: nested too deeply") from exc
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
    top_level = {"schemaVersion", "maxStem", "hurewiczFlags"}
    _require_keys(doc, top_level | SCHEMA.keys(), "top level")
    if doc.get("schemaVersion") != SCHEMA_VERSION:
        raise ChartValidationError(f"unsupported schemaVersion {doc.get('schemaVersion')!r}, want {SCHEMA_VERSION!r}")
    max_stem = _field(doc, "maxStem", int, "top level", 0)
    if max_stem < 0:
        raise ChartValidationError(f"top level: maxStem must be ≥ 0, got {max_stem}")

    records = _ChartRecords()
    elements = records.elements
    records.add_elements((
        (Element(f["module"], f["stem"], f["filtration"], f["name"]),
         f["order"], f["tmfName"], f["nuMultiple"], f["priorOrderTwo"])
        for f in _records(doc, "elements", elements)
    ), "elements[{}]")
    records.add_actions((
        (f["generator"], f["source"], _value(f, "actions[{}]", i, "action {generator.name}·{source.key}"))
        for i, f in enumerate(_records(doc, "actions", elements))
    ), "actions[{}]")
    records.add_classifications((
        new_tuple(Classification, (f["element"], f["context"], f["kind"]))
        for f in _records(doc, "classifications", elements)
    ), "classifications[{}]")

    hurewicz: Dict[str, bool] = {}
    where = "hurewiczFlags[{!r}]"
    for key, flag in _field(doc, "hurewiczFlags", dict, "top level", {}).items():
        if key not in elements:
            raise _defect(where, key, f"unknown element {key!r}")
        if elements[key].module is not _MODULE_S:
            raise _defect(where, key, f"hurewicz flag on non-sphere element {key}")
        if type(flag) is not bool:
            raise _defect(where, key, f"must be a boolean, got {flag!r}")
        hurewicz[key] = flag

    records.add_ranks((
        SesRecord(f["context"], f["stem"], f["middle"], f["cokernel"], f["kernel"])
        for f in _records(doc, "ranks", elements)
    ), "ranks[{}]")
    records.add_axioms((
        new_tuple(MapAxiom, (f["map"], f["source"], _value(f, "axioms[{}]", i, "axiom {map}({source.key})")))
        for i, f in enumerate(_records(doc, "axioms", elements))
    ), "axioms[{}]")
    records.add_overrides((
        ((f["row"].key, f["column"]), f["name"]) for f in _records(doc, "tmfNameOverrides", elements)
    ), "tmfNameOverrides[{}]")

    return ChartFile(max_stem=max_stem, hurewicz=hurewicz, **records.fields())


def to_document(chart: ChartFile) -> dict:
    elements = []
    for element in sorted(chart.elements.values()):
        record: dict = {
            "module": element.module.value, "name": element.name, "stem": element.stem,
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
            "context": ses.context, "stem": ses.stem, "middle": [e.key for e in ses.middle],
            "cokernel": None if ses.cokernel is None else [e.key for e in ses.cokernel],
            "kernel": None if ses.kernel is None else [e.key for e in ses.kernel],
        }
        for ses in sorted(chart.ses_records, key=lambda r: (r.context, r.stem))
    ]
    axioms = [{"map": axiom.map, "source": axiom.source.key, **_value_fields(axiom.value)} for axiom in chart.axioms]
    return {
        "schemaVersion": SCHEMA_VERSION,
        "maxStem": chart.max_stem,
        "elements": elements,
        "actions": actions,
        "classifications": [
            {"element": c.element.key, "context": c.context.value, "kind": c.kind.value}
            for c in sorted(chart.classifications, key=lambda c: (c.element.key, c.context.value))
        ],
        "hurewiczFlags": dict(sorted(chart.hurewicz.items())),
        "ranks": ranks,
        "axioms": axioms,
        "tmfNameOverrides": [
            {"row": row, "column": column, "name": name}
            for (row, column), name in sorted(chart.tmf_name_overrides.items())
        ],
    }


def dumps(chart: ChartFile) -> str:
    return json.dumps(to_document(chart), ensure_ascii=False, indent=1, sort_keys=True) + "\n"


def save(chart: ChartFile, path: str | Path) -> None:
    Path(path).write_text(dumps(chart), encoding="utf-8")


# --- Periodic-part expansion ---

def expand_periodic(module: ModuleId, stem_bound: int) -> List[Monomial]:
    """All periodic-part monomials of one module with stem ≤ stem_bound.

    Y's monomials start at the minimal v₁-powers ``Y_MIN_V1``; the Moore
    module's carry the full lightning flash for k ≥ 1 and, for k = 0, the
    per-element fraction ``M_K0_POSITIONS`` (no closed formula covers it).
    """
    if stem_bound < 0:
        raise ValueError("stem bound must be ≥ 0")
    out: List[Monomial] = []
    if module is ModuleId.Y:
        for n in range(stem_bound // 24 + 1):
            for v in range(Y_MIN_V1[n % 8], (stem_bound - 24 * n) // 2 + 1):
                element = Element(ModuleId.Y, 24 * n + 2 * v, 0, monomial_name_y(n, v), periodic=True)
                out.append(Monomial(element, n, v, 0))
    elif module is ModuleId.M:
        for n in range(stem_bound // 24 + 1):
            for k in range((stem_bound - 24 * n) // 8 + 1):
                positions = range(6) if k >= 1 else M_K0_POSITIONS[n % 8]
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
                        element = Element(ModuleId.S, stem, 1, monomial_name_s_c6(n, k - 1), periodic=True)
                        out.append(Monomial(element, n, k, 2, c6=True))
    else:
        raise ValueError(f"module {module.value} has no periodic presentation")
    return sorted(out, key=lambda m: (m.stem, m.element.filtration, m.element.name))


# --- Δ⁸ extension ---

def _name_letter(element: Element) -> Optional[str]:
    """The x of an x_{i,j} name, which a Δ⁸ copy re-encodes, else None; a name
    that spells its own degree is read without the regex."""
    name = element.name
    letter = name[:1]
    if name == f"{letter}_{{{element.stem},{element.filtration}}}" and "a" <= letter <= "z":
        return letter
    m = NAME_CONVENTION.match(name)
    return m.group(1) if m else None


def _shifted_value(value: Value, shift) -> Value:
    """``value`` with each class of its span replaced by its copy ``shift(class)``;
    an empty span (the zero or the bare nonzero mark) keeps ``value``."""
    if not value.span:
        return value
    return Value.known(span_of(*map(shift, value.span)))


@acyclic
def delta8_extend(chart: ChartFile, copies: int) -> ChartFile:
    """``chart`` with a Δ⁸-shifted copy of every record for each k ≤ copies.

    The k-th copy of an element is 192k stems up in the same filtration, with
    the same order and prior-order-2 mark; an x_{i,j} name re-encodes the
    stem, another gains ·Δ⁸ k times, and the tmf name Δ⁸· k times.  Copies of
    ν-multiples are not marked as such and have Hurewicz flag false, unless a
    flag is already present.  The copies of the other records (``ranks``
    records at stem + 192k) refer to the shifted elements.  Each copy of a
    record list goes through the ``_ChartRecords`` method the loader uses, so
    it passes every check there and the constructors' own checks once; only
    the JSON-type checks of ``_records`` are skipped.  Each container holds
    the chart's records first, then copy 1, copy 2 and so on.  A copy equal to
    the record under its identity key, or an axiom equal to one present, is
    skipped; any other clash is a ``ChartValidationError``.
    """
    if copies < 0:
        raise ValueError("copies must be ≥ 0")
    if copies == 0:
        return chart

    records = _ChartRecords(chart)
    hurewicz = dict(chart.hurewicz)
    facts = chart.actions.facts()
    kept = [  # each element, its name's letter, and the order, tmf name and mark its copies keep
        (element, _name_letter(element), chart.orders.get(key), chart.tmf_names.get(key), key in chart.prior_order_two)
        for key, element in chart.elements.items()
    ]
    flags = [  # in element order, the flag of each flagged element's copies
        (element, chart.hurewicz[key] and key not in chart.nu_multiples)
        for key, element in chart.elements.items() if key in chart.hurewicz
    ]
    for k in range(1, copies + 1):
        where, prefix, up = f"Δ⁸ copy {k}", "Δ⁸·" * k, 192 * k
        shifted, rows = {}, []
        for element, letter, order, tmf_name, prior in kept:
            module, stem, filtration, name = element[:4]
            stem += up
            copy = shifted[element] = Element(
                module, stem, filtration, f"{letter}_{{{stem},{filtration}}}" if letter else name + "·Δ⁸" * k
            )
            rows.append((copy, order, tmf_name and prefix + tmf_name, False, prior))
        records.add_elements(rows, where)
        for element, flag in flags:
            hurewicz.setdefault(shifted[element].key, flag)
        shift = shifted.__getitem__
        records.add_actions([
            (fact.generator, shifted[fact.source], _shifted_value(fact.value, shift)) for fact in facts
        ], where)
        records.add_classifications([
            new_tuple(Classification, (shifted[element], context, kind))
            for element, context, kind in chart.classifications
        ], where)
        records.add_ranks([
            SesRecord(
                context, stem + up, [*map(shift, middle)],
                cokernel and [*map(shift, cokernel)], kernel and [*map(shift, kernel)],
            )
            for context, stem, middle, cokernel, kernel, _, _ in chart.ses_records
        ], where)
        records.add_axioms([
            new_tuple(MapAxiom, (map_name, shifted[source], _shifted_value(value, shift)))
            for map_name, source, value in chart.axioms
        ], where)
        records.add_overrides([
            ((shifted[chart.elements[row]].key, column), prefix + name)
            for (row, column), name in chart.tmf_name_overrides.items()
        ], where)
    return replace(chart, max_stem=chart.max_stem + 192 * copies, hurewicz=hurewicz, **records.fields())
