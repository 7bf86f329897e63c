"""Graded F2 substrate: chart elements, spans, and partial ring-generator actions.

Everything downstream computes over the objects defined here.  An element is a
named basis class of one of four graded F2-modules at a fixed (stem,
filtration); a span is a formal F2 sum of elements sharing a (module, stem);
knowledge about a map or action value is three-valued (known span / known
nonzero / unknown).  ``Value`` holds the first two states, and it is the one
encoding of a value the chart gives, whether a generator product
(``ActionFact``) or a map value (``chartdata.MapAxiom``); a missing entry is
unknown.  Elements are representatives up to strictly higher
filtration in the same bidegree, so span equality has a "modulo higher
filtration" refinement used when merging independently derived values.

Every immutable record of the package is a ``typing.NamedTuple``, so its
hash, equality and order are the tuple's own.  A record whose constructor
checks or derives fields (``Element``, ``RingGenerator``, ``ActionFact``
here, ``chartdata.SesRecord``) is a subclass of its fields' named tuple with
a ``__new__`` that checks, then builds the tuple; derived fields come last,
and ``_replace`` goes through that constructor too (``checked_replace``).
"""

from __future__ import annotations

import re
from enum import Enum
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple


class ModuleId(str, Enum):
    """The four module tags: sphere-level, Moore, Y, and the type-2 complex."""

    S = "S"
    M = "M"
    Y = "Y"
    A1 = "A1"


class DegreeMismatchError(ValueError):
    """Raised when combining spans or actions across incompatible bidegrees."""


class UndefinedFloorError(ValueError):
    """Raised when asking for the filtration floor of the zero span."""


_NAME_CONVENTION = re.compile(r"^[a-z]_\{(-?\d+),(-?\d+)\}$")

new_tuple = tuple.__new__  # builds a named tuple without its constructor


def checked_replace(self, **changes):
    """``_replace`` for a record whose constructor checks or derives fields,
    and ``__replace__`` (``copy.replace``, Python 3.13+), which would bypass
    it too: the copy is built by that constructor, from the first ``_takes``
    fields (the ones it takes) with ``changes``, so a derived field follows
    and cannot be set."""
    return type(self)(**{**dict(zip(self._fields, self[: self._takes])), **changes})


def checked_newargs(self) -> tuple:
    """What ``copy`` and ``pickle`` pass the constructor: the fields it takes."""
    return self[: self._takes]


class _ElementFields(NamedTuple):
    module: ModuleId
    stem: int
    filtration: int
    name: str
    periodic: bool
    key: str  # "MODULE:name", derived; last, so it never decides an order


class Element(_ElementFields):
    """A named basis class at a fixed (stem, filtration) of one module.

    ``periodic`` marks monomials generated from a periodic-part presentation;
    they never participate in exactness checking or table emission.  The key
    is a field, derived from the module and the name when the element is
    built; the hash is the tuple's, and elements sort by (module, stem,
    filtration, name, periodic).
    """

    __slots__ = ()
    _takes = 5

    def __new__(
        cls, module: ModuleId, stem: int, filtration: int, name: str, periodic: bool = False
    ) -> "Element":
        return new_tuple(cls, (module, stem, filtration, name, periodic, f"{module._value_}:{name}"))

    # A property over the key field rather than the field's own descriptor,
    # so that a profiler can count key reads by wrapping it
    # (``perfbench/spans.py`` does).
    key = property(itemgetter(5), doc="The element's key, ``MODULE:name``.")
    _replace = __replace__ = checked_replace
    __getnewargs__ = checked_newargs

    def check_name_convention(self) -> None:
        """Names of the form x_{i,j} must encode stem i and filtration j."""
        m = _NAME_CONVENTION.match(self.name)
        if m and (int(m.group(1)) != self.stem or int(m.group(2)) != self.filtration):
            raise ValueError(
                f"element {self.key} has stem/filtration ({self.stem},{self.filtration}) "
                f"inconsistent with its name"
            )

    def __str__(self) -> str:
        return self.key


F2Span = FrozenSet[Element]

ZERO: F2Span = frozenset()


def span_of(*elements: Element) -> F2Span:
    span = frozenset(elements)
    _check_homogeneous(span)
    return span


def _check_homogeneous(span: F2Span) -> None:
    degrees = {(e.module, e.stem) for e in span}
    if len(degrees) > 1:
        raise DegreeMismatchError(f"span mixes bidegrees: {sorted(str(e) for e in span)}")


def span_add(a: F2Span, b: F2Span) -> F2Span:
    """F2 addition of spans: symmetric difference.  Zero is the empty span."""
    if a and b:
        da = next(iter(a))
        db = next(iter(b))
        if (da.module, da.stem) != (db.module, db.stem):
            raise DegreeMismatchError(
                f"cannot add spans in ({da.module.value},{da.stem}) and ({db.module.value},{db.stem})"
            )
    return a ^ b


def filtration_floor(span: F2Span) -> int:
    """Minimum filtration among members; undefined for the zero span."""
    if not span:
        raise UndefinedFloorError("zero span has no filtration floor")
    return min(e.filtration for e in span)


def span_key(span: F2Span) -> str:
    """Canonical serialization, used for ordering and byte-stable output."""
    return "+".join(sorted(e.key for e in span)) if span else "0"


GENERATOR_STEMS = {
    "η": 1,
    "ν": 3,
    "κ": 14,
    "κ̄": 20,
    "c₄": 8,
    "c₆": 12,
    "Δ": 24,
    "Δ⁸": 192,
    "v₁": 2,
    "2": 0,
}

KAPPA_BAR = "κ̄"


class _RingGeneratorFields(NamedTuple):
    name: str
    stem_degree: int
    filtration_degree: int


class RingGenerator(_RingGeneratorFields):
    """A tmf ring generator acting on the charts.

    Stem degrees are fixed; filtration degrees ship with the dataset except
    for κ̄, whose filtration degree is pinned to 4.
    """

    __slots__ = ()
    _takes = 3

    def __new__(cls, name: str, stem_degree: int, filtration_degree: int) -> "RingGenerator":
        if name not in GENERATOR_STEMS:
            raise ValueError(f"unknown ring generator {name!r}")
        if stem_degree != GENERATOR_STEMS[name]:
            raise ValueError(
                f"generator {name} must have stem degree {GENERATOR_STEMS[name]}, "
                f"got {stem_degree}"
            )
        if name == KAPPA_BAR and filtration_degree != 4:
            raise ValueError("κ̄ must have filtration degree 4")
        return new_tuple(cls, (name, stem_degree, filtration_degree))

    _replace = __replace__ = checked_replace


class ValueState(str, Enum):
    KNOWN = "known"
    NONZERO = "nonzeroUnknown"


# Module-level aliases: a global read is much cheaper than an Enum class
# attribute lookup, and the state tests run once per fact.
_KNOWN = ValueState.KNOWN
_NONZERO = ValueState.NONZERO


class Value(NamedTuple):
    """Knowledge about a map or action value.  Absence of a Value is 'unknown'.

    ``known`` with an empty span is the known-zero state; a nonzero-unknown
    value has the empty span too, so a one-class span is always known.
    ``zero()`` and ``nonzero_unknown()`` return one shared instance each, and
    ``known`` builds the tuple directly.
    """

    state: ValueState
    span: F2Span = ZERO

    @staticmethod
    def known(span: F2Span) -> "Value":
        return new_tuple(Value, (_KNOWN, span))

    @staticmethod
    def zero() -> "Value":
        return _ZERO_VALUE

    @staticmethod
    def nonzero_unknown() -> "Value":
        return _NONZERO_VALUE

    @property
    def is_known(self) -> bool:
        return self.state is _KNOWN

    @property
    def is_zero(self) -> bool:
        return self.state is _KNOWN and not self.span

    @property
    def is_known_nonzero(self) -> bool:
        return self.state is _KNOWN and bool(self.span)

    def serialize(self) -> str:
        if self.state is _NONZERO:
            return "nonzero"
        return span_key(self.span)

    def __str__(self) -> str:
        return self.serialize()


_ZERO_VALUE = Value(_KNOWN, ZERO)
_NONZERO_VALUE = Value(_NONZERO)


def values_equal_mod_higher(a: Value, b: Value) -> bool:
    """Equality of known values modulo spans of strictly higher filtration.

    Two known nonzero spans agree when their difference sits strictly above
    both floors; a representative is only pinned up to such corrections.
    Known-zero never merges with a nonzero span.
    """
    if a.state is not _KNOWN or b.state is not _KNOWN:
        return False
    diff = span_add(a.span, b.span)
    if not diff:
        return True
    if not a.span or not b.span:
        return False
    return filtration_floor(diff) > min(filtration_floor(a.span), filtration_floor(b.span))


class _ActionFactFields(NamedTuple):
    generator: RingGenerator
    source: Element
    value: Value


class ActionFact(_ActionFactFields):
    """The recorded value of one generator multiplication on one element.

    ``value`` is a known span (possibly zero), or nonzero-unknown when the
    chart literature pins no target class; only a known nonzero span has
    degrees to check.
    """

    __slots__ = ()
    _takes = 3

    def __new__(cls, generator: RingGenerator, source: Element, value: Value) -> "ActionFact":
        if value.state is _KNOWN and value.span:
            span = value.span
            target = next(iter(span))
            if target.stem != source.stem + generator.stem_degree:
                raise DegreeMismatchError(
                    f"{generator.name}·{source} lands in stem "
                    f"{source.stem + generator.stem_degree}, got stem {target.stem}"
                )
            if target.module != source.module:
                raise DegreeMismatchError(
                    f"{generator.name}·{source} must stay in module {source.module.value}"
                )
            floor = filtration_floor(span)
            need = source.filtration + generator.filtration_degree
            if floor < need:
                raise ValueError(
                    f"action {generator.name}·{source} has filtration floor {floor} < {need}"
                )
        return new_tuple(cls, (generator, source, value))

    _replace = __replace__ = checked_replace


# One entry of the push plan: an action g·x = t with one-element value, its
# target t and the label "g·x" that provenance cites it by.
Push = Tuple[ActionFact, Element, str]


class ActionTable:
    """Partial generator-action data with a linear-extension query.

    The sorted fact list and the push plan (``single_valued``) are built on
    first use and dropped by ``add``.
    """

    def __init__(self, facts: Iterable[ActionFact] = ()) -> None:
        self._facts: dict[tuple[str, str], ActionFact] = {}
        self._sorted: Optional[List[ActionFact]] = None
        self._pushes: Optional[Dict[str, Tuple[Push, ...]]] = None
        for fact in facts:
            self.add(fact)

    def add(self, fact: ActionFact) -> None:
        key = (fact.generator.name, fact.source.key)
        existing = self._facts.get(key)
        if existing is not None and existing != fact:
            raise ValueError(f"conflicting action facts for {fact.generator.name}·{fact.source}")
        self._facts[key] = fact
        self._sorted = self._pushes = None

    def get(self, generator_name: str, source: Element) -> Optional[ActionFact]:
        return self._facts.get((generator_name, source.key))

    def copy(self) -> "ActionTable":
        """A table holding the same facts, which ``add`` can extend apart."""
        table = ActionTable()
        table._facts = dict(self._facts)
        return table

    def facts(self) -> list[ActionFact]:
        if self._sorted is None:
            self._sorted = sorted(
                self._facts.values(), key=lambda f: (f.generator.name, f.source.key)
            )
        return list(self._sorted)

    def single_valued(self) -> Dict[str, Tuple[Push, ...]]:
        """The push plan: source key → the actions on that source whose value
        is one element, by generator name, each as (fact, its target, the
        provenance label ``g·x``)."""
        if self._pushes is None:
            pushes: Dict[str, List[Push]] = {}
            for fact in self.facts():
                if len(fact.value.span) == 1:
                    (target,) = fact.value.span
                    source = fact.source.key
                    pushes.setdefault(source, []).append((fact, target, f"{fact.generator.name}·{source}"))
            self._pushes = {key: tuple(plan) for key, plan in pushes.items()}
        return self._pushes

    def act(self, generator_name: str, span: F2Span) -> Optional[Value]:
        """Linear extension of recorded actions to spans.

        Returns a known Value (possibly zero), nonzero-unknown when a single
        term is known only to be nonzero, or None when any term is missing.
        """
        if not span:
            return Value.zero()
        total: F2Span = ZERO
        saw_nonzero_unknown = False
        for element in sorted(span):
            fact = self._facts.get((generator_name, element.key))
            if fact is None:
                return None
            if fact.value.is_known:
                total = span_add(total, fact.value.span)
            else:
                saw_nonzero_unknown = True
        if saw_nonzero_unknown:
            # A nonzero-unknown term blocks cancellation bookkeeping entirely
            # unless it is the only term.
            if len(span) == 1:
                return Value.nonzero_unknown()
            return None
        return Value.known(total)


class ClassificationKind(str, Enum):
    TORSION = "torsion"
    PERIODIC_EXCEPTIONAL = "periodicExceptional"
    PERIODIC_NONEXCEPTIONAL = "periodicNonexceptional"


class LesContext(str, Enum):
    """Which inclusion map a periodic element is exceptional for."""

    LES_23 = "LES-2.3"
    LES_24 = "LES-2.4"


class Classification(NamedTuple):
    element: Element
    context: LesContext
    kind: ClassificationKind
