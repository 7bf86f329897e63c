"""Graded F2 substrate: chart elements, spans, and partial ring-generator actions.

Everything downstream computes over the objects defined here.  An element is a
named basis class of one of four graded F2-modules at a fixed (stem,
filtration); a span is a formal F2 sum of elements sharing a (module, stem);
knowledge about a map or action value is three-valued (known span / known
nonzero / unknown).  Elements are representatives up to strictly higher
filtration in the same bidegree, so span equality has a "modulo higher
filtration" refinement used when merging independently derived values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple


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


@dataclass(frozen=True, order=True)
class Element:
    """A named basis class at a fixed (stem, filtration) of one module.

    ``periodic`` marks monomials generated from a periodic-part presentation;
    they never participate in exactness checking or table emission.
    """

    module: ModuleId
    stem: int
    filtration: int
    name: str
    periodic: bool = False
    _key: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", f"{self.module.value}:{self.name}")

    @property
    def key(self) -> str:
        return self._key

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
V1 = "v₁"
DELTA8 = "Δ⁸"


@dataclass(frozen=True)
class RingGenerator:
    """A tmf ring generator acting on the charts.

    Stem degrees are fixed; filtration degrees ship with the dataset except
    for κ̄, whose filtration degree is pinned to 4.
    """

    name: str
    stem_degree: int
    filtration_degree: int

    def __post_init__(self) -> None:
        if self.name not in GENERATOR_STEMS:
            raise ValueError(f"unknown ring generator {self.name!r}")
        if self.stem_degree != GENERATOR_STEMS[self.name]:
            raise ValueError(
                f"generator {self.name} must have stem degree {GENERATOR_STEMS[self.name]}, "
                f"got {self.stem_degree}"
            )
        if self.name == KAPPA_BAR and self.filtration_degree != 4:
            raise ValueError("κ̄ must have filtration degree 4")


class ValueState(str, Enum):
    KNOWN = "known"
    NONZERO = "nonzeroUnknown"


@dataclass(frozen=True)
class Value:
    """Knowledge about a map or action value.  Absence of a Value is 'unknown'.

    ``known`` with an empty span is the known-zero state.
    """

    state: ValueState
    span: F2Span = ZERO

    @staticmethod
    def known(span: F2Span) -> "Value":
        return Value(ValueState.KNOWN, span)

    @staticmethod
    def zero() -> "Value":
        return Value(ValueState.KNOWN, ZERO)

    @staticmethod
    def nonzero_unknown() -> "Value":
        return Value(ValueState.NONZERO)

    @property
    def is_known(self) -> bool:
        return self.state is ValueState.KNOWN

    @property
    def is_zero(self) -> bool:
        return self.state is ValueState.KNOWN and not self.span

    @property
    def is_known_nonzero(self) -> bool:
        return self.state is ValueState.KNOWN and bool(self.span)

    def serialize(self) -> str:
        if self.state is ValueState.NONZERO:
            return "nonzero"
        return span_key(self.span)

    def __str__(self) -> str:
        return self.serialize()


def values_equal_mod_higher(a: Value, b: Value) -> bool:
    """Equality of known values modulo spans of strictly higher filtration.

    Two known nonzero spans agree when their difference sits strictly above
    both floors; a representative is only pinned up to such corrections.
    Known-zero never merges with a nonzero span.
    """
    if a.state is not ValueState.KNOWN or b.state is not ValueState.KNOWN:
        return False
    diff = span_add(a.span, b.span)
    if not diff:
        return True
    if not a.span or not b.span:
        return False
    return filtration_floor(diff) > min(filtration_floor(a.span), filtration_floor(b.span))


@dataclass(frozen=True)
class ActionFact:
    """The recorded value of one generator multiplication on one element.

    ``value`` is a span (possibly zero); alternatively ``nonzero`` records
    mere nonzeroness when the chart literature pins no target class.
    """

    generator: RingGenerator
    source: Element
    value: Optional[F2Span] = None
    nonzero: bool = False

    def __post_init__(self) -> None:
        if (self.value is None) == (not self.nonzero):
            raise ValueError("action fact needs exactly one of a value span or a nonzero mark")
        if self.value:
            target = next(iter(self.value))
            if target.stem != self.source.stem + self.generator.stem_degree:
                raise DegreeMismatchError(
                    f"{self.generator.name}·{self.source} lands in stem "
                    f"{self.source.stem + self.generator.stem_degree}, got stem {target.stem}"
                )
            if target.module != self.source.module:
                raise DegreeMismatchError(
                    f"{self.generator.name}·{self.source} must stay in module {self.source.module.value}"
                )
            floor = filtration_floor(self.value)
            need = self.source.filtration + self.generator.filtration_degree
            if floor < need:
                raise ValueError(
                    f"action {self.generator.name}·{self.source} has filtration floor {floor} < {need}"
                )

    def as_value(self) -> Value:
        if self.value is not None:
            return Value.known(self.value)
        return Value.nonzero_unknown()


class ActionTable:
    """Partial generator-action data with a linear-extension query.

    The sorted fact list and the reverse index (single target → actions) are
    built on first use and dropped by ``add``.
    """

    def __init__(self, facts: Iterable[ActionFact] = ()) -> None:
        self._facts: dict[tuple[str, str], ActionFact] = {}
        self._sorted: Optional[List[ActionFact]] = None
        self._landing: Optional[Dict[Element, Tuple[ActionFact, ...]]] = None
        for fact in facts:
            self.add(fact)

    def add(self, fact: ActionFact) -> None:
        key = (fact.generator.name, fact.source.key)
        existing = self._facts.get(key)
        if existing is not None and existing != fact:
            raise ValueError(f"conflicting action facts for {fact.generator.name}·{fact.source}")
        self._facts[key] = fact
        self._sorted = self._landing = None

    def get(self, generator_name: str, source: Element) -> Optional[ActionFact]:
        return self._facts.get((generator_name, source.key))

    def facts(self) -> list[ActionFact]:
        if self._sorted is None:
            self._sorted = sorted(
                self._facts.values(), key=lambda f: (f.generator.name, f.source.key)
            )
        return list(self._sorted)

    def landing_on(self, target: Element) -> Tuple[ActionFact, ...]:
        """Actions whose value is exactly ``target``, in ``facts()`` order."""
        if self._landing is None:
            landing: Dict[Element, List[ActionFact]] = {}
            for fact in self.facts():
                if fact.value is not None and len(fact.value) == 1:
                    landing.setdefault(next(iter(fact.value)), []).append(fact)
            self._landing = {target: tuple(facts) for target, facts in landing.items()}
        return self._landing.get(target, ())

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
            if fact.value is None:
                saw_nonzero_unknown = True
            else:
                total = span_add(total, fact.value)
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


@dataclass(frozen=True)
class Classification:
    element: Element
    context: LesContext
    kind: ClassificationKind
