"""Spans and counters recorded from the benchmark's own files, around calls into les_deduce.

A span is ``[op, name, start, end, parent]``.  Call-site spans come from the
workload's op (``Tracer.call``); interior spans and counters come from
wrappers that ``Tracer.install`` puts on four names for the length of one
traced op and takes off again:

* each entry of ``rules.ALL_RULES``  a span per rule call, the number of
  emissions it returned, and how many of them added a new fact;
* ``FactStore.insert``               calls, calls that grew the store, and
  the rule the insert belongs to (the last rule to return inside saturate);
* ``families.fact_labels``           a span;
* the ``Element.key`` property       calls.

The real ``saturate`` runs the fixpoint, so each rule and pass gets its own
span.  When a wrapped name is gone, the metrics that depend on it are
reported as missing and the op still runs.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Set

RULE_NAMES = ("PERIODIC", "EXC", "T1", "T2", "T3", "T4", "LIN", "EXACT")

# Per-layer metrics the spans and counters give -> unit.  Times and counts
# are per traced op.
TRACED_UNITS: Dict[str, str] = {
    "chartdata.load_s": "s",
    "chartdata.delta8_extend_s": "s",
    "rules.saturate_s": "s",
    "rules.saturate_self_s": "s",
    "rules.passes": "count",
    **{
        f"rules.{r}.{m}": u
        for r in RULE_NAMES
        for m, u in (("s", "s"), ("emitted", "count"), ("new", "count"), ("useful", "ratio"))
    },
    "rules.fact_labels_s": "s",
    "families.build_table_s": "s",
    "families.emit_families_s": "s",
    "families.rows": "count",
    "sequences.check_all_s": "s",
    "sequences.junctions": "count",
    "sequences.undetermined": "count",
    "sequences.insert_calls": "count",
    "sequences.insert_new": "count",
    "sequences.facts": "count",
    "sequences.derivations": "count",
    "algebra.element_key_calls": "count",
}

# Metrics that need a wrapped attribute; reported as missing when it is gone.
_NEEDS = {
    "ALL_RULES": [f"rules.{r}.{m}" for r in RULE_NAMES for m in ("s", "emitted", "new", "useful")]
    + ["rules.passes", "rules.saturate_self_s"],
    "insert": ["sequences.insert_calls", "sequences.insert_new"]
    + [f"rules.{r}.{m}" for r in RULE_NAMES for m in ("new", "useful")],
    "fact_labels": ["rules.fact_labels_s"],
    "key": ["algebra.element_key_calls"],
}


class Tracer:
    def __init__(self, engine) -> None:
        self.engine = engine
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans: List[list] = []
        self._open: List[int] = []
        self.op = -1
        self.ops = 0
        self.counts: Counter = Counter()
        self.missing: Set[str] = set()
        self._rule: Optional[str] = None
        self._restore: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        span = [self.op, name_id, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        self._rule = None  # inserts before the next rule returns belong to no rule
        span[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self._open.pop()

    # -- wrappers ----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        """Install the interior wrappers for one traced op."""
        self.op = op
        self.ops += 1
        e = self.engine
        self._patch(e.rules, "ALL_RULES", self._wrap_rules)
        self._patch(getattr(e.sequences, "FactStore", None), "insert", self._wrap_insert)
        self._patch(e.families, "fact_labels",
                    lambda fn: lambda *a, **k: self.call("rules.fact_labels", fn, *a, **k))
        self._patch(getattr(e.algebra, "Element", None), "key", self._wrap_key)

    def end_op(self, output_counts: Dict[str, int]) -> None:
        """Remove the wrappers and add the op's output sizes to the counters."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self.counts.update(output_counts)

    def _patch(self, owner, attr: str, wrap) -> None:
        original = owner.__dict__.get(attr) if owner is not None else None
        wrapped = wrap(original) if original is not None else None
        if wrapped is None:
            self.missing.update(_NEEDS[attr])
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap_rules(self, rules):
        def wrap(name, fn):
            span_name = f"rules.{name}"

            def traced(*args, **kwargs):
                out = self.call(span_name, fn, *args, **kwargs)
                self.counts[f"{span_name}.emitted"] += len(out)
                self._rule = name
                return out
            return traced
        present = {name for name, _ in rules}
        self.missing.update(f"rules.{r}.{m}" for r in RULE_NAMES if r not in present
                            for m in ("s", "emitted", "new", "useful"))
        return tuple((name, wrap(name, fn)) for name, fn in rules)

    def _wrap_insert(self, insert):
        counts = self.counts

        def traced(store, *args, **kwargs):
            before = len(store.facts)
            grew = insert(store, *args, **kwargs)
            counts["sequences.insert_calls"] += 1
            if grew:
                counts["sequences.insert_new"] += 1
            if self._rule is not None and len(store.facts) > before:
                counts[f"rules.{self._rule}.new"] += 1
            return grew
        return traced

    def _wrap_key(self, prop):
        if not isinstance(prop, property):
            return None
        fget, counts = prop.fget, self.counts

        def key(element):
            counts["algebra.element_key_calls"] += 1
            return fget(element)
        return property(key)

    # -- results -----------------------------------------------------------

    def times(self):
        """Inclusive and self time per span name, summed over all traced ops."""
        inclusive: Dict[str, float] = defaultdict(float)
        child: List[float] = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        own: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            name = self.names[span[1]]
            inclusive[name] += span[3] - span[2]
            own[name] += span[3] - span[2] - child[index]
        return inclusive, own

    def passes(self) -> List[float]:
        """Fixpoint passes of each saturate call: rule calls over distinct rules."""
        saturate_id = self._ids.get("rules.saturate")
        rule_calls: Dict[int, list] = defaultdict(list)
        for span in self.spans:
            if span[4] >= 0 and self.spans[span[4]][1] == saturate_id:
                rule_calls[span[4]].append(span[1])
        return [len(ids) / len(set(ids)) for ids in rule_calls.values()]

    def per_layer(self) -> Dict[str, float]:
        n = max(self.ops, 1)
        inclusive, own = self.times()
        out: Dict[str, float] = {}
        for metric in TRACED_UNITS:
            if metric.endswith(("_s", ".s")):  # time in the span named by the rest
                out[metric] = inclusive.get(metric[:-2], 0.0) / n
            else:
                out[metric] = self.counts.get(metric, 0) / n
        for r in RULE_NAMES:
            emitted = self.counts.get(f"rules.{r}.emitted", 0)
            out[f"rules.{r}.useful"] = self.counts.get(f"rules.{r}.new", 0) / emitted if emitted else 0.0
        out["rules.saturate_self_s"] = own.get("rules.saturate", 0.0) / n
        passes = self.passes()
        out["rules.passes"] = statistics.fmean(passes) if passes else 0.0
        for metric in self.missing:
            out.pop(metric, None)
        return out

    def write(self, path: Path, summary: dict) -> None:
        """Write every span (times in µs from the first span) and the summary."""
        t0 = self.spans[0][2] if self.spans else 0.0
        inclusive, own = self.times()
        doc = {
            **summary,
            "traced_ops": self.ops,
            "span_fields": ["op", "name", "start_us", "end_us", "parent"],
            "names": self.names,
            "inclusive_s": dict(sorted(inclusive.items())),
            "self_s": dict(sorted(own.items())),
            "spans": [
                [s[0], s[1], round((s[2] - t0) * 1e6), round((s[3] - t0) * 1e6), s[4]]
                for s in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":"), ensure_ascii=False) + "\n",
                        encoding="utf-8")
