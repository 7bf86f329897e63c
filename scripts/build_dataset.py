#!/usr/bin/env python3
"""Regenerate data/tmf_chart.json, the shipped chart dataset.

The deduction targets (projection values, lifts) are never written into the
dataset; the engine must derive them.  What ships is the chart data the
derivations consume:

* the element inventory (table classes plus the handful of companion classes
  the short-exact shapes need, with filtrations encoded in the names);
* v₁ actions on the Y-classes (zero exactly on the image of p₃) and the κ̄
  actions that drive every linearity step;
* per-degree bases of the derived short exact sequences in both the Y-level
  and sphere-level contexts (kernel [] is a known rank-0 assertion, null is
  unknown);
* element orders, Hurewicz flags, display names, exceptional listings, and
  two map axioms read off the charts (one feeds the extended-linearity
  argument at degree 50, one resolves the degree-54 junction where no
  filtration argument can decide).

Companion classes and their filtrations are constrained, not copied: each is
pinned by the shape guards of the technique that must fire at its degree.
The ring generators' degrees and the periodic-part presentations are facts
about tmf, not chart data, so the engine holds them and nothing here states
them.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tests"))
sys.path.insert(0, str(REPO / "src"))

from golden_table import ROWS  # noqa: E402
from les_deduce import chartdata  # noqa: E402

OUT = REPO / "data" / "tmf_chart.json"

# Companion classes not visible in the table: second torsion generators of
# middles, cokernel generators, and the sphere-level 2-torsion classes that
# populate kernels at degrees the table never displays.
EXTRA_Y = ["y_{20,4}", "y_{30,2}", "y_{35,5}", "y_{55,9}", "y_{56,6}", "y_{57,3}", "y_{68,4}", "y_{108,2}"]
EXTRA_M = [
    "m_{9,1}", "m_{20,4}", "m_{21,5}", "m_{28,6}", "m_{33,1}", "m_{35,5}",
    "m_{42,8}", "m_{45,5}", "m_{50,6}", "m_{54,6}", "m_{55,3}", "m_{55,9}",
    "m_{60,7}", "m_{66,10}", "m_{71,5}", "m_{106,2}", "m_{117,5}", "m_{122,6}",
]
EXTRA_S = ["s_{3,1}", "s_{8,2}", "s_{21,5}", "s_{32,2}", "s_{41,9}", "s_{59,7}", "s_{66,10}", "s_{117,5}"]

# κ̄ multiplications (value filtration = source + 4 throughout).
KBAR_ON_Y = [
    ("y_{30,2}", "y_{50,6}"), ("y_{50,6}", "y_{70,10}"),
    ("y_{62,2}", "y_{82,6}"), ("y_{82,6}", "y_{102,10}"),
    ("y_{83,3}", "y_{103,7}"), ("y_{93,3}", "y_{113,7}"), ("y_{98,4}", "y_{118,8}"),
    ("y_{108,10}", "y_{128,14}"), ("y_{113,7}", "y_{133,11}"), ("y_{118,8}", "y_{138,12}"),
    ("y_{122,14}", "y_{142,18}"), ("y_{128,14}", "y_{148,18}"), ("y_{133,11}", "y_{153,15}"),
    ("y_{138,12}", "y_{158,16}"), ("y_{148,18}", "y_{168,22}"),
    ("y_{65,13}", "y_{85,17}"), ("y_{76,10}", "y_{96,14}"), ("y_{81,11}", "y_{101,15}"),
    ("y_{85,17}", "y_{105,21}"), ("y_{86,12}", "y_{106,16}"), ("y_{91,13}", "y_{111,17}"),
    ("y_{96,14}", "y_{116,18}"), ("y_{97,9}", "y_{117,13}"), ("y_{112,12}", "y_{132,16}"),
    ("y_{117,13}", "y_{137,17}"), ("y_{123,11}", "y_{143,15}"),
]
KBAR_ON_M = [
    ("m_{33,3}", "m_{53,7}"), ("m_{48,6}", "m_{68,10}"), ("m_{60,12}", "m_{80,16}"),
    ("m_{80,16}", "m_{100,20}"), ("m_{81,3}", "m_{101,7}"), ("m_{86,12}", "m_{106,16}"),
    ("m_{91,9}", "m_{111,13}"), ("m_{96,6}", "m_{116,10}"), ("m_{105,17}", "m_{125,21}"),
    ("m_{106,16}", "m_{126,20}"), ("m_{111,13}", "m_{131,17}"), ("m_{116,10}", "m_{136,14}"),
    ("m_{131,17}", "m_{151,21}"), ("m_{136,14}", "m_{156,18}"),
    ("m_{126,20}", None),  # κ̄·m_{126,20} dies: stem 146 carries no torsion class
]
KBAR_ON_S = [
    ("s_{33,3}", "s_{53,7}"), ("s_{48,0}", "s_{68,4}"), ("s_{80,16}", "s_{100,20}"),
    ("s_{85,13}", "s_{105,17}"), ("s_{90,10}", "s_{110,14}"), ("s_{96,0}", "s_{116,4}"),
    ("s_{105,17}", "s_{125,21}"), ("s_{110,14}", "s_{130,18}"), ("s_{116,4}", "s_{136,8}"),
    ("s_{130,18}", "s_{150,22}"), ("s_{136,8}", "s_{156,12}"),
]

# Derived-SES bases for the Y-level sequence, keyed by the middle stem.
# (cokernel, middle, kernel); None = unknown, [] = known rank 0.
SES_28 = {
    3: (None, ["y_{3,1}"], []),
    6: (None, ["y_{6,2}"], []),
    8: ([], ["y_{8,2}"], ["m_{6,2}"]),
    11: ([], ["y_{11,3}"], ["m_{9,3}"]),
    14: (None, ["y_{14,2}"], []),
    18: (None, ["y_{18,2}"], []),
    20: (["m_{20,4}"], ["y_{20,2}", "y_{20,4}"], ["m_{18,2}"]),
    21: (None, ["y_{21,3}"], []),
    23: ([], ["y_{23,3}"], ["m_{21,3}"]),
    26: ([], ["y_{26,4}"], ["m_{24,6}"]),
    29: (None, ["y_{29,5}"], []),
    34: (None, ["y_{34,6}"], []),
    35: (["m_{35,5}"], ["y_{35,3}", "y_{35,5}"], ["m_{33,3}"]),
    39: (None, ["y_{39,7}"], []),
    40: (None, ["y_{40,6}"], []),
    44: ([], ["y_{44,8}"], ["m_{42,10}"]),
    45: (["m_{45,5}"], ["y_{45,3}", "y_{45,9}"], ["m_{43,9}"]),
    50: (["m_{50,6}"], ["y_{50,4}", "y_{50,6}"], ["m_{48,6}"]),
    51: (None, ["y_{51,1}"], []),
    54: (None, ["y_{54,2}"], []),
    55: (["m_{55,9}"], ["y_{55,7}", "y_{55,9}"], ["m_{53,7}"]),
    56: ([], ["y_{56,2}", "y_{56,6}"], ["m_{54,2}", "m_{54,6}"]),
    57: (None, ["y_{57,3}", "y_{57,11}"], ["m_{55,3}"]),
    59: ([], ["y_{59,3}"], ["m_{57,3}"]),
    60: (None, ["y_{60,10}", "y_{60,12}"], []),
    62: ([], ["y_{62,2}"], ["m_{60,12}"]),
    65: (None, ["y_{65,7}", "y_{65,13}"], []),
    66: (None, ["y_{66,2}"], []),
    68: ([], ["y_{68,2}", "y_{68,4}"], ["m_{66,2}", "m_{66,10}"]),
    69: (None, ["y_{69,3}"], []),
    70: (None, ["y_{70,8}", "y_{70,10}"], ["m_{68,10}"]),
    71: (["m_{71,5}"], ["y_{71,3}", "y_{71,9}"], ["m_{69,3}"]),
    74: ([], ["y_{74,4}"], ["m_{72,6}"]),
    75: (None, ["y_{75,13}"], []),
    76: (None, ["y_{76,10}"], []),
    77: ([], ["y_{77,5}"], ["m_{75,13}"]),
    80: (None, ["y_{80,16}"], []),
    81: (None, ["y_{81,11}"], []),
    83: ([], ["y_{83,3}"], ["m_{81,3}"]),
    86: (None, ["y_{86,12}"], []),
    87: ([], ["y_{87,7}"], ["m_{85,13}"]),
    88: ([], ["y_{88,6}"], ["m_{86,12}"]),
    90: (None, ["y_{90,14}"], []),
    91: (None, ["y_{91,13}"], []),
    92: ([], ["y_{92,8}"], ["m_{90,10}"]),
    93: ([], ["y_{93,3}"], ["m_{91,9}"]),
    97: (None, ["y_{97,9}"], []),
    98: ([], ["y_{98,4}"], ["m_{96,6}"]),
    102: (None, ["y_{102,2}", "y_{102,10}"], ["m_{100,20}"]),
    107: ([], ["y_{107,3}", "y_{107,11}"], ["m_{105,3}", "m_{105,17}"]),
    108: ([], ["y_{108,2}", "y_{108,10}"], ["m_{106,2}", "m_{106,16}"]),
    112: (None, ["y_{112,12}"], []),
    117: (None, ["y_{117,3}", "y_{117,13}"], []),
    119: ([], ["y_{119,3}"], ["m_{117,3}"]),
    122: (["m_{122,6}"], ["y_{122,4}", "y_{122,14}"], ["m_{120,6}"]),
    123: (None, ["y_{123,11}"], []),
    127: ([], ["y_{127,15}"], ["m_{125,21}"]),
    150: (None, ["y_{150,2}"], []),
    153: (None, ["y_{153,11}", "y_{153,15}"], ["m_{151,21}"]),
    155: ([], ["y_{155,3}"], ["m_{153,3}"]),
    161: (None, ["y_{161,7}"], []),
    165: (None, ["y_{165,3}"], []),
    167: ([], ["y_{167,3}"], ["m_{165,3}"]),
    170: ([], ["y_{170,4}"], ["m_{168,6}"]),
}

# Sphere-level sequence, keyed by the middle (Moore) stem.
SES_29 = {
    6: (["s_{6,2}"], ["m_{6,2}"], []),
    9: (["s_{9,3}"], ["m_{9,1}", "m_{9,3}"], ["s_{8,2}"]),
    18: ([], ["m_{18,2}"], ["s_{17,2}"]),
    21: (["s_{21,5}"], ["m_{21,3}", "m_{21,5}"], ["s_{20,4}"]),
    24: (["s_{24,0}"], ["m_{24,6}"], []),
    33: (["s_{33,3}"], ["m_{33,1}", "m_{33,3}"], ["s_{32,2}"]),
    42: (["s_{42,10}"], ["m_{42,8}", "m_{42,10}"], ["s_{41,9}"]),
    43: ([], ["m_{43,9}"], ["s_{42,10}"]),
    48: (["s_{48,0}"], ["m_{48,6}"], []),
    54: (["s_{54,2}"], ["m_{54,2}", "m_{54,6}"], ["s_{53,7}"]),
    57: (["s_{57,3}"], ["m_{57,3}"], []),
    60: (["s_{60,12}"], ["m_{60,7}", "m_{60,12}"], ["s_{59,7}"]),
    66: (["s_{66,10}"], ["m_{66,2}", "m_{66,10}"], ["s_{65,3}"]),
    69: ([], ["m_{69,3}"], ["s_{68,4}"]),
    72: (["s_{72,0}"], ["m_{72,6}"], []),
    75: (["s_{75,3}"], ["m_{75,13}"], []),
    80: (["s_{80,16}"], ["m_{80,16}"], []),
    81: ([], ["m_{81,3}"], ["s_{80,16}"]),
    85: (["s_{85,13}"], ["m_{85,13}"], []),
    86: ([], ["m_{86,12}"], ["s_{85,13}"]),
    90: (["s_{90,10}"], ["m_{90,10}"], []),
    91: ([], ["m_{91,9}"], ["s_{90,10}"]),
    96: (["s_{96,0}"], ["m_{96,6}"], []),
    105: (["s_{105,3}", "s_{105,17}"], ["m_{105,3}", "m_{105,17}"], []),
    117: (["s_{117,5}"], ["m_{117,3}", "m_{117,5}"], ["s_{116,4}"]),
    120: (["s_{120,0}"], ["m_{120,6}"], []),
    153: (["s_{153,3}"], ["m_{153,3}"], []),
    165: ([], ["m_{165,3}"], ["s_{164,4}"]),
    168: (["s_{168,0}"], ["m_{168,6}"], []),
}

# Sphere classes that are torsion free modulo the displayed multiple.
INFINITE_ORDER = ["s_{24,0}", "s_{48,0}", "s_{72,0}", "s_{96,0}", "s_{120,0}", "s_{168,0}"]
ORDER_EIGHT = ["s_{3,1}"]
ORDER_FOUR = ["s_{54,2}"]

# Sphere classes outside the Hurewicz image.
HUREWICZ_FALSE = [
    "s_{24,0}", "s_{48,0}", "s_{72,0}", "s_{75,3}", "s_{96,0}", "s_{120,0}", "s_{168,0}",
    # companion classes never hit by the unit map
    "s_{8,2}", "s_{21,5}", "s_{32,2}", "s_{41,9}", "s_{59,7}", "s_{66,10}", "s_{117,5}",
]

# Images whose simple 2-torsion was already recorded in the earlier
# literature; the family report keeps them out of the new-results list.
PRIOR_ORDER_TWO = [
    "s_{85,13}", "s_{100,20}", "s_{105,17}", "s_{110,14}",
    "s_{125,21}", "s_{130,18}", "s_{150,22}",
]

EXCEPTIONAL_23 = ["m_{50,6}", "m_{122,6}"]  # per-images Δ²η², Δ⁵η²
EXCEPTIONAL_24_S = INFINITE_ORDER  # per-images 8Δ, 4Δ², 8Δ³, 2Δ⁴, 8Δ⁵, 8Δ⁷

AXIOMS = [
    # Chart values the techniques consume but cannot derive: the parent of the
    # extended-linearity argument at degree 50, the projection resolving the
    # degree-54 junction, and η-kernel facts for projection values that sit in
    # no recorded kernel basis.
    ("p2", "Y:y_{30,2}", ["M:m_{28,6}"]),
    ("p1", "M:m_{54,6}", ["S:s_{53,7}"]),
    ("eta", "M:m_{28,6}", []),
    ("eta", "M:m_{80,16}", []),
    ("eta", "M:m_{101,7}", []),
    ("eta", "M:m_{111,13}", []),
    ("eta", "M:m_{116,10}", []),
    ("eta", "M:m_{126,20}", []),
    ("eta", "M:m_{131,17}", []),
    ("eta", "M:m_{136,14}", []),
    ("eta", "M:m_{156,18}", []),
]

def parse_name(name: str):
    inner = name[name.index("{") + 1 : name.index("}")]
    stem, filt = inner.split(",")
    return int(stem), int(filt)


def main() -> None:
    module_of = {"y": "Y", "m": "M", "s": "S"}
    elements = {}
    orders = {}
    tmf_names = {}

    def add(name: str):
        module = module_of[name[0]]
        stem, filt = parse_name(name)
        key = f"{module}:{name}"
        elements.setdefault(key, {"module": module, "name": name, "stem": stem, "filtration": filt})
        return key

    table_y = []
    for img_p3, img_p2, _, img_p1, lift, _, tmf_name in ROWS:
        table_y.append(img_p3)
        add(img_p3)
        if img_p2 not in (None, "0"):
            add(img_p2)
        for column in (img_p1, lift):
            if column not in (None, "0"):
                key = add(column)
                if tmf_name:
                    # The lift name is canonical; a diverging projection-column
                    # name becomes a per-row override below.
                    tmf_names.setdefault(key, tmf_name)
    for name in EXTRA_Y + EXTRA_M + EXTRA_S:
        add(name)

    # Orders: every sphere class is simple 2-torsion unless listed otherwise.
    for key, record in elements.items():
        if record["module"] != "S":
            continue
        name = record["name"]
        if name in INFINITE_ORDER:
            orders[key] = "inf"
        elif name in ORDER_EIGHT:
            orders[key] = 8
        elif name in ORDER_FOUR:
            orders[key] = 4
        else:
            orders[key] = 2

    hurewicz = {}
    for key, record in elements.items():
        if record["module"] == "S":
            hurewicz[key] = record["name"] not in HUREWICZ_FALSE

    actions = []
    for img_p3, *_ in ROWS:
        actions.append({"generator": "v₁", "source": f"Y:{img_p3}", "value": []})
    for name in EXTRA_Y:
        actions.append({"generator": "v₁", "source": f"Y:{name}", "nonzero": True})
    for pairs, module in ((KBAR_ON_Y, "Y"), (KBAR_ON_M, "M"), (KBAR_ON_S, "S")):
        for source, target in pairs:
            value = [] if target is None else [f"{module}:{target}"]
            actions.append({"generator": "κ̄", "source": f"{module}:{source}", "value": value})

    classifications = []
    for key, record in elements.items():
        name = record["name"]
        if record["module"] == "Y":
            classifications.append({"element": key, "context": "LES-2.3", "kind": "torsion"})
        elif record["module"] == "M":
            kind_23 = "periodicExceptional" if name in EXCEPTIONAL_23 else "torsion"
            kind_24 = "periodicNonexceptional" if name in EXCEPTIONAL_23 else "torsion"
            classifications.append({"element": key, "context": "LES-2.3", "kind": kind_23})
            classifications.append({"element": key, "context": "LES-2.4", "kind": kind_24})
        else:
            kind = "periodicExceptional" if name in EXCEPTIONAL_24_S else "torsion"
            classifications.append({"element": key, "context": "LES-2.4", "kind": kind})

    def basis(names, module):
        if names is None:
            return None
        return [f"{module}:{n}" for n in names]

    ranks = []
    for stem, (coker, middle, kernel) in sorted(SES_28.items()):
        ranks.append(
            {
                "context": "SES-2.8",
                "stem": stem,
                "cokernel": basis(coker, "M"),
                "middle": basis(middle, "Y"),
                "kernel": basis(kernel, "M"),
            }
        )
    for stem, (coker, middle, kernel) in sorted(SES_29.items()):
        ranks.append(
            {
                "context": "SES-2.9",
                "stem": stem,
                "cokernel": basis(coker, "S"),
                "middle": basis(middle, "M"),
                "kernel": basis(kernel, "S"),
            }
        )

    element_records = []
    for key in sorted(elements):
        record = dict(elements[key])
        if key in orders:
            record["order"] = orders[key]
        if key in tmf_names:
            record["tmfName"] = tmf_names[key]
        if record["name"] == "s_{3,1}":
            record["tmfName"] = "ν"
            record["nuMultiple"] = True
        if record["name"] in [n for n in PRIOR_ORDER_TWO]:
            record["priorOrderTwo"] = True
        element_records.append(record)

    doc = {
        "schemaVersion": chartdata.SCHEMA_VERSION,
        "maxStem": 176,
        "elements": element_records,
        "actions": actions,
        "classifications": classifications,
        "hurewiczFlags": dict(sorted(hurewicz.items())),
        "ranks": ranks,
        "axioms": [
            {"map": map_name, "source": source, "value": value}
            for map_name, source, value in AXIOMS
        ],
        "tmfNameOverrides": [
            {"row": "Y:y_{119,3}", "column": "imgP1", "name": "2Δ⁴·2κ̄"},
        ],
    }

    chart = chartdata.from_document(doc)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    chartdata.save(chart, OUT)
    print(f"wrote {OUT} ({len(chart.elements)} elements, {len(chart.ses_records)} rank records)")


if __name__ == "__main__":
    main()
