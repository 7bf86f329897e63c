"""Byte snapshots of the shipped chart's reports, and their Δ⁸×2 and ×4 shifts.

Each snapshot under ``tests/golden/`` is regenerated here and compared byte
for byte.  A snapshot changes only together with a CHANGES.md entry that says
why; to refresh one, rerun the command named in its test and commit the
output, e.g. ``les-deduce check data/tmf_chart.json --json >
tests/golden/check.json`` or ``les-deduce deduce data/tmf_chart.json --log
tests/golden/log.json``.  The Δ⁸×2 reports are too large to commit, so
``delta8x2.sha256`` pins their SHA-256 digests, and that of the ``deduce
--log`` derivation log, in ``sha256sum`` format; to refresh it, write each
report of the dumped Δ⁸×2 chart to the file it names and run ``sha256sum
check.json table.json families.txt log.json``.
"""

import hashlib
import json
import re

import pytest

from les_deduce import cli
from les_deduce.chartdata import delta8_extend, dumps
from les_deduce.rules import saturate

from conftest import DATA, TESTS

GOLDEN = TESTS / "golden"

_SHIFT = re.compile(r"([a-z])_\{(-?\d+),(-?\d+)\}")


def cli_output(capsys, *argv, data=DATA):
    assert cli.main([*argv, str(data)]) == cli.EXIT_OK
    return capsys.readouterr().out.encode("utf-8")


def test_serialize(store):
    assert store.serialize().encode("utf-8") == (GOLDEN / "serialize.txt").read_bytes()


@pytest.mark.parametrize(
    "snapshot, argv",
    [
        ("table.json", ("table", "--format", "json")),
        ("table.md", ("table", "--format", "md")),
        ("table.csv", ("table", "--format", "csv")),
        ("families.txt", ("families",)),
        ("check.json", ("check", "--json")),
    ],
)
def test_cli_report(capsys, snapshot, argv):
    assert cli_output(capsys, *argv) == (GOLDEN / snapshot).read_bytes()


def test_derivation_log(capsys, tmp_path):
    """``deduce --log``, whose entries follow the chart's load order."""
    path = tmp_path / "log.json"
    cli_output(capsys, "deduce", "--log", str(path))
    assert path.read_bytes() == (GOLDEN / "log.json").read_bytes()


DELTA8X2_REPORTS = {
    "check.json": ("check", "--json"),
    "table.json": ("table", "--format", "json"),
    "families.txt": ("families",),
}


def test_delta8x2_reports_match_their_digests(capsys, tmp_path, chart):
    data = tmp_path / "delta8x2.json"
    data.write_text(dumps(delta8_extend(chart, 2)), encoding="utf-8")
    digests = dict(
        reversed(line.split()) for line in (GOLDEN / "delta8x2.sha256").read_text(encoding="utf-8").splitlines()
    )
    assert digests.keys() == {*DELTA8X2_REPORTS, "log.json"}
    for name, argv in DELTA8X2_REPORTS.items():
        output = cli_output(capsys, *argv, data=data)
        assert hashlib.sha256(output).hexdigest() == digests[name], name
    log = tmp_path / "log.json"
    cli_output(capsys, "deduce", "--log", str(log), data=data)
    assert hashlib.sha256(log.read_bytes()).hexdigest() == digests["log.json"]


def shifted(text, copies):
    """``text`` with every x_{i,j} name moved to x_{i+192k,j}, as criterion 8 renames."""
    return _SHIFT.sub(
        lambda m: f"{m.group(1)}_{{{int(m.group(2)) + 192 * copies},{m.group(3)}}}", text
    )


def shifted_value(value, copies):
    """A serialized value (a '+'-joined sorted span) after the shift, re-sorted."""
    return "+".join(sorted(shifted(value, copies).split("+")))


@pytest.mark.parametrize("copies", [2, 4])
def test_delta8_store_is_shifted_copies(chart, copies):
    """Δ⁸×k is k + 1 disjoint copies of the shipped problem, so its store is
    the shipped snapshot plus the snapshot's shifts by 192, ..., 192k."""
    lines = (GOLDEN / "serialize.txt").read_text(encoding="utf-8").splitlines()
    facts = [line for line in lines if " = " in line]
    (p3_line,) = [line for line in lines if line.startswith("p3image: ")]
    contradictions = [line for line in lines if line.startswith("contradiction: ")]
    assert len(facts) + 1 + len(contradictions) == len(lines)

    got = saturate(delta8_extend(chart, copies)).serialize().splitlines()
    shifts = range(copies + 1)
    expected_facts = []
    for k in shifts:
        for line in facts:
            key, _, value = line.partition(" = ")
            expected_facts.append(f"{shifted(key, k)} = {shifted_value(value, k)}")
    expected_facts.sort(key=lambda line: line.partition(" = ")[0])
    assert [line for line in got if " = " in line] == expected_facts
    image = p3_line.removeprefix("p3image: ")
    expected_p3 = "p3image: " + ",".join(shifted(image, k) for k in shifts)
    assert [line for line in got if line.startswith("p3image: ")] == [expected_p3]
    assert [line for line in got if line.startswith("contradiction: ")] == sorted(
        shifted(line, k) for k in shifts for line in contradictions
    )


@pytest.fixture(scope="module")
def data_x2(chart, tmp_path_factory):
    path = tmp_path_factory.mktemp("delta8x2") / "delta8x2.json"
    path.write_text(dumps(delta8_extend(chart, 2)), encoding="utf-8")
    return path


def test_delta8x2_table_is_three_shifted_copies(capsys, data_x2):
    """The Δ⁸×2 table is the shipped rows, then their +192 and +384 shifts,
    with each copy's tmf names carrying one more ``Δ⁸·`` prefix."""
    rows = json.loads((GOLDEN / "table.json").read_text(encoding="utf-8"))
    expected = []
    for k in range(3):
        for row in rows:
            name = row["tmfName"]
            expected.append(
                {
                    **row,
                    "imgP3": shifted(row["imgP3"], k),
                    "imgP2": row["imgP2"] and shifted_value(row["imgP2"], k),
                    "imgP1": row["imgP1"] and shifted_value(row["imgP1"], k),
                    "liftI1": row["liftI1"] and shifted(row["liftI1"], k),
                    "tmfName": name and "Δ⁸·" * k + name,
                }
            )
    assert json.loads(cli_output(capsys, "table", "--format", "json", data=data_x2)) == expected


def test_delta8x2_check_is_three_shifted_copies(capsys, data_x2):
    """Per sequence, the Δ⁸×2 verdicts are the shipped ones, then the same
    verdicts at stems +192 and +384."""
    verdicts = json.loads((GOLDEN / "check.json").read_text(encoding="utf-8"))
    expected = []
    for sequence in dict.fromkeys(v["sequence"] for v in verdicts):
        for k in range(3):
            for v in verdicts:
                if v["sequence"] == sequence:
                    junction, _, stem = v["junction"].partition("@")
                    expected.append(
                        {
                            **v,
                            "stem": v["stem"] + 192 * k,
                            "junction": f"{junction}@{int(stem) + 192 * k}",
                            "detail": shifted(v["detail"], k),
                        }
                    )
    assert json.loads(cli_output(capsys, "check", "--json", data=data_x2)) == expected


def test_delta8x2_families_add_two_review_lines(capsys, data_x2):
    """Families repeat every 192 stems, so Δ⁸×2 reports the shipped families;
    only the review note on S:s_{116,4}'s two names recurs in each copy."""
    lines = (GOLDEN / "families.txt").read_text(encoding="utf-8").splitlines()
    (review,) = [i for i, line in enumerate(lines) if line.startswith("review: ")]
    copies = [
        re.sub(r"'([^']*)'", lambda m: f"'{'Δ⁸·' * k}{m.group(1)}'", shifted(lines[review], k))
        for k in (1, 2)
    ]
    assert "S:s_{308,4}" in copies[0] and "S:s_{500,4}" in copies[1]
    expected = lines[: review + 1] + copies + lines[review + 1 :]
    assert cli_output(capsys, "families", data=data_x2).decode("utf-8").splitlines() == expected
