"""Command-line surface: subcommands, formats, exit codes, env fallback."""

import json
import os
import subprocess
import sys

import pytest

from les_deduce import chartdata
from les_deduce.cli import main

from conftest import DATA, REPO, TESTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "validate", str(DATA))
        assert code == 0 and "elements" in out

    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "validate", "/nonexistent.json")
        assert err.value.code == 1

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schemaVersion": "1", "surprise": true}', encoding="utf-8")
        with pytest.raises(SystemExit) as err:
            run(capsys, "validate", str(bad))
        assert err.value.code == 1

    def test_undecodable_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"maxStem": "é"}'.encode("latin-1"))
        with pytest.raises(SystemExit) as err:
            run(capsys, "validate", str(bad))
        stderr = capsys.readouterr().err
        assert err.value.code == 1
        assert stderr.startswith("validation error: not UTF-8 text") and "Traceback" not in stderr
        with pytest.raises(chartdata.ChartValidationError, match="not UTF-8"):
            chartdata.load(bad)

    def test_deeply_nested_document(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000, encoding="utf-8")
        with pytest.raises(chartdata.ChartValidationError) as error:
            chartdata.load(deep)
        assert str(error.value) == "malformed JSON: nested too deeply"
        with pytest.raises(SystemExit) as err:
            run(capsys, "validate", str(deep))
        assert err.value.code == 1
        assert capsys.readouterr().err == "validation error: malformed JSON: nested too deeply\n"

    def test_directory(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "validate", str(tmp_path))
        stderr = capsys.readouterr().err
        assert err.value.code == 1
        assert stderr.startswith(f"error: cannot read {tmp_path}:") and "Traceback" not in stderr

    def test_env_var_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("LES_DEDUCE_DATA", str(DATA))
        code, _, _ = run(capsys, "validate")
        assert code == 0


class TestTable:
    def test_markdown(self, capsys):
        code, out, _ = run(capsys, "table", str(DATA), "--format", "md")
        assert code == 0
        assert out.startswith("| img(p₃) |")
        assert "| y_{26,4} | m_{24,6} | 2 | 0 | s_{24,0} | 1 | 8Δ |" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table", str(DATA), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc) == 96

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", str(DATA), "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("imgP3,")

    def test_missing_lift_is_undetermined(self, tmp_path, chart_document, capsys):
        # Without ranks[80], the p₁ images of y_{82,6} and y_{102,10} vanish
        # with no i₁-lift recorded: "?" in the lift cell, where a row that
        # needs no lift has an empty one, a line per row, and exit 4.
        doc = json.loads(json.dumps(chart_document))
        del doc["ranks"][80]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        notes = (
            "undetermined: row Y:y_{82,6}: p1 image vanishes but no i1-lift of M:m_{80,16} is recorded\n"
            "undetermined: row Y:y_{102,10}: p1 image vanishes but no i1-lift of M:m_{100,20} is recorded\n"
        )
        code, out, err = run(capsys, "table", str(broken), "--format", "md")
        assert (code, err) == (4, notes)
        assert "\n| y_{82,6} | m_{80,16} | 2 | 0 | ? | 3 |  |\n" in out
        assert "\n| y_{26,4} | m_{24,6} | 2 | 0 | s_{24,0} | 1 | 8Δ |\n" in out
        code, out, err = run(capsys, "table", str(broken), "--format", "csv")
        assert (code, err) == (4, notes)
        assert '\n"y_{82,6}","m_{80,16}",2,0,?,3,,\n' in out
        code, out, err = run(capsys, "table", str(broken), "--format", "json")
        assert (code, err) == (4, notes)
        (row,) = [row for row in json.loads(out) if row["imgP3"] == "Y:y_{82,6}"]
        assert row["imgP1"] == "0" and row["liftI1"] is None

    def test_missing_lift_with_contradiction(self, tmp_path, chart_document, capsys):
        # A contradiction in the store outranks the missing lift, as in ``families``.
        doc = json.loads(json.dumps(chart_document))
        del doc["ranks"][80]
        doc["axioms"].append({"map": "p2", "source": "Y:y_{8,2}", "value": []})
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        code, out, err = run(capsys, "table", str(broken), "--format", "md")
        assert code == 2
        assert "\n| y_{82,6} | m_{80,16} | 2 | 0 | ? | 3 |  |\n" in out
        assert err.startswith("undetermined: row Y:y_{82,6}: ")
        assert run(capsys, "families", str(broken))[0] == 2


class TestDeduce:
    def test_log_written(self, tmp_path, capsys):
        log = tmp_path / "log.json"
        code, out, _ = run(capsys, "deduce", str(DATA), "--log", str(log))
        assert code == 0
        entries = json.loads(log.read_text(encoding="utf-8"))
        assert any(e["rule"] == "T4" for e in entries)
        assert all({"fact", "value", "rule", "inputs"} <= set(e) for e in entries)

    def test_unwritable_log(self, tmp_path, capsys):
        log = tmp_path / "missing" / "log.json"
        code, out, err = run(capsys, "deduce", str(DATA), "--log", str(log))
        assert code == 1
        assert out.startswith("saturated: ") and "written" not in out
        assert err == f"error: cannot write {log}: No such file or directory\n"
        assert not log.parent.exists()

    def test_contradiction_exit_code(self, tmp_path, chart_document, capsys):
        doc = json.loads(json.dumps(chart_document))
        doc["axioms"].append({"map": "p2", "source": "Y:y_{8,2}", "value": []})
        poisoned = tmp_path / "poisoned.json"
        poisoned.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        code, _, err = run(capsys, "deduce", str(poisoned))
        assert code == 2
        assert "contradiction" in err


class TestFamilies:
    def test_golden_pass(self, capsys):
        code, out, _ = run(capsys, "families", str(DATA))
        assert code == 0
        assert out.count("caseII:") == 7
        assert "review:" in out

    def test_acceptance_mismatch_exit_code(self, tmp_path, chart_document, capsys):
        # Flip one Hurewicz flag: the 8Δ lift lands inside the image, the
        # stem-23 family disappears, and the golden comparison fails.
        doc = json.loads(json.dumps(chart_document))
        doc["hurewiczFlags"]["S:s_{24,0}"] = True
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        code, _, err = run(capsys, "families", str(broken))
        assert code == 3
        assert "mismatch" in err

    def test_missing_flag_is_undetermined(self, tmp_path, chart_document, capsys):
        # Without its flag, the ν² lift gives no verdict, not a caseII family.
        doc = json.loads(json.dumps(chart_document))
        del doc["hurewiczFlags"]["S:s_{6,2}"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        code, out, err = run(capsys, "families", str(broken))
        assert code == 4
        assert "undetermined: no Hurewicz flag for S:s_{6,2} (hurewiczFlags), witness Y:y_{8,2}\n" in out
        assert out.count("caseII:") == 7 and "caseII: stems 5 " not in out
        assert err == ""

    def test_missing_lift_is_undetermined(self, tmp_path, chart_document, capsys):
        # Without ranks[80] the chart still validates, but the p₁ images of
        # y_{82,6} and y_{102,10} vanish with no i₁-lift recorded: both rows
        # are named, every other family is printed, no traceback.
        doc = json.loads(json.dumps(chart_document))
        del doc["ranks"][80]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        assert run(capsys, "validate", str(broken))[0] == 0
        code, out, err = run(capsys, "families", str(broken))
        golden = (TESTS / "golden" / "families.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [
            line for line in golden
            if not line.startswith(("caseI: stems 80 ", "caseI: stems 100 ", "ok: "))
        ]
        assert len(kept) == len(golden) - 3
        assert out == "".join(kept) + (
            "undetermined: row Y:y_{82,6}: p1 image vanishes but no i1-lift of M:m_{80,16} is recorded\n"
            "undetermined: row Y:y_{102,10}: p1 image vanishes but no i1-lift of M:m_{100,20} is recorded\n"
        )
        assert (code, err) == (4, "")


class TestClosedStdout:
    @pytest.mark.parametrize("command", ["families", "table", "check", "validate"])
    def test_reader_gone(self, command):
        # A reader that exits early (``les-deduce families DATA | head -2``)
        # ends the command with exit 1 and nothing on standard error.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "les_deduce.cli", command, str(DATA)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")


class TestCheck:
    def test_clean(self, capsys):
        code, out, _ = run(capsys, "check", str(DATA))
        assert code == 0
        assert "0 contradictions" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "check", str(DATA), "--json")
        assert code == 0
        doc = json.loads(out)
        assert all(v["verdict"] in ("exact", "undetermined") for v in doc)
