"""Command-line surface: subcommands, formats, exit codes, env fallback."""

import json

import pytest

from les_deduce import chartdata
from les_deduce.cli import main

from conftest import DATA


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


class TestDeduce:
    def test_log_written(self, tmp_path, capsys):
        log = tmp_path / "log.json"
        code, out, _ = run(capsys, "deduce", str(DATA), "--log", str(log))
        assert code == 0
        entries = json.loads(log.read_text(encoding="utf-8"))
        assert any(e["rule"] == "T4" for e in entries)
        assert all({"fact", "value", "rule", "inputs"} <= set(e) for e in entries)

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
