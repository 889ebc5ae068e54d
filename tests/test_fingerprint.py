"""Golden-file lock on the serving simulator's behaviour.

``tools/serving_fingerprint.py`` runs eleven serving scenarios and records
every result bit-exactly (floats hex-encoded, per-request metrics hashed).
This test reruns the tool and compares the outcome with the committed golden
file using the tool's own comparison, so a change to any simulated number
fails tier-1.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "serving_fingerprint.json"


def _fingerprint_tool():
    spec = importlib.util.spec_from_file_location(
        "serving_fingerprint", ROOT / "tools" / "serving_fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_serving_fingerprint_matches_golden_file(tmp_path, capsys):
    tool = _fingerprint_tool()
    fresh = tmp_path / "serving_fingerprint.json"
    fresh.write_text(json.dumps(tool.build_fingerprint()))
    status = tool.compare(str(GOLDEN), str(fresh))
    report = capsys.readouterr().out
    assert status == 0, (
        "the serving simulator's results changed. If the change is intended, "
        "regenerate the golden file with `PYTHONPATH=src python "
        "tools/serving_fingerprint.py tests/data/serving_fingerprint.json` "
        "and explain the behaviour change in CHANGES.md.\n" + report)
