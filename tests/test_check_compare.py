"""The CI speed gate, ``scripts/check_compare.py``, on compare reports.

Each report has the shape ``bench/compare.py --out`` writes: per
workload, the failed-check count of each side and one verdict per
end-to-end metric.  The script runs as CI runs it, and only its exit
status and output are checked.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "scripts" / "check_compare.py"


def _report() -> dict:
    """Two workloads, no failed check, every verdict passing."""
    def workload(*verdicts: str) -> dict:
        return {"runs": {"base": [], "change": []},
                "failed": {"base": 0, "change": 0},
                "verdicts": {f"metric{i}": {"verdict": v, "gain": -0.02}
                             for i, v in enumerate(verdicts)}}
    return {"ref4_clip": workload("within bound", "improved"),
            "core_bound": workload("within bound", "unresolved")}


def _check(tmp_path: Path, report: dict) -> subprocess.CompletedProcess:
    path = tmp_path / "compare.json"
    path.write_text(json.dumps(report))
    return subprocess.run([sys.executable, str(SCRIPT), str(path)],
                          capture_output=True, text=True)


def test_passing_report_passes(tmp_path):
    done = _check(tmp_path, _report())
    assert done.returncode == 0, done.stdout
    assert "no regressed metric and no failed check" in done.stdout


def test_regressed_verdict_fails(tmp_path):
    report = _report()
    report["core_bound"]["verdicts"]["metric1"] = {"verdict": "regressed",
                                                   "gain": -0.31}
    done = _check(tmp_path, report)
    assert done.returncode == 1
    assert done.stdout == ("core_bound: metric1 regressed, median -31.0% "
                           "against the base\n")


def test_failed_check_of_the_change_fails(tmp_path):
    report = _report()
    report["ref4_clip"]["failed"]["change"] = 1
    done = _check(tmp_path, report)
    assert done.returncode == 1
    assert done.stdout == "ref4_clip: the change failed 1 check(s)\n"


def test_failed_check_of_the_base_alone_passes(tmp_path):
    report = _report()
    report["ref4_clip"]["failed"]["base"] = 3
    assert _check(tmp_path, report).returncode == 0


def test_nothing_compared_fails(tmp_path):
    report = _report()
    report["ref4_clip"]["verdicts"] = {}
    done = _check(tmp_path, report)
    assert done.returncode == 1
    assert "ref4_clip: no pair in which both sides ran" in done.stdout
    assert _check(tmp_path, {}).returncode == 1
