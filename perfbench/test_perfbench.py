"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import proofs_workload  # noqa: E402
import run  # noqa: E402
from campaign_workload import CampaignJob  # noqa: E402
from service_workload import ServiceJob  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_the_runner():
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)
    assert _units("end_to_end") == dict(run.END_TO_END)
    assert _units("per_layer") == dict(run.layers.per_layer_metrics())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric(workload, trace, section, tmp_path):
    result = run.run_workload(workload, 7, 0, bool(trace), "tiny", tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _units(section)
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert values["trace.self_s_sum"] <= values["trace.pass_s"]
        assert values["bench.pass.calls"] >= 1


def test_flipped_pin_makes_error_rate_nonzero(tmp_path, monkeypatch, capsys):
    pins = json.loads(json.dumps(proofs_workload.PINS["tiny"]))
    pins["mutex"]["unfair_solutions"] += 1
    monkeypatch.setitem(proofs_workload.PINS, "tiny", pins)
    result = run.run_workload("proofs", 7, 0, False, "tiny", tmp_path)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    # Through the command line, which always runs the full size: a run
    # whose oracle rejects an operation prints its result and exits 1.
    monkeypatch.setitem(proofs_workload.SIZES, "full",
                        proofs_workload.SIZES["tiny"])
    monkeypatch.setitem(proofs_workload.PINS, "full", pins)
    code = run.main(["--workload", "proofs", "--seed", "7", "--seconds", "0",
                     "--out", str(tmp_path)])
    printed = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert printed["failed"] > 0 and not printed["correct"]


def test_tampered_store_answer_is_caught(tmp_path, monkeypatch):
    job = ServiceJob(7, "tiny", str(tmp_path))
    store_cls = job.store.CertificateStore
    honest_get = store_cls.get

    def tampered_get(self, key):
        result = honest_get(self, key)
        if isinstance(result, dict):
            result = dict(result, tampered=True)
        return result

    monkeypatch.setattr(store_cls, "get", tampered_get)
    assert job.run_pass().failures


def test_flipped_campaign_expectation_is_caught(tmp_path):
    job = CampaignJob(7, "tiny", str(tmp_path))
    healthy = next(t for t in job.roster if t.name == "lcr-ring")
    healthy.expect_violation = True
    failures = job.run_pass().failures
    assert failures == ["lcr-ring: no replay-verified counterexample"]


def test_exits_nonzero_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
