"""Tier-1 smoke for ``bench_e2e``: every workload at tiny size, one
repeat, traced — so a refactor that breaks the harness is noticed by
the ordinary test run, not by the next performance claim."""

import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import bench_e2e  # noqa: E402
import e2e_probes  # noqa: E402
from e2e_workloads import WORKLOADS  # noqa: E402


def _process_groups() -> "dict[int, int]":
    """pid -> process group of every process, zombies included."""
    groups = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = pathlib.Path("/proc", entry, "stat").read_text()
            except OSError:
                continue
            # "pid (comm) state ppid pgrp ..."; comm may hold spaces
            groups[int(entry)] = int(stat.rsplit(")", 1)[1].split()[2])
    return groups


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_e2e") / "smoke.json"
    # Its own session, so whatever it leaves behind is found by group.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "bench_e2e.py"), "--smoke",
         "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    assert proc.returncode == 0, stdout[-2000:] + stderr[-4000:]
    left = [p for p, g in _process_groups().items() if g == proc.pid]
    assert not left, f"the benchmark left processes behind: {left}"
    return json.loads(out.read_text()), stdout.strip().splitlines()


def test_record_schema(smoke):
    record, _ = smoke
    assert {"cpu_count", "backend", "python", "numpy", "git_commit"} <= set(
        record["host"]
    )
    assert list(record["workloads"]) == list(WORKLOADS)
    for name, entry in record["workloads"].items():
        assert {"why", "batch", "n_cap", "window", "repeats"} <= set(entry)
        assert list(entry["end_to_end"]) == list(bench_e2e.END_TO_END), name
        for row in entry["end_to_end"].values():
            assert {
                "unit", "better", "bound", "value", "n", "median", "q1", "q3",
            } <= set(row)
        assert list(entry["per_layer"]) == list(e2e_probes.LAYER_METRICS)


def test_correctness_checks_pass(smoke):
    record, _ = smoke
    for name, entry in record["workloads"].items():
        assert entry["correct"], name
        assert entry["failed"] == 0 and entry["attempted"] > 0, name
        assert entry["end_to_end"]["failed_share"]["value"] == 0.0, name
        assert entry["staged_identical"], name
    mixed = record["workloads"]["vec256_mixed"]["per_layer"]
    assert mixed["protocol.server.rejected_snip"]["value"] > 0
    assert mixed["protocol.server.rejected_replay"]["value"] > 0


def test_every_layer_metric_is_measured(smoke):
    """No probe is broken at this commit: a ``null`` here means a
    refactor moved an entry point the README table names."""
    record, _ = smoke
    for name, entry in record["workloads"].items():
        for metric, row in entry["per_layer"].items():
            assert row["value"] is not None, (name, metric, row)
        for cover in (
            "protocol.client.stage_cover", "protocol.pipeline.stage_cover",
        ):
            assert entry["per_layer"][cover]["value"] > 0, (name, cover)


def test_driver_line_and_manifest_agree(smoke):
    """The last line is the driver's JSON object, and BENCHMARK.json
    names exactly the workloads and metrics the harness emits."""
    _, lines = smoke
    line = json.loads(lines[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    end_to_end = {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in manifest["end_to_end"]
    }
    expected = {k: v[:3] for k, v in bench_e2e.END_TO_END.items()}
    # always 0, so it travels as failed/attempted (README, "Contract")
    del expected["failed_share"]
    assert end_to_end == expected
    per_layer = {
        m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]
    }
    assert per_layer == e2e_probes.LAYER_METRICS
    assert set(line["metrics"]) == set(end_to_end) | set(per_layer)
    assert manifest["run_seconds"] == bench_e2e.RUN_SECONDS


def test_compare_reports_ok_against_itself(smoke, tmp_path, capsys):
    record, _ = smoke
    path = tmp_path / "a.json"
    path.write_text(json.dumps(record))
    assert bench_e2e.compare(str(path), str(path)) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == len(WORKLOADS) * len(bench_e2e.END_TO_END)
    assert all(r.split()[-1] in ("ok", "unresolved") for r in rows)
