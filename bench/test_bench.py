"""Smoke test of the benchmark of record (not part of tier-1)::

    python -m pytest bench -q

Runs every workload once at ``--quick`` size, untraced and traced, in
this process, and one run through the command line.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import catalog
import compare
import run
import tracing
import workloads

SPEC = run.load_spec()


@pytest.fixture(scope="module")
def records():
    return {
        name: (
            workloads.measure(name, 1, 0, quick=True),
            workloads.measure(name, 1, 0, trace=True, quick=True),
        )
        for name in catalog.WORKLOADS
    }


def test_spec_matches_catalogue():
    assert [w["name"] for w in SPEC["workloads"]] == list(catalog.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (layer.unit, layer.better) for name, layer in catalog.LAYERS.items()
    }
    for metric in SPEC["end_to_end"]:
        if metric["name"] != "ops_per_s":
            spec = catalog.END_TO_END[metric["name"]]
            assert (metric["unit"], metric["better"]) == (spec.unit, spec.better)


def test_every_metric_is_emitted_with_its_unit(records):
    for name, (plain, traced) in records.items():
        for record, declared in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
            emitted = run.harness_metrics(SPEC, record)
            assert {k: v["unit"] for k, v in emitted.items()} == {
                m["name"]: m["unit"] for m in declared
            }
            assert all(isinstance(v["value"], float) for v in emitted.values())
        for metric, spec in catalog.END_TO_END.items():
            assert (metric in plain["e2e"]) == (name in spec.on), (name, metric)


def test_checks_pass(records):
    failed = [
        (name, c["name"], c["detail"])
        for name, pair in records.items()
        for record in pair
        for c in record["checks"]
        if not c["ok"]
    ]
    assert not failed


def test_trace_explains_the_closed_loops(records):
    for name in catalog.CLOSED_LOOPS:
        traced = records[name][1]
        assert traced["layers"]["trace.outside_frac"] < 0.1, name
        assert traced["unhooked"] == [], name


def test_untraced_run_leaves_classes_unpatched():
    for module, _, _ in tracing.HOOKS:
        importlib.import_module(module)
    snapshot = workloads.class_snapshot()
    workloads.measure("paper-static", 1, 0, quick=True)
    assert workloads.changed_classes(snapshot) == []


def test_missing_hook_targets_are_reported(monkeypatch):
    monkeypatch.setattr(
        tracing,
        "HOOKS",
        tracing.HOOKS
        + (
            ("repro.sim.nowhere", "Gone", ("run",)),
            ("repro.sim.events", "EventQueue", ("vanished",)),
        ),
    )
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    skipped = {u["target"] for u in tracer.unhooked}
    assert {"repro.sim.nowhere:Gone", "repro.sim.events:EventQueue.vanished"} <= skipped


def test_command_line_prints_the_result_last():
    proc = subprocess.run(
        [
            sys.executable, os.path.join(workloads.HERE, "run.py"),
            "--workload", "overload-retry", "--seed", "2",
            "--seconds", "0", "--trace", "0", "--quick",
        ],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0


@pytest.mark.parametrize(
    "change, expected",
    [([120.0] * 10, "better"), ([70.0] * 10, "worse"), ([100.5] * 10, "within bound")],
)
def test_compare_verdicts(change, expected):
    parent = run.summarize([99.0, 100.0, 101.0, 100.0, 99.5, 100.5, 100.0, 99.0, 101.0, 100.0])
    assert compare.verdict("tasks_per_s", parent, run.summarize(change))[0] == expected
    noisy = run.summarize([60.0, 140.0, 70.0, 130.0, 100.0, 80.0, 120.0, 90.0, 110.0, 100.0])
    assert compare.verdict("tasks_per_s", noisy, run.summarize([101.0] * 10))[0] == "unresolved"
