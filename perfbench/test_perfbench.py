"""The benchmark's own smoke tests:  python3 -m pytest perfbench -q

They check that BENCHMARK.json matches the code, that every named metric is
printed with its unit on a non-default seed, that the digest and output
checks catch an altered or missing file, that tracing changes no output byte
and counts every analytic call, and that the benchmark refuses to run without
the program's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from checks import check_outputs, output_digest  # noqa: E402
from tracer import TARGETS, Tracer, per_layer_spec  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SMOKE_SEED = 7  # not one of the seeds the benchmark was tuned on


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_benchmark(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert spec["per_layer"] == per_layer_spec()


def test_benchmark_json_is_within_the_file_limits():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert unit.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert [n for n in names if not name.fullmatch(n)] == []
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(trace):
    proc = _run_benchmark("--workload", "mpc_dual", "--seed", str(SMOKE_SEED),
                          "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def _short_run(agent: str, days: int, out: Path):
    hb = run.fresh_import()
    workload = Workload(f"smoke_{agent}", agent, "dual", days, "a short smoke run")
    scenario = workload.scenario(hb, SMOKE_SEED)
    traces = run.make_traces(hb, scenario)
    report = hb.run_scenario(scenario, out)
    return hb, workload, scenario, traces, report


def test_digest_and_checks_flag_an_altered_file(tmp_path):
    hb, _, scenario, traces, report = _short_run("rbc", 3, tmp_path)
    assert check_outputs(hb, scenario, report, tmp_path, traces) == []
    digest = output_digest(tmp_path)

    log = Path(report.agent_log_path)
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    hour, t_a, t_i, *rest = lines[30].split(",")
    lines[30] = ",".join([hour, t_a, repr(float(t_i) + 1e-9), *rest])
    log.write_text("".join(lines), encoding="utf-8")
    assert output_digest(tmp_path) != digest
    assert any("hour 29" in p for p in check_outputs(hb, scenario, report, tmp_path, traces))

    log.unlink()
    assert "expected" in check_outputs(hb, scenario, report, tmp_path, traces)[0]


@pytest.mark.parametrize("agent, days", [("rbc", 2), ("mpc", 2), ("mbrl", 3), ("mfrl", 6)])
def test_tracing_keeps_the_outputs_and_counts_every_call(agent, days, tmp_path):
    hb, workload, scenario, traces, _ = _short_run(agent, days, tmp_path / "plain")
    modules = {"": hb, **{m: sys.modules[f"heatbench.{m}"] for m, *_ in TARGETS.values()}}
    tracer = Tracer("smoke")
    tracer.install(modules)
    try:
        hb.run_scenario(scenario, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert output_digest(tmp_path / "traced") == output_digest(tmp_path / "plain")
    expected = workload.expected_calls(scenario)
    assert {name: tracer.stats[name].calls for name in expected} == expected
    assert not hasattr(hb.run_scenario, "__wrapped__")  # uninstalled
    values, _ = tracer.metrics()
    assert set(values) == {s["name"] for s in per_layer_spec()
                           if not s["name"].startswith("trace.")}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark("--workload", "mpc_dual", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
