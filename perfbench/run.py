"""Run one heatbench benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload mpc_dual --seed 1 --seconds 40 --trace 0

--trace 0 times the workload's scenario through the public
heatbench.harness.run_scenario, untraced, as often as fits in --seconds, and
reports the end-to-end metrics: time per simulated hour over all those runs,
the median of several set-ups, peak memory and the runs' control results.  --trace 1 alternates untraced and traced runs and reports the
per-layer metrics of the traced ones, with the tracing overhead; their spans go
to .perfbench_work/traces/.  Every run's output files are checked and hashed;
repeats of one (workload, seed) must be byte-identical, traced or not.

The last line of standard output is the result,
{"correct", "attempted", "failed", "metrics"}; the line before it records the
machine, every run's time, the output digest and the paper's metrics.  The
benchmark imports heatbench from src/ next to this directory and exits with
status 2, printing no result, when it is not there.
"""

from __future__ import annotations

import os

# One process with one BLAS thread per run: the host's other cores stay free,
# and the workloads' matrices are too small for BLAS threads to pay off.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# Set-up is timed as a user pays it, with heatbench's bytecode cached, whatever
# PYTHONDONTWRITEBYTECODE says; the caches land in src/heatbench/__pycache__.
sys.dont_write_bytecode = False

from checks import check_outputs, comfort_hours_pct, output_digest  # noqa: E402
from machine import machine_info  # noqa: E402
from tracer import TARGETS, Tracer, per_layer_spec  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXTRA_SETUPS = 4  # set-ups timed before the first run, besides one before each run
MIN_RUNS = 2

END_TO_END_UNITS = {
    "ms_per_sim_hour": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cost_pct_of_rbc": "%",
    "consumption_pct_of_rbc": "%",
    "comfort_hours_pct": "%",
}


def fresh_import():
    """Import heatbench from src/, dropping any earlier import of it first."""
    for name in [m for m in sys.modules if m == "heatbench" or m.startswith("heatbench.")]:
        del sys.modules[name]
    hb = importlib.import_module("heatbench")
    if Path(hb.__file__).resolve().parent != SRC / "heatbench":
        raise ImportError(f"imported heatbench from {hb.__file__}, not from {SRC}")
    return hb


def make_traces(hb, scenario):
    """The scenario's ambient and tariff traces, derived from its seed as
    run_scenario derives them."""
    children = np.random.SeedSequence(scenario.seed).spawn(3)
    ambient_seed = int(children[0].generate_state(1)[0])
    ambient = hb.make_synthetic_ambient(ambient_seed, scenario.days + 1, scenario.ambient)
    tariff = hb.make_tariff(scenario.tariff_kind, scenario.horizon_hours(), scenario.tariff)
    return ambient, tariff


def timed_setup(workload, seed: int):
    """Everything before the first simulated hour: import heatbench, build and
    validate the scenario, generate its traces.  numpy is already imported."""
    start = time.perf_counter()
    hb = fresh_import()
    scenario = workload.scenario(hb, seed)
    scenario.validate()
    traces = make_traces(hb, scenario)
    return time.perf_counter() - start, hb, scenario, traces


class Runner:
    """Runs a scenario into fresh directories and checks every run's outputs.

    The first successful run is checked in full and its digest becomes the
    reference; every later run must reproduce it byte for byte.
    """

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}  # run label -> why it failed
        self.reference: str | None = None
        self.reference_problems: list[str] = []
        self.report = None
        self.comfort_hours_pct = 0.0

    def fail(self, label: str, why: str) -> None:
        self.failures.setdefault(label, []).append(why)
        print(f"FAILED {label}: {why}", file=sys.stderr)

    def run(self, hb, scenario, traces, label: str) -> float:
        """Seconds one hb.run_scenario call took; failures are recorded, not raised."""
        out = self.work / label
        self.attempted += 1
        gc.collect()  # garbage of earlier runs and imports is not this run's cost
        start = time.perf_counter()
        try:
            report = hb.run_scenario(scenario, out)
        except Exception:  # a failed run is counted and reported; the others go on
            elapsed = time.perf_counter() - start
            self.fail(label, traceback.format_exc())
            return elapsed
        elapsed = time.perf_counter() - start
        digest = output_digest(out)
        if self.reference is None:
            self.reference = digest
            self.report = report
            self.reference_problems = check_outputs(hb, scenario, report, out, traces)
            if not self.reference_problems:
                self.comfort_hours_pct = comfort_hours_pct(hb, report, scenario.warmup_hours)
        if digest != self.reference:
            self.fail(label, f"output digest {digest} differs from the first run's "
                             f"{self.reference}")
        elif self.reference_problems:
            self.fail(label, "; ".join(self.reference_problems))
        shutil.rmtree(out)
        return elapsed

    def paper_metrics(self) -> dict:
        r = self.report
        if r is None:
            return {}
        return {"consumption_change_pct": r.consumption_change_pct,
                "cost_change_pct": r.cost_change_pct, "comfort_loss_eur": r.comfort_loss_eur}


def _keep_going(done: int, at_least: int, per_round: float, deadline: float) -> bool:
    """Start another round while fewer than `at_least` are done, or while one
    more round of the last round's length still ends before the deadline."""
    return done < at_least or time.perf_counter() + per_round <= deadline


def _ms_per_sim_hour(run_s: list[float], hours: int) -> float:
    # a throughput: all runs' time over all runs' simulated hours
    return 1000.0 * sum(run_s) / (hours * len(run_s))


def measure_untraced(workload, seed: int, seconds: float, work: Path):
    """End-to-end metrics.  Set-ups are timed before every run, not in one
    burst, so that their median sees the host as the runs see it."""
    runner = Runner(work)
    setups: list[float] = []
    run_s: list[float] = []
    deadline = time.perf_counter() + seconds
    for _ in range(EXTRA_SETUPS):
        setups.append(timed_setup(workload, seed)[0])
    while _keep_going(len(run_s), MIN_RUNS, run_s[-1] if run_s else 0.0, deadline):
        setup_s, hb, scenario, traces = timed_setup(workload, seed)
        setups.append(setup_s)
        run_s.append(runner.run(hb, scenario, traces, f"run{len(run_s)}"))

    hours = scenario.horizon_hours()
    paper = runner.paper_metrics()
    metrics = {
        "ms_per_sim_hour": _ms_per_sim_hour(run_s, hours),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # 0 when no run succeeded
        "cost_pct_of_rbc": 100.0 + paper.get("cost_change_pct", -100.0),
        "consumption_pct_of_rbc": 100.0 + paper.get("consumption_change_pct", -100.0),
        "comfort_hours_pct": runner.comfort_hours_pct,
    }
    info = {"run_s": run_s, "setup_s": setups, "sim_hours": hours,
            "digest": runner.reference, "paper_metrics": paper}
    return runner, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, info


def measure_traced(workload, seed: int, seconds: float, work: Path):
    """Per-layer metrics: untraced and traced runs alternate; the traced runs'
    outputs and analytic call counts must match."""
    hb = fresh_import()
    scenario = workload.scenario(hb, seed)
    traces = make_traces(hb, scenario)
    modules = {"": hb, **{m: sys.modules[f"heatbench.{m}"] for m, *_ in TARGETS.values()}}
    expected = workload.expected_calls(scenario)
    runner = Runner(work)
    plain_s: list[float] = []
    traced_s: list[float] = []
    layer_runs: list[dict] = []
    records, tails = [], {}
    deadline = time.perf_counter() + seconds
    while _keep_going(len(traced_s), 1, plain_s[-1] + traced_s[-1] if traced_s else 0.0,
                      deadline):
        i = len(traced_s)
        plain_s.append(runner.run(hb, scenario, traces, f"plain{i}"))
        tracer = Tracer(f"{workload.name}/seed{seed}/traced{i}")
        tracer.install(modules)
        try:
            traced_s.append(runner.run(hb, scenario, traces, f"traced{i}"))
        finally:
            tracer.uninstall()
        counts = {name: tracer.stats[name].calls for name in expected}
        if counts != expected:
            runner.fail(f"traced{i}", f"call counts {counts}, expected {expected}")
        values, tails = tracer.metrics()
        layer_runs.append(values)
        records.append(tracer.record())

    hours = scenario.horizon_hours()
    metrics = {name: statistics.median(run[name] for run in layer_runs)
               for name in layer_runs[0]}
    plain, traced = _ms_per_sim_hour(plain_s, hours), _ms_per_sim_hour(traced_s, hours)
    metrics["trace.ms_per_sim_hour_untraced"] = plain
    metrics["trace.ms_per_sim_hour_traced"] = traced
    metrics["trace.overhead_pct"] = 100.0 * (traced - plain) / plain

    spans_path = WORK / "traces" / f"{workload.name}-seed{seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
    info = {"plain_run_s": plain_s, "traced_run_s": traced_s, "sim_hours": hours,
            "digest": runner.reference, "paper_metrics": runner.paper_metrics(),
            "call_counts_expected": expected, "tails": tails,
            "spans_file": str(spans_path.relative_to(ROOT))}
    units = {s["name"]: s["unit"] for s in per_layer_spec()}
    return runner, {k: (v, units[k]) for k, v in metrics.items()}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "heatbench" / "__init__.py").is_file():
        print(f"no heatbench package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    machine = machine_info()
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    measure = measure_traced if args.trace else measure_untraced
    try:
        runner, metrics, info = measure(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"workload": workload.name, "seed": args.seed, "days": workload.days,
                      "trace": args.trace, "machine": machine, **info,
                      "failures": runner.failures}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
