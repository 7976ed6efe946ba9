"""Output bytes pinned across commits: each case's output directory must
digest to the value recorded in `golden_digests.json`.

Criterion 9 compares two runs made in one process, so it cannot see a change
from one commit to the next; this test compares a run with the bytes recorded
when the golden file was written.  The cases are the criterion-9 scenarios,
the three benchmark workloads at seed 1 and their benchmark lengths, MF-RL
and MPC on the real-time tariff, whose price changes every hour, a
history-free MF-RL, the exhaustive and GA planners, two learning agents
whose 30 h warm-up ends mid-day, so that they act before their first daily
update, MPC under a comfort band that rises at hour 48, MB-RL with the
backup filter on, and a 3-day suite of all four agents.

Digests depend on the platform: the numpy version, its BLAS build and the
CPU and SIMD paths they take.  The golden file records the platform it was
taken on, and on any other the test skips, naming both.  A change that moves
output bytes on purpose rewrites the file in the same commit with

    PYTHONPATH=src python tests/test_golden_digests.py

which prints, for each case, "unchanged" or its old -> new digest prefix.
"""

import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from heatbench.baselines import MpcConfig
from heatbench.harness import Scenario, SuiteConfig, run_scenario, run_suite
from heatbench.mdp import BandSchedule, ComfortBand

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
output_digest = runpy.run_path(str(ROOT / "perfbench" / "checks.py"))["output_digest"]
machine_info = runpy.run_path(str(ROOT / "perfbench" / "machine.py"))["machine_info"]

CASES = {s.name: s for s in (
    Scenario(name="det_mbrl", days=20, agent="mbrl", seed=7),
    Scenario(name="det_mfrl", days=10, agent="mfrl", seed=7),
    Scenario(name="det_mpc", days=3, agent="mpc", seed=7),
    Scenario(name="mpc_dual", days=10, agent="mpc", seed=1, tariff_kind="dual"),
    Scenario(name="mbrl_flat", days=40, agent="mbrl", seed=1),
    Scenario(name="mfrl_flat", days=20, agent="mfrl", seed=1),
    Scenario(name="mfrl_real_time", days=10, agent="mfrl", seed=3, tariff_kind="real_time"),
    Scenario(name="mpc_real_time", days=3, agent="mpc", seed=3, tariff_kind="real_time"),
    Scenario(name="mfrl_no_history", days=10, agent="mfrl", seed=5, history_length=0),
    Scenario(name="mpc_exhaustive", days=2, agent="mpc", seed=2,
             mpc=MpcConfig(planner="exhaustive", horizon=4)),
    Scenario(name="mpc_ga", days=2, agent="mpc", seed=2, mpc=MpcConfig(planner="ga")),
    Scenario(name="mbrl_odd_warmup", days=8, agent="mbrl", seed=6, warmup_hours=30),
    Scenario(name="mfrl_odd_warmup", days=8, agent="mfrl", seed=6, warmup_hours=30),
    Scenario(name="mpc_band_phases", days=4, agent="mpc", seed=8,
             band_schedule=BandSchedule(((0, ComfortBand(19.0, 23.0)),
                                         (48, ComfortBand(21.0, 25.0))))),
    Scenario(name="mbrl_backup", days=6, agent="mbrl", seed=2, backup_enabled=True),
    SuiteConfig(name="suite_all4", base=Scenario(days=3, seed=4)),
)}


def digest_platform() -> dict:
    """What the digests depend on besides the code, as numpy reports it."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": [blas.get("name"), blas.get("version"), blas.get("openblas configuration")],
            "cpu_model": machine_info()["cpu_model"],
            "simd": config["SIMD Extensions"]}


def digest(case, out_dir) -> str:
    (run_suite if isinstance(case, SuiteConfig) else run_scenario)(case, out_dir)
    return output_digest(out_dir)


@pytest.fixture(scope="module")
def golden():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = digest_platform()
    if recorded["platform"] != here:
        pytest.skip(f"golden digests were taken on {recorded['platform']}, this is {here}")
    return recorded["digests"]


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_output_bytes_equal_the_golden_digest(golden, tmp_path, name):
    assert digest(CASES[name], tmp_path) == golden[name], f"{name}: output bytes changed"


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: digest(s, Path(tmp) / name) for name, s in CASES.items()}
    old = json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"] if GOLDEN.exists() else {}
    for name, new in digests.items():
        was = old.get(name)
        print(f"{name}: " + ("unchanged" if was == new else f"{(was or 'none')[:8]} -> {new[:8]}"))
    recorded = {"platform": digest_platform(), "digests": digests}
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
