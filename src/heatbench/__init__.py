"""Benchmark suite for optimal space-heating control.

A deterministic two-node building emulator, a discrete heat-pump MDP
with asymmetric comfort penalties and time-of-use tariffs, and four
controllers spanning the performance range: rule-based hysteresis,
perfect-model receding-horizon MPC, model-based RL with a learned
transition network, and model-free double fitted Q iteration with
prioritized replay.
"""

from .emulator import (AmbientGenParams, AmbientTrace, BackupConfig, BuildingParams,
                       BuildingState, load_ambient_csv, make_synthetic_ambient, step)
from .mdp import (ActionGrid, BandSchedule, ComfortBand, EpisodeLog, TariffConfig,
                  TariffSignal, comfort_reward, consumption_reward, encode_state,
                  log_metrics, make_tariff)
from .baselines import MpcConfig, MpcController, RbcConfig, rbc_action
from .harness import (RunReport, Scenario, SuiteConfig, emit_plot_data,
                      estimate_convergence, run_scenario, run_suite)
from .model_based import MbrlConfig, ModelBasedAgent
from .model_free import MfrlConfig, ModelFreeAgent
from .planners import CemConfig, GaConfig, Plan, plan_cem, plan_exhaustive, plan_ga

__version__ = "0.1.0"
