"""The public surface, pinned: the root export names, the parameter names,
in order, of every public function and constructor, and each subcommand's
command-line options.  A name or option added or removed shows up here first."""

import argparse
import inspect
import types
from pathlib import Path

import mpcrb
from mpcrb import cli, experiments

ROOT_EXPORTS = [
    "ArrayGeometry", "BoundBreakdown", "BoundsError", "ConditioningError",
    "DegenerateBoundError", "GroundScenario", "MultipathScene", "RangePoint",
    "RmseCurve", "SearchConfig", "SingularInformationError", "beampattern",
    "crb_theta", "indirect_geometry", "mcrb_sandwich", "mcrb_theta_closed",
    "mml_doa", "monte_carlo_rmse", "multipath_free", "range_point",
    "reflection_coefficient", "scene_from_ratios", "standard_virtual_ula",
    "synthesize_compressed", "virtual_hpbw", "wrap_phase",
]

RECIPE = ("config", "out_dir", "svg")
WORKERS_RECIPE = RECIPE + ("workers",)   # ignored; the benchmark passes it
PARAMETERS = {
    # root exports; None: no signature, the constructor inherited from Exception
    "ArrayGeometry": ("tx_positions", "rx_positions"),
    "BoundBreakdown": ("crb_theta", "m_theta_theta", "theta_a", "b_theta_theta",
                       "mcrb_theta"),
    "BoundsError": None,
    "ConditioningError": ("message", "condition"),
    "DegenerateBoundError": ("message", "denominator", "threshold"),
    "GroundScenario": ("h_r", "wavelength", "eps_r", "gamma_cond", "range_grid",
                       "theta", "v", "r_res", "v_res", "k_pulses",
                       "snr_ref_db", "r_ref"),
    "MultipathScene": ("geom", "theta", "psi", "alpha_d", "alpha_i", "k_pulses",
                       "sigma_w2"),
    "RangePoint": ("r_d", "r_i", "psi", "gamma_r", "smr_db", "delta_phi",
                   "snr_db", "same_cell", "scene", "bound"),
    "RmseCurve": ("rmse_rad", "bias_rad", "trials", "base_seed"),
    "SearchConfig": ("span", "refine_tol"),
    "SingularInformationError": None,
    "beampattern": ("geom", "steer", "grid"),
    "crb_theta": ("scene",),
    "indirect_geometry": ("r_d", "theta", "h_r"),
    "mcrb_sandwich": ("scene", "search"),
    "mcrb_theta_closed": ("scene", "search"),
    "mml_doa": ("y", "geom", "cfg"),
    "monte_carlo_rmse": ("scene_sweep", "cfg", "trials", "base_seed"),
    "multipath_free": ("scene",),
    "range_point": ("scn", "r_d", "search", "geom"),
    "reflection_coefficient": ("psi", "eps_r", "gamma_cond", "wavelength"),
    "scene_from_ratios": ("geom", "theta", "psi", "snr_db", "smr_db", "dphi",
                          "k_pulses"),
    "standard_virtual_ula": ("m_t", "m_r"),
    "synthesize_compressed": ("scene", "noise_seed"),
    "virtual_hpbw": ("geom",),
    "wrap_phase": ("x",),
    # config parsers, recipes and the command line
    "experiments.estimator_from_config": ("cfg",),
    "experiments.geometry_from_config": ("cfg", "path"),
    "experiments.scenario_from_config": ("config",),
    "experiments.scene_from_config": ("cfg", "geom", "snr_db", "dphi", "psi_rad"),
    "experiments.search_from_config": ("cfg",),
    "experiments.run_beampattern": RECIPE,
    "experiments.run_bounds": ("config", "out_dir"),   # no plot
    "experiments.run_fig2": WORKERS_RECIPE,
    "experiments.run_fig3": RECIPE,
    "experiments.run_fig4": RECIPE,
    "experiments.run_fig5": WORKERS_RECIPE,
    "experiments.run_montecarlo": RECIPE,
    "experiments.run_scenario": WORKERS_RECIPE,
    "experiments.run_selftest": (),
    "cli.main": ("argv",),
}

# 27 options: only the Monte-Carlo recipes draw random numbers, bounds
# writes no plot, and no recipe uses workers
RUN_OPTIONS = ("--config", "--out", "--svg")
MC_OPTIONS = ("--config", "--out", "--trials", "--seed", "--svg")
CLI_OPTIONS = {
    "bounds": ("--config", "--out"), "fig2": MC_OPTIONS, "fig3": RUN_OPTIONS,
    "fig4": RUN_OPTIONS, "fig5": RUN_OPTIONS, "scenario": RUN_OPTIONS,
    "montecarlo": MC_OPTIONS, "beampattern": RUN_OPTIONS, "selftest": (),
}


def _root_exports():
    """Public names bound in the package root, submodules aside."""
    return sorted(name for name, obj in vars(mpcrb).items()
                  if not name.startswith("_") and not isinstance(obj, types.ModuleType))


def _parameters(obj):
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:
        return None


def test_root_exports_are_pinned():
    assert _root_exports() == sorted(ROOT_EXPORTS)
    assert len(ROOT_EXPORTS) == 26


def test_public_parameters_are_pinned():
    got = {name: _parameters(getattr(mpcrb, name)) for name in _root_exports()}
    got.update({f"experiments.{name}": _parameters(getattr(experiments, name))
                for name in dir(experiments)
                if name.endswith("_from_config") or name.startswith("run_")})
    got["cli.main"] = _parameters(cli.main)
    assert got == PARAMETERS
    assert sum(len(names or ()) for names in PARAMETERS.values()) == 124


def test_cli_options_are_pinned():
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    got = {name: tuple(opt for action in parser._actions
                       for opt in action.option_strings if opt not in ("-h", "--help"))
           for name, parser in sub.choices.items()}
    assert got == CLI_OPTIONS
    assert sum(map(len, got.values())) == 27


def test_source_lines_stay_within_their_budget():
    # the package's source, counted as `wc -l src/mpcrb/*.py` counts it; a
    # ceiling, lowered as code goes
    lines = sum(path.read_bytes().count(b"\n")
                for path in Path(mpcrb.__file__).parent.glob("*.py"))
    assert lines <= 1963, lines
