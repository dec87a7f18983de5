"""Full-wave channel model and sum-rate optimizer for multi-mode
pinching-antenna systems.

The names below are re-exported lazily (PEP 562), so ``from mmpass
import config`` loads only the scenario layer.  Each access looks the
name up in its module again: a name replaced there reads the same here.
"""

from importlib import import_module

_EXPORTS = {
    "geometry": ("Orientation", "SphericalBasis"),
    "waveguide": ("MediumConstants", "ModeSpec", "PaPlacement",
                  "WaveguideSpec", "mode_spec", "power_share", "te_modes"),
    "radiation": ("PortResponse", "intensity_map"),
    "polarization": ("receive_polarization",),
    "scenario": ("Scenario", "make_scenario"),
    "channel": ("ChannelMatrix", "PortFactors", "RateReport", "assemble",
                "port_factors", "port_responses", "rate_report"),
    "placement": ("LinkModel", "SingleUserSolution", "TwoUserSolution",
                  "optimal_orientation", "optimal_position",
                  "two_user_shared_position"),
    "multiuser": ("AssignmentMatrix", "PrecoderFactorization",
                  "SchemeResult", "fp_precoding", "group_users",
                  "hungarian_assign", "optimize_scenario"),
    "config": ("ScenarioConfig", "build_scenario", "config_hash",
               "load_config"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)
