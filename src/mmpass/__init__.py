"""Full-wave channel model and sum-rate optimizer for multi-mode
pinching-antenna systems."""

from .geometry import Orientation, SphericalBasis
from .waveguide import (MediumConstants, ModeSpec, PaPlacement, WaveguideSpec,
                        mode_spec, power_share, te_modes)
from .radiation import PortResponse, intensity_map
from .polarization import receive_polarization
from .scenario import Scenario, make_scenario
from .channel import (ChannelMatrix, PortFactors, RateReport, assemble,
                      port_factors, port_responses, rate_report)
from .placement import (LinkModel, SingleUserSolution, TwoUserSolution,
                        gain_log_derivative, optimal_orientation,
                        optimal_position, two_user_shared_position)
from .multiuser import (AssignmentMatrix, PrecoderFactorization, SchemeResult,
                        fp_precoding, group_users, hungarian_assign,
                        optimize_scenario)
from .config import ScenarioConfig, build_scenario, config_hash, load_config

__version__ = "0.1.0"
