"""Full-wave channel model and sum-rate optimizer for multi-mode
pinching-antenna systems."""

from .geometry import Orientation, SphericalBasis
from .waveguide import (MediumConstants, ModeSpec, PaPlacement, WaveguideSpec,
                        coupling_length, h_wg_to_pa, mode_spec, modal_field,
                        te_modes)
from .radiation import (FieldSample, PortResponse, h_pa_to_user,
                        intensity_map, pattern_factor, radiated_field)
from .polarization import (JonesVector, discrete_rx_polarization,
                           incident_jones, matching_efficiency,
                           optimal_rx_polarization, receive_polarization)
from .scenario import Scenario, make_scenario
from .channel import ChannelMatrix, RateReport, assemble, rate_report, sum_rate, user_rate
from .placement import (LinkModel, SingleUserSolution, TwoUserSolution,
                        gain_log_derivative, optimal_orientation,
                        optimal_position, sum_rate_profile,
                        two_user_power_split, two_user_shared_position)
from .multiuser import (AssignmentMatrix, PrecoderFactorization, SchemeResult,
                        UserGrouping, fp_precoding, group_users,
                        hungarian_assign, optimize_scenario)
from .config import ScenarioConfig, build_scenario, config_hash, load_config

__version__ = "0.1.0"
