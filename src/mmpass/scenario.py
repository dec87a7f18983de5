"""System-level scenario description.

A Scenario bundles everything needed to evaluate the end-to-end
channel: medium constants, the waveguide array with its pinching
elements, the propagating modes, user locations, transmit power and
per-user noise.

Channel gains carry a per-mode reference normalization by default:
the raw aperture-field ratio of the far-field formulas is of order
1e-6 for millimeter apertures at meter ranges, which is 60 dB below
the operating point implied by the quoted transmit power and noise
floor.  Normalizing each mode's boresight gain to its obliquity factor
(1 + beta/rho) at 1 m puts the link budget in the intended regime
while preserving every relative dependence (pattern, polarization,
spreading, both attenuations).  Set ``gain_norm`` to ones to work with
the literal field-ratio gains.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .geometry import Orientation
from .radiation import aperture_constant
from .waveguide import (MediumConstants, ModeSpec, PaPlacement, WaveguideSpec,
                        te_modes)

REFERENCE_DISTANCE = 1.0  # m, anchor for the per-mode gain normalization


# every guide of a scenario shares these with guide 0: the per-scenario
# element count, aperture constants and the slot solver's shared guide
# frame read them from guide 0 alone
_UNIFORM_GUIDE_FIELDS = ("a", "b", "aperture_scale", "num_pas", "length",
                         "alpha_w", "axis_z")


@dataclass(frozen=True, eq=False)
class Scenario:
    """The inputs of one end-to-end evaluation, immutable.

    Its fields cannot be reassigned, its ``users``, ``noise`` and
    ``gain_norm`` arrays are read-only, and its guides and modes are
    tuples of frozen specs.  ``multiuser.optimize_scenario`` deploys
    the elements once per scenario and reuses that deployment for every
    scheme run on it while the scenario lives, which is sound only if
    the scenario cannot change under it.  The element ``placements``
    stay lists, as the deployment replaces them instead of reading
    them.  Scenarios compare and hash by identity;
    ``dataclasses.replace`` derives a changed copy, which is deployed
    anew.
    """

    med: MediumConstants
    waveguides: tuple[WaveguideSpec, ...]
    modes: tuple[ModeSpec, ...]
    placements: list[list[PaPlacement]]
    users: np.ndarray  # (K, 3), floor plane
    power: float  # total transmit power, W
    noise: np.ndarray  # (K,) noise power, W
    alpha_a: float = 0.0  # atmospheric absorption, Np/m
    gain_norm: np.ndarray | None = None  # per-mode scale on port-to-user gains

    def __post_init__(self):
        object.__setattr__(self, "waveguides", tuple(self.waveguides))
        object.__setattr__(self, "modes", tuple(self.modes))
        first = self.waveguides[0]
        for m, wg in enumerate(self.waveguides[1:], start=1):
            for name in _UNIFORM_GUIDE_FIELDS:
                if getattr(wg, name) != getattr(first, name):
                    raise ValueError(
                        f"guide {m} differs from guide 0 in {name} "
                        f"({getattr(wg, name)!r} vs {getattr(first, name)!r})"
                        "; guides may differ only in axis_y")
        users = np.array(self.users, dtype=float, ndmin=2)
        noise = np.broadcast_to(np.asarray(self.noise, dtype=float),
                                (users.shape[0],)).copy()
        if np.any(noise <= 0):
            raise ValueError("noise power must be positive")
        gain_norm = (np.ones(len(self.modes)) if self.gain_norm is None
                     else np.array(self.gain_norm, dtype=float))
        for name, value in (("users", users), ("noise", noise),
                            ("gain_norm", gain_norm)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def num_waveguides(self) -> int:
        return len(self.waveguides)

    @property
    def num_pas(self) -> int:
        return self.waveguides[0].num_pas

    @property
    def num_modes(self) -> int:
        return len(self.modes)

    @property
    def num_users(self) -> int:
        return self.users.shape[0]

    @cached_property
    def aperture_constants(self) -> np.ndarray:
        """aperture_constant of each mode, computed once; every guide
        shares the cross section of the first."""
        return np.array([aperture_constant(self.med, self.waveguides[0], mode)
                         for mode in self.modes])

    @property
    def port_gains(self) -> np.ndarray:
        """Distance- and angle-free port-to-user gain of each mode: the
        gain normalization times the aperture constant."""
        return self.gain_norm * self.aperture_constants

    def mode_amplitude(self, q: int) -> float:
        """Normalized boresight gain constant of mode q at 1 m: the
        distance-free magnitude of the port-to-user gain times the
        on-axis polarization norm."""
        mode = self.modes[q - 1]
        psi0 = 1.0 + mode.propagation_constant / self.med.k0
        return float(self.port_gains[q - 1] * psi0 / REFERENCE_DISTANCE)

    def with_modes(self, count: int) -> "Scenario":
        return replace(self, modes=self.modes[:count],
                       gain_norm=self.gain_norm[:count])


def per_mode_gain_norm(med: MediumConstants, wg: WaveguideSpec, modes) -> np.ndarray:
    """Normalization making each mode's 1 m boresight gain equal to its
    obliquity factor (see module docstring)."""
    return np.array([REFERENCE_DISTANCE / aperture_constant(med, wg, mode)
                     for mode in modes])


def waveguide_y_positions(d_y: float, count: int) -> np.ndarray:
    """Uniform lateral spacing, centered in the region."""
    return d_y * (np.arange(count) + 0.5) / count


def default_placements(waveguides, num_pas: int,
                       num_modes: int) -> list[list[PaPlacement]]:
    """Elements evenly spread over each guide's length, pointing
    straight down."""
    down = tuple(Orientation() for _ in range(num_modes))
    return [[PaPlacement(wg.length * (n + 1) / (num_pas + 1), down)
             for n in range(num_pas)] for wg in waveguides]


def make_scenario(med: MediumConstants, *, region, num_waveguides: int,
                  num_pas: int, num_modes: int, users, power: float,
                  noise_w: float, alpha_w: float, alpha_a: float,
                  a: float = 3e-3, b: float = 2e-3,
                  aperture_scale: float = 1.0,
                  normalize_gains: bool = True) -> Scenario:
    d_x, d_y, d_z = region
    ys = waveguide_y_positions(d_y, num_waveguides)
    waveguides = [
        WaveguideSpec(a=a, b=b, feed_point=np.array([0.0, y, d_z]),
                      length=d_x, alpha_w=alpha_w, num_pas=num_pas,
                      aperture_scale=aperture_scale)
        for y in ys
    ]
    modes = te_modes(waveguides[0], med, count=num_modes)
    users = np.atleast_2d(np.asarray(users, dtype=float))
    gain_norm = (per_mode_gain_norm(med, waveguides[0], modes)
                 if normalize_gains else np.ones(num_modes))
    return Scenario(
        med=med, waveguides=waveguides, modes=modes,
        placements=default_placements(waveguides, num_pas, num_modes),
        users=users, power=power,
        noise=np.full(users.shape[0], noise_w),
        alpha_a=alpha_a, gain_norm=gain_norm)
