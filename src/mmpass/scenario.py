"""System-level scenario description.

A Scenario bundles the inputs of the end-to-end channel: medium
constants, the waveguide array, the propagating modes, user locations,
transmit power and per-user noise.  It holds no element placement:
``multiuser`` deploys the elements of each time slot as arrays of
positions and per-mode aims, which ``channel.port_factors`` evaluates.
The transmission schemes (``parse_scheme``) are defined here, so that
a config is checked without loading the optimizer.

The port-to-user gain of every mode is normalized: its distance- and
angle-free constant is 1, so mode q's boresight gain at 1 m is its
obliquity factor 1 + beta_q/rho (``Scenario.mode_amplitude``).  The
full-wave model's literal constant a b omega mu / (lambda rho_q^2
|E_axis|), with |E_axis| the modal field magnitude on the guide axis,
is of order 1e-6 for millimeter apertures at meter ranges, which is
60 dB below the operating point implied by the quoted transmit power
and noise floor.  The normalization puts the link
budget in the intended regime and keeps every relative dependence
(pattern, polarization, spreading, both attenuations).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .waveguide import MediumConstants, ModeSpec, WaveguideSpec, te_modes

# every guide of a scenario shares these with guide 0: the per-scenario
# element count, the port responses and the slot solver's shared guide
# frame read them from guide 0 alone
_UNIFORM_GUIDE_FIELDS = ("a", "b", "aperture_scale", "num_pas", "length",
                         "alpha_w", "axis_z")


@dataclass(frozen=True, eq=False)
class Scenario:
    """The inputs of one end-to-end evaluation, immutable.

    Its fields cannot be reassigned, its ``users`` and ``noise`` arrays
    are read-only, and its guides and modes are tuples of frozen specs.
    ``multiuser.optimize_scenario`` deploys the elements once per
    scenario and reuses that deployment for every scheme run on it
    while the scenario lives, which is sound only if the scenario
    cannot change under it.  Scenarios compare and hash by identity;
    ``dataclasses.replace`` derives a changed copy, which is deployed
    anew.
    """

    med: MediumConstants
    waveguides: tuple[WaveguideSpec, ...]
    modes: tuple[ModeSpec, ...]
    users: np.ndarray  # (K, 3), floor plane
    power: float  # total transmit power, W
    noise: np.ndarray  # (K,) noise power, W
    alpha_a: float = 0.0  # atmospheric absorption, Np/m

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
        for name, value in (("users", users), ("noise", noise)):
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

    def mode_amplitude(self, q: int) -> float:
        """Normalized boresight gain of mode q at 1 m: the on-axis
        polarization norm 1 + beta_q/rho."""
        return 1.0 + self.modes[q - 1].propagation_constant / self.med.k0

    def with_modes(self, count: int) -> "Scenario":
        return replace(self, modes=self.modes[:count])


@dataclass(frozen=True)
class Scheme:
    name: str
    num_modes: int
    rx_policy: str  # matched | fixed | codebook


_SCHEMES = {
    "pa-mm": Scheme("PA-MM", 2, "matched"),
    "pi-mm": Scheme("PI-MM", 2, "fixed"),
    "dp-mm": Scheme("DP-MM", 2, "codebook"),
    "pa-sm": Scheme("PA-SM", 1, "matched"),
    "pi-sm": Scheme("PI-SM", 1, "fixed"),
}


def parse_scheme(name: str) -> Scheme:
    key = name.strip().lower().replace("pass", "").replace("_", "-")
    key = key.replace("mmp", "mm").replace("smp", "sm")
    if key not in _SCHEMES:
        raise ValueError(f"unknown scheme {name!r}; expected one of "
                         f"{sorted(s.name for s in _SCHEMES.values())}")
    return _SCHEMES[key]


def waveguide_y_positions(d_y: float, count: int) -> np.ndarray:
    """Uniform lateral spacing, centered in the region."""
    return d_y * (np.arange(count) + 0.5) / count


def make_scenario(med: MediumConstants, *, region, num_waveguides: int,
                  num_pas: int, num_modes: int, users, power: float,
                  noise_w: float, alpha_w: float, alpha_a: float,
                  a: float = 3e-3, b: float = 2e-3,
                  aperture_scale: float = 1.0) -> Scenario:
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
    return Scenario(
        med=med, waveguides=waveguides, modes=modes,
        users=users, power=power,
        noise=np.full(users.shape[0], noise_w),
        alpha_a=alpha_a)
