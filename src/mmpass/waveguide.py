"""TE-mode propagation and the guide-to-port channel.

Rectangular dielectric waveguides of cross section a x b (a > b, a
along y, b along z) run parallel to the x-axis.  Each guide carries up
to two propagating modes, indexed q = 1 (TE10) and q = 2 (TE01), and
hosts N pinching elements that each extract an equal 1/N share of the
guided power.  Only that share enters the model; the coupling lengths
of an equal-quota cascade that would realize it are a test oracle
(``tests/oracles.py``).

The guide-to-port gain for mode q at position x is

    h = sqrt(share) * exp(-1j beta_q x),   share = exp(-alpha_w x) / N,

with the share from :func:`power_share`.  ``channel.port_factors``
stacks these gains into the block-diagonal QMN x QM matrix H_wp (one
NQ x Q block per waveguide, zero across guides and across modes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Orientation

# CODATA 2022: the exact speed of light (m/s)
SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class MediumConstants:
    """Carrier and material constants shared by every waveguide."""

    frequency: float
    n_core: float = 2.0

    def __post_init__(self):
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")
        if self.n_core < 1:
            raise ValueError("core refractive index must be >= 1")

    @property
    def wavelength0(self) -> float:
        """Free-space wavelength c / f."""
        return SPEED_OF_LIGHT / self.frequency

    @property
    def k0(self) -> float:
        """Free-space wavenumber 2 pi / lambda0."""
        return 2 * np.pi / self.wavelength0

    @property
    def guided_wavenumber(self) -> float:
        """Wavenumber inside the dielectric core, n_core * k0."""
        return self.n_core * self.k0


@dataclass(frozen=True)
class WaveguideSpec:
    """One physical waveguide: cross section, feed point, loss and
    element count.

    ``alpha_w`` is the internal power attenuation in Np/m (dB inputs are
    converted at config ingestion).  ``aperture_scale`` sets the size of
    the radiating aperture of each port relative to the guide cross
    section; it does not alter the modal constants.  ``feed_point`` is
    kept as a read-only copy.
    """

    a: float
    b: float
    feed_point: np.ndarray
    length: float
    alpha_w: float = 0.0
    num_pas: int = 1
    aperture_scale: float = 1.0

    def __post_init__(self):
        if not (self.a > self.b > 0):
            raise ValueError("cross section requires a > b > 0")
        if self.alpha_w < 0:
            raise ValueError("alpha_w must be >= 0")
        if self.num_pas < 1:
            raise ValueError("num_pas must be >= 1")
        feed_point = np.array(self.feed_point, dtype=float)
        feed_point.flags.writeable = False
        object.__setattr__(self, "feed_point", feed_point)

    @property
    def axis_y(self) -> float:
        return float(self.feed_point[1])

    @property
    def axis_z(self) -> float:
        return float(self.feed_point[2])

    @property
    def aperture_a(self) -> float:
        return self.a * self.aperture_scale

    @property
    def aperture_b(self) -> float:
        return self.b * self.aperture_scale


@dataclass(frozen=True)
class ModeSpec:
    """A propagating TE mode: its index q and the constants that
    ``mode_spec`` derives from (u, v)."""

    index: int  # 1-based mode index q
    cutoff_wavenumber: float
    propagation_constant: float


def mode_spec(u: int, v: int, wg: WaveguideSpec, med: MediumConstants,
              index: int = 1) -> ModeSpec:
    """Build a TE_{u,v} mode, rejecting evanescent combinations.

    The cutoff is rho_q = sqrt((u pi / a)^2 + (v pi / b)^2) and the
    propagation constant beta_q = sqrt(rho^2 - rho_q^2) with rho the
    guided wavenumber n_core * k0.
    """
    if (u, v) == (0, 0):
        raise ValueError("TE00 does not exist")
    cutoff = np.sqrt((u * np.pi / wg.a) ** 2 + (v * np.pi / wg.b) ** 2)
    rho = med.guided_wavenumber
    if rho <= cutoff:
        raise ValueError(
            f"TE{u}{v} is evanescent: guided wavenumber {rho:.1f} rad/m "
            f"below cutoff {cutoff:.1f} rad/m")
    beta = np.sqrt(rho ** 2 - cutoff ** 2)
    return ModeSpec(index, float(cutoff), float(beta))


def te_modes(wg: WaveguideSpec, med: MediumConstants, count: int = 2):
    """The fixed mode map q=1 -> TE10, q=2 -> TE01."""
    if count not in (1, 2):
        raise ValueError("only one or two modes are supported")
    modes = [mode_spec(1, 0, wg, med, index=1)]
    if count == 2:
        modes.append(mode_spec(0, 1, wg, med, index=2))
    return modes


@dataclass(frozen=True)
class PaPlacement:
    """One pinching element on a waveguide with per-port orientations:
    the record of a deployed element (``multiuser.SlotSolution``) and of
    a field map's element.  The pipeline itself carries positions and
    aims as arrays."""

    x_position: float
    orientations: tuple[Orientation, ...]

    def center(self, wg: WaveguideSpec) -> np.ndarray:
        return element_center(self.x_position, wg)


def element_center(x, wg: WaveguideSpec) -> np.ndarray:
    """GCS center of an element at position x on guide ``wg``; an
    array of positions gives one center per position, (..., 3)."""
    return np.stack(np.broadcast_arrays(x, wg.axis_y, wg.axis_z), axis=-1)


def power_share(x, wg: WaveguideSpec) -> np.ndarray:
    """The share e^(-alpha_w x) / N of the guided power that elements at
    positions ``x`` (any array shape) on guide ``wg`` extract; a position
    outside [0, length] raises ValueError."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0) & (x <= wg.length + 1e-12)):
        raise ValueError(f"pa position {x} outside the waveguide")
    return np.exp(-wg.alpha_w * x) / wg.num_pas
