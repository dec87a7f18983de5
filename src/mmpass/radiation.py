"""Far-field radiation from a pinching-antenna port.

Each port is a rectangular aperture that radiates the guided mode it
taps.  In the port's local frame the field factorizes into a scalar
pattern factor S_q and a transverse polarization vector Psi_q carried
by (vartheta, varphi).  Both are written on the direction cosines
u = sin t cos p, v = sin t sin p, w = cos t of :mod:`mmpass.geometry`
and on the azimuth's cos p and sin p (an aperture pattern is a
function of u and v; Balanis, "Antenna Theory", ch. 12):

    S_1 = sinc(b pi/lam u) * cos(a pi/lam v) / (1 - (2a/lam v)^2)
    Psi_1 = (1 + beta/rho w) cos p * vartheta + (beta/rho + w) sin p * varphi

with the q = 2 forms obtained by swapping u and v, cos p and sin p,
and a and b.  rho = 2 pi / lambda0 is the free-space wavenumber;
beta_q is the guided propagation constant, so beta/rho can exceed one
inside a dense core.  In the port frame vartheta = (w cos p, w sin p,
-sin t) and varphi = (-sin p, cos p, 0); on the boresight axis the
azimuth is pinned to p = 0, as :mod:`mmpass.geometry` describes.

The removable singularities of S are evaluated through sinc(x) =
sin(x)/x, which takes its exact limit 1 at x = 0: the sinc itself,
and the cosine taper, which tends to pi/4 at |argument| = 1 and is
rewritten as (pi/2) sinc(pi/2 (|x| - 1)) / (|x| + 1).  So the factors
are continuous everywhere, and the only trigonometric calls are the
sines of the two sinc arguments.

Every channel gain and field direction in the package comes from one
kernel, :class:`PortResponse`.  For one port and P observation points,
or for L ports (lanes) at P shared points or at points of their own,
it holds the distance r, the signed pattern S_q |Psi_q| / r and the
unit GCS direction of the radiated field.  A lane's results equal
those of its port evaluated alone, bit for bit, so callers batch every
port of a mode into one call.  The channel's port gain constant is 1
for every mode (see :mod:`mmpass.scenario`), so the port-to-user
amplitude is the pattern under absorption, ``amplitude(alpha_a)``:
the channel multiplies in the free-space phase, and a field map the
raw-field mode weight.  S_q keeps its sign everywhere, so a gain
on a sidelobe where S_q < 0 carries the physical pi phase flip.  The
pattern and the direction are computed the first time they are read:
a field map never evaluates directions, and a polarization lookup
never evaluates S_q.

Kernels over many points run in blocks of whole rows of at most 2^14
points each (:func:`row_blocks`): the field map by rows of y, the
slot solver's interference table by source guides, and the field
map's CSV text (``bench.FieldMapResult``) by rows of y again.  Every
point is computed elementwise, so a block's values are those of one
whole-grid evaluation, bit for bit, while the temporaries alive at
once are bounded by one block instead of growing with the grid.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .geometry import Orientation, local_direction
from .waveguide import MediumConstants, ModeSpec, PaPlacement, WaveguideSpec

# Points per block of the blocked kernels, ``intensity_map``,
# ``multiuser._SlotSolver.cross_table`` and the field map's CSV text
# (``bench.FieldMapResult._body``).  A block holds as many whole
# rows as fit, so the default field map (121 rows of 1001 points) runs
# in blocks of 16 rows.  Timed on that map (median of 15 runs, 2-core
# Xeon, one BLAS thread), blocks of 4, 8, 16, 32 and 121 rows took 46,
# 35, 33, 39 and 49 ms: 8 and 16 rows were the fastest.
_BLOCK_POINTS = 2 ** 14


def _sinc(x):
    """sin(x)/x with its exact limit 1 at x = 0."""
    return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)


def _cos_taper(x):
    """cos(pi x / 2) / (1 - x^2), continuous with value pi/4 at |x| = 1,
    as (pi/2) sinc(pi/2 (|x| - 1)) / (|x| + 1), which is exact and
    finite for every real x."""
    ax = np.abs(x)
    return (np.pi / 2) * _sinc(np.pi / 2 * (ax - 1.0)) / (ax + 1.0)


class PortResponse:
    """Response of one port, or of ports in lanes, at observation points.

    One port: ``center`` is a 3-vector, ``orientation`` an Orientation
    of float angles and ``points`` one point or a (P, 3) array.  Lanes:
    ``orientation`` holds pitch and roll arrays of the lane shape S
    (one mode, so one port per lane), ``center`` is (*S, 3) and
    ``points`` (P, 3), seen by every lane, or (*S, P, 3), points of
    each lane's own; the guide ``wg`` only sets the aperture, which
    every guide shares.  ``r`` and ``pattern`` have one entry per lane
    and point, (P,) or (*S, P), and ``direction`` a unit 3-vector more.

    ``r`` is computed on construction.  ``pattern``, the signed
    S_q |Psi_q| / r, and ``direction``, the unit field direction in the
    GCS, are computed on first read.
    """

    def __init__(self, med: MediumConstants, mode: ModeSpec,
                 wg: WaveguideSpec, center, orientation: Orientation, points):
        if mode.index not in (1, 2):
            raise ValueError(f"unsupported mode index {mode.index}")
        self.med, self.mode, self.wg = med, mode, wg
        self.orientation = orientation
        self.local = local_direction(points, center, orientation)
        self.r = self.local.r

    @cached_property
    def _psi(self):
        d = self.local
        c_1, c_2 = ((d.cos_phi, d.sin_phi) if self.mode.index == 1
                    else (d.sin_phi, d.cos_phi))
        ratio = self.mode.propagation_constant / self.med.k0
        psi_t = (1.0 + ratio * d.w) * c_1
        psi_p = (ratio + d.w) * c_2
        return psi_t, psi_p, np.sqrt(psi_t * psi_t + psi_p * psi_p)

    @cached_property
    def pattern(self) -> np.ndarray:
        d, lam = self.local, self.med.wavelength0
        a, b = self.wg.aperture_a, self.wg.aperture_b
        if self.mode.index == 1:
            s_q = _sinc(np.pi * b / lam * d.u) * _cos_taper(2 * a / lam * d.v)
        else:
            s_q = _sinc(np.pi * a / lam * d.v) * _cos_taper(2 * b / lam * d.u)
        return s_q * self._psi[2] / self.r

    def amplitude(self, alpha_a: float) -> np.ndarray:
        """The signed port-to-user amplitude, the pattern attenuated by
        atmospheric absorption alpha_a (Np/m) over the distance r."""
        return self.pattern * np.exp(-0.5 * alpha_a * self.r)

    @cached_property
    def direction(self) -> np.ndarray:
        """Unit field direction c_t vartheta + c_p varphi, with (c_t, c_p)
        = (Psi_t, Psi_p) / |Psi_q|, or (1, 0), the polar unit vector,
        where Psi_q vanishes.  It is formed in the port frame component
        by component from vartheta = (w cos p, w sin p, -sin t) and
        varphi = (-sin p, cos p, 0), and mapped to the GCS once."""
        psi_t, psi_p, norm = self._psi
        d = self.local
        live = norm > 0
        c_t = np.divide(psi_t, norm, out=np.ones_like(norm), where=live)
        c_p = np.divide(psi_p, norm, out=np.zeros_like(norm), where=live)
        c_tw = c_t * d.w
        vec = np.stack([c_tw * d.cos_phi - c_p * d.sin_phi,
                        c_tw * d.sin_phi + c_p * d.cos_phi,
                        -(c_t * d.sin_theta)], axis=-1)
        return self.orientation.to_gcs(vec)


def row_blocks(n_rows: int, row_points: int):
    """Yield slices of consecutive rows, rows of ``row_points`` points
    each, that cover ``n_rows`` rows in blocks of at most
    ``_BLOCK_POINTS`` points; a row longer than that is a block of its
    own."""
    step = max(1, _BLOCK_POINTS // row_points)
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def intensity_map(med: MediumConstants, wg: WaveguideSpec, modes, pa: PaPlacement,
                  xs, ys, alpha_a: float = 0.0):
    """|E|^2 of the radiated field over the floor plane z = 0, in dB
    relative to the grid maximum.

    ``xs`` and ``ys`` are 1-D axes; the result is indexed [iy, ix].
    The intensities of the ports, one per mode, are summed before
    normalization.  The map shows the raw radiated field, not the
    channel's normalized gain, so each mode carries its raw-field
    weight 1/rho_q^2; the constants every mode shares and the guide
    attenuation at the element cancel in the normalization.

    The grid is evaluated in blocks of whole rows of y (``row_blocks``)
    into one array, which is then normalized in place, so the memory
    taken is the grid plus one block's temporaries.  Every point is
    computed elementwise, so the blocks leave each value as it is.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2 or ys.size < 2:
        raise ValueError("grid needs at least 2 points per axis")
    center = pa.center(wg)
    total = np.empty((ys.size, xs.size))
    for rows in row_blocks(ys.size, xs.size):
        gx, gy = np.meshgrid(xs, ys[rows], copy=False)
        points = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
        # one port's response is alive at a time
        total[rows] = sum(
            (PortResponse(med, mode, wg, center, orientation, points)
             .amplitude(alpha_a) / mode.cutoff_wavenumber ** 2) ** 2
            for mode, orientation in zip(modes, pa.orientations)
        ).reshape(gx.shape)
    total /= total.max()
    np.log10(total, out=total)
    total *= 10
    return total
