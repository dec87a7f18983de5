"""Experiment drivers and data export.

Every driver returns an ExperimentResult whose rows are plain tuples
ready for CSV export.  Outputs are deterministic in (config, seed):
per-trial randomness is what an independent generator seeded with
(seed, trial index) would draw, and rows are emitted in sorted order.
The outage drops of all trials are computed at once and equal those
per-trial generators bit for bit.  The CSV header embeds the config
hash and seed; every float column is written with 6 decimals (the
field map rounds its dB values to 4 first).  A driver's rows are
written one format per row.  The field map's body is spelled from its
grid instead, one block of whole y rows at a time: each x and y is
formatted once, and each intensity is spelled by numpy from digit
tables as ASCII bytes, to the same text.
"""

from __future__ import annotations

import math
import os
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .config import ScenarioConfig, build_scenario, config_hash
from .geometry import Orientation
from .multiuser import optimize_scenario
from .placement import (LinkModel, eq22_sum_rate, optimal_position,
                        pair_rates, pair_search, power_split, tdma_sum_rate)
from .radiation import intensity_map, row_blocks
from .waveguide import PaPlacement


@dataclass
class ExperimentResult:
    experiment: str
    columns: tuple
    rows: list
    metadata: dict = field(default_factory=dict)

    def write_csv(self, out_dir) -> str:
        """Write ``<experiment>.csv`` into ``out_dir``: a metadata comment
        line, the column header and one line per row.  ``_body`` yields
        the lines as text chunks: one line per row by default, one block
        of grid rows per chunk for a field map.
        """
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{self.experiment}.csv")
        meta = " ".join(f"{k}={v}" for k, v in sorted(self.metadata.items()))
        with open(path, "w") as fh:
            fh.write(f"# experiment={self.experiment} {meta}\n")
            fh.write(",".join(self.columns) + "\n")
            fh.writelines(self._body())
        return path

    def _body(self):
        """The CSV lines of the rows.  The first row fixes each column's
        format: a float (``np.float64`` included) gets 6 decimals,
        anything else ``str``."""
        if not self.rows:
            return ()
        line = ",".join("%.6f" if isinstance(v, float) else "%s"
                        for v in self.rows[0]) + "\n"
        return map(line.__mod__, self.rows)


class _GridRows(Sequence):
    """The (x, y, intensity) rows of a field map, x fastest, read from
    its axes and grid on access: x and y rounded to 6 decimals and the
    intensity to 4 where ``v * 1e4`` is finite, as Python floats."""

    def __init__(self, xs, ys, grid_db):
        self._xs = np.round(xs, 6).tolist()
        self._ys = np.round(ys, 6).tolist()
        self._grid = grid_db

    def __len__(self):
        return len(self._xs) * len(self._ys)

    def __getitem__(self, index):
        iy, ix = divmod(range(len(self))[index], len(self._xs))
        v = float(self._grid[iy, ix])  # v * 1e4 overflows with no warning
        return (self._xs[ix], self._ys[iy],
                float(np.round(v, 4)) if math.isfinite(v * 1e4) else v)


@dataclass(kw_only=True)
class FieldMapResult(ExperimentResult):
    """A field map: ``xs`` (m) and ``ys`` (m) are the grid axes and
    ``grid_db`` the (len(ys), len(xs)) normalized intensity in dB.
    ``rows`` is derived from them: a read-only sequence of the same
    points as (x, y, intensity) tuples, x fastest, with x and y rounded
    to 6 decimals and the intensity to 4.
    """
    rows: Sequence = field(init=False, repr=False)
    xs: np.ndarray
    ys: np.ndarray
    grid_db: np.ndarray

    def __post_init__(self):
        self.rows = _GridRows(self.xs, self.ys, self.grid_db)

    def _body(self):
        """The rows' CSV lines, one chunk per block of whole y rows
        (``radiation.row_blocks``): each x and y is formatted once, and
        the block's intensities are spelled by ``_spell_lines``.  Every
        value gets the rows' rounding and the text of ``"%.6f"``, so the
        chunks equal the generic rule's lines."""
        xs = _ascii(np.round(self.xs, 6))
        ys = _ascii(np.round(self.ys, 6))
        for rows in row_blocks(len(ys), len(xs)):
            yield _spell_lines(xs, ys[rows], self.grid_db[rows])


# ASCII digit tables of the field map's intensities: row i of
# _FRAC_DIGITS spells i < 10**4 as four digits, and row i of
# _INT_DIGITS spells it without leading zeros, which are NUL bytes
# that the line compaction drops.
_FRAC_DIGITS = (np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy()
                + np.uint8(ord("0")))
_INT_DIGITS = _FRAC_DIGITS.copy()
_INT_DIGITS[:1000, 0] = _INT_DIGITS[:100, 1] = _INT_DIGITS[:10, 2] = 0
# the fixed characters of a line: the two commas, the value's point and
# trailing "00", and the newline
_PUNCT = np.frombuffer(b",,.00\n", np.uint8)


def _ascii(values) -> np.ndarray:
    """``"%.6f"`` of each value as the rows of a uint8 array, padded
    with NUL bytes to the longest text."""
    text = np.array(["%.6f" % v for v in values.tolist()], dtype=bytes)
    return text.view(np.uint8).reshape(text.size, text.itemsize)


def _spell_lines(xs, ys, grid) -> str:
    """The CSV lines ``x,y,value`` of a (len(ys), len(xs)) block of
    intensities, x fastest, given the x and y texts from ``_ascii``.

    ``k = rint(v * 1e4)`` is the multiply and round of ``np.round(v,
    4)``, and for |k| < 10**8 the ``"%.6f"`` text of k / 10**4 is k's
    sign bit (so -0.0 keeps its "-"), the integer and the four-digit
    fraction of |k| / 10**4, and "00": the double nearest k / 10**4 is
    within 1e-12 of it.  Those are spelled from the digit tables; any
    other value (one that rounds to |v| >= 10**4 dB, inf or nan) gets
    ``"%.6f"`` of k / 10**4, or of v itself where k is not finite.  A
    normalized map never gets there: its intensities are above -3233 dB.

    Each line is laid out in a row of NUL-padded fields, and the rows
    are compacted by dropping the NULs.
    """
    with np.errstate(over="ignore"):
        k = np.rint(grid * 1e4).ravel()
    plain = np.abs(k) < 1e8
    whole, frac = np.divmod(np.where(plain, np.abs(k), 0.0).astype(np.intp),
                            10 ** 4)
    ko = k[~plain]
    other = _ascii(np.where(np.isfinite(ko), ko / 1e4, grid.ravel()[~plain]))
    wx, wy = xs.shape[1], ys.shape[1]
    v0 = wx + wy + 2
    width = v0 + max(12, other.shape[1]) + 1
    mat = np.zeros((len(ys), len(xs), width), np.uint8)
    mat[:, :, :wx] = xs
    mat[:, :, wx + 1:v0 - 1] = ys[:, None]
    mat[:, :, [wx, v0 - 1, v0 + 5, v0 + 10, v0 + 11, -1]] = _PUNCT
    mat = mat.reshape(k.size, width)
    mat[:, v0] = np.where(np.signbit(k), ord("-"), 0)
    # a table row's four digits are gathered as one 4-byte word
    mat[:, v0 + 1:v0 + 5] = _INT_DIGITS.view(np.uint32)[whole].view(np.uint8)
    mat[:, v0 + 6:v0 + 10] = _FRAC_DIGITS.view(np.uint32)[frac].view(np.uint8)
    if other.size:
        mat[~plain, v0:-1] = 0
        mat[~plain, v0:v0 + other.shape[1]] = other
    return mat[mat != 0].tobytes().decode("ascii")


def _metadata(cfg: ScenarioConfig, **extra) -> dict:
    meta = {"config": config_hash(cfg), "seed": cfg.seed}
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# sum rate vs transmit power

def run_rate_vs_power(cfg: ScenarioConfig, power_grid_dbw) -> ExperimentResult:
    """Per-scheme sum-rate curves over a transmit-power grid, with the
    full grouping/assignment/placement/precoding pipeline re-run at
    every power point."""
    base = build_scenario(cfg)
    rows = []
    for p_dbw in power_grid_dbw:
        power = 10.0 ** (p_dbw / 10.0)
        scn = replace(base, power=power)
        for scheme in cfg.schemes:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = optimize_scenario(scn, scheme)
            rows.append((float(round(p_dbw, 4)), res.scheme,
                         float(res.report.sum_rate)))
    rows.sort(key=lambda r: (r[0], r[1]))
    return ExperimentResult("rate_vs_power",
                            ("power_dbw", "scheme", "sum_rate"),
                            rows, _metadata(cfg))


# ---------------------------------------------------------------------------
# outage Monte Carlo

# numpy's SeedSequence hash constants (a pool of four 32-bit words) and
# PCG64's 128-bit multiplier as little-endian 32-bit limbs
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = [np.uint64((0x2360ED051FC65DA44385DF649FCCF645 >> (32 * k))
                       & _M32) for k in range(4)]
_U32 = np.uint64(32)
_MASK32 = np.uint64(_M32)


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays, with its running
    constant."""
    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * mult) & _M32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _seed_pool(seed: int, trials: int) -> list:
    """SeedSequence((seed, t)).pool for every t < trials, as four uint32
    arrays.  The entropy is the seed's little-endian 32-bit words
    followed by t (one word for any t < 2**32)."""
    n_words = max(1, -(-seed.bit_length() // 32))
    entropy = [np.full(trials, (seed >> (32 * k)) & _M32, np.uint32)
               for k in range(n_words)]
    entropy.append(np.arange(trials, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(entropy[i] if i < len(entropy)
                    else np.zeros(trials, np.uint32)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, len(entropy)):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    return pool


def _carry(acc: list) -> list:
    """Propagate carries through little-endian limb sums, mod 2**128."""
    out, carry = [], 0
    for limb in acc:
        limb = limb + carry
        out.append(limb & _MASK32)
        carry = limb >> _U32
    return out


def _pcg_step(state: list, inc: list) -> list:
    """state * multiplier + inc mod 2**128, on 32-bit limbs held in
    uint64 arrays (each partial product fits in 64 bits)."""
    acc = list(inc)
    for i in range(4):
        for j in range(4 - i):
            p = state[i] * _PCG_MULT[j]
            acc[i + j] = acc[i + j] + (p & _MASK32)
            if i + j < 3:
                acc[i + j + 1] = acc[i + j + 1] + (p >> _U32)
    return _carry(acc)


def _trial_pairs(cfg: ScenarioConfig, trials: int) -> np.ndarray:
    """(trials, 2, 2) floor (x, y) of the two users of every outage
    trial, uniform over the region: trial t gets what
    ``default_rng((seed, t)).random((2, 2))`` draws, scaled by the
    region, and all trials are computed at once.

    As in numpy, the pool is hashed into four 64-bit words
    (``generate_state(4, uint64)``): the first two are the PCG64 initial
    state and the last two its stream, set up as in
    ``pcg_setseq_128_srandom_r``.  Each double is an XSL-RR output
    shifted to 53 bits.
    """
    pool = _seed_pool(int(cfg.seed), trials)
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    # 64-bit word k is words[2k] | words[2k + 1] << 32; words 0 and 2
    # are the high halves of the state and the stream
    initstate = words[2:4] + words[0:2]
    initseq = words[6:8] + words[4:6]
    one = np.uint64(1)
    inc = [((initseq[k] << one) & _MASK32)
           | (initseq[k - 1] >> np.uint64(31) if k else one)
           for k in range(4)]
    state = _pcg_step(_carry([a + b for a, b in zip(inc, initstate)]), inc)
    draws = []
    for _ in range(4):
        state = _pcg_step(state, inc)
        x = ((state[3] << _U32) | state[2]) ^ ((state[1] << _U32) | state[0])
        rot = state[3] >> np.uint64(26)
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        draws.append((x >> np.uint64(11)) * (1.0 / 9007199254740992.0))
    return (np.stack(draws, axis=1).reshape(trials, 2, 2)
            * [cfg.d_x, cfg.d_y])


def run_outage(cfg: ScenarioConfig, power_grid_dbw, threshold_rate: float = 1.0,
               trials: int = 10_000) -> ExperimentResult:
    """Outage probability (either user of a random pair below the rate
    threshold) versus transmit power for the dual-mode scheme and the
    single-mode time-division baseline.

    Each trial drops two users uniformly in the region and serves them
    from one element, the only element on its guide (so it takes the
    whole guided power), placed at the scheme's optimal position for the
    configured nominal power; the power axis then sweeps the transmit
    power at that deployment.  The link math and the position search
    are ``placement``'s, batched over the trials: ``pair_search`` of
    each scheme's pair rate between the two single-user optima, so the
    dual-mode positions are those of ``two_user_shared_position``.  The
    lane geometry of every trial's users (along-guide coordinate and
    transverse distance) is computed once, and both searches read it
    per lane at every evaluation.
    """
    if cfg.num_modes != 2:
        raise ValueError("outage serves a pair on two modes of one element; "
                         f"config field 'num_modes' is {cfg.num_modes}")
    if trials < 100:
        raise ValueError("outage needs at least 100 trials")
    if not (np.isfinite(threshold_rate) and threshold_rate > 0):
        raise ValueError(f"outage threshold must be a finite positive "
                         f"rate, got {threshold_rate}")
    scn = build_scenario(replace(cfg, pas_per_waveguide=1),
                         users=np.zeros((2, 3)))
    link = LinkModel(scn)
    noise = float(scn.noise[0])
    sigmas = (noise, noise)
    pts = _trial_pairs(cfg, trials)
    u1, u2 = (np.column_stack([pts[:, i], np.zeros(trials)]) for i in (0, 1))
    geo1, geo2 = link.geometry(u1), link.geometry(u2)
    x1 = optimal_position(u1, link.wg, scn.alpha_a)
    x2 = optimal_position(u2, link.wg, scn.alpha_a)
    p_nom = scn.power
    x_mm, _, _ = pair_search(
        lambda x, i: eq22_sum_rate(x, link, geo1[i], geo2[i], sigmas, p_nom),
        x1, x2)
    x_sm, _, _ = pair_search(
        lambda x, i: tdma_sum_rate(x, link, geo1[i], geo2[i], sigmas, p_nom),
        x1, x2)
    g_mm = (link.gain(1, x_mm, geo1), link.gain(2, x_mm, geo2))
    g_sm = (link.gain(1, x_sm, geo1), link.gain(1, x_sm, geo2))

    rows = []
    for p_dbw in power_grid_dbw:
        power = 10.0 ** (p_dbw / 10.0)
        r_mm = pair_rates(*g_mm, power_split(*g_mm, noise, noise, power),
                          sigmas, power)
        # each user of the baseline is served half the time
        r_sm = [0.5 * r for r in pair_rates(*g_sm, (1.0, 1.0), sigmas, power)]
        out_mm = float(np.mean(np.minimum(*r_mm) < threshold_rate))
        out_sm = float(np.mean(np.minimum(*r_sm) < threshold_rate))
        rows.append((float(round(p_dbw, 4)), "MM", out_mm))
        rows.append((float(round(p_dbw, 4)), "SM-TDMA", out_sm))
    rows.sort(key=lambda r: (r[0], r[1]))
    return ExperimentResult(
        "outage", ("power_dbw", "scheme", "outage"), rows,
        _metadata(cfg, trials=trials, threshold=threshold_rate))


def power_at_outage(result: ExperimentResult, scheme: str,
                    target: float) -> float:
    """Interpolated power (dBW) where a scheme's outage crosses the
    target, scanning from high power downward: on a curve that crosses
    more than once, the highest-power crossing."""
    pts = sorted(((r[0], r[2]) for r in result.rows if r[1] == scheme),
                 reverse=True)
    for (p0, o0), (p1, o1) in zip(pts, pts[1:]):
        if (o0 - target) * (o1 - target) <= 0 and o0 != o1:
            return p0 + (target - o0) * (p1 - p0) / (o1 - o0)
    raise ValueError(f"outage curve for {scheme} never crosses {target}")


# ---------------------------------------------------------------------------
# convergence traces

def run_convergence(cfg: ScenarioConfig) -> ExperimentResult:
    scn = build_scenario(cfg)
    rows = []
    for scheme in cfg.schemes:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = optimize_scenario(scn, scheme)
        for it, value in enumerate(res.trace):
            rows.append((it, res.scheme, float(value)))
    rows.sort(key=lambda r: (r[1], r[0]))
    return ExperimentResult("convergence", ("iteration", "scheme", "sum_rate"),
                            rows, _metadata(cfg))


# ---------------------------------------------------------------------------
# radiated-field map

def run_field_map(cfg: ScenarioConfig, grid_res: float = 0.01,
                  port_pitch: float = np.pi / 4) -> FieldMapResult:
    """Normalized floor intensity of a dual-mode element at the ceiling
    center with ports pitched to +/- ``port_pitch``, sampled every
    ``grid_res`` m along x and every max(grid_res, 0.05) m along y."""
    if not (np.isfinite(grid_res) and grid_res > 0):
        raise ValueError(f"grid_res must be positive, got {grid_res}")
    scn = build_scenario(cfg, users=np.zeros((1, 3)))
    wg = scn.waveguides[0]
    pa = PaPlacement(cfg.d_x / 2, tuple(Orientation(s * port_pitch, 0.0)
                                        for s, _ in zip((1, -1), scn.modes)))
    xs = np.arange(0.0, cfg.d_x + 1e-9, grid_res)
    ys = np.arange(0.0, cfg.d_y + 1e-9, max(grid_res, 0.05))
    grid_db = intensity_map(scn.med, wg, scn.modes, pa, xs, ys,
                            alpha_a=scn.alpha_a)
    meta = _metadata(cfg, grid_res=grid_res, pitch=round(port_pitch, 6))
    return FieldMapResult("field_map", ("x", "y", "intensity_db"),
                          metadata=meta, xs=xs, ys=ys, grid_db=grid_db)


@dataclass
class LobeMetrics:
    peak_x: float
    peak_db: float
    half_power_width: float
    sidelobe_suppression_db: float


def xcut_lobe_metrics(xs, cut_db) -> LobeMetrics:
    """Main-lobe position, -3 dB width and first-sidelobe suppression
    along a 1-D cut of a normalized dB map."""
    cut_db = np.asarray(cut_db, dtype=float)
    peak = int(np.argmax(cut_db))
    half = cut_db[peak] - 3.0103
    left = peak
    while left > 0 and cut_db[left] > half:
        left -= 1
    right = peak
    while right < len(xs) - 1 and cut_db[right] > half:
        right += 1
    sidelobe = -np.inf
    for i in range(1, len(xs) - 1):
        if ((i < left or i > right)
                and cut_db[i] > cut_db[i - 1] and cut_db[i] >= cut_db[i + 1]):
            sidelobe = max(sidelobe, cut_db[i])
    return LobeMetrics(peak_x=float(xs[peak]), peak_db=float(cut_db[peak]),
                       half_power_width=float(xs[right] - xs[left]),
                       sidelobe_suppression_db=float(cut_db[peak] - sidelobe))


# ---------------------------------------------------------------------------
# scaling studies

# guide counts M, elements per guide N and user counts K swept
_SCALING_M = (2, 3, 4)
_SCALING_N = (1, 2, 3)
_SCALING_K = (8, 16, 24)


def run_scaling(cfg: ScenarioConfig) -> ExperimentResult:
    """Sum rate versus array sizes (M, N at the config's users) and
    versus the user count K (at the config's M, N).  Every row reports
    the K it ran with; explicitly listed users fix K, so such a config
    gets no K sweep."""
    sizes = [("mn", replace(cfg, num_waveguides=m, pas_per_waveguide=n))
             for m in _SCALING_M for n in _SCALING_N]
    counts = [] if cfg.user_positions else [
        ("k", replace(cfg, num_users=k)) for k in _SCALING_K]
    rows = []
    for sweep, run_cfg in sizes + counts:
        scn = build_scenario(run_cfg)
        for scheme in cfg.schemes:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = optimize_scenario(scn, scheme)
            rows.append((sweep, run_cfg.num_waveguides,
                         run_cfg.pas_per_waveguide, scn.num_users,
                         res.scheme, float(res.report.sum_rate)))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3], r[4]))
    return ExperimentResult(
        "scaling", ("sweep", "m", "n", "k", "scheme", "sum_rate"),
        rows, _metadata(cfg))
