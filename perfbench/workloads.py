"""Workload inputs, operations and output checks.

Inputs come from a bank of drops per workload.  Drop ``b`` is a pure
function of ``(workload salt, b)``: users are drawn uniformly over the
floor region, the same law as ``config.draw_users``, and the figures
workload draws a port pitch and an outage config seed.  The run seed
only picks the order in which a run visits the bank, so any seed runs
unchanged and every operation has an entry in the reference table that
``make_reference.py`` generated from the same bank.

Every operation's output is checked twice: against invariants that
hold for any correct program, and against the reference table.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from mmpass import bench, config, multiuser

REFERENCE_DIR = Path(__file__).with_name("reference")

# Sum rates must not fall more than REL_BELOW under the reference: the
# pipeline is deterministic in its inputs, reassociating floating-point
# sums moves a ~28 bit/s/Hz rate by ~1e-12, and an FP loop that stops
# one iteration earlier or later moves it by under 1e-5 of its value
# (the trace still gains ~7e-6 bit/s/Hz per iteration at the cap).  A
# solver that stops far earlier loses ~2e-3 and fails.
SUM_RATE_REL_BELOW = 1e-5
# A rate may beat the reference (a better stationary point is not an
# error) but not by more than REL_ABOVE: the FP trace at this commit is
# within ~2e-3 of its limit, so a 1e-2 rise means the rate evaluation
# itself changed.
SUM_RATE_REL_ABOVE = 1e-2
# Per-user rates are summed into sum_rate in one numpy reduction.
RATE_SUM_REL = 1e-9
# The FP trace is a monotone ascent in exact arithmetic.
TRACE_DROP_TOL = 1e-9
# Spacing is enforced as prev + lambda0/2, which rounds by ~1e-19 m.
SPACING_TOL_M = 1e-12
# Lobe metrics read grid coordinates (exact) and dB values that the
# map formats and compares at 1e-4 dB.
LOBE_TOL = 1e-6
# Outage values are counts over the trial ensemble; one trial whose
# minimum rate sits within rounding of the threshold may flip.
OUTAGE_TRIAL_SLACK = 1


@dataclass(frozen=True)
class Op:
    drop: int
    scheme: str = ""

    @property
    def key(self) -> str:
        return f"{self.drop}/{self.scheme}" if self.scheme else str(self.drop)


class _Bank:
    """Op streams over a bank of ``bank`` drops."""

    def drop_ops(self, drop: int) -> list[Op]:
        raise NotImplementedError

    def bank_ops(self):
        """Every op of the bank, in drop order."""
        for drop in range(self.bank):
            yield from self.drop_ops(drop)

    def ops(self, seed: int):
        """Endless op stream: all ops of each drop, drops in the seed's
        order over the bank."""
        order = np.random.default_rng(seed).permutation(self.bank)
        while True:
            for drop in order:
                yield from self.drop_ops(int(drop))


class ScenarioWorkload(_Bank):
    """One op is ``multiuser.optimize_scenario(scenario, scheme)`` on a
    scenario built from a drop of uniform users."""

    def __init__(self, name, salt, cfg, schemes, bank, quality_drops):
        self.name = name
        self.salt = salt
        self.cfg = cfg.validate()
        self.schemes = tuple(schemes)
        self.bank = bank
        # sum_rate_mean covers a fixed number of whole drops, so a
        # faster program does not average over a different sample
        self.ops_per_drop = len(self.schemes)
        self.quality_ops = quality_drops * self.ops_per_drop
        self._scenario = (None, None)

    def users(self, drop: int) -> np.ndarray:
        rng = np.random.default_rng([self.salt, drop])
        xy = rng.uniform([0.0, 0.0], [self.cfg.d_x, self.cfg.d_y],
                         size=(self.cfg.num_users, 2))
        return np.column_stack([xy, np.zeros(self.cfg.num_users)])

    def drop_ops(self, drop: int) -> list[Op]:
        return [Op(drop, scheme) for scheme in self.schemes]

    def prepare(self, op: Op):
        """Input of the op, built outside its timing (once per drop)."""
        if self._scenario[0] != op.drop:
            scn = config.build_scenario(self.cfg, users=self.users(op.drop))
            self._scenario = (op.drop, scn)
        return self._scenario[1]

    def run(self, op: Op, scenario, out_dir):
        return multiuser.optimize_scenario(scenario, op.scheme)

    def fingerprint(self, result) -> float:
        """Reference entry of an op: its sum rate."""
        return float(result.report.sum_rate)

    sum_rate = fingerprint

    def placed(self, result) -> int:
        """Elements greedy fill added beyond one per group."""
        return int(sum(int(s.assignment.x.sum()) - s.assignment.x.shape[1]
                       for s in result.slots))

    def check(self, op: Op, scenario, result, reference) -> list[str]:
        problems = []
        rates = np.asarray(result.report.per_user_rate, dtype=float)
        total = float(result.report.sum_rate)
        if not (np.all(np.isfinite(rates)) and np.all(rates >= 0.0)):
            problems.append("per-user rates not finite and >= 0")
        if not math.isclose(float(rates.sum()), total,
                            rel_tol=RATE_SUM_REL, abs_tol=RATE_SUM_REL):
            problems.append(f"per-user rates sum to {rates.sum()!r}, "
                            f"sum_rate is {total!r}")
        lam_half = scenario.med.wavelength0 / 2
        for s_idx, slot in enumerate(result.slots):
            trace = np.asarray(slot.trace, dtype=float)
            if trace.size > 1 and np.min(np.diff(trace)) < -TRACE_DROP_TOL:
                problems.append(f"slot {s_idx}: FP trace decreases by "
                                f"{-np.min(np.diff(trace)):.3g}")
            x = slot.assignment.x
            if np.any(x.sum(axis=1) > 1):
                problems.append(f"slot {s_idx}: an element serves two groups")
            if np.any(x.sum(axis=0) < 1):
                problems.append(f"slot {s_idx}: a group is not served")
            n_pas = scenario.num_pas
            for m, row in enumerate(slot.placements):
                length = scenario.waveguides[m].length
                xs = sorted(row[n].x_position for n in range(n_pas)
                            if x[m * n_pas + n].any())
                if xs and (xs[0] < 0.0 or xs[-1] > length):
                    problems.append(f"slot {s_idx} guide {m}: element "
                                    f"outside [0, {length}]")
                gaps = np.diff(xs)
                if gaps.size and gaps.min() < lam_half - SPACING_TOL_M:
                    problems.append(f"slot {s_idx} guide {m}: elements "
                                    f"{gaps.min():.3g} m apart, below "
                                    f"lambda0/2 = {lam_half:.3g} m")
        ref = reference.get(op.key)
        if ref is None:
            problems.append(f"no reference for {self.name} op {op.key}")
        elif not (ref * (1 - SUM_RATE_REL_BELOW) <= total
                  <= ref * (1 + SUM_RATE_REL_ABOVE)):
            problems.append(f"sum rate {total!r} vs reference {ref!r}")
        return problems


class FiguresWorkload(_Bank):
    """One op regenerates the field map and the outage curve and writes
    both CSVs."""

    POWERS_DBW = tuple(float(p) for p in range(-22, -1, 2))
    THRESHOLD = 1.0
    ops_per_drop = 1

    def __init__(self, name, salt, bank, quality_drops):
        self.name = name
        self.salt = salt
        self.cfg = config.ScenarioConfig().validate()
        self.bank = bank
        self.quality_ops = quality_drops

    def drop_ops(self, drop: int) -> list[Op]:
        return [Op(drop)]

    def prepare(self, op: Op) -> tuple[float, int]:
        """(port pitch, outage config seed) of the op's drop."""
        rng = np.random.default_rng([self.salt, op.drop])
        pitch = float(rng.uniform(np.pi / 8, 3 * np.pi / 8))
        return pitch, int(rng.integers(1, 2 ** 31))

    def run(self, op: Op, params, out_dir):
        pitch, cfg_seed = params
        fmap = bench.run_field_map(self.cfg, port_pitch=pitch)
        fmap_path = fmap.write_csv(out_dir)
        outage = bench.run_outage(replace(self.cfg, seed=cfg_seed),
                                  self.POWERS_DBW,
                                  threshold_rate=self.THRESHOLD)
        outage_path = outage.write_csv(out_dir)
        return fmap, fmap_path, outage, outage_path

    def lobe(self, fmap) -> dict:
        iy = int(np.argmin(np.abs(fmap.ys - self.cfg.d_y / 2)))
        lobe = bench.xcut_lobe_metrics(fmap.xs, fmap.grid_db[iy])
        return {k: float(v) for k, v in vars(lobe).items()}

    def fingerprint(self, result) -> dict:
        fmap, _, outage, _ = result
        return {"rows": len(fmap.rows), "lobe": self.lobe(fmap),
                "trials": int(outage.metadata["trials"]),
                "outage": [list(r) for r in outage.rows]}

    def sum_rate(self, result) -> float:
        """Pair sum rate the outage curve guarantees: outside outage
        both users reach the threshold, averaged over the power grid."""
        outage = result[2]
        mm = [r[2] for r in outage.rows if r[1] == "MM"]
        return 2 * self.THRESHOLD * (1.0 - float(np.mean(mm)))

    def placed(self, result) -> int:
        return 0

    def check(self, op: Op, params, result, reference) -> list[str]:
        fmap, fmap_path, outage, outage_path = result
        problems = []
        n_grid = len(fmap.xs) * len(fmap.ys)
        if len(fmap.rows) != n_grid:
            problems.append(f"field map has {len(fmap.rows)} rows for "
                            f"{n_grid} grid points")
        if not np.all(np.isfinite(fmap.grid_db)):
            problems.append("field map has non-finite intensities")
        for result_, path in ((fmap, fmap_path), (outage, outage_path)):
            with open(path) as fh:
                lines = sum(1 for _ in fh)
            if lines != len(result_.rows) + 2:
                problems.append(f"{os.path.basename(path)} has {lines} "
                                f"lines for {len(result_.rows)} rows")
        values = np.array([r[2] for r in outage.rows], dtype=float)
        if not np.all((values >= 0.0) & (values <= 1.0)):
            problems.append("outage outside [0, 1]")
        ref = reference.get(op.key)
        if ref is None:
            problems.append(f"no reference for {self.name} op {op.key}")
            return problems
        got = self.fingerprint(result)
        if got["rows"] != ref["rows"]:
            problems.append(f"field map rows {got['rows']} vs "
                            f"reference {ref['rows']}")
        for key, value in ref["lobe"].items():
            if not math.isclose(got["lobe"][key], value, rel_tol=0.0,
                                abs_tol=LOBE_TOL):
                problems.append(f"lobe {key} {got['lobe'][key]!r} vs "
                                f"reference {value!r}")
        slack = OUTAGE_TRIAL_SLACK / ref["trials"] + 1e-12
        if len(got["outage"]) != len(ref["outage"]):
            problems.append("outage curve length differs from reference")
        else:
            for (p, s, v), (rp, rs, rv) in zip(got["outage"], ref["outage"]):
                if (p, s) != (rp, rs) or abs(v - rv) > slack:
                    problems.append(f"outage {s} at {p} dBW is {v!r}, "
                                    f"reference {rv!r}")
        return problems


_BASE = config.ScenarioConfig()

WORKLOADS = {
    # the paper's reference deployment, all five schemes per drop
    "paper-s": lambda: ScenarioWorkload(
        "paper-s", 101, _BASE, _BASE.schemes, bank=64, quality_drops=4),
    # 16 elements for 8 pairs: greedy fill places 8 spares per slot
    "spare-4x4": lambda: ScenarioWorkload(
        "spare-4x4", 202, replace(_BASE, pas_per_waveguide=4, num_users=16),
        ("pa-mm", "pi-mm", "dp-mm"), bank=40, quality_drops=5),
    # the vectorized grid kernel and the batched pair math
    "figures": lambda: FiguresWorkload("figures", 303, bank=48,
                                       quality_drops=4),
}


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str) -> dict:
    with open(reference_path(name)) as fh:
        return json.load(fh)
