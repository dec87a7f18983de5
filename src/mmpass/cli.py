"""Command-line entry points for the experiment drivers.

Subcommands mirror the drivers: rate-vs-power, outage, convergence,
field-map and scaling write CSVs to the output directory; validate and
oracle run quick self-checks (properties and brute-force cross-checks)
and exit nonzero on any failure.  The output directory defaults to
./out, overridable with --out-dir or the MMPASS_OUT_DIR environment
variable.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import bench
from .config import (ScenarioConfig, build_scenario, config_hash,
                     dbw_to_watt, load_config)


def _parse_powers(values):
    """The --powers grid in dBW; each value must be finite and give a
    positive, finite power in watts."""
    powers = []
    for value in values:
        try:
            p_dbw = float(value)
        except ValueError:
            raise ValueError(f"--powers value {value!r} is not a number "
                             "of dBW") from None
        try:
            watts = dbw_to_watt(p_dbw)
        except OverflowError:
            watts = math.inf
        if not (math.isfinite(p_dbw) and 0.0 < watts < math.inf):
            raise ValueError(f"--powers value {value} dBW gives a "
                             f"transmit power of {watts} W")
        powers.append(p_dbw)
    return powers


def _is_number(token) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


# the options that take numbers: a run of values ("+") or one
_NUMBER_OPTIONS = {"--powers": "+", "--seed": 1, "--trials": 1,
                   "--threshold": 1, "--grid-res": 1}


def _glue_numbers(argv):
    """``argv`` with the values of every number option glued to their
    flag, ``--flag=VALUE``.  argparse reads a token that starts with "-"
    as an option unless it looks like a plain negative integer or
    decimal, so ``-1e6``, ``-1.5e1`` or ``-inf`` would not reach the
    option; a glued value is never read as an option.  A flag takes one
    value, or a ``--powers`` run of them, from the tokens that do not
    start with "-" or are numbers; a flag without one stays bare, for
    argparse to report."""
    out, flag, glued = [], None, 0
    for token in argv:
        if flag and (not token.startswith("-") or _is_number(token)):
            out.append(f"{flag}={token}")
            glued += 1
            if _NUMBER_OPTIONS[flag] == 1:
                flag = None
            continue
        if flag and not glued:
            out.append(flag)
        flag, glued = (token if token in _NUMBER_OPTIONS else None), 0
        if not flag:
            out.append(token)
    if flag and not glued:
        out.append(flag)
    return out


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=int(args.seed))
    if args.schemes:
        cfg = replace(cfg, schemes=tuple(args.schemes))
    return cfg.validate()


def _out_dir(args) -> str:
    return args.out_dir or os.environ.get("MMPASS_OUT_DIR", "out")


def add_common(p):
    p.add_argument("--config", help="YAML config file (defaults otherwise)")
    p.add_argument("--seed", type=int, help="override the config RNG seed")
    p.add_argument("--out-dir", help="output directory (or MMPASS_OUT_DIR)")
    p.add_argument("--scheme", action="append", dest="schemes",
                   help="restrict to a scheme (repeatable)")


def cmd_rate_vs_power(args) -> int:
    cfg = _load(args)
    powers = _parse_powers(args.powers or ["0", "5", "10", "15", "20"])
    result = bench.run_rate_vs_power(cfg, powers)
    path = result.write_csv(_out_dir(args))
    print(f"wrote {path} ({len(result.rows)} rows)")
    return 0


def cmd_outage(args) -> int:
    cfg = _load(args)
    powers = _parse_powers(args.powers
                           or [str(p) for p in range(-22, -1, 2)])
    result = bench.run_outage(cfg, powers, threshold_rate=args.threshold,
                              trials=args.trials)
    path = result.write_csv(_out_dir(args))
    print(f"wrote {path} ({len(result.rows)} rows)")
    try:
        p_mm = bench.power_at_outage(result, "MM", 1e-2)
        p_sm = bench.power_at_outage(result, "SM-TDMA", 1e-2)
        print(f"power at 1e-2 outage: MM {p_mm:.2f} dBW, "
              f"SM-TDMA {p_sm:.2f} dBW (saving {p_sm - p_mm:.2f} dB)")
    except ValueError:
        print("outage curves do not cross 1e-2 on this power grid")
    return 0


def cmd_convergence(args) -> int:
    cfg = _load(args)
    result = bench.run_convergence(cfg)
    path = result.write_csv(_out_dir(args))
    print(f"wrote {path} ({len(result.rows)} rows)")
    return 0


def cmd_field_map(args) -> int:
    cfg = _load(args)
    result = bench.run_field_map(cfg, grid_res=args.grid_res)
    path = result.write_csv(_out_dir(args))
    iy = int(np.argmin(np.abs(result.ys - cfg.d_y / 2)))
    metrics = bench.xcut_lobe_metrics(result.xs, result.grid_db[iy])
    print(f"wrote {path}; main lobe at x={metrics.peak_x:.2f} m, "
          f"HPBW {metrics.half_power_width:.2f} m, "
          f"sidelobe -{metrics.sidelobe_suppression_db:.1f} dB")
    return 0


def cmd_scaling(args) -> int:
    cfg = _load(args)
    result = bench.run_scaling(cfg)
    path = result.write_csv(_out_dir(args))
    print(f"wrote {path} ({len(result.rows)} rows)")
    return 0


def cmd_validate(args) -> int:
    """Fast invariant checks over a freshly built scenario."""
    cfg = _load(args)
    failures = []
    scn = build_scenario(cfg)

    from .multiuser import optimize_scenario
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = optimize_scenario(scn, "pa-mm")
    lam_ok, match_gap = True, 0.0
    for s_idx, slot in enumerate(res.slots):
        # the mask the slot's channel was composed with
        if slot.lam.min() < 0 or slot.lam.max() > 1 + 1e-9:
            lam_ok = False
        # matched: a user with a stream sees its serving port's field
        # exactly, Lambda = 1 at that port
        kept = slot.report.per_user_rate > 0
        match_gap = float(np.max(1 - slot.lam[kept].max(axis=1),
                                 initial=match_gap))
        # information, not a check: FP often stops at its cap
        print(f"INFO: slot {s_idx} FP ran {slot.iterations} iterations, "
              + ("converged" if slot.converged else "stopped at the cap"))
        # a slot carries at most QM streams (its ports are M N Q); FP
        # switches the other users off, and their rates are exactly 0
        streams = slot.lam.shape[1] // scn.num_pas
        print(f"INFO: {np.count_nonzero(kept)} of {len(slot.user_indices)} "
              f"users of slot {s_idx} kept a stream (QM = {streams})")
    _check(failures, "polarization mask entries within [0, 1]", lam_ok)
    _check(failures, "PA-MM receive vectors matched: Lambda = 1 at a port "
           f"of every user with a stream (worst gap {match_gap:.1e})",
           match_gap <= 1e-12)
    _check(failures, "FP trace nondecreasing",
           bool(np.all(np.diff(res.trace) >= -1e-9)))
    _check(failures, "rates finite and nonnegative",
           bool(np.all(np.isfinite(res.report.per_user_rate))
                and np.all(res.report.per_user_rate >= 0)))

    from .geometry import Orientation
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(200):
        o = Orientation(rng.uniform(-np.pi / 2, np.pi / 2),
                        rng.uniform(-np.pi / 2, np.pi / 2))
        r = o.gcs_from_lcs()
        ok &= bool(np.allclose(r @ r.T, np.eye(3), atol=1e-12))
        ok &= bool(abs(np.linalg.det(r) - 1) < 1e-12)
    _check(failures, "port frames orthonormal, det +1", ok)

    for line in failures:
        print("FAIL:", line)
    if not failures:
        print(f"validate: all checks passed (config {config_hash(cfg)})")
    return 1 if failures else 0


def cmd_oracle(args) -> int:
    """Brute-force cross-checks of the closed-form rules."""
    cfg = _load(args)
    failures = []
    scn = build_scenario(cfg, users=np.zeros((2, 3)))
    from .placement import (MIN_PAIR_SEPARATION, LinkModel, eq22_sum_rate,
                            optimal_position, two_user_shared_position)
    link = LinkModel(scn)
    wg = scn.waveguides[0]
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(10):
        user = np.array([rng.uniform(2, wg.length - 1),
                         rng.uniform(0, cfg.d_y), 0.0])
        x_star, _ = optimal_position(user, wg, scn.alpha_a)
        xs = np.arange(0.0, user[0] + 1e-9, 0.001)
        gains = link.gain(1, xs, user)
        worst = max(worst, abs(x_star - xs[np.argmax(gains)]))
    _check(failures, f"position rule vs 1 mm search (worst {worst*100:.2f} cm)",
           worst < 0.02)

    pairs = []
    while len(pairs) < 12:
        u1, u2 = (np.array([rng.uniform(0, wg.length), rng.uniform(0, cfg.d_y),
                            0.0]) for _ in range(2))
        if np.hypot(*(u1 - u2)[:2]) >= MIN_PAIR_SEPARATION:
            pairs.append((u1, u2))
    u1, u2 = (np.array(u) for u in zip(*pairs))
    noise = float(scn.noise[0])
    xs = np.arange(0.0, wg.length + 1e-9, 0.001)
    # 1 mW is the low-power regime where one user takes the whole split
    for power in (scn.power, 1e-3):
        sol = two_user_shared_position(u1, u2, link, power, (noise, noise))
        worst = max(eq22_sum_rate(xs, link, a, b, (noise, noise), power).max()
                    - rate for a, b, rate in zip(u1, u2, sol.sum_rate))
        _check(failures, f"pair rule vs 1 mm search at {power:g} W (grid "
               f"best minus rule, worst {worst:.1e} bit/s/Hz)", worst <= 1e-9)

    from .multiuser import hungarian_assign
    ok = True
    for trial, shape in enumerate([(s, s) for s in range(1, 6)]
                                  + [(5, 3), (4, 2), (6, 1)]
                                  + [(3, 5), (2, 4), (1, 6)]):
        t_rng = np.random.default_rng((cfg.seed, trial))
        # continuous rates, small integers (ties everywhere), and rows
        # repeated in twos as a guide's elements repeat its rates
        guides = -(-shape[0] // 2)
        tables = (t_rng.uniform(0, 10, size=shape),
                  t_rng.integers(0, 3, size=shape).astype(float),
                  np.repeat(t_rng.uniform(0, 10, size=(guides, shape[1])),
                            2, axis=0)[:shape[0]])
        for table in tables:
            x = hungarian_assign(table).x
            # every injective map of the shorter side into the longer one
            short = table if shape[0] <= shape[1] else table.T
            n_match = short.shape[0]
            best = max(sum(short[i, p[i]] for i in range(n_match))
                       for p in itertools.permutations(
                           range(short.shape[1]), n_match))
            ok &= bool(x.sum() == n_match and x.sum(axis=0).max() <= 1
                       and x.sum(axis=1).max() <= 1
                       and abs((table * x).sum() - best) < 1e-9)
    _check(failures, "padded Hungarian equals exhaustive search on square, "
           "tall and wide tables, tied ones included", ok)

    for line in failures:
        print("FAIL:", line)
    if not failures:
        print(f"oracle: all cross-checks passed (config {config_hash(cfg)})")
    return 1 if failures else 0


def _check(failures, label, ok):
    print(("PASS: " if ok else "FAIL: ") + label)
    if not ok:
        failures.append(label)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mmpass",
        description="Desk-scale simulator and optimizer for multi-mode "
                    "pinching-antenna systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate-vs-power", help="sum rate over a power grid")
    add_common(p)
    p.add_argument("--powers", nargs="+", action="extend",
                   help="power grid in dBW")
    p.set_defaults(func=cmd_rate_vs_power)

    p = sub.add_parser("outage", help="Monte Carlo outage curves")
    add_common(p)
    p.add_argument("--powers", nargs="+", action="extend",
                   help="power grid in dBW")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--threshold", type=float, default=1.0,
                   help="outage rate threshold, bits/s/Hz")
    p.set_defaults(func=cmd_outage)

    p = sub.add_parser("convergence", help="per-iteration sum-rate traces")
    add_common(p)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("field-map", help="normalized floor intensity map")
    add_common(p)
    p.add_argument("--grid-res", type=float, default=0.01,
                   help="x resolution in meters")
    p.set_defaults(func=cmd_field_map)

    p = sub.add_parser("scaling", help="sum rate vs array and user counts")
    add_common(p)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("validate", help="run the invariant self-checks")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("oracle", help="brute-force cross-checks")
    add_common(p)
    p.set_defaults(func=cmd_oracle)

    args = parser.parse_args(_glue_numbers(sys.argv[1:] if argv is None
                                           else argv))
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
