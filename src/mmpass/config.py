"""Configuration ingestion and scenario building.

Configs are YAML mappings, either flat or organized in sections (the
section names are ignored; keys merge into one namespace).  Every key
is optional: an empty file yields the reference setup of a 100 GHz
carrier in a 3 x 2 mm guide with core index 2.0, guide and air losses
of 0.08 and 0.05 dB/m, 10 W transmit power and a -26 dBW noise floor
in a 10 x 6 x 3 m region with 4 waveguides x 3 elements serving 24
users.

Attenuations are entered in dB/m and converted to Np/m on load
(Np = dB * ln 10 / 10); powers may be given in watts (``power_w``) or
dBW (``power_dbw``); noise is in dBW.  Angles never appear in configs.
Explicit user positions are lists of 2 or 3 numbers (x, y or x, y, z;
z defaults to the floor and must lie below the guides).
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from .scenario import Scenario, make_scenario, parse_scheme
from .waveguide import MediumConstants

NP_PER_DB = float(np.log(10.0) / 10.0)


def db_per_m_to_np(value_db: float) -> float:
    """Attenuation unit conversion: exponential field formulas need
    nepers, papers quote dB."""
    return value_db * NP_PER_DB


def dbw_to_watt(value_dbw: float) -> float:
    return 10.0 ** (value_dbw / 10.0)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _require_finite(name: str, value):
    if not _is_number(value) or not math.isfinite(value):
        raise ValueError(f"config field '{name}' must be a finite real "
                         f"number, got {value!r}")


def _from_yaml(value, integral: bool):
    """A numeric string as a number, since YAML 1.1 reads an exponent
    without a dot (``3e-3``) as a string; for an integer field, an
    integral number (``8.0``, ``'8'``) as an int.  Anything else stays
    as it is, for ``ScenarioConfig.validate`` to name."""
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            return value
    if integral and _is_number(value) and float(value).is_integer():
        return int(value)
    return value


_FLOAT_FIELDS = ("d_x", "d_y", "d_z", "frequency_hz", "a", "b", "n_core",
                 "alpha_w_db", "alpha_a_db", "aperture_scale", "power_w",
                 "noise_dbw")
_INT_FIELDS = ("num_waveguides", "pas_per_waveguide", "num_modes",
               "num_users", "seed")


@dataclass
class ScenarioConfig:
    # region, m
    d_x: float = 10.0
    d_y: float = 6.0
    d_z: float = 3.0
    # array sizes
    num_waveguides: int = 4
    pas_per_waveguide: int = 3
    num_modes: int = 2
    num_users: int = 24
    # medium
    frequency_hz: float = 100e9
    a: float = 3e-3
    b: float = 2e-3
    n_core: float = 2.0
    alpha_w_db: float = 0.08
    alpha_a_db: float = 0.05
    aperture_scale: float = 15.0
    # power
    power_w: float = 10.0
    noise_dbw: float = -26.0
    # run control
    seed: int = 1
    schemes: tuple = ("pa-mm", "pi-mm", "dp-mm", "pa-sm", "pi-sm")
    user_mode: str = "uniform"  # or "explicit"
    user_positions: tuple = ()

    @property
    def alpha_w_np(self) -> float:
        return db_per_m_to_np(self.alpha_w_db)

    @property
    def alpha_a_np(self) -> float:
        return db_per_m_to_np(self.alpha_a_db)

    @property
    def noise_w(self) -> float:
        return dbw_to_watt(self.noise_dbw)

    def validate(self) -> "ScenarioConfig":
        for name in _FLOAT_FIELDS:
            _require_finite(name, getattr(self, name))
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("config field 'seed' must be a non-negative "
                             "integer")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if (not isinstance(value, (int, np.integer))
                    or isinstance(value, bool)):
                raise ValueError(f"config field '{name}' must be an "
                                 f"integer, got {value!r}")
        positive = ("d_x", "d_y", "d_z", "frequency_hz", "a", "b", "n_core",
                    "power_w", "aperture_scale")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"config field '{name}' must be positive")
        for name in ("num_waveguides", "pas_per_waveguide", "num_users"):
            if getattr(self, name) < 1:
                raise ValueError(f"config field '{name}' must be >= 1")
        if self.num_modes not in (1, 2):
            raise ValueError("config field 'num_modes' must be 1 or 2 "
                             "(TE10 and TE01 are the supported modes)")
        try:
            noise = self.noise_w
        except OverflowError:
            noise = math.inf
        if not 0.0 < noise < math.inf:
            raise ValueError(f"config field 'noise_dbw' = {self.noise_dbw} "
                             f"gives a noise power of {noise} W")
        if self.a <= self.b:
            raise ValueError("config fields 'a' and 'b' must satisfy a > b")
        if self.alpha_w_db < 0 or self.alpha_a_db < 0:
            raise ValueError("attenuation coefficients must be >= 0")
        if self.user_mode not in ("uniform", "explicit"):
            raise ValueError("config field 'user_mode' must be 'uniform' "
                             "or 'explicit'")
        if self.user_mode == "explicit" and not self.user_positions:
            raise ValueError("config field 'user_positions' is required "
                             "when user_mode is 'explicit'")
        seen = {}
        for i, pos in enumerate(self.user_positions):
            label = f"config field 'user_positions[{i}]'"
            if (not isinstance(pos, (list, tuple)) or len(pos) not in (2, 3)
                    or not all(map(_is_number, pos))):
                raise ValueError(f"{label} must be 2 or 3 numbers "
                                 f"(x, y or x, y, z), got {pos!r}")
            xyz = tuple(float(c) for c in pos) + (0.0,) * (3 - len(pos))
            if not all(map(math.isfinite, xyz)):
                raise ValueError(f"{label} must be finite, got {pos!r}")
            for axis, c, name in zip("xy", xyz, ("d_x", "d_y")):
                bound = getattr(self, name)
                if not 0.0 <= c <= bound:
                    raise ValueError(f"{label} must satisfy 0 <= {axis} <= "
                                     f"{name} = {bound} (users lie on the "
                                     f"floor), got {axis} = {c}")
            if not 0.0 <= xyz[2] < self.d_z:
                raise ValueError(f"{label} must satisfy 0 <= z < d_z = "
                                 f"{self.d_z} (users lie below the guides), "
                                 f"got z = {xyz[2]}")
            if xyz in seen:
                raise ValueError(f"{label} repeats "
                                 f"user_positions[{seen[xyz]}]")
            seen[xyz] = i
        for scheme in self.schemes:
            parse_scheme(scheme)
        return self


def _flatten(mapping: dict) -> dict:
    flat = {}
    for key, value in mapping.items():
        if isinstance(value, dict):
            for sub, v in _flatten(value).items():
                if sub in flat:
                    raise ValueError(f"duplicate config field '{sub}'")
                flat[sub] = v
        else:
            if key in flat:
                raise ValueError(f"duplicate config field '{key}'")
            flat[key] = value
    return flat


def load_config(path=None) -> ScenarioConfig:
    """Read a YAML config file; ``None`` or an empty file gives defaults."""
    # imported here, its only reader, so a run without a config file
    # never loads the YAML parser
    import yaml

    raw = {}
    if path is not None:
        with open(path) as fh:
            loaded = yaml.safe_load(fh)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ValueError(f"config root must be a mapping, got "
                             f"{type(loaded).__name__}")
        raw = _flatten(loaded)

    known = {f.name for f in fields(ScenarioConfig)}
    aliases = {"frequency_ghz": ("frequency_hz", lambda v: v * 1e9),
               "power_dbw": ("power_w", dbw_to_watt)}
    kwargs = {}
    for key, value in raw.items():
        if key in aliases:
            target, conv = aliases[key]
            if target in kwargs or target in raw:
                raise ValueError(f"config field '{key}' conflicts with "
                                 f"'{target}'")
            value = _from_yaml(value, False)
            _require_finite(key, value)
            try:
                kwargs[target] = conv(value)
            except OverflowError:
                raise ValueError(f"config field '{key}' is out of range, "
                                 f"got {value!r}") from None
        elif key in _FLOAT_FIELDS:
            kwargs[key] = _from_yaml(value, False)
        elif key in _INT_FIELDS:
            kwargs[key] = _from_yaml(value, True)
        elif key in known:
            kwargs[key] = value
        else:
            raise ValueError(f"unknown config field '{key}'")
    if "schemes" in kwargs:
        if not isinstance(kwargs["schemes"], list):
            raise ValueError("config field 'schemes' must be a list of "
                             f"scheme names, e.g. [{kwargs['schemes']}]")
        kwargs["schemes"] = tuple(str(s) for s in kwargs["schemes"])
    if "user_positions" in kwargs:
        if not isinstance(kwargs["user_positions"], list):
            raise ValueError("config field 'user_positions' must be a list "
                             "of positions, e.g. [[1.0, 2.0], [4.0, 3.5]]")
        # entries that are not lists of numbers reach validate() as they
        # are, so that it names them
        kwargs["user_positions"] = tuple(
            tuple(float(c) for c in p)
            if isinstance(p, list) and all(map(_is_number, p)) else p
            for p in kwargs["user_positions"])
    return ScenarioConfig(**kwargs).validate()


def config_hash(cfg: ScenarioConfig) -> str:
    """Short deterministic digest identifying a configuration."""
    payload = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def draw_users(cfg: ScenarioConfig) -> np.ndarray:
    """User positions uniform over the floor region, or as listed in
    the config (a missing z puts the user on the floor)."""
    if cfg.user_mode == "explicit":
        return np.array([tuple(p) + (0.0,) * (3 - len(p))
                         for p in cfg.user_positions], dtype=float)
    rng = np.random.default_rng(cfg.seed)
    xy = rng.uniform([0.0, 0.0], [cfg.d_x, cfg.d_y],
                     size=(cfg.num_users, 2))
    return np.column_stack([xy, np.zeros(cfg.num_users)])


def build_scenario(cfg: ScenarioConfig, users=None) -> Scenario:
    """Construct the runtime scenario for a validated config."""
    cfg.validate()
    med = MediumConstants(frequency=cfg.frequency_hz, n_core=cfg.n_core)
    if users is None:
        users = draw_users(cfg)
    return make_scenario(
        med, region=(cfg.d_x, cfg.d_y, cfg.d_z),
        num_waveguides=cfg.num_waveguides, num_pas=cfg.pas_per_waveguide,
        num_modes=cfg.num_modes, users=users, power=cfg.power_w,
        noise_w=cfg.noise_w, alpha_w=cfg.alpha_w_np, alpha_a=cfg.alpha_a_np,
        a=cfg.a, b=cfg.b, aperture_scale=cfg.aperture_scale)
