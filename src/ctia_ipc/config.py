"""Run configuration: one JSON document resolving every knob of a run.

Any key may be omitted; defaults follow the module dataclasses.  KEYS
declares every key once, and loading, validation and the fully-resolved
view all follow it.  That view is embedded in each run's manifest so the
artifact is exactly reproducible.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields

from .adc import AdcConfig
from .errors import FormatError, ValidationError
from .mapper import ConvSpec
from .metrics import MismatchSpec, SWEEP_MODES, default_cycle_time
from .pipeline import ChainConfig
from .pixel import PixelParams
from .pixel_array import ArrayConfig
from .wtc import MAG_MAX, CounterConfig, match_time

# Each of these sections is one dataclass: its fields are its keys, and
# its __post_init__ checks their ranges.
_SECTIONS = {
    "pixel": PixelParams,
    "wtc": CounterConfig,
    "array": ArrayConfig,
    "adc": AdcConfig,
    "conv": ConvSpec,
    "mismatch": MismatchSpec,
}
# Dataclass fields the loader derives rather than reads: the Monte Carlo
# seed comes from the top-level seed.
_DERIVED_FIELDS = {(MismatchSpec, "seed")}

# Every document key: (section, key) -> (kind, bound, RunConfig attribute).
# Section "" is the top level.  A key of a dataclass section sets a field
# of the attribute named after the section.  Kinds:
#   int     an integer that converts to a finite float64
#   number  an integer or float that converts to a finite float64
#   seed    an integer of any size
#   text    a string, kept as given (so relative to the working directory)
#   path    a string resolved against the config file's directory; an
#           empty one keeps the default
#   modes   a list whose items are drawn from the bound
# A bound "> x" or ">= x" is a lower limit.
KEYS = {
    ("", "seed"): ("seed", ">= 0", "seed"),
    ("", "power_per_pixel_w"): ("number", "> 0", "power_per_pixel_w"),
    ("", "cycle_time_s"): ("number", ">= 0", "cycle_time_s"),
    ("", "readout_exposure_s"): ("number", ">= 0", "readout_exposure_s"),
    ("sweep", "modes"): ("modes", SWEEP_MODES, "sweep_modes"),
    ("sweep", "x_points"): ("int", ">= 2", "sweep_x_points"),
    ("transfer", "degree"): ("int", ">= 1", "transfer_fit_degree"),
    ("transfer", "grid_points"): ("int", ">= 2", "transfer_grid_points"),
    ("transfer", "samples_csv"): ("text", None, "transfer_samples_csv"),
    ("verify", "max_within"): ("int", ">= 0", "verify_max_within"),
    ("paths", "frame"): ("path", None, "frame_path"),
    ("paths", "weights"): ("path", None, "weights_path"),
    ("paths", "out_dir"): ("path", None, "out_dir"),
} | {
    (section, f.name): ("int" if type(f.default) is int else "number", None, section)
    for section, cls in _SECTIONS.items()
    for f in fields(cls)
    if (cls, f.name) not in _DERIVED_FIELDS
}


@dataclass
class RunConfig:
    pixel: PixelParams = field(default_factory=PixelParams)
    wtc: CounterConfig = field(default_factory=CounterConfig)
    array: ArrayConfig = field(default_factory=ArrayConfig)
    adc: AdcConfig = field(default_factory=AdcConfig)
    conv: ConvSpec = field(default_factory=ConvSpec)
    mismatch: MismatchSpec = field(default_factory=MismatchSpec)
    seed: int = 0
    power_per_pixel_w: float = 3.26e-6
    cycle_time_s: float = 0.0  # 0 = derive from WTC exposure + ADC conversion
    readout_exposure_s: float = 0.0  # 0 = maximum WTC exposure
    sweep_modes: tuple = SWEEP_MODES
    sweep_x_points: int = 9
    transfer_fit_degree: int = 1
    transfer_grid_points: int = 16
    transfer_samples_csv: str = ""
    verify_max_within: int = 1
    frame_path: str = ""
    weights_path: str = ""
    out_dir: str = "out"

    def chain(self) -> ChainConfig:
        return ChainConfig(pixel=self.pixel, wtc=self.wtc, array=self.array, adc=self.adc)

    def cycle_time(self) -> float:
        if self.cycle_time_s > 0:
            return self.cycle_time_s
        return default_cycle_time(self.wtc)

    def readout_exposure(self) -> float:
        if self.readout_exposure_s > 0:
            return self.readout_exposure_s
        return match_time(self.wtc, MAG_MAX)

    def resolved(self) -> dict:
        """Fully-resolved key-value view for the run manifest: every key but
        paths.out_dir, under its section or its flat attribute name, with
        the cycle time and readout exposure as derived."""
        out = {}
        for (_, key), (_, _, attr) in KEYS.items():
            if attr in _SECTIONS:
                out.setdefault(attr, {})[key] = getattr(getattr(self, attr), key)
            else:
                out[attr] = getattr(self, attr)
        del out["out_dir"]
        out.update(
            cycle_time_s=self.cycle_time(),
            readout_exposure_s=self.readout_exposure(),
            sweep_modes=list(self.sweep_modes),
        )
        return out


def _key_name(section: str, key: str) -> str:
    return f"{section}.{key}" if section else key


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """JSON true/false would pass as 1/0, and NaN/Infinity slip past range
    checks; neither is a valid setting, nor is an integer beyond float64."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_path(value) -> bool:
    return isinstance(value, str) and "\0" not in value


# kind -> (what a value must be, test of the value)
_KINDS = {
    "int": ("a finite integer", lambda v: _is_int(v) and _is_finite(v)),
    "number": ("a finite number", _is_finite),
    "seed": ("an integer", _is_int),
    "text": ("a path string", _is_path),
    "path": ("a path string", _is_path),
    "modes": ("a subset of", lambda v: isinstance(v, list)),
}


def _within(value, bound) -> bool:
    if bound is None:
        return True
    if isinstance(bound, tuple):
        return all(item in bound for item in value)
    op, low = bound.split()
    return value > float(low) if op == ">" else value >= float(low)


def _read_document(path: str | None) -> dict:
    """The JSON object in the file at path ({} for None); the weight
    document is read this way too."""
    if path is None:
        return {}
    try:
        # newline="" keeps \r\n, so that character offsets map to bytes.
        with open(path, "r", encoding="utf-8", newline="") as handle:
            doc = json.load(handle)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers bad UTF-8 and integers too long to parse.
        text = getattr(exc, "doc", None)
        offset = len(text[: exc.pos].encode("utf-8")) if text is not None else -1
        raise FormatError(f"{path} is not valid JSON: {exc}", offset)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path} must hold a JSON object")
    return doc


def load_config(path: str | None, seed_override: int | None = None, out_override: str | None = None) -> RunConfig:
    """Build a RunConfig from a JSON file (or pure defaults when path is
    None), applying CLI overrides.  Collects every validation problem."""
    doc = _read_document(path)
    base = os.path.dirname(os.path.abspath(path)) if path else os.getcwd()
    sections = {section for section, _ in KEYS} - {""}
    given = {}
    problems: list = []
    for name, value in doc.items():
        if name not in sections:
            given[("", name)] = value
        elif isinstance(value, dict):
            given.update(((name, key), v) for key, v in value.items())
        else:
            problems.append(f"section '{name}' must be an object")

    cfg = RunConfig()
    section_kwargs = {section: {} for section in _SECTIONS}
    for (section, key), value in given.items():
        name = _key_name(section, key)
        if (section, key) not in KEYS:
            problems.append(f"unknown key '{name}'")
            continue
        kind, bound, attr = KEYS[(section, key)]
        what, accepts = _KINDS[kind]
        if not (accepts(value) and _within(value, bound)):
            limit = f" {list(bound) if isinstance(bound, tuple) else bound}" if bound else ""
            problems.append(f"{name} must be {what}{limit}, got {value!r}")
        elif attr in _SECTIONS:
            section_kwargs[attr][key] = value
        elif kind == "number":
            setattr(cfg, attr, float(value))
        elif kind == "modes":
            setattr(cfg, attr, tuple(value))
        elif kind == "path":
            if value:
                setattr(cfg, attr, os.path.join(base, value))
        else:
            setattr(cfg, attr, value)

    if seed_override is not None and seed_override < 0:
        problems.append(f"--seed must be >= 0, got {seed_override}")
    elif seed_override is not None:
        cfg.seed = seed_override
    section_kwargs["mismatch"]["seed"] = cfg.seed
    for section, cls in _SECTIONS.items():
        try:
            setattr(cfg, section, cls(**section_kwargs[section]))
        except ValidationError as exc:
            problems.append(f"section '{section}': {exc}")
    for name, value in (("cycle_time_s", cfg.cycle_time()), ("readout_exposure_s", cfg.readout_exposure())):
        if not math.isfinite(value):
            problems.append(f"{name} derived from wtc.t_step={cfg.wtc.t_step!r} is not finite")
    try:
        cfg.chain().calibration(cfg.conv.mag_max)
    except ValidationError as exc:
        problems.append(f"{exc}, derived from sections pixel, wtc, array, adc and conv")
    if out_override is not None:
        cfg.out_dir = out_override
    if problems:
        raise ValidationError("invalid config:\n  " + "\n  ".join(problems))
    return cfg


def require_input(cfg: RunConfig, attr: str) -> str:
    """The existing file named by the path key that sets cfg.<attr>."""
    name = next(_key_name(*key) for key, (_, _, a) in KEYS.items() if a == attr)
    path = getattr(cfg, attr)
    if not path:
        raise ValidationError(f"this mode requires {name} in the config")
    if not os.path.exists(path):
        raise ValidationError(f"{name} does not exist: {path}")
    return path
