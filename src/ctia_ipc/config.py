"""Run configuration: one JSON document resolving every knob of a run.

Any field may be omitted; defaults follow the module dataclasses.  The
fully-resolved configuration is embedded in each run's manifest so the
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
from .wtc import CounterConfig

MODES = (
    "simulate",
    "verify",
    "sweep",
    "montecarlo",
    "metrics",
    "export-transfer",
    "readout",
)

_SECTION_FIELDS = {
    "pixel": ("v_rst", "c_f", "i_max", "headroom"),
    "wtc": ("t_step", "window"),
    "array": ("rows", "cols", "c1", "c2", "c_f_acc"),
    "adc": ("v_fs", "out_bits"),
    "conv": ("k", "s", "p", "c_o", "n_b", "p_s", "weight_mag_bits"),
    "mismatch": ("sigma_cap", "sigma_vrst", "sigma_gain", "trials"),
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
        return default_cycle_time(self.wtc.t_step, self.wtc.window)

    def readout_exposure(self) -> float:
        if self.readout_exposure_s > 0:
            return self.readout_exposure_s
        return 15 * self.wtc.exposure_multiplier * self.wtc.t_step

    def resolved(self) -> dict:
        """Fully-resolved key-value view for the run manifest."""
        out = {
            "pixel": {k: getattr(self.pixel, k) for k in _SECTION_FIELDS["pixel"]},
            "wtc": {k: getattr(self.wtc, k) for k in _SECTION_FIELDS["wtc"]},
            "array": {k: getattr(self.array, k) for k in _SECTION_FIELDS["array"]},
            "adc": {k: getattr(self.adc, k) for k in _SECTION_FIELDS["adc"]},
            "conv": {k: getattr(self.conv, k) for k in _SECTION_FIELDS["conv"]},
            "mismatch": {k: getattr(self.mismatch, k) for k in _SECTION_FIELDS["mismatch"]},
            "seed": self.seed,
            "power_per_pixel_w": self.power_per_pixel_w,
            "cycle_time_s": self.cycle_time(),
            "readout_exposure_s": self.readout_exposure(),
            "sweep_modes": list(self.sweep_modes),
            "sweep_x_points": self.sweep_x_points,
            "transfer_fit_degree": self.transfer_fit_degree,
            "transfer_grid_points": self.transfer_grid_points,
            "transfer_samples_csv": self.transfer_samples_csv,
            "verify_max_within": self.verify_max_within,
            "frame_path": self.frame_path,
            "weights_path": self.weights_path,
        }
        return out


def _not_a_setting(value) -> bool:
    """JSON true/false would pass as 1/0, and NaN/Infinity slip past range
    checks; neither is a valid setting."""
    return isinstance(value, bool) or (isinstance(value, float) and not math.isfinite(value))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _build_section(cls, doc: dict, section: str, problems: list, extra: dict | None = None):
    raw = doc.get(section, {})
    if not isinstance(raw, dict):
        problems.append(f"section '{section}' must be an object")
        raw = {}
    allowed = set(_SECTION_FIELDS[section])
    unknown = set(raw) - allowed
    for key in sorted(unknown):
        problems.append(f"unknown key '{section}.{key}'")
    int_fields = {f.name for f in fields(cls) if type(f.default) is int}
    kwargs = {}
    for key in sorted(allowed & set(raw)):
        if _not_a_setting(raw[key]):
            problems.append(f"'{section}.{key}' must be a finite number, got {raw[key]!r}")
        elif key in int_fields and not _is_int(raw[key]):
            problems.append(f"'{section}.{key}' must be an integer, got {raw[key]!r}")
        else:
            kwargs[key] = raw[key]
    if extra:
        kwargs.update(extra)
    try:
        return cls(**kwargs)
    except (ValidationError, TypeError) as exc:
        problems.append(f"section '{section}': {exc}")
        return cls() if not extra else cls(**extra)


def load_config(path: str | None, seed_override: int | None = None, out_override: str | None = None) -> RunConfig:
    """Build a RunConfig from a JSON file (or pure defaults when path is
    None), applying CLI overrides.  Collects every validation problem."""
    doc = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FormatError(f"config is not valid JSON: {exc}", exc.pos)
        if not isinstance(doc, dict):
            raise ValidationError("config document must be a JSON object")
    problems: list = []
    known = set(_SECTION_FIELDS) | {
        "seed",
        "power_per_pixel_w",
        "cycle_time_s",
        "readout_exposure_s",
        "sweep",
        "transfer",
        "verify",
        "paths",
    }
    for key in sorted(set(doc) - known):
        problems.append(f"unknown top-level key '{key}'")

    seed = doc.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        problems.append(f"seed must be an integer >= 0, got {seed!r}")
        seed = 0

    pixel = _build_section(PixelParams, doc, "pixel", problems)
    wtc = _build_section(CounterConfig, doc, "wtc", problems)
    array = _build_section(ArrayConfig, doc, "array", problems)
    adc = _build_section(AdcConfig, doc, "adc", problems)
    conv = _build_section(ConvSpec, doc, "conv", problems)
    mismatch = _build_section(
        MismatchSpec, doc, "mismatch", problems, extra={"seed": seed}
    )

    cfg = RunConfig(
        pixel=pixel, wtc=wtc, array=array, adc=adc, conv=conv, mismatch=mismatch
    )
    cfg.seed = seed
    for name in ("power_per_pixel_w", "cycle_time_s", "readout_exposure_s"):
        if name in doc:
            value = doc[name]
            if _not_a_setting(value) or not isinstance(value, (int, float)) or value < 0:
                problems.append(f"{name} must be a finite nonnegative number, got {value!r}")
            else:
                setattr(cfg, name, float(value))

    sweep = doc.get("sweep", {})
    if not isinstance(sweep, dict):
        problems.append("section 'sweep' must be an object")
        sweep = {}
    modes = sweep.get("modes", list(SWEEP_MODES))
    if not isinstance(modes, list) or not all(m in SWEEP_MODES for m in modes):
        problems.append(f"sweep.modes must be a subset of {list(SWEEP_MODES)}")
    else:
        cfg.sweep_modes = tuple(modes)
    x_points = sweep.get("x_points", cfg.sweep_x_points)
    if not _is_int(x_points) or x_points < 2:
        problems.append("sweep.x_points must be an integer >= 2")
    else:
        cfg.sweep_x_points = x_points

    transfer = doc.get("transfer", {})
    if not isinstance(transfer, dict):
        problems.append("section 'transfer' must be an object")
        transfer = {}
    degree = transfer.get("degree", cfg.transfer_fit_degree)
    if not _is_int(degree) or degree < 1:
        problems.append("transfer.degree must be an integer >= 1")
    else:
        cfg.transfer_fit_degree = degree
    grid = transfer.get("grid_points", cfg.transfer_grid_points)
    if not _is_int(grid) or grid < 2:
        problems.append("transfer.grid_points must be an integer >= 2")
    else:
        cfg.transfer_grid_points = grid
    cfg.transfer_samples_csv = str(transfer.get("samples_csv", ""))

    verify = doc.get("verify", {})
    if not isinstance(verify, dict):
        problems.append("section 'verify' must be an object")
        verify = {}
    max_within = verify.get("max_within", cfg.verify_max_within)
    if not _is_int(max_within) or max_within < 0:
        problems.append("verify.max_within must be an integer >= 0")
    else:
        cfg.verify_max_within = max_within

    paths = doc.get("paths", {})
    if not isinstance(paths, dict):
        problems.append("section 'paths' must be an object")
        paths = {}
    base = os.path.dirname(os.path.abspath(path)) if path else os.getcwd()

    def _resolve(name):
        value = paths.get(name, "")
        if not value:
            return ""
        return value if os.path.isabs(value) else os.path.join(base, value)

    cfg.frame_path = _resolve("frame")
    cfg.weights_path = _resolve("weights")
    out_dir = paths.get("out_dir", "")
    if out_dir:
        cfg.out_dir = out_dir if os.path.isabs(out_dir) else os.path.join(base, out_dir)

    if seed_override is not None and seed_override < 0:
        problems.append(f"--seed must be >= 0, got {seed_override}")
    elif seed_override is not None:
        cfg.seed = seed_override
        cfg.mismatch = MismatchSpec(
            sigma_cap=cfg.mismatch.sigma_cap,
            sigma_vrst=cfg.mismatch.sigma_vrst,
            sigma_gain=cfg.mismatch.sigma_gain,
            trials=cfg.mismatch.trials,
            seed=seed_override,
        )
    if out_override is not None:
        cfg.out_dir = out_override
    if problems:
        raise ValidationError("invalid config:\n  " + "\n  ".join(problems))
    return cfg


def require_input(path: str, role: str) -> str:
    if not path:
        raise ValidationError(f"this mode requires paths.{role} in the config")
    if not os.path.exists(path):
        raise ValidationError(f"paths.{role} does not exist: {path}")
    return path
