"""Scenario configuration: a sectioned key=value text format (INI syntax)
with a strict schema, plus the shipped presets.

Unknown sections or keys are rejected with their location.  All physical
quantities carry explicit units in their key names.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from importlib import resources
from typing import Callable

from .control import ConvexParams
from .magnetics import GridSpec, HelmholtzPair
from .plant import (
    HMC5883L,
    IDEAL_SENSOR,
    RM3100,
    DisturbanceSpec,
    SensorSpec,
    TargetProfile,
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Configuration file failed to parse or validate."""


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(","))


def _axis(raw: str) -> tuple[float, float, int]:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ValueError("axis needs lo,hi,n")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _ac_components(raw: str) -> tuple[tuple[float, float, float], ...]:
    comps = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        amp, freq, phase = item.split(":")
        comps.append((float(amp), float(freq), float(phase)))
    return tuple(comps)


# section -> key -> value parser
SCHEMA: dict[str, dict[str, Callable]] = {
    "meta": {"schema_version": int},
    "coil": {"side_mm": float, "spacing_mm": float, "turns": int, "current_a": float},
    "grid": {"x_mm": _axis, "y_mm": _axis, "z_mm": _axis},
    "plant": {"v_min_v": float, "v_max_v": float},
    "sensor": {
        "model": str,
        "noise_sigma_nt": float,
        "quantization_step_nt": float,
        "sample_rate_hz": float,
    },
    "disturbance": {
        "dc_offset_nt": float,
        "gaussian_sigma_nt": float,
        "ac_components": _ac_components,
    },
    "sysid": {
        "snr_db": float,
        "order": int,
        "n_iters": int,
        "reinjection_at": int,
        "trials": int,
        "seed": int,
        "true_weights": _floats,
    },
    "step": {
        "profile": str,
        "level_nt": float,
        "switch_time_s": float,
        "duration_s": float,
        "settle_time_s": float,
        "band_fraction": float,
        "x_scale_nt": float,
        "ctrl_unit_nt": float,
        "seed": int,
    },
    "method.lms": {"mu": float},
    "method.svs": {"alpha": float, "beta": float},
    "method.atlms": {"alpha": float, "beta": float, "m": float, "n_scale": float},
    "method.convex": {
        "alpha": float,
        "beta": float,
        "sigma": float,
        "phi": float,
        "c": float,
        "mu_b": float,
        "gamma_o": float,
        "t_o": int,
        "init_weights": _floats,
    },
}

_SENSOR_MODELS = {"rm3100": RM3100, "hmc5883l": HMC5883L, "ideal": IDEAL_SENSOR}


@dataclass
class ScenarioConfig:
    """Validated configuration: nested dict of section -> key -> typed value."""

    data: dict[str, dict]
    source: str

    def get(self, section: str, key: str, default=None):
        return self.data.get(section, {}).get(key, default)

    def require(self, section: str, key: str):
        try:
            return self.data[section][key]
        except KeyError:
            raise ConfigError(f"{self.source}: missing required [{section}] {key}") from None

    def has_section(self, section: str) -> bool:
        return section in self.data

    # ---- builders -------------------------------------------------------

    def pair(self) -> HelmholtzPair:
        from .coilopt import optimal_spacing

        side = self.require("coil", "side_mm") / 1000.0
        spacing_mm = self.get("coil", "spacing_mm")
        spacing = spacing_mm / 1000.0 if spacing_mm is not None else optimal_spacing(side)
        return HelmholtzPair(
            side=side,
            spacing=spacing,
            turns=self.get("coil", "turns", 1),
            current=self.get("coil", "current_a", 1.0),
        )

    def grid(self) -> GridSpec:
        def ax(key):
            lo, hi, n = self.require("grid", key)
            return (lo / 1000.0, hi / 1000.0, n)

        return GridSpec(x=ax("x_mm"), y=ax("y_mm"), z=ax("z_mm"))

    def sensor(self) -> SensorSpec:
        """The [sensor] spec: a named model, or one built from the explicit
        keys; a model given together with any of them is a ConfigError."""
        model = self.get("sensor", "model")
        if model is not None:
            explicit = sorted(set(self.data["sensor"]) - {"model"})
            if explicit:
                raise ConfigError(
                    f"{self.source}: [sensor] model fixes the sensor; remove {', '.join(explicit)}"
                )
            try:
                return _SENSOR_MODELS[model.lower()]
            except KeyError:
                raise ConfigError(
                    f"{self.source}: [sensor] model must be one of {sorted(_SENSOR_MODELS)}"
                ) from None
        return self._build(SensorSpec, "sensor", dict(
            noise_sigma_nt=self.get("sensor", "noise_sigma_nt", 0.0),
            quantization_step_nt=self.get("sensor", "quantization_step_nt", 0.0),
            sample_rate_hz=self.get("sensor", "sample_rate_hz", 200.0),
        ))

    def disturbance(self, seed: int) -> DisturbanceSpec:
        return self._build(DisturbanceSpec, "disturbance", dict(
            dc_offset_nt=self.get("disturbance", "dc_offset_nt", 0.0),
            ac_components=self.get("disturbance", "ac_components", ()),
            gaussian_sigma_nt=self.get("disturbance", "gaussian_sigma_nt", 0.0),
            seed=seed,
        ))

    def target_profile(self) -> TargetProfile:
        kind = self.require("step", "profile")
        level = self.require("step", "level_nt")
        switch = self.get("step", "switch_time_s", 0.0)
        if kind == "step_up":
            return TargetProfile.step_up(level, switch)
        if kind == "step_down":
            return TargetProfile.step_down(level, switch)
        if kind == "constant":
            return TargetProfile.constant(level)
        if kind == "ramp_up":
            return TargetProfile.ramp_up(level, switch)
        raise ConfigError(f"{self.source}: [step] profile {kind!r} not recognized")

    def method_params(self, method: str):
        """The [method.<method>] parameters: a dict for the baselines, which
        need every key of their section, and a ConvexParams for convex,
        which needs alpha and beta and whose value checks fail as a
        ConfigError naming the section."""
        section = f"method.{method}"
        if not self.has_section(section):
            raise ConfigError(f"{self.source}: missing [{section}] parameters")
        for key in ("alpha", "beta") if method == "convex" else SCHEMA[section]:
            self.require(section, key)
        params = dict(self.data[section])
        if method == "convex":
            params.pop("init_weights", None)
            return self._build(ConvexParams, section, params)
        return params

    def sysid_scenario(self, snr_override: float | None = None):
        """The [sysid] scenario; a value its checks reject is a ConfigError
        naming the section."""
        from .experiments import SysIdScenario

        fields = dict(
            snr_db=snr_override if snr_override is not None else self.require("sysid", "snr_db"),
            order=self.get("sysid", "order", 2),
            n_iters=self.get("sysid", "n_iters", 5000),
            noise_reinjection_at=self.get("sysid", "reinjection_at", 2500),
            true_weights=tuple(self.get("sysid", "true_weights", (0.8, 0.5))),
            trials=self.get("sysid", "trials", 200),
            seed=self.get("sysid", "seed", 0),
        )
        return self._build(SysIdScenario, "sysid", fields)

    def step_scenario(self, method: str, seed_override: int | None = None):
        """The [step] scenario for `method`; a value its checks reject is a
        ConfigError naming the section."""
        from .experiments import StepScenario

        seed = seed_override if seed_override is not None else self.get("step", "seed", 0)
        fields = dict(
            profile=self.target_profile(),
            method=method,
            params=self.method_params(method),
            sensor=self.sensor(),
            duration_s=self.get("step", "duration_s", 20.0),
            settle_time_s=self.get("step", "settle_time_s", 1.5),
            band_fraction=self.get("step", "band_fraction", 0.02),
            seed=seed,
            disturbance=self.disturbance(seed),
            v_min_v=self.get("plant", "v_min_v", 0.0),
            v_max_v=self.get("plant", "v_max_v", 3.0),
            ctrl_unit_nt=self.get("step", "ctrl_unit_nt", 1000.0),
            x_scale_nt=self.get("step", "x_scale_nt", 1e6),
        )
        # [method.convex] init_weights starts convex runs only; the other
        # methods, and convex without the key, start from StepScenario's default
        init_weights = self.get("method.convex", "init_weights")
        if method == "convex" and init_weights is not None:
            fields["init_weights"] = tuple(init_weights)
        return self._build(StepScenario, "step", fields)

    def _build(self, cls, section: str, fields: dict):
        """cls(**fields), with a value error its checks raise as a
        ConfigError naming the section the fields came from."""
        try:
            return cls(**fields)
        except ValueError as err:
            raise ConfigError(f"{self.source}: [{section}] {err}") from None


def parse_config(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse and validate configuration text against the schema."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text, source=source)
    except configparser.Error as err:
        raise ConfigError(f"{source}: {err}") from err

    data: dict[str, dict] = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"{source}: unknown section [{section}]")
        keys = SCHEMA[section]
        data[section] = {}
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(f"{source}: unknown key [{section}] {key}")
            try:
                data[section][key] = keys[key](raw)
            except (ValueError, TypeError) as err:
                raise ConfigError(f"{source}: bad value for [{section}] {key}: {err}") from err

    version = data.get("meta", {}).get("schema_version")
    if version is None:
        raise ConfigError(f"{source}: missing [meta] schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{source}: unsupported schema_version {version}")
    return ScenarioConfig(data=data, source=source)


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        return parse_config(fh.read(), source=str(path))


def preset_names() -> list[str]:
    files = resources.files("coilsim").joinpath("presets")
    return sorted(p.name[: -len(".cfg")] for p in files.iterdir() if p.name.endswith(".cfg"))


def load_preset(name: str) -> ScenarioConfig:
    ref = resources.files("coilsim").joinpath("presets").joinpath(f"{name}.cfg")
    if not ref.is_file():
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return parse_config(ref.read_text(), source=f"preset:{name}")
