"""Scenario configuration: a sectioned key=value text format (INI syntax)
with a strict schema, plus the shipped presets.

Unknown sections or keys are rejected with their location.  All physical
quantities carry explicit units in their key names.

A key is a field of the dataclass its section builds, and the field's
annotation picks the key's parser: [sensor] is SensorSpec's fields beside
model, [disturbance] DisturbanceSpec's, [sysid] SysIdScenario's and
[method.<method>] control.LAWS[method]'s.  StepScenario's fields are set in
three places: the drive's range in [plant], the starting weights of convex
runs in [method.convex], and the rest in [step], beside the profile keys.
[meta], the profile keys and [coil]/[grid] are written by hand, as the
last two give mm where their dataclasses take m.

Config only parses the text and passes the keys a section sets to the
dataclass it builds, which owns every default and value check; a value it
rejects is a ConfigError naming the section, under --validate-only too.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial
from importlib import resources
from typing import Callable

from .coilopt import optimal_spacing
from .control import LAWS
from .experiments import StepScenario, SysIdScenario
from .magnetics import GridSpec, HelmholtzPair
from .plant import (
    HMC5883L,
    IDEAL_SENSOR,
    RM3100,
    DisturbanceSpec,
    PlantModel,
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


# a field's annotation -> its key's parser; a field of any other type (a
# nested spec, the law params) is no key
_PARSERS = {"float": float, "int": int, "tuple[float, ...]": _floats, "tuple[float, float]": _floats,
            "tuple[tuple[float, float, float], ...]": _ac_components}


def _keys(cls) -> dict[str, Callable]:
    """The keys of cls's fields, with their parsers."""
    return {f.name: _PARSERS[f.type] for f in fields(cls) if f.type in _PARSERS}


# StepScenario's keys: the drive's range is [plant]'s and the starting
# weights [method.convex]'s; the rest follow [step]'s profile keys
_STEP = _keys(StepScenario)
_PLANT = {key: _STEP.pop(key) for key in ("v_min_v", "v_max_v")}
_INIT_WEIGHTS = _STEP.pop("init_weights")

# section -> key -> value parser
SCHEMA: dict[str, dict[str, Callable]] = {
    "meta": {"schema_version": int},
    "coil": {"side_mm": float, "spacing_mm": float, "turns": int, "current_a": float},
    "grid": {"x_mm": _axis, "y_mm": _axis, "z_mm": _axis},
    "plant": _PLANT,
    "sensor": {"model": str, **_keys(SensorSpec)},
    "disturbance": _keys(DisturbanceSpec),
    "sysid": _keys(SysIdScenario),
    "step": {"profile": str, "level_nt": float, "switch_time_s": float, **_STEP},
    **{f"method.{method}": _keys(cls) for method, cls in LAWS.items()},
}
SCHEMA["method.convex"]["init_weights"] = _INIT_WEIGHTS

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
        """The [coil] pair, at the optimal spacing unless spacing_mm is set."""
        side = self.require("coil", "side_mm") / 1000.0
        spacing_mm = self.get("coil", "spacing_mm")
        if spacing_mm is None:
            spacing = self._build(optimal_spacing, "coil", dict(side=side))
        else:
            spacing = spacing_mm / 1000.0
        return self._build(HelmholtzPair, "coil", dict(
            side=side,
            spacing=spacing,
            turns=self.get("coil", "turns", 1),
            current=self.get("coil", "current_a", 1.0),
        ))

    def grid(self) -> GridSpec:
        def ax(key):
            lo, hi, n = self.require("grid", key)
            return (lo / 1000.0, hi / 1000.0, n)

        return self._build(GridSpec, "grid", dict(x=ax("x_mm"), y=ax("y_mm"), z=ax("z_mm")))

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
        return self._build(SensorSpec, "sensor", self.data.get("sensor", {}))

    def disturbance(self) -> DisturbanceSpec:
        return self._build(DisturbanceSpec, "disturbance", self.data.get("disturbance", {}))

    def target_profile(self) -> TargetProfile:
        kind = self.require("step", "profile")
        level = self.require("step", "level_nt")
        switch = self.get("step", "switch_time_s", TargetProfile.switch_time_s)
        if kind in ("step_up", "step_down"):
            return self._build(getattr(TargetProfile, kind), "step", dict(level_nt=level, switch_time_s=switch))
        if kind == "constant":
            return self._build(TargetProfile.constant, "step", dict(level_nt=level))
        raise ConfigError(f"{self.source}: [step] profile {kind!r} not recognized")

    def method_params(self, method: str):
        """The [method.<method>] parameters, an instance of
        control.LAWS[method]: the section must set each of its fields that
        has no default, and a value that fails its checks is a ConfigError
        naming the section."""
        section, cls = f"method.{method}", LAWS[method]
        if not self.has_section(section):
            raise ConfigError(f"{self.source}: missing [{section}] parameters")
        for f in fields(cls):
            if f.default is MISSING:
                self.require(section, f.name)
        params = dict(self.data[section])
        params.pop("init_weights", None)
        return self._build(cls, section, params)

    def sysid_scenario(self, snr_override: float | None = None) -> SysIdScenario:
        """The [sysid] scenario; a value its checks reject is a ConfigError
        naming the section."""
        fields = dict(self.data.get("sysid", {}))
        fields["snr_db"] = snr_override if snr_override is not None else self.require("sysid", "snr_db")
        return self._build(SysIdScenario, "sysid", fields)

    def step_scenario(self, method: str, seed_override: int | None = None) -> StepScenario:
        """The [step] scenario for `method`, whose [method.<method>]
        parameters name its law; a value its checks reject is a ConfigError
        naming the section the value came from."""
        plant = self.data.get("plant", {})
        # a bad range names [plant]
        self._build(PlantModel.ascending, "plant", {k.removesuffix("_v"): v for k, v in plant.items()})
        profile = self.target_profile()
        # the [step] keys that build no profile are StepScenario fields
        fields = {k: v for k, v in self.data["step"].items() if k not in ("profile", "level_nt", "switch_time_s")}
        if seed_override is not None:
            fields["seed"] = seed_override
        fields.update(
            plant,
            profile=profile,
            params=self.method_params(method),
            sensor=self.sensor(),
            disturbance=self.disturbance(),
        )
        scn = self._build(StepScenario, "step", fields)
        # [method.convex] init_weights starts convex runs only; the other
        # methods, and convex without the key, start from StepScenario's default
        init_weights = self.get("method.convex", "init_weights")
        if method == "convex" and init_weights is not None:
            scn = self._build(partial(replace, scn), "method.convex", dict(init_weights=init_weights))
        return scn

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
