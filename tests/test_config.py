from dataclasses import fields

import pytest

from coilsim.config import SCHEMA, ConfigError, _ac_components, _axis, _floats, parse_config
from coilsim.control import LAWS, LmsParams
from coilsim.experiments import StepScenario, SysIdScenario
from coilsim.plant import RM3100, DisturbanceSpec, SensorSpec, TargetProfile

MINIMAL_STEP = """
[meta]
schema_version = 1
[step]
profile = step_up
level_nt = 120000
[method.lms]
mu = 0.05
"""


def test_step_scenario_defaults_match_dataclass_defaults():
    scn = parse_config(MINIMAL_STEP).step_scenario("lms")
    default = StepScenario(
        profile=TargetProfile.step_up(120000.0),
        params=LmsParams(mu=0.05),
        sensor=SensorSpec(),
    )
    assert scn == default
    assert scn.x_scale_nt == 1e6


def config_text(sections) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                   for name, keys in sections.items())


# a config with the required keys of every builder below
REQUIRED = {"meta": {"schema_version": "1"}, "step": {"profile": "step_up", "level_nt": "120000"},
            "method.lms": {"mu": "0.05"}, "sysid": {"snr_db": "30"}}
# section -> (a builder that reads it, what the builder gives on REQUIRED:
# its dataclass built from its required fields alone)
BUILDS = {
    "sysid": (lambda cfg: cfg.sysid_scenario(), SysIdScenario(snr_db=30.0)),
    "step": (lambda cfg: cfg.step_scenario("lms"),
             StepScenario(TargetProfile.step_up(120000.0), LmsParams(mu=0.05), SensorSpec())),
    "sensor": (lambda cfg: cfg.sensor(), SensorSpec()),
    "disturbance": (lambda cfg: cfg.disturbance(), DisturbanceSpec()),
}
BUILDS["plant"] = BUILDS["step"]


@pytest.mark.parametrize("section", ["sysid", "sensor", "disturbance"])
def test_builder_defaults_match_dataclass_defaults(section):
    build, default = BUILDS[section]
    assert build(parse_config(config_text(REQUIRED))) == default


# section -> key -> a valid value unlike its field's default, as config text;
# the walk sets every key of a section at once
NON_DEFAULT = {
    "sysid": {"snr_db": "12.5", "order": "3", "n_iters": "300", "reinjection_at": "100", "trials": "4",
              "seed": "9", "true_weights": "0.1,-0.2,0.3"},
    "step": {"profile": "step_down", "level_nt": "5000", "switch_time_s": "0.25", "duration_s": "3.5",
             "settle_time_s": "0.75", "band_fraction": "0.05", "x_scale_nt": "2e6", "ctrl_unit_nt": "500",
             "seed": "4"},
    "plant": {"v_min_v": "-1.5", "v_max_v": "2.5"},
    "sensor": {"noise_sigma_nt": "3", "quantization_step_nt": "2", "sample_rate_hz": "50"},
    "disturbance": {"dc_offset_nt": "-40", "gaussian_sigma_nt": "6", "ac_components": "500:0.5:0.25,20:2:1"},
}
# key -> where its value lands, for the keys not named as their field
LANDS = {
    "profile": lambda scn: scn.profile.kind,
    "level_nt": lambda scn: scn.profile.levels[0],
    "switch_time_s": lambda scn: scn.profile.switch_time_s,
}


@pytest.mark.parametrize("section", list(NON_DEFAULT))
def test_every_key_reaches_its_field(section):
    # a new key needs a value here; a sensor model is the other way to set
    # the sensor (test_sensor_model_alone_is_the_model)
    assert set(NON_DEFAULT[section]) == set(SCHEMA[section]) - {"model"}
    build, default = BUILDS[section]
    built = build(parse_config(config_text({**REQUIRED, section: {**REQUIRED.get(section, {}),
                                                                   **NON_DEFAULT[section]}})))
    for key, raw in NON_DEFAULT[section].items():
        field = LANDS.get(key, lambda obj: getattr(obj, key))
        assert field(built) == SCHEMA[section][key](raw) != field(default), key


SENSOR_MODEL = MINIMAL_STEP + """
[sensor]
model = rm3100
"""


def test_sensor_model_alone_is_the_model():
    assert parse_config(SENSOR_MODEL).sensor() == RM3100


@pytest.mark.parametrize("key", ["noise_sigma_nt", "quantization_step_nt", "sample_rate_hz"])
def test_sensor_model_with_an_explicit_key_is_rejected(key):
    # the explicit key would otherwise be ignored: rm3100 runs at 200 Hz
    cfg = parse_config(SENSOR_MODEL + f"{key} = 10\n")
    with pytest.raises(ConfigError, match=f"model fixes the sensor; remove {key}$"):
        cfg.sensor()
    with pytest.raises(ConfigError, match=key):
        cfg.step_scenario("lms")


def test_sensor_from_explicit_keys():
    cfg = parse_config(MINIMAL_STEP + "[sensor]\nnoise_sigma_nt = 2\nsample_rate_hz = 10\n")
    assert cfg.sensor() == SensorSpec(noise_sigma_nt=2.0, quantization_step_nt=0.0, sample_rate_hz=10.0)


@pytest.mark.parametrize("kind, levels, switch", [
    ("step_up", (0.0, 120000.0), 0.5),
    ("step_down", (120000.0, 0.0), 0.5),
    ("constant", (120000.0,), 0.0),  # a constant target has no switch
])
def test_target_profile_kinds(kind, levels, switch):
    text = MINIMAL_STEP.replace("profile = step_up", f"profile = {kind}\nswitch_time_s = 0.5")
    profile = parse_config(text).target_profile()
    assert (profile.kind, profile.levels, profile.switch_time_s) == (kind, levels, switch)


def test_unknown_target_profile_kind_is_rejected():
    # ramp_up was a kind, which no preset used
    for kind in ("sawtooth", "ramp_up"):
        cfg = parse_config(MINIMAL_STEP.replace("profile = step_up", f"profile = {kind}"))
        with pytest.raises(ConfigError, match=f"profile '{kind}' not recognized"):
            cfg.target_profile()


def test_method_sections_of_the_schema():
    # derived from the dataclasses' fields: the keys and parsers of the
    # hand-written sections they replaced, and for the law parameter
    # classes their order too
    assert SCHEMA == {
        "meta": {"schema_version": int},
        "coil": {"side_mm": float, "spacing_mm": float, "turns": int, "current_a": float},
        "grid": {"x_mm": _axis, "y_mm": _axis, "z_mm": _axis},
        "plant": {"v_min_v": float, "v_max_v": float},
        "sensor": {"model": str, "noise_sigma_nt": float, "quantization_step_nt": float, "sample_rate_hz": float},
        "disturbance": {"dc_offset_nt": float, "gaussian_sigma_nt": float, "ac_components": _ac_components},
        "sysid": {"snr_db": float, "order": int, "n_iters": int, "reinjection_at": int, "trials": int, "seed": int,
                  "true_weights": _floats},
        "step": {"profile": str, "level_nt": float, "switch_time_s": float, "duration_s": float,
                 "settle_time_s": float, "band_fraction": float, "x_scale_nt": float, "ctrl_unit_nt": float,
                 "seed": int},
        **{s: SCHEMA[s] for s in SCHEMA if s.startswith("method.")},
    }
    assert [(s, list(keys.items())) for s, keys in SCHEMA.items() if s.startswith("method.")] == [
        ("method.lms", [("mu", float)]),
        ("method.svs", [("alpha", float), ("beta", float)]),
        ("method.atlms", [("alpha", float), ("beta", float), ("m", float), ("n_scale", float)]),
        ("method.convex", [("alpha", float), ("beta", float), ("sigma", float), ("phi", float), ("c", float),
                           ("mu_b", float), ("gamma_o", float), ("t_o", int), ("init_weights", _floats)]),
    ]


# section -> the dataclass it builds, each of whose fields is one of its keys
FIELD_SECTIONS = {"sensor": SensorSpec, "disturbance": DisturbanceSpec, "sysid": SysIdScenario,
                  **{f"method.{method}": cls for method, cls in LAWS.items()}}


@pytest.mark.parametrize("section", list(FIELD_SECTIONS))
def test_every_field_is_a_key_of_its_section(section):
    # a field whose annotation has no parser would silently be no key
    assert {f.name for f in fields(FIELD_SECTIONS[section])} <= set(SCHEMA[section])


def test_step_scenario_fields_are_the_keys_of_three_sections():
    # [step]'s profile keys build the profile field
    assert {f.name for f in fields(StepScenario)} == (
        set(SCHEMA["step"]) - {"profile", "level_nt", "switch_time_s"} | set(SCHEMA["plant"]) | {"init_weights"}
        | {"profile", "params", "sensor", "disturbance"})
