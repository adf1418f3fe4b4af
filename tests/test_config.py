import pytest

from coilsim.config import ConfigError, parse_config
from coilsim.experiments import StepScenario
from coilsim.plant import RM3100, SensorSpec

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
        profile=scn.profile,
        method="lms",
        params={"mu": 0.05},
        sensor=scn.sensor,
        duration_s=scn.duration_s,
    )
    assert scn == default
    assert scn.x_scale_nt == 1e6


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
    ("ramp_up", (0.0, 120000.0), 0.5),  # the switch time is the ramp's length
])
def test_target_profile_kinds(kind, levels, switch):
    text = MINIMAL_STEP.replace("profile = step_up", f"profile = {kind}\nswitch_time_s = 0.5")
    profile = parse_config(text).target_profile()
    assert (profile.kind, profile.levels, profile.switch_time_s) == (kind, levels, switch)


def test_unknown_target_profile_kind_is_rejected():
    cfg = parse_config(MINIMAL_STEP.replace("profile = step_up", "profile = sawtooth"))
    with pytest.raises(ConfigError, match="profile 'sawtooth' not recognized"):
        cfg.target_profile()
