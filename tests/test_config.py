from coilsim.config import parse_config
from coilsim.experiments import StepScenario

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
