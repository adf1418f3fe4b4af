"""Metric names, units and definitions.

End-to-end metrics come from the untraced pass and are reported on every
workload.  `work_items_per_s` counts the workload's own work item, named
in the report as field_points_per_s, designs_per_s, trial_steps_per_s or
loop_steps_per_s.  The p90 unit latency is printed and recorded but not
gated: on a shared 2-core x86-64 machine its spread across seeds reached
0.23, above the largest bound a metric may have.

Per-layer metrics come from the traced pass.  A metric of a function the
workload never calls reads 0; each is meant to move the end-to-end metric
named in README.md.
"""

from __future__ import annotations

from tracer import LAYERS, ROOT

END_TO_END = {  # name -> (unit, better)
    "work_items_per_s": ("1/s", "higher"),
    "unit_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


class View:
    """Read-only access to a tracer's aggregates plus the benchmark's own
    counts of the traced units (points, bytes, trial-steps, timings)."""

    def __init__(self, stats: dict, under: dict, ctx: dict):
        self.stats, self.under, self.ctx = stats, under, ctx

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def per_call(self, name: str, scale: float = 1.0) -> float:
        return ratio(self.total(name) * scale, self.calls(name))

    def under_calls(self, span: str, name: str) -> int:
        return self.under.get((span, name), (0, 0.0))[0]

    def under_total(self, span: str, prefix: str) -> float:
        return sum(t for (s, n), (_, t) in self.under.items() if s == span and n.startswith(prefix))

    def layer_self(self, layer: str) -> float:
        return sum(st[2] for n, st in self.stats.items() if n.split(".", 1)[0] == layer)


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


RSR = "experiments.run_step_response"

# name -> (unit, better, definition)
PER_LAYER = {
    # magnetics -> field_points_per_s / peak_rss_mb on field-volume, designs_per_s on coil-design
    "magnetics.field_map.us_per_point": ("us", "lower", lambda v: ratio(v.total("magnetics.field_map") * 1e6, v.ctx.get("points", 0))),
    "magnetics.pair_field.calls": ("count", "lower", lambda v: v.calls("magnetics.pair_field")),
    "magnetics.pair_field.us_per_call": ("us", "lower", lambda v: v.per_call("magnetics.pair_field", 1e6)),
    "magnetics.segment_field.calls": ("count", "lower", lambda v: v.calls("magnetics.segment_field")),
    "magnetics.pair_field.calls_per_point": ("count", "lower", lambda v: ratio(
        v.calls("magnetics.pair_field"), v.ctx.get("points", 0) + v.calls("magnetics.uniformity"))),
    "magnetics.uniformity.calls": ("count", "lower", lambda v: v.calls("magnetics.uniformity")),
    "magnetics.uniformity.us_per_call": ("us", "lower", lambda v: v.per_call("magnetics.uniformity", 1e6)),
    "magnetics.write_field_map_csv.s": ("s", "lower", lambda v: v.per_call("magnetics.write_field_map_csv")),
    "magnetics.write_field_map_csv.mb_per_s": ("MB/s", "higher", lambda v: ratio(
        v.ctx.get("field_csv_bytes", 0) / 1e6, v.total("magnetics.write_field_map_csv"))),
    "magnetics.field_map.alloc_mb": ("MB", "lower", lambda v: v.ctx.get("field_map_alloc_mb", 0.0)),
    # coilopt -> designs_per_s and unit_p50_ms on coil-design
    "coilopt.uniform_region.ms_per_call": ("ms", "lower", lambda v: v.per_call("coilopt.uniform_region", 1e3)),
    "coilopt.uniform_region.uniformity_calls_per_call": ("count", "lower", lambda v: ratio(
        v.under_calls("coilopt.uniform_region", "magnetics.uniformity"), v.calls("coilopt.uniform_region"))),
    "coilopt.solve_optimal_ratio.us_per_call": ("us", "lower", lambda v: v.per_call("coilopt.solve_optimal_ratio", 1e6)),
    "coilopt.second_derivative_center.us_per_call": ("us", "lower", lambda v: v.per_call("coilopt.second_derivative_center", 1e6)),
    # plant -> loop_steps_per_s and unit_p50_ms on closed-loop-seeds
    "plant.disturbance_at.calls": ("count", "lower", lambda v: v.calls("plant.disturbance_at")),
    "plant.disturbance_at.us_per_call": ("us", "lower", lambda v: v.per_call("plant.disturbance_at", 1e6)),
    "plant.sense.us_per_call": ("us", "lower", lambda v: v.per_call("plant.sense", 1e6)),
    "plant.drive.us_per_call": ("us", "lower", lambda v: v.per_call("plant.drive", 1e6)),
    "plant.inverse_drive.us_per_call": ("us", "lower", lambda v: v.per_call("plant.inverse_drive", 1e6)),
    "plant.target_at.us_per_call": ("us", "lower", lambda v: v.per_call("plant.TargetProfile.target_at", 1e6)),
    "plant.share_of_loop": ("fraction", "lower", lambda v: ratio(v.under_total(RSR, "plant."), v.total(RSR))),
    # control: *_step -> loop_steps_per_s on closed-loop-seeds; run_*_batch -> trial_steps_per_s on sysid-trials
    **{f"control.{m}_step.us_per_call": ("us", "lower", lambda v, m=m: v.per_call(f"control.{m}_step", 1e6))
       for m in ("lms", "svs", "atlms", "convex")},
    **{f"control.run_{m}_batch.ns_per_trial_step": ("ns", "lower", lambda v, m=m: ratio(
        v.total(f"control.run_{m}_batch") * 1e9, v.ctx.get(f"trial_steps.{m}", 0)))
       for m in ("lms", "svs", "atlms", "convex")},
    # experiments -> trial_steps_per_s / peak_rss_mb on sysid-trials, loop_steps_per_s on closed-loop-seeds
    "experiments.run_sysid.s_per_call": ("s", "lower", lambda v: v.per_call("experiments.run_sysid")),
    "experiments.run_sysid.self_s": ("s", "lower", lambda v: ratio(
        v.self_s("experiments.run_sysid"), v.calls("experiments.run_sysid"))),
    "experiments.run_step_response.ms_per_call": ("ms", "lower", lambda v: v.per_call(RSR, 1e3)),
    "experiments.run_step_response.self_share": ("fraction", "lower", lambda v: ratio(v.self_s(RSR), v.total(RSR))),
    "experiments.compute_metrics.us_per_call": ("us", "lower", lambda v: v.per_call("experiments.compute_metrics", 1e6)),
    **{f"experiments.{w}.s": ("s", "lower", lambda v, w=w: v.per_call(f"experiments.{w}"))
       for w in ("write_metrics_csv", "write_mse_curves_csv", "write_trace_csv")},
    # config / cli -> setup_s on every workload
    "import.coilsim_s": ("s", "lower", lambda v: v.ctx.get("import_s", 0.0)),
    "config.load_preset.ms_per_call": ("ms", "lower", lambda v: v.per_call("config.load_preset", 1e3)),
    "config.parse_config.us_per_call": ("us", "lower", lambda v: v.per_call("config.parse_config", 1e6)),
    **{f"cli.main.{c}.s_per_call": ("s", "lower", lambda v, c=c: v.per_call(f"cli.main.{c}"))
       for c in ("field-map", "optimize", "sysid", "step")},
    # where the traced time went: the layers' self time plus the root's own
    **{f"{layer}.self_share": ("fraction", "lower", lambda v, layer=layer: ratio(v.layer_self(layer), v.total(ROOT)))
       for layer in LAYERS},
    "trace.root_self_share": ("fraction", "lower", lambda v: ratio(v.self_s(ROOT), v.total(ROOT))),
    "trace.overhead_frac": ("fraction", "lower", lambda v: v.ctx.get("overhead_frac", 0.0)),
}


def per_layer(stats: dict, under: dict, ctx: dict) -> dict:
    v = View(stats, under, ctx)
    return {name: {"value": float(fn(v)), "unit": unit} for name, (unit, _better, fn) in PER_LAYER.items()}
