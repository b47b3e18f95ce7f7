"""Per-layer metrics, computed from a traced phase of a run.

Counts and times are per traced request, so runs of different lengths
and commits of different speeds compare on the same base.  ``self_s`` is
span time minus child spans (see tracer.py).
"""

from __future__ import annotations

SELF_S = [
    "specfun.c_state_matrix",
    "specfun.c_state",
    "phase_matrix.validate",
    "phase_matrix.state_generated",
    "phase_matrix.gram_factor",
    "phase_matrix.u_equivalent",
    "optimal.extremal_check",
    "optimal.real_nonextremal_shortcut",
    "optimal.recover_state",
    "optimal.preprocess",
    "optimal.preclean_check",
    "optimal.approx_sharp_check",
    "optimal.post_equiv_class",
    "optimal.smear",
    "measure.density",
    "measure.effect_norm",
    "measure.et_quadrature_oracle",
    "groupsim.convexity_check",
    "groupsim.pre_norm_check",
    "groupsim.make_covariant",
    "groupsim.covariantize",
]
CALLS = ["specfun.c_state_matrix", "specfun.c_state", "phase_matrix.validate"]
COUNTS = ["specfun.displacement_element", "groupsim.norm"]
ENCODE = ("serialize.dumps", "serialize.density_csv", "serialize.sweep_csv")
DECODE = ("serialize.json.loads",)
CLI_SPANS = ("cli.main", "cli.run")


def metric_units() -> dict:
    """Every per-layer metric name with its unit (the BENCHMARK.json list)."""
    units = {}
    for name in CALLS:
        units[f"{name}.calls"] = "calls/req"
    for name in SELF_S:
        units[f"{name}.self_s"] = "s/req"
    for name in COUNTS:
        units[f"{name}.calls"] = "calls/req"
    units.update({
        "specfun.c_state_matrix.reuse_ratio": "ratio",
        "serialize.encode_s": "s/req",
        "serialize.decode_s": "s/req",
        "serialize.bytes": "B/req",
        "groupsim.subsets": "subsets/req",
        "groupsim.norm_calls_per_subset": "calls/subset",
        "cli.spawn_s": "s/req",
        "cli.import_s": "s/req",
        "cli.self_s": "s/req",
        "trace_overhead_ratio": "ratio",
    })
    return units


def compute(tracer, requests: int, extras: dict) -> dict:
    """Per-layer values; ``extras`` holds what the workload measured itself.

    ``extras`` keys: ``subsets`` (total from groupsim reports),
    ``spawn_s`` and ``import_s`` (totals over CLI children), and
    ``trace_overhead_ratio``.
    """
    n = max(requests, 1)
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = calls.get(name, 0) / n
    for name in SELF_S:
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    for name in COUNTS:
        out[f"{name}.calls"] = counts.get(name, 0) / n
    kernel_calls = calls.get("specfun.c_state_matrix", 0)
    reused = counts.get("specfun.c_state_matrix.reused", 0)
    out["specfun.c_state_matrix.reuse_ratio"] = reused / kernel_calls if kernel_calls else 0.0
    codec = [k for k in self_s if k.startswith("serialize.")]
    encode = [k for k in codec if k in ENCODE or k.endswith(".to_dict")]
    decode = [k for k in codec if k in DECODE or k.endswith(".from_dict")]
    out["serialize.encode_s"] = sum(self_s[k] for k in encode) / n
    out["serialize.decode_s"] = sum(self_s[k] for k in decode) / n
    out["serialize.bytes"] = counts.get("serialize.bytes", 0) / n
    subsets = extras.get("subsets", 0)
    out["groupsim.subsets"] = subsets / n
    out["groupsim.norm_calls_per_subset"] = (
        counts.get("groupsim.norm", 0) / subsets if subsets else 0.0
    )
    out["cli.spawn_s"] = extras.get("spawn_s", 0.0) / n
    out["cli.import_s"] = extras.get("import_s", 0.0) / n
    out["cli.self_s"] = sum(self_s.get(k, 0.0) for k in CLI_SPANS) / n
    out["trace_overhead_ratio"] = extras["trace_overhead_ratio"]
    units = metric_units()
    return {name: (out[name], units[name]) for name in units}
