"""``repro serve`` flags ≡ ``serve.*`` scenario keys, as configs.

The serve-side companion of ``TestFlagRouteEquivalence`` in
``test_scenario_equivalence.py``: each drawn scenario is rendered as the
``repro serve`` argv that sets the same keys, and the command line must
build the same :class:`~repro.config.ServeConfig` and
:class:`~repro.config.SimulationConfig` as the scenario itself.  This
pins the flag spellings, the comma-list parsing of ``--mix`` and
``--weights``, and the top-level ``--scale``/``--seed`` routing.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.cli import _build_config, _scenario, build_parser
from repro.scenario import SCHEMA, build_serve_config, build_sim_config
from repro.scenario.schema import flatten

#: Candidate values per key; each combination is a valid ServeConfig
#: (watermarks escalate against each other and the defaults).
VALUES = {
    "scale": ["tiny", "small"],
    "seed": [0, 3],
    "policy.variant": ["disabled", "adaptive"],
    "policy.static_threshold": [4, 16],
    "memory.prefetcher": ["tree", "none"],
    "faults.transfer_rate": [0.0, 0.05],
    "serve.arrival_rate": [400.0, 2000, 1500.5],
    "serve.tenants": [1, 3, 12],
    "serve.duration_ms": [2.5, 50],
    "serve.process": ["poisson", "bursty"],
    "serve.burst_factor": [2.0, 8],
    "serve.burst_len_ms": [1, 2.5],
    "serve.calm_len_ms": [4.0, 10],
    "serve.workload_mix": [["ra"], ["ra", "bfs"], ["fdtd", "sssp", "nw"]],
    "serve.capacity_mb": [16, 32],
    "serve.throttle_watermark": [1.0, 1.2],
    "serve.admit_watermark": [1.2, 1.5],
    "serve.shed_watermark": [1.6, 2.5],
    "serve.queue_depth": [1, 8],
    "serve.quantum": [1, 4],
    "serve.throttle_rounds": [2, 8],
    "serve.live_admission": [True],
    "serve.live_thrash_threshold": [0.05, 1],
    "serve.window_ms": [2, 5.0],
    "serve.scheduler": ["round_robin", "drr"],
    "serve.weights": [[], [2, 1], [0.5, 4.0, 1]],
    "serve.throttle_decay": [0.25, 1],
}


@st.composite
def serve_scenario(draw):
    """A ``mode: serve`` scenario setting each key with 50% probability."""
    data = {"mode": "serve"}
    for path, values in VALUES.items():
        if draw(st.booleans()):
            section, _, leaf = path.rpartition(".")
            target = data.setdefault(section, {}) if section else data
            target[leaf] = draw(st.sampled_from(values))
    return data


def argv_for(data: dict) -> list[str]:
    """The ``repro serve`` command line setting ``data``'s keys."""
    argv = ["serve"]
    for path, value in flatten(data).items():
        if path == "mode":
            continue
        flag = SCHEMA[path].flag
        if isinstance(value, bool):
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, ",".join(str(v) for v in value)]
        else:
            argv += [flag, str(value)]
    return argv


class TestServeFlagRouteEquivalence:
    @given(serve_scenario())
    @settings(max_examples=200, deadline=None)
    def test_serve_flags_and_scenario_build_one_config(self, data):
        args = build_parser().parse_args(argv_for(data))
        serve_cfg = build_serve_config(_scenario(args))
        assert serve_cfg == build_serve_config(data)
        # Byte-equal encodings: ints coerced to floats on both routes.
        assert (json.dumps(serve_cfg.as_dict()) ==
                json.dumps(build_serve_config(data).as_dict()))
        assert _build_config(args) == build_sim_config(data)
