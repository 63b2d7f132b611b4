"""The bundled figure1 scenario: one failure, one detour, one shortcut.

A flow S->D normally rides S-S1-S2-S4-D. When the S2-S4 link dies, the
bounce-back failover walks S-S1-S2-S1-S3-S4-D; shortcutting collapses that
to S-S1-S3-S4-D within one round. A background flow S2->H rides the
S2-S1-H segment: it shares the bounce-back direction S2->S1 with the
looping walk (halving both flows) and nothing with the shortcut route.
"""

from __future__ import annotations

from .topology import Topology, figure1_topology

FIGURE1_PATHS = (
    ("S", "S1", "S2", "S4", "D"),
    ("S", "S1", "S3", "S4", "D"),
)

FIGURE1_FLOW = {"source": "S", "destination": "D"}

FIGURE1_BACKGROUND = {"source": "S2", "destination": "H", "route": ["S2", "S1", "H"]}


def figure1_config() -> dict:
    """Scenario config reproducing the bundled example end to end."""
    return {
        "topology": {"kind": "figure1"},
        "flows": [dict(FIGURE1_FLOW)],
        "scheme": {"kind": "partition", "paths": [list(p) for p in FIGURE1_PATHS]},
        "failures": {"kind": "explicit", "links": [["S2", "S4"]], "nodes": []},
        "throughput": {
            "capacities": "unit",
            "background_flows": [dict(FIGURE1_BACKGROUND)],
            "failure_effective": 2.0,
            "control_plane_delay": 2.0,
            "shortcut_delay": 0.2,
            "sample_step": 0.1,
            "horizon": 8.0,
        },
    }


__all__ = [
    "FIGURE1_PATHS",
    "FIGURE1_FLOW",
    "FIGURE1_BACKGROUND",
    "figure1_config",
    "figure1_topology",
    "Topology",
]
