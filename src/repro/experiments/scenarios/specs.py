"""The paper's experiments as declarative scenario specs.

Each spec is one experiment's run grid: the sweep entries give the loop
nesting (outermost first), ``dims_order`` the reported-dimension order,
and the bases carry the fixed workload settings.  The golden-pinned
single-replication tables and the replicated scenario runs share these
specs as their one source of truth.

Every scenario defaults to five replications.  The paper's experiments
discard the first 10% of the horizon as warm-up (the caches start
cold, so early buckets depress hit ratios and inflate response times);
the tournament discards 40%, its whole cold-fill phase.
"""

from __future__ import annotations

import typing as t

#: Default warm-up share of the horizon discarded before measuring.
DEFAULT_WARMUP_FRACTION = 0.1

PAPER_SPECS: dict[str, dict[str, t.Any]] = {
    "exp1-granularity": {
        "title": "Figure 2: caching granularity (NC/AC/OC/HC)",
        "experiment_id": "exp1",
        "description": (
            "NC/AC/OC/HC across query kind, arrival pattern and heat; "
            "10 clients, U=0.1, EWMA-0.5 replacement."
        ),
        "base": {
            "replacement": "ewma-0.5",
            "update_probability": 0.1,
        },
        "sweep": [
            {"name": "query_kind", "values": ["AQ", "NQ"]},
            {"name": "arrival", "values": ["poisson", "bursty"]},
            {"name": "heat", "values": ["SH", "CSH"]},
            {"name": "granularity", "values": ["NC", "AC", "OC", "HC"]},
        ],
        "dims_order": ["granularity", "query_kind", "arrival", "heat"],
        "replications": 5,
        "warmup_fraction": DEFAULT_WARMUP_FRACTION,
    },
    "exp2-replacement-ro": {
        "title": "Figure 3: replacement policies, read-only (U=0, 1 client)",
        "experiment_id": "exp2",
        "description": (
            "Six replacement policies, one client, no updates: the "
            "paper's best-case hit ratios."
        ),
        "base": {
            "granularity": "HC",
            "update_probability": 0.0,
            "num_clients": 1,
        },
        "sweep": [
            {"name": "heat", "values": ["SH", "CSH"]},
            {"name": "query_kind", "values": ["AQ", "NQ"]},
            {"name": "arrival", "values": ["poisson", "bursty"]},
            {
                "name": "policy",
                "field": "replacement",
                "values": [
                    "lru", "lru-3", "lrd", "mean", "window-10", "ewma-0.5",
                ],
            },
        ],
        "dims_order": ["policy", "heat", "query_kind", "arrival"],
        "replications": 5,
        "warmup_fraction": DEFAULT_WARMUP_FRACTION,
    },
    "exp3-replacement-rw": {
        "title": "Figure 4: replacement policies with writes (U=0.1, 10 clients)",
        "experiment_id": "exp3",
        "description": (
            "The Figure 3 sweep under the realistic setting: updates "
            "and ten contending clients."
        ),
        "base": {
            "granularity": "HC",
            "update_probability": 0.1,
            "num_clients": 10,
        },
        "sweep": [
            {"name": "heat", "values": ["SH", "CSH"]},
            {"name": "query_kind", "values": ["AQ", "NQ"]},
            {"name": "arrival", "values": ["poisson", "bursty"]},
            {
                "name": "policy",
                "field": "replacement",
                "values": [
                    "lru", "lru-3", "lrd", "mean", "window-10", "ewma-0.5",
                ],
            },
        ],
        "dims_order": ["policy", "heat", "query_kind", "arrival"],
        "replications": 5,
        "warmup_fraction": DEFAULT_WARMUP_FRACTION,
    },
    "exp4-change-rates": {
        "title": "Figure 5: adaptivity vs CSH change rate",
        "experiment_id": "exp4-f5",
        "description": (
            "Four policies on CSH with hot-set change rates of "
            "300/500/700 queries."
        ),
        "base": {
            "granularity": "HC",
            "query_kind": "AQ",
            "arrival": "poisson",
            "heat": "CSH",
            "update_probability": 0.1,
            "num_clients": 10,
        },
        "sweep": [
            {
                "name": "change_rate",
                "field": "csh_change_every",
                "values": [300, 500, 700],
            },
            {
                "name": "policy",
                "field": "replacement",
                "values": ["lru", "lru-3", "lrd", "ewma-0.5"],
            },
        ],
        "dims_order": ["policy", "change_rate"],
        "replications": 5,
        "warmup_fraction": DEFAULT_WARMUP_FRACTION,
    },
    "exp4-cyclic": {
        "title": "Figure 6: cyclic access pattern",
        "experiment_id": "exp4-f6",
        "description": (
            "Four policies on the LRU-k paper's cyclic pattern: LRU "
            "collapses, LRU-3 and EWMA-0.5 survive."
        ),
        "base": {
            "granularity": "HC",
            "query_kind": "AQ",
            "arrival": "poisson",
            "heat": "cyclic",
            "update_probability": 0.1,
            "num_clients": 10,
        },
        "sweep": [
            {
                "name": "policy",
                "field": "replacement",
                "values": ["lru", "lru-3", "lrd", "ewma-0.5"],
            },
        ],
        "replications": 5,
        "warmup_fraction": DEFAULT_WARMUP_FRACTION,
    },
    "exp5-coherence": {
        "title": "Figure 7: coherence vs update probability and beta",
        "experiment_id": "exp5",
        "description": (
            "Error/hit/response for AC, OC and HC as U sweeps "
            "{0.1, 0.3, 0.5} and beta sweeps {-1, 0, 1}."
        ),
        "base": {
            "replacement": "ewma-0.5",
            "query_kind": "AQ",
            "arrival": "poisson",
            "heat": "SH",
            "num_clients": 10,
        },
        "sweep": [
            {"name": "beta", "values": [-1.0, 0.0, 1.0]},
            {
                "name": "update_probability",
                "values": [0.1, 0.3, 0.5],
            },
            {"name": "granularity", "values": ["AC", "OC", "HC"]},
        ],
        "dims_order": ["granularity", "update_probability", "beta"],
        "replications": 5,
        "warmup_fraction": DEFAULT_WARMUP_FRACTION,
    },
    "exp6-durations": {
        "title": "Figure 8a-c: error rate vs disconnection duration",
        "experiment_id": "exp6",
        "description": (
            "Error rates as the disconnection duration D grows, V=5 of "
            "10 clients disconnected.  Durations keep the paper's "
            "physical values, capped at 80% of the horizon."
        ),
        "base": {
            "replacement": "ewma-0.5",
            "query_kind": "AQ",
            "arrival": "poisson",
            "heat": "SH",
            "update_probability": 0.1,
            "num_clients": 10,
            "disconnected_clients": 5,
        },
        "sweep": [
            {"name": "granularity", "values": ["AC", "OC", "HC"]},
            {
                "name": "duration_hours",
                "field": "disconnection_hours",
                "values": [1.0, 4.0, 7.0, 10.0],
            },
        ],
        "dims_order": [
            "granularity", "duration_hours", "disconnected_clients",
        ],
        "const_dims": {"disconnected_clients": 5},
        "scaled_fields": {"disconnection_hours": 0.8},
        "replications": 5,
        "warmup_fraction": DEFAULT_WARMUP_FRACTION,
    },
    "exp6-client-counts": {
        "title": "Figure 8d: error rate vs disconnected-client count",
        "experiment_id": "exp6",
        "description": (
            "Error rates as V sweeps 1..9 disconnected clients at a "
            "fixed D=5 h (capped at 80% of the horizon)."
        ),
        "base": {
            "replacement": "ewma-0.5",
            "query_kind": "AQ",
            "arrival": "poisson",
            "heat": "SH",
            "update_probability": 0.1,
            "num_clients": 10,
            "disconnection_hours": 5.0,
        },
        "sweep": [
            {"name": "granularity", "values": ["AC", "OC", "HC"]},
            {
                "name": "disconnected_clients",
                "values": [1, 3, 5, 7, 9],
            },
        ],
        "dims_order": [
            "granularity", "duration_hours", "disconnected_clients",
        ],
        "const_dims": {"duration_hours": 5.0},
        "scaled_fields": {"disconnection_hours": 0.8},
        "replications": 5,
        "warmup_fraction": DEFAULT_WARMUP_FRACTION,
    },
    "exp7-losses": {
        "title": "Experiment 7: channel faults, retries, degradation",
        "experiment_id": "exp7",
        "description": (
            "Independent per-message losses crossed with the client "
            "retry budget for AC, OC and HC."
        ),
        "base": {
            "replacement": "ewma-0.5",
            "query_kind": "AQ",
            "arrival": "poisson",
            "heat": "SH",
            "update_probability": 0.1,
            "num_clients": 10,
            "request_timeout_seconds": 60.0,
            "backoff_base_seconds": 5.0,
        },
        "sweep": [
            {"name": "granularity", "values": ["AC", "OC", "HC"]},
            {"name": "loss_rate", "values": [0.0, 0.05, 0.2]},
            {"name": "retry_budget", "values": [0, 1, 3]},
        ],
        "replications": 5,
        "warmup_fraction": DEFAULT_WARMUP_FRACTION,
    },
    "exp7-bursts": {
        "title": "Experiment 7: bursty losses (Gilbert-Elliott)",
        "experiment_id": "exp7",
        "description": (
            "The ~5% marginal loss rate concentrated into "
            "Gilbert-Elliott bursts; clustered losses defeat small "
            "retry budgets."
        ),
        "base": {
            "replacement": "ewma-0.5",
            "query_kind": "AQ",
            "arrival": "poisson",
            "heat": "SH",
            "update_probability": 0.1,
            "num_clients": 10,
            "request_timeout_seconds": 60.0,
            "backoff_base_seconds": 5.0,
            "burst_loss_rate": 0.55,
            "burst_on_probability": 0.02,
            "burst_off_probability": 0.2,
        },
        "sweep": [
            {"name": "granularity", "values": ["AC", "OC", "HC"]},
            {"name": "retry_budget", "values": [0, 1, 3]},
        ],
        "dims_order": ["granularity", "burst", "retry_budget"],
        "const_dims": {"burst": True},
        "replications": 5,
        "warmup_fraction": DEFAULT_WARMUP_FRACTION,
    },
    "tournament": {
        "title": (
            "Experiment 8: policy tournament — 1998 schemes vs modern "
            "admission-aware policies"
        ),
        "experiment_id": "exp8",
        "description": (
            "The paper's six replacement schemes against four modern "
            "policies (W-TinyLFU fixed/adaptive window, sketch-gated "
            "LRU, LRFU) across the cyclic, scan, zipf and "
            "shifting-hotspot workloads; 10 clients, U=0.1, HC "
            "granularity."
        ),
        "base": {
            "granularity": "HC",
            "query_kind": "AQ",
            "arrival": "poisson",
            "update_probability": 0.1,
            "num_clients": 10,
        },
        "sweep": [
            {
                "name": "heat",
                "values": ["cyclic", "scan", "zipf", "hotspot"],
            },
            {
                "name": "policy",
                "field": "replacement",
                "values": [
                    "lru", "lru-3", "lrd", "mean", "window-10",
                    "ewma-0.5", "tinylfu-10", "tinylfu-adaptive",
                    "cmslru", "lrfu-0.001",
                ],
            },
        ],
        "dims_order": ["policy", "heat"],
        # The client caches only reach byte capacity ~1.5 h in; at the
        # fast 2 h default the eviction pressure has barely started and
        # every policy scores identically.  Four hours gives each cell
        # a sustained post-fill regime, and the 40% warm-up discards
        # the entire cold-fill phase so the table compares policies at
        # steady state rather than averaging in the shared ramp.
        "horizon_hours": 4.0,
        "replications": 5,
        "warmup_fraction": 0.4,
    },
}
