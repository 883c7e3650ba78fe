"""What each per-layer metric should move, and where; what is printed
but not gated.

``BENCHMARK.json`` names every gated metric with its unit, direction and
(end to end) bound, and :mod:`run` reads them from there.  Its schema
has no room for the rest, so it lives here: the end-to-end metrics a run
prints without gating them, the per-layer metric names each layer
reports, and -- recorded before any optimisation is attempted -- which
end-to-end metric each layer should move and on which workload it does
the most and the least work.
"""

#: End-to-end metrics every untraced run prints but ``BENCHMARK.json``
#: does not gate: name -> (unit, better).  ``sim_p50_us`` is the same
#: simulated service time for every seed on ycsb-a and engines (a
#: MemTable hit), so it cannot show run-to-run spread; ``fail_ratio`` is
#: 0 at a correct commit, so a relative bound means nothing, and the
#: result line's ``attempted`` and ``failed`` counts carry it.
PRINTED_ONLY = {
    "sim_p50_us": ("sim_us", "lower"),
    "fail_ratio": ("ratio", "lower"),
}

#: The metrics every instrumented layer reports.
TRIPLE = ("calls_per_op", "self_us_per_op", "self_share")

#: Per-layer metrics.  Each instrumented layer reports :data:`TRIPLE`;
#: ``extra`` are the layer's own ratios and counts.  ``moves`` names the
#: end-to-end metrics the layer should move; ``most``/``least`` name the
#: workloads where it does the most and the least work.
LAYERS = {
    "kvstore": {
        "extra": (),
        "moves": ["call_p50_us", "wall_kops"],
        "most": "ycsb-a (a call per op)",
        "least": "read-scan (a call per 128 reads)",
    },
    "core": {
        "extra": ("flush_count", "compact_count", "lazy_copy_count",
                  "stall_us_per_op", "ptr_writes_per_op"),
        "moves": ["call_p99_us", "wall_kops", "sim_p99_us", "write_amp"],
        "most": "ycsb-a",
        "least": "read-scan",
    },
    "skiplist": {
        "extra": ("index_ratio",),
        "moves": ["wall_kops"],
        "most": "ycsb-a (inserts, merges), read-scan (lookups)",
        "least": "none (index_ratio splits the two)",
    },
    "bloom": {
        "extra": ("skip_ratio", "memo_hit_ratio"),
        "moves": ["wall_kops", "call_p50_us"],
        "most": "read-scan",
        "least": "repl-cluster",
    },
    "persist": {
        "extra": ("cursor_records_per_op",),
        "moves": ["wall_kops"],
        "most": "repl-cluster",
        "least": "read-scan",
    },
    "sim": {
        "extra": ("jobs_per_kop", "settle_useful_ratio"),
        "moves": ["wall_kops", "call_p99_us"],
        "most": "ycsb-a, repl-cluster",
        "least": "read-scan",
    },
    "mem": {
        "extra": ("persistent_bytes_per_op",),
        "moves": ["wall_kops", "write_amp"],
        "most": "all",
        "least": "-",
    },
    "replication": {
        "extra": ("ack_wait_us_per_put", "shipped_per_put"),
        "moves": ["wall_kops", "peak_rss_mb", "sim_p99_us"],
        "most": "repl-cluster",
        "least": "others (zero)",
    },
    "cluster": {
        "extra": ("queue_depth_max", "deferred_ratio"),
        "moves": ["wall_kops", "sim_p99_us", "fail_ratio"],
        "most": "repl-cluster",
        "least": "others (zero)",
    },
    "obs": {
        "extra": ("retained_ratio",),
        "moves": ["wall_kops"],
        "most": "repl-cluster",
        "least": "others (zero)",
    },
    "baselines": {
        "extra": (),
        "moves": ["wall_kops", "call_p99_us"],
        "most": "engines",
        "least": "others (zero)",
    },
    "sstable": {
        "extra": (),
        "moves": ["wall_kops", "call_p99_us"],
        "most": "engines",
        "least": "others (zero)",
    },
    "btree": {
        "extra": (),
        "moves": ["wall_kops", "call_p99_us"],
        "most": "engines",
        "least": "others (zero)",
    },
}

#: Per-layer metrics that are not a layer's triple -- the garbage
#: collector (timed through ``gc.callbacks``) and the tracing overhead
#: itself: name -> (moves, most, least).
OTHER_PER_LAYER = {
    "gc.pause_share": (["call_p99_us", "peak_rss_mb"],
                       "ycsb-a, repl-cluster", "read-scan"),
    "gc.collections_per_kop": (["call_p99_us", "peak_rss_mb"],
                               "ycsb-a, repl-cluster", "read-scan"),
    "trace.overhead_ratio": ([], "-", "-"),
}


def per_layer_names():
    """Every per-layer metric name, in ``BENCHMARK.json`` order."""
    names = []
    for layer, info in LAYERS.items():
        names += [f"{layer}.{suffix}" for suffix in TRIPLE + info["extra"]]
    return names + list(OTHER_PER_LAYER)
