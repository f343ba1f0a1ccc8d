"""The benchmark's fixed ``run_experiment`` workloads.

Each workload is one experiment spec plus the worker count it runs with.
The workload seed is passed as the spec's ``base_seed``; nothing else in
the spec depends on it.  README.md says why each workload was chosen.
"""

from __future__ import annotations

WORKLOADS = {
    "lattice_scan": {
        "threads": 2,
        "spec": {
            "model": "lattice",
            "model_params": {"spacing": 1.0, "radius": 0.4, "jitter": 0.05},
            "delta": 0.5,
            "N_grid": [4.0, 6.0, 8.0],
            "n_seeds": 1,
            "tasks": ["h1", "logmoment", "clustermoment", "effective"],
            "task_params": {"p": 2.0, "n_samples": 2000},
        },
    },
    "hardcore_h2": {
        "threads": 1,
        "spec": {
            "model": "hardcore",
            "model_params": {"intensity": 0.03, "radius": 1.0,
                             "min_gap": 0.2},
            "delta": 0.3,
            "N_grid": [12.0, 16.0, 20.0],
            "n_seeds": 2,
            "tasks": ["h2", "clustermoment"],
            "task_params": {"s": 4.0},
        },
    },
    "chains_forest": {
        "threads": 1,
        "spec": {
            "model": "chains",
            "model_params": {"radius": 1.0, "chain_len_max": 8,
                             "gap_range": [0.01, 0.1]},
            "delta": 0.2,
            "N_grid": [30.0, 40.0, 50.0],
            "n_seeds": 1,
            "tasks": ["h2", "logmoment"],
            "task_params": {"s": 4.0, "n_starts": 4,
                            "max_ascent_iters": 120, "tol": 1e-6},
        },
    },
}


def spec_for(workload: str, seed: int) -> dict:
    """The experiment spec document of ``workload`` at workload seed ``seed``."""
    return {"version": 1, **WORKLOADS[workload]["spec"], "base_seed": int(seed)}
