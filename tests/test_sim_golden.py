"""Bit-identity pins for the simulator's end-to-end results.

Each case pins the exact ``repr`` of the makespan and the exact number
of file transfers of one small run.  Any change to the flow solver, the
overlap index's totals or the event engine that moves a single float
bit shows up here, so a performance change can prove it is exact.
"""

import pytest

from repro.exp import ExperimentConfig, run_experiment

BASE = dict(scheduler="combined.2", workload="coadd", num_tasks=300,
            num_sites=10, capacity_files=600)

#: name -> (config overrides, repr(makespan), file transfers)
GOLDEN = {
    "combined.2": ({}, "11496.105502821612", 4235),
    "combined.2+cross-traffic": ({"cross_traffic": True},
                                 "11211.9114615501", 4127),
    "rest, 2 workers per site": ({"scheduler": "rest",
                                  "workers_per_site": 2},
                                 "13926.860846013113", 5228),
    "storage-affinity": ({"scheduler": "storage-affinity"},
                         "10968.509040394018", 4530),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_makespan_and_transfers_are_bit_identical(name):
    overrides, makespan, transfers = GOLDEN[name]
    result = run_experiment(ExperimentConfig(**{**BASE, **overrides}))
    assert (repr(result.makespan), result.file_transfers) \
        == (makespan, transfers)
