"""How many workers a parallel step runs: one per CPU this process may run on.

The two parallel steps, MI selection (`feature_select.mi_scores`) and
S2 (`wavelet_baseline.patch_transform`), each run this many threads, so
`taskset -c 0` runs both serially. Their results do not depend on the
count.
"""

import os


def worker_count(n_tasks: int) -> int:
    """One worker per CPU in this process's affinity mask, and never more
    than tasks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_tasks))
