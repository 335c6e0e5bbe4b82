"""Every parallel step, MI selection (`feature_select.mi_scores`), S2
(`wavelet_baseline.patch_transform`), per-clip extraction without a
cache (`pipeline.extract_features`) and compare's cold cache fill
(`pipeline._extract_each_clip_once`), maps its tasks with `run_each` on
`worker_count` workers, one per CPU, so `taskset -c 0` runs each serially.
Parallel steps do not nest: inside a task of a map on two or more
workers, `worker_count` is 1, so S2 inside a clip task runs on that
task's worker alone. Their results do not depend on the count."""

import os
import threading

_inside = threading.local()  # .map is True in a task of a map on two or more workers


def worker_count(n_tasks: int) -> int:
    """One worker per CPU in this process's affinity mask, and never more
    than tasks; 1 inside a task of a run_each map on two or more workers."""
    if getattr(_inside, "map", False):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_tasks))


def run_each(fn, tasks, workers: int) -> list:
    """[fn(task, w) for task in tasks] on min(workers, len(tasks)) threads,
    where w is the worker that ran the task: the calling thread is worker
    0, worker w starts with tasks[w], and an idle worker takes the next
    task, so one that gets less CPU time runs fewer. With tasks largest
    first, a worker's first task is its largest, and w can index work
    arrays the caller allocated. The first error in any worker stops the
    others taking tasks and is raised once every thread has stopped. No
    thread outlives the call, and one worker starts no thread. On two or
    more workers, worker_count is 1 inside fn, and the caller's own value
    is restored when the map ends; one worker sets nothing."""
    n = min(workers, len(tasks))
    results = [None] * len(tasks)
    order = iter(range(n, len(tasks)))
    errors = []
    lock = threading.Lock()

    def work(w: int) -> None:
        outer = getattr(_inside, "map", False)
        _inside.map = outer or n > 1
        i = w
        try:
            while i is not None:
                results[i] = fn(tasks[i], w)
                with lock:
                    i = next(order, None)
        except BaseException as exc:  # raised again by the caller
            with lock:
                errors.append(exc)
                for _ in order:  # the other workers stop after their task
                    pass
        finally:
            _inside.map = outer

    helpers = [threading.Thread(target=work, args=(w,)) for w in range(1, n)]
    try:
        for thread in helpers:
            thread.start()
        if n:
            work(0)
    finally:
        for thread in helpers:
            if thread.is_alive():  # not one that failed to start
                thread.join()
    if errors:
        raise errors[0]
    return results
