"""cpus.run_each, the one map every parallel step runs on."""

import os
import subprocess
import sys
import threading

import pytest

from sonoclass import cpus


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n_tasks", [0, 1, 2, 7])
def test_results_come_back_in_task_order(workers, n_tasks):
    tasks = [f"task {i}" for i in range(n_tasks)]
    assert cpus.run_each(lambda task: task.upper(), tasks, workers) == [
        task.upper() for task in tasks]


def test_worker_zero_is_the_caller_and_worker_w_starts_with_task_w():
    runs = []  # (thread, task), in the order they start
    lock = threading.Lock()
    together = threading.Barrier(3, timeout=30)

    def record(task):
        with lock:
            runs.append((threading.get_ident(), task))
        if task < 3:
            together.wait()  # every worker is running its first task at once
        return threading.get_ident()

    ran_by = cpus.run_each(record, range(12), 3)
    firsts = {}  # thread -> its first task
    for thread, task in runs:
        firsts.setdefault(thread, task)
    assert sorted(firsts.values()) == [0, 1, 2]
    assert firsts[threading.get_ident()] == 0
    assert sorted(task for _, task in runs) == list(range(12))
    assert ran_by == [thread for thread, _ in sorted(runs, key=lambda run: run[1])]


def test_a_helper_error_reaches_the_caller_and_no_task_starts_after_it():
    started = []
    helper = []
    failing = threading.Event()

    def fail_in_task_1(task):
        started.append(task)
        if task == 1:  # the helper's first task
            helper.append(threading.current_thread())
            failing.set()
            raise RuntimeError("helper failed")
        if task == 0:
            assert failing.wait(timeout=30)
            helper[0].join(timeout=30)  # it has stopped, its error recorded
            assert not helper[0].is_alive()
        return task

    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="helper failed"):
        cpus.run_each(fail_in_task_1, range(10), 2)
    assert set(threading.enumerate()) == before
    assert sorted(started) == [0, 1]


def test_a_caller_error_reaches_the_caller_and_no_task_starts_after_it(monkeypatch):
    started = []
    joining = threading.Event()  # run_each joins its helpers once the error is recorded
    join = threading.Thread.join

    def join_and_say_so(thread, timeout=None):
        joining.set()
        return join(thread, timeout)

    def fail_in_task_0(task):
        started.append(task)
        if task == 0:
            raise RuntimeError("caller failed")
        if task == 1:
            assert joining.wait(timeout=30)
        return task

    monkeypatch.setattr(threading.Thread, "join", join_and_say_so)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="caller failed"):
        cpus.run_each(fail_in_task_0, range(10), 2)
    monkeypatch.undo()
    assert set(threading.enumerate()) == before
    assert sorted(started) == [0, 1]


def test_every_task_runs_once_with_more_workers_than_cpus():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for workers in (1, 2, 3, 8):
            runs = [0] * 3000

            def count(task):
                runs[task] += 1
                return task

            assert cpus.run_each(count, range(len(runs)), workers) == list(range(len(runs)))
            assert runs == [1] * len(runs), workers
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers, n_tasks", [(1, 5), (3, 1)])
def test_one_worker_starts_no_thread(monkeypatch, workers, n_tasks):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    caller = threading.get_ident()
    threads = cpus.run_each(lambda task: threading.get_ident(), range(n_tasks), workers)
    assert threads == [caller] * n_tasks


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity API")
def test_worker_count_follows_affinity():
    assert cpus.worker_count(10_000) == len(os.sched_getaffinity(0))
    assert cpus.worker_count(1) == 1


def test_mi_selection_imports_no_pool_module(src_env):
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from sonoclass import cpus\n"
        "from sonoclass.feature_select import BLOCK_COLUMNS, FeatureMatrix, select_top_k\n"
        "cpus.worker_count = lambda n_tasks: min(2, n_tasks)\n"
        "rng = np.random.default_rng(0)\n"
        "matrix = FeatureMatrix(rng.normal(size=(20, 2 * BLOCK_COLUMNS)), np.arange(20) % 2)\n"
        "select_top_k(matrix, k=5)\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
