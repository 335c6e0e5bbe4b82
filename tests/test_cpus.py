"""cpus.run_each, the one map every parallel step runs on."""

import subprocess
import sys
import threading

import pytest

from sonoclass import cpus


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n_tasks", [0, 1, 2, 7])
def test_results_come_back_in_task_order(workers, n_tasks):
    tasks = [f"task {i}" for i in range(n_tasks)]
    assert cpus.run_each(lambda task, w: task.upper(), tasks, workers) == [
        task.upper() for task in tasks]


def test_worker_zero_is_the_caller_and_worker_w_starts_with_task_w():
    runs = []  # (worker, task, thread), in the order they start
    lock = threading.Lock()
    together = threading.Barrier(3, timeout=30)

    def record(task, w):
        with lock:
            runs.append((w, task, threading.get_ident()))
        if task < 3:
            together.wait()  # every worker is running its first task at once
        return w

    ran_by = cpus.run_each(record, range(12), 3)
    firsts = {}
    for w, task, thread in runs:
        firsts.setdefault(w, (task, thread))
    assert {w: task for w, (task, _) in firsts.items()} == {0: 0, 1: 1, 2: 2}
    assert firsts[0][1] == threading.get_ident()
    assert len({thread for _, (_, thread) in firsts.items()}) == 3
    # each worker runs its tasks on its own thread, and w says which it was
    assert all(thread == firsts[w][1] for w, _, thread in runs)
    assert ran_by == [w for w, _, _ in sorted(runs, key=lambda run: run[1])]


def test_a_helper_error_reaches_the_caller_and_no_task_starts_after_it():
    started = []
    helper = []
    failing = threading.Event()

    def fail_in_task_1(task, w):
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

    def fail_in_task_0(task, w):
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
    runs = [0] * 3000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        def count(task, w):
            runs[task] += 1
            return task

        assert cpus.run_each(count, range(len(runs)), 8) == list(range(len(runs)))
    finally:
        sys.setswitchinterval(interval)
    assert runs == [1] * len(runs)


@pytest.mark.parametrize("workers, n_tasks", [(1, 5), (3, 1)])
def test_one_worker_starts_no_thread(monkeypatch, workers, n_tasks):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    caller = threading.get_ident()
    threads = cpus.run_each(lambda task, w: (threading.get_ident(), w), range(n_tasks), workers)
    assert threads == [(caller, 0)] * n_tasks


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
