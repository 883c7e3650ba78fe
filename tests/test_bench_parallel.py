"""The parallel figure runner: per-child CPU accounting and its speedup.

The subprocess, rusage and wall-clock seams are stubbed, so these tests
check the bookkeeping without running any benchmark file.
"""

from concurrent.futures import Future
from types import SimpleNamespace

from repro.bench import parallel


def _usage(user, system):
    return SimpleNamespace(ru_utime=user, ru_stime=system)


def test_run_one_reports_the_childs_cpu_beside_wall(monkeypatch, tmp_path):
    usages = iter([_usage(1.0, 0.5), _usage(3.5, 1.0)])
    calls = []

    def fake_run(argv, **kwargs):
        calls.append(argv)
        return SimpleNamespace(returncode=0, stdout="ok\n", stderr="")

    monkeypatch.setattr(parallel, "subprocess", SimpleNamespace(run=fake_run))
    monkeypatch.setattr(parallel, "resource", SimpleNamespace(
        RUSAGE_CHILDREN=-1, getrusage=lambda who: next(usages)))
    bench_dir = tmp_path / "benchmarks"
    name, code, wall, cpu, tail = parallel.run_one(str(bench_dir), "test_x.py")
    assert (name, code, tail) == ("test_x.py", 0, "")
    assert cpu == 3.0  # (3.5 + 1.0) - (1.0 + 0.5): the delta, not the total
    assert wall >= 0.0
    assert calls[0][-4:] == [
        str(bench_dir / "test_x.py"), "-q", "-p", "no:cacheprovider"
    ]


class _InlinePool:
    """A ProcessPoolExecutor stand-in that runs each job on submit."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_speedup_is_summed_cpu_over_wall(monkeypatch, tmp_path, capsys):
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    for name in ("test_a.py", "test_b.py"):
        (bench_dir / name).write_text("")
    # Each child waited for a core: 2.0 s of wall but 1.5 s of CPU.
    monkeypatch.setattr(
        parallel, "run_one",
        lambda directory, name: (name, 0, 2.0, 1.5, ""),
    )
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _InlinePool)
    ticks = iter([10.0, 12.0])
    monkeypatch.setattr(
        parallel, "time", SimpleNamespace(perf_counter=lambda: next(ticks))
    )
    failures, wall, cpu = parallel.run_suite(bench_dir, jobs=2)
    assert (failures, wall, cpu) == (0, 2.0, 3.0)
    out = capsys.readouterr().out
    # 3.0 s of CPU in 2.0 s of wall; summed wall (4.0 s) would claim 2x.
    assert "1.50x parallel speedup" in out
    assert "2.00s wall    1.50s cpu" in out
