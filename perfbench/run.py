"""The treelab benchmark: exhaustive proofs timed end to end through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S [--trace 0|1]

Each workload (see ``workloads.py`` and ``BENCHMARK.json``) is a closed
loop: one client runs ``python -m treelab ...`` in a fresh interpreter,
waits for it, checks its output against ``expected.json``, and starts the
next run, until ``--seconds`` are used.  Every run gets an empty temporary
working directory, with HOME, TMPDIR and XDG_CACHE_HOME pointing there, and
a random hash seed; no cache is warmed before timing.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics,
each the median over the run's verified samples:

    wall_s       spawn of the interpreter to its exit
    cpu_s        user + system CPU of the process tree (rusage of the child)
    peak_rss_mb  largest resident set of any process in the tree
    setup_s      a fresh interpreter that imports treelab.cli and exits

With ``--trace 1`` untraced and traced runs alternate; the traced ones go
through ``tracer.py`` and the last line reports the per-layer metrics of
``layers.json`` plus the tracing overhead.  A failed run (wrong exit code,
traceback, or output differing from the expected one) is counted in
``failed`` and never used as a timing.  The line before the last holds the
environment record and every sample.  ``--workload all`` prints a table of
every metric of every workload instead.

``expected.json`` holds the outputs of the program at the commit that added
this benchmark; the headline values are the paper's (8 / 10 / 11, gap 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SPAWNS = 15
DEADLINE_S = 170.0
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    traced: bool = False
    spans: list | None = None
    failure: str | None = None

    def sample(self) -> dict:
        return {"wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "peak_rss_mb": self.peak_rss_mb, "exit_code": self.exit_code,
                "traced": self.traced, "failure": self.failure}


class Spawner:
    """Runs interpreters one at a time in isolated directories, before a deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline

    def __call__(self, argv: list[str], spans: bool = False) -> Run:
        run_dir = Path(tempfile.mkdtemp(dir=self.work))
        cwd, spans_file = run_dir / "cwd", run_dir / "spans"
        cwd.mkdir()
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env.update(PYTHONPATH=str(SRC), HOME=str(cwd), TMPDIR=str(cwd),
                   XDG_CACHE_HOME=str(cwd))
        if spans:  # argv is ["-m", "treelab", ARG...]; trace the same ARGs in process
            argv = [str(Path(__file__).with_name("tracer.py")), str(spans_file),
                    "--", *argv[2:]]
        try:
            with open(run_dir / "out", "w+b") as out, open(run_dir / "err", "w+b") as err:
                started = time.perf_counter()
                proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                                        stdin=subprocess.DEVNULL, stdout=out,
                                        stderr=err, start_new_session=True)
                killer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                         _kill_group, (proc.pid,))
                killer.start()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - started
                killer.cancel()
                proc.returncode = os.waitstatus_to_exitcode(status)
                out.seek(0)
                err.seek(0)
                run = Run(wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024, proc.returncode, out.read(),
                          err.read(), traced=spans)
            if spans and spans_file.exists():
                run.spans = marshal.loads(spans_file.read_bytes())
            return run
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": statistics.median(values), "q3": q3}


def environment(name: str, seed: int, argv: list[str]) -> dict:
    jobs = int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else None
    return {"workload": name, "seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "jobs": jobs, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "commit": _commit(), "source_sha256": _source_digest(),
            "treelab_argv": argv}


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "treelab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _loadavg() -> list[float]:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def measure(name: str, seed: int, seconds: float, trace: bool, spawn: Spawner) -> dict:
    """One benchmark run of a workload; returns the result line and the record."""
    jobs = min(2, len(os.sched_getaffinity(0)))
    argv = ["-m", "treelab", *workloads.treelab_args(name, seed, jobs)]
    record = environment(name, seed, argv[2:])
    record["loadavg_start"] = _loadavg()
    started = time.monotonic()

    setup = []
    if not trace:
        for _ in range(SETUP_SPAWNS):
            run = spawn(["-c", "import treelab.cli"])
            if run.exit_code != 0:
                raise SystemExit(f"cannot import treelab.cli: {run.stderr.decode()[-500:]}")
            setup.append(run.wall_s)

    runs: list[Run] = []
    durations: list[float] = []
    while True:
        t0 = time.monotonic()
        batch = [spawn(argv)] + ([spawn(argv, spans=True)] if trace else [])
        durations.append(time.monotonic() - t0)
        for run in batch:
            run.failure = workloads.check_output(name, seed, run.exit_code,
                                                 run.stdout, run.stderr)
        if trace and batch[1].spans is None:
            batch[1].failure = batch[1].failure or "traced run wrote no spans"
        runs.extend(batch)
        elapsed = time.monotonic() - started
        if spawn.expired() or elapsed + statistics.median(durations) > seconds:
            break

    failed = sum(r.failure is not None for r in runs)
    record["loadavg_end"] = _loadavg()
    record["samples"] = [r.sample() for r in runs]
    if trace:
        metrics = _per_layer(name, _verified(runs, True), _verified(runs, False), record)
    else:
        good = _verified(runs, False)
        values = {k: [getattr(r, k) for r in good] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = setup
        record["setup_samples"] = setup
        record["summary"] = {k: quartiles(v) for k, v in values.items()}
        metrics = {k: {"value": statistics.median(values[k]), "unit": unit}
                   for k, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": metrics}
    return {"record": record, "result": result}


def _verified(runs: list[Run], traced: bool) -> list[Run]:
    """The verified runs of one kind; all of that kind if none passed (the
    result then says correct: false)."""
    kind = [r for r in runs if r.traced == traced]
    return [r for r in kind if r.failure is None] or kind


def _per_layer(name: str, traced: list[Run], plain: list[Run], record: dict) -> dict:
    per_run = [tracer.summarise(r.spans or []) for r in traced]
    values = {k: statistics.median(s[k] for s in per_run) for k in per_run[0]}
    values["cli.report_bytes"] = statistics.median(len(r.stdout) for r in traced)
    values["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                  - statistics.median(r.wall_s for r in plain))
    record["traced_processes"] = (
        "parent only: work inside the pool's worker processes is not traced"
        if name == "headline_all_pool" else "the treelab process")
    units = {"calls": "count", "s": "s", "self_s": "s", "true_frac": "frac",
             "search_frac": "frac", "hit_frac": "frac"}
    extra = tracer.layers()["extra"]
    return {k: {"value": v, "unit": extra[k]["unit"] if k in extra
                else units.get(k.rsplit(".", 1)[1], "count")}
            for k, v in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "treelab" / "cli.py").is_file():
        print(f"treelab sources not found under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.workload == "all":
            return _table(args, work)
        spawn = Spawner(work, time.monotonic() + DEADLINE_S)
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), spawn)
        print(json.dumps({"record": out["record"]}))
        print(json.dumps(out["result"]))
        return 0 if out["result"]["correct"] else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _table(args, work: Path) -> int:
    ok = True
    print(f"{'workload':<18} {'metric':<44} {'value':>14} unit")
    for name in workloads.NAMES:
        spawn = Spawner(work, time.monotonic() + DEADLINE_S)
        result = measure(name, args.seed, args.seconds, bool(args.trace), spawn)["result"]
        ok &= result["correct"]
        rows = dict(result["metrics"])
        rows["failed_frac"] = {"value": result["failed"] / result["attempted"], "unit": "frac"}
        for metric, m in rows.items():
            print(f"{name:<18} {metric:<44} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
