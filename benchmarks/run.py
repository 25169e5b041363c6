"""End-to-end benchmark of ``surgnet run`` on generated case files.

    python3 benchmarks/run.py --workload paper-scale --seed 0 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the program is taken from the
checkout's ``src/`` and nowhere else. One run generates the workload's
case file from the seed (``setup_s``, timed from this process's start),
then runs ``surgnet run`` as a child process, one at a time, until
``--seconds`` have passed (at least once). Every invocation is a whole
round: its wall time and peak memory are measured, and its artifacts
must be byte-identical to the first invocation's. The first invocation's
artifacts are then checked against computations made apart from the
program (``checks.py``).

With ``--trace 1`` the run replays the pipeline in this process instead of
checking, with every public function timed from outside (``tracing.py``),
checks that the replay writes the same artifacts, and reports per-layer
metrics instead of end-to-end ones. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
TRACES = HERE / "_traces"
TIME_LIMIT = 170.0  # seconds; a run must end within 180


def since_process_start():
    """Seconds since this process was created, from /proc when it can be
    read (so interpreter start-up counts), else since this module began."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        elapsed = (time.clock_gettime(time.CLOCK_BOOTTIME)
                   - ticks / os.sysconf("SC_CLK_TCK"))
        if 0.0 < elapsed < 3600.0:
            return elapsed
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    return time.perf_counter() - _T0


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SURGNET_OUTPUT_DIR", None)
    return env


def invoke(argv, stderr_path, limit):
    """Run one child to its end; returns (exit code, wall s, cpu s, peak
    RSS MB). The child is killed if it outlives ``limit`` seconds."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(max(limit, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def digest(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir())}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "surgnet" / "__init__.py").is_file():
        log(f"no surgnet sources under {SRC}; run from a source checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (imports surgnet from SRC)
    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}")
        return 2
    os.chdir(ROOT)

    # paths relative to ROOT keep the manifest the same in every checkout
    work = WORK.relative_to(ROOT) / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        case_path = str(work / "cases.csv")
        wl = workloads.WORKLOADS[args.workload](args.seed, case_path)
        setup_s = since_process_start()
        log(f"{args.workload} seed {args.seed}: case file in {setup_s:.3f} s")
        return measure(args, wl, work, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wl, work, setup_s):
    out_dir, kept = work / "out", work / "checked"
    argv = [sys.executable, "-m", "surgnet.cli", "run",
            "--input", wl.path, "--output-dir", str(out_dir)]
    runs, failed, ref = [], 0, None
    began = time.perf_counter()
    while True:
        shutil.rmtree(out_dir, ignore_errors=True)
        limit = TIME_LIMIT - since_process_start()
        rc, wall, cpu, rss = invoke(argv, work / "stderr.txt", limit)
        runs.append((wall, cpu, rss))
        ok = rc == 0
        if ok and ref is None:
            ref = digest(out_dir)
            out_dir.rename(kept)
        elif ok:
            ok = digest(out_dir) == ref
        if not ok:
            failed += 1
            log(f"  invocation failed: exit {rc}, "
                + ("artifacts differ from the first run" if rc == 0 else
                   (work / "stderr.txt").read_text(errors="replace")[-2000:]))
        log(f"  surgnet run: {wall:.3f} s wall, {cpu:.3f} s cpu, {rss:.1f} MB")
        if time.perf_counter() - began >= args.seconds:
            break

    correct = ref is not None
    # a traced run compares its replay's artifacts with these instead:
    # checks and replay together would not fit paper-scale in 180 s
    if correct and not args.trace:
        t = time.perf_counter()
        import checks  # noqa: E402
        try:
            n_nx = checks.check_outputs(wl, kept, args.seed)
            log(f"  checks passed in {time.perf_counter() - t:.1f} s "
                f"(networkx on {n_nx} component(s))")
        except checks.CheckError as exc:
            log(f"  CHECK FAILED: {exc}")
            correct, failed = False, len(runs)

    run_s = statistics.median(r[0] for r in runs)
    if args.trace:
        metrics, matches = traced_metrics(args, wl, work, out_dir, ref, runs,
                                          run_s)
        correct = correct and matches
    else:
        metrics = {"run_s": (run_s, "s"),
                   "peak_rss_mb": (statistics.median(r[2] for r in runs), "MB"),
                   "setup_s": (setup_s, "s")}
    print(json.dumps({
        "correct": correct, "attempted": len(runs), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_metrics(args, wl, work, out_dir, ref, runs, run_s):
    import tracing  # noqa: E402

    import_s = invoke([sys.executable, "-c", "import surgnet.cli"],
                      work / "stderr.txt", 30.0)[1]

    TRACES.mkdir(exist_ok=True)
    trace_path = TRACES / f"{args.workload}-seed{args.seed}.json"
    shutil.rmtree(out_dir, ignore_errors=True)
    layer, modules = tracing.replay(wl.path, str(out_dir), trace_path)
    matches = ref is not None and digest(out_dir) == ref
    log(f"  traced replay {layer['trace.total_s']:.3f} s, "
        f"{layer['trace.spans']} spans -> {trace_path.relative_to(ROOT)}; "
        f"artifacts {'match' if matches else 'DIFFER from'} the CLI run's")
    total = sum(modules.values())
    for module, seconds in sorted(modules.items(), key=lambda kv: -kv[1]):
        log(f"    {module:<14}{seconds:9.3f} s self  {100 * seconds / total:5.1f}%")

    cpu_s = statistics.median(r[1] for r in runs)
    metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
    metrics.update({
        "cli.import_s": (import_s, "s"),
        "process.cpu_s": (cpu_s, "s"),
        "process.wait_s": (run_s - cpu_s, "s"),
        "trace.overhead": ((layer["trace.total_s"] + import_s) / run_s - 1.0,
                           "ratio"),
    })
    return metrics, matches


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
