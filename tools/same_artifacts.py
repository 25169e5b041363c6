"""Check that another source tree writes the same artifacts as this one.

    python tools/same_artifacts.py OTHER_TREE [--seed N]

For each benchmark workload, the case file is generated once, in a child,
with this tree's ``benchmarks/workloads.py``. Then ``python -m
surgnet.cli run`` reads it with ``PYTHONPATH=<tree>/src``, first for
this tree and then for OTHER_TREE. Both runs use the same input and
output path, because ``manifest.json`` records both paths. Every written
file's sha256 and ``run``'s stdout are compared, and one line is printed
per workload. The line also gives each tree's peak resident size, the
``ru_maxrss`` that ``os.wait4`` returns for its ``run`` child. Linux
counts the forking process's own peak in that figure; this process stays
small, so it is the run's own peak. The exit status judges the bytes
alone: 1 on any difference or failed run, else 0. Standard library only.
An intended artifact change fails it, so it is not a CI step.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("many-segments", "paper-scale")
GENERATE = ("import sys, workloads; "
            "workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])")


def env(pythonpath):
    return dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, pythonpath)))


def run(tree, case_path, out_dir):
    """Run ``surgnet run`` from ``tree``; returns the sha256 of each file it
    writes and of its stdout (None if the run fails) and its peak RSS in
    MB."""
    shutil.rmtree(out_dir, ignore_errors=True)
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "surgnet.cli", "run", "--input",
             case_path, "--output-dir", out_dir], env=env([tree / "src"]),
            cwd=out_dir.parent, stdin=subprocess.DEVNULL, stdout=out,
            stderr=err)
        # wait4, not wait: only it returns the child's resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        peak_mb = usage.ru_maxrss / 1024.0
        if proc.returncode:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace"))
            return None, peak_mb
        out.seek(0)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out_dir.iterdir()}
        digests["stdout"] = hashlib.sha256(out.read()).hexdigest()
    return digests, peak_mb


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other_tree", type=Path)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    other = args.other_tree.resolve()
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in WORKLOADS:
            case_path = tmp / f"{name}.csv"
            gen = subprocess.run(
                [sys.executable, "-c", GENERATE, name, str(args.seed),
                 str(case_path)], env=env([ROOT / "src", ROOT / "benchmarks"]),
                cwd=tmp, capture_output=True, text=True)
            if gen.returncode:
                sys.exit(f"{name}: cannot generate the case file\n{gen.stderr}")
            (ours, our_peak), (theirs, their_peak) = (
                run(tree, case_path, tmp / "out") for tree in (ROOT, other))
            if ours is None or theirs is None:
                verdict = f"run failed in {ROOT if ours is None else other}"
                status = 1
            elif ours != theirs:
                differ = sorted(k for k in ours.keys() | theirs.keys()
                                if ours.get(k) != theirs.get(k))
                verdict = f"differ: {', '.join(differ)}"
                status = 1
            else:
                verdict = f"identical ({len(ours) - 1} files and stdout)"
            print(f"{name}: {verdict}; peak RSS {our_peak:.1f} MB here, "
                  f"{their_peak:.1f} MB in {other}")
    return status


if __name__ == "__main__":
    sys.exit(main())
