"""Check that another source tree writes the same artifacts as this one.

    python tools/same_artifacts.py OTHER_TREE [--seed N]

For each benchmark workload, the case file is generated once with this
tree's ``benchmarks/workloads.py``. Then ``python -m surgnet.cli run``
reads it with ``PYTHONPATH=<tree>/src``, first for this tree and then
for OTHER_TREE. Both runs use the same input and output path, because
``manifest.json`` records both paths. Every written file's sha256 and
``run``'s stdout are compared, one line is printed per workload, and
the exit status is 1 on any difference or failed run, else 0. Standard
library only. An intended artifact change fails it, so it is not a CI
step.
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


def python(argv, pythonpath, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, pythonpath)))
    return subprocess.run([sys.executable, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True)


def digests(tree, case_path, out_dir):
    """sha256 of each file ``run`` writes and of its stdout; None if the
    run fails."""
    shutil.rmtree(out_dir, ignore_errors=True)
    proc = python(["-m", "surgnet.cli", "run", "--input", case_path,
                   "--output-dir", out_dir], [tree / "src"], out_dir.parent)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        return None
    out = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out_dir.iterdir()}
    out["stdout"] = hashlib.sha256(proc.stdout.encode()).hexdigest()
    return out


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
            gen = python(["-c", GENERATE, name, str(args.seed), str(case_path)],
                         [ROOT / "src", ROOT / "benchmarks"], tmp)
            if gen.returncode:
                sys.exit(f"{name}: cannot generate the case file\n{gen.stderr}")
            ours, theirs = (digests(tree, case_path, tmp / "out")
                            for tree in (ROOT, other))
            if ours is None or theirs is None:
                print(f"{name}: run failed in "
                      f"{ROOT if ours is None else other}")
                status = 1
            elif ours != theirs:
                differ = sorted(k for k in ours.keys() | theirs.keys()
                                if ours.get(k) != theirs.get(k))
                print(f"{name}: differ: {', '.join(differ)}")
                status = 1
            else:
                print(f"{name}: identical ({len(ours) - 1} files and stdout)")
    return status


if __name__ == "__main__":
    sys.exit(main())
