"""Workbench benchmark: one workload per run, checked and measured.

    python3 benchmark/run.py --workload {train,decode,rescore} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout with no install step: the package
is imported from `src/`. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics` (end-to-end
metrics with `--trace 0`, per-layer metrics with `--trace 1`); the line
before it holds the environment and the reference figures.
"""

import os

# One BLAS thread, set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / ".work"  # per-run artifacts, removed when the run ends
OUT_DIR = HERE / "out"  # traced runs' call trees


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "decode", "rescore"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "transducer_workbench" / "__init__.py").is_file():
        print(f"error: no workbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy

    import workloads

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        result, info = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    call_tree = info.pop("call_tree", None)
    if call_tree is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(call_tree, indent=1))
        info["call_tree_file"] = str(path.relative_to(ROOT))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
        },
        **info,
    }
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
