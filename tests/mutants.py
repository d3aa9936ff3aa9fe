"""Mutation probes: does the suite fail when a property it claims to check
breaks?

Each mutant is a one-line change to the package: (name, file, old text, new
text, test modules). The old text must occur exactly once in its file, so a
refactor that moves the line fails loudly instead of skipping the mutant.
For each mutant the script copies `src`, `tests`, `benchmark` and
`pyproject.toml` to a temporary directory, applies the change there, runs
the mutant's test modules with pytest (`-x`, one BLAS thread) and prints
whether the mutant was killed, with the first failing test, or survived.

Run from anywhere:

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # the named ones
    python tests/mutants.py --list      # names only

The exit status is 1 when a mutant survives and 2 when one cannot be
applied. The file name keeps it out of pytest's collection, so tier-1 does
not run it.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/transducer_workbench"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest paths or node ids


MUTANTS = (
    Mutant("verify-tolerance-1e-2", f"{PACKAGE}/experiment.py",
           "abs(recomputed - reported) <= 1e-12", "abs(recomputed - reported) <= 1e-2",
           ("tests/test_experiment.py::TestVerify",)),
    Mutant("alsd-early-stop-on-tie", f"{PACKAGE}/decoding.py",
           "trans[0] < -completed[-1][0]", "trans[0] <= -completed[-1][0]",
           ("tests/test_decoding.py",)),
    Mutant("clip-from-1.01-max-norm", f"{PACKAGE}/training.py",
           "if max_norm > 0 and total > max_norm:", "if max_norm > 0 and total > 1.01 * max_norm:",
           ("tests/test_training.py",)),
    # The backtrace whose tie-break order an earlier probe mutated is gone;
    # this mutant takes its place in the edit distance that remains.
    Mutant("edit-distance-without-substitution", f"{PACKAGE}/scoring.py",
           "else min(diag, up, left) + 1", "else min(up, left) + 1",
           ("tests/test_scoring.py",)),
    Mutant("tuning-tie-break-to-larger-weights", f"{PACKAGE}/fusion.py",
           "_, best = min((sum(map(abs, v)), v)", "_, best = min((-sum(map(abs, v)), v)",
           ("tests/test_tuning_oracle.py", "tests/test_fusion.py")),
    Mutant("top1-tie-break-to-last-maximum", f"{PACKAGE}/fusion.py",
           "nbest.top1_edits(np.argmax(_utterance_scores(nbest, grid), axis=1))",
           "nbest.top1_edits(len(nbest.rows) - 1"
           " - np.argmax(_utterance_scores(nbest, grid)[:, ::-1], axis=1))",
           ("tests/test_tuning_oracle.py", "tests/test_fusion.py")),
    Mutant("atomic-write-in-place", f"{PACKAGE}/data.py",
           'tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")', "tmp = path",
           ("tests/test_fusion.py", "tests/test_data.py")),
    Mutant("greedy-label-cap-plus-one", f"{PACKAGE}/decoding.py",
           "max_symbols = alsd_cap(T, expansion_factor) - T",
           "max_symbols = alsd_cap(T, expansion_factor) - T + 1",
           ("tests/test_decoding.py",)),
    Mutant("one-cycle-end-point", f"{PACKAGE}/training.py",
           "(schedule.total_epochs - epoch_fraction) / span",
           "(schedule.total_epochs + 0.5 - epoch_fraction) / (span + 0.5)",
           ("tests/test_training.py",)),
    Mutant("dropconnect-without-inverted-scaling", f"{PACKAGE}/networks.py",
           "    keep /= 1.0 - rate\n", "",
           ("tests/test_networks.py", "tests/test_training.py")),
    Mutant("zero-weight-times-inf-score", f"{PACKAGE}/fusion.py",
           "return np.where(weight == 0, 0.0, weight * score)[()]",
           "return np.asarray(weight * score)[()]",
           ("tests/test_fusion.py", "tests/test_tuning_oracle.py")),
    # The zero-weight rule must hold cell by cell on the axis grid, not for
    # the grid as a whole.
    Mutant("axis-grid-zero-weight-rule-from-one-cell", f"{PACKAGE}/fusion.py",
           "return np.where(weight == 0, 0.0, weight * score)[()]",
           "return np.where(np.ravel(weight)[0] == 0, 0.0, weight * score)[()]",
           ("tests/test_tuning_oracle.py", "tests/test_fusion.py")),
    Mutant("edit-memo-filled-from-another-row", f"{PACKAGE}/fusion.py",
           "self._edits[i] = scoring.compute_wer(self.reference, self.words[i])",
           "self._edits[i] = scoring.compute_wer(self.reference, self.words[int(top1[0])])",
           ("tests/test_tuning_oracle.py", "tests/test_fusion.py")),
)


def apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def probe(mutant: Mutant) -> tuple[str, str]:
    """("killed", first failing test) or ("survived", "") for one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".work", "out")
        for part in ("src", "tests", "benchmark"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        apply(tree, mutant)
        env = {**os.environ, "PYTHONPATH": "src", "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    if proc.returncode == 0:
        return "survived", ""
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    if proc.returncode != 1 or failed is None:
        raise RuntimeError(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}")
    return "killed", failed.group(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutant names and exit")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(m.name for m in MUTANTS))
        return 0
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    survived = 0
    start = time.perf_counter()
    for mutant in chosen:
        began = time.perf_counter()
        try:
            outcome, test = probe(mutant)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        survived += outcome == "survived"
        print(f"{mutant.name:44s} {outcome:8s} {time.perf_counter() - began:6.1f} s  {test}",
              flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
