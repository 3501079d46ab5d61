#!/usr/bin/env python3
"""Check bench CSVs at the default seed against the committed goldens.

Usage:
    scripts/check_bench_output.py BUILD_DIR            # compare
    scripts/check_bench_output.py BUILD_DIR --update   # rewrite the goldens

Runs the six single-host benches plus three small campaign runs (fig3/fig5
at --stride=2048, fig6 at --row-stride=50) from BUILD_DIR/bench, each
writing --csv into a scratch directory, and compares every CSV byte for byte
with tests/golden/bench/<bench>.csv. Every bench is deterministic in its
seed, so any difference is a changed result: regenerate the goldens with
--update only when the change is meant to move the numbers.

The three campaign runs are repeated with --engine=interp against the same
goldens. The fast engine senses rows through the cached fault kernel and the
interpreter through the reference scan, so this pins cache == reference end
to end. --update writes the goldens from the default engine only.

Exit 0 when every CSV matches, 1 (with a unified diff per mismatch)
otherwise.
"""

import argparse
import difflib
import pathlib
import subprocess
import sys
import tempfile

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden" / "bench"

# (bench binary, extra flags)
RUNS = [
    ("ablation_trr_efficacy", []),
    ("ablation_cross_channel", []),
    ("ablation_flip_directions", []),
    ("ablation_trr_evasion", []),
    ("ablation_defense", []),
    ("sec5_trr_discovery", []),
    ("fig3_ber_distribution", ["--stride=2048"]),
    ("fig5_ber_across_rows", ["--stride=2048"]),
    ("fig6_bank_variation", ["--row-stride=50"]),
    ("fig3_ber_distribution", ["--stride=2048", "--engine=interp"]),
    ("fig5_ber_across_rows", ["--stride=2048", "--engine=interp"]),
    ("fig6_bank_variation", ["--row-stride=50", "--engine=interp"]),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", type=pathlib.Path)
    parser.add_argument("--update", action="store_true", help="rewrite the goldens")
    args = parser.parse_args()

    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        for bench, flags in RUNS:
            if args.update and "--engine=interp" in flags:
                continue
            binary = (args.build_dir / "bench" / bench).resolve()
            csv = pathlib.Path(scratch) / f"{bench}.csv"
            run = subprocess.run([str(binary), *flags, f"--csv={csv}"], cwd=scratch,
                                 stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            if run.returncode != 0:
                sys.stderr.write(run.stderr)
                print(f"FAILED   {bench} exited {run.returncode}")
                return 1
            golden = GOLDEN_DIR / f"{bench}.csv"
            if args.update:
                golden.write_bytes(csv.read_bytes())
                print(f"updated  {golden.name}")
                continue
            if golden.exists() and golden.read_bytes() == csv.read_bytes():
                print(f"ok       {' '.join([bench, *flags])}")
                continue
            failures += 1
            print(f"MISMATCH {' '.join([bench, *flags])}")
            expected = golden.read_text().splitlines() if golden.exists() else []
            sys.stdout.writelines(
                line + "\n"
                for line in difflib.unified_diff(expected, csv.read_text().splitlines(),
                                                 str(golden), "this run", lineterm=""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
