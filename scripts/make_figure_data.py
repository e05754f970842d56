#!/usr/bin/env python3
"""Regenerate the CSV behind every figure from the sweep specs in figures/.

Each JSON spec is fed through the sweep machinery; output lands in
--out-dir as <spec name>.csv. Use --only to rebuild a subset. The wall time
of each spec, and of the whole run, goes to stderr.
"""
import argparse
import pathlib
import sys
import time

from repeaterlab.cli import main as cli_main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--figures-dir", default=str(REPO_ROOT / "figures"),
                        help="directory holding the sweep specs")
    parser.add_argument("--out-dir", default=str(REPO_ROOT / "data"),
                        help="where the CSV files go")
    parser.add_argument("--only", default=None,
                        help="substring filter on spec file names")
    args = parser.parse_args()

    specs = sorted(pathlib.Path(args.figures_dir).glob("*.json"))
    if args.only is not None:
        specs = [s for s in specs if args.only in s.name]
    if not specs:
        print("no specs matched", file=sys.stderr)
        return 2

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t_run = time.perf_counter()
    for spec in specs:
        dest = out_dir / (spec.stem + ".csv")
        print(f"{spec.name} -> {dest}")
        t0 = time.perf_counter()
        code = cli_main(["sweep", "--spec", str(spec), "--output", str(dest)])
        print(f"{spec.name}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
        if code != 0:
            print(f"sweep failed for {spec.name} (exit {code})", file=sys.stderr)
            return code
    print(f"all {len(specs)} specs: {time.perf_counter() - t_run:.2f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
