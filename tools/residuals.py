"""Write every `check` suite's worst residual, seed by seed, as JSON.

    python3 tools/residuals.py OUTFILE --seeds 1-10 [--n 2,3,4] [--trials 100]

For each seed s of LIST (comma-separated integers or ranges a-b), runs
`verify.run_all(n, trials, s)` on this checkout's own `src/` and records,
per suite, its `max_residual` and whether it passed.  Run it in two
checkouts (the one under review and its parent) with the same arguments
and compare with `diff OUTFILE_A OUTFILE_B`: the file has one suite per
line, in a fixed order, so the diff lists each residual that moved.  A
suite that fails is recorded as failing; no seed is ever skipped.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from volflow.verify import run_all  # noqa: E402  (needs the path above)


def _integers(text: str):
    """'1-3,7' -> [1, 2, 3, 7]."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outfile")
    parser.add_argument("--seeds", required=True, type=_integers)
    parser.add_argument("--n", default=[2, 3, 4], type=_integers)
    parser.add_argument("--trials", default=100, type=int)
    args = parser.parse_args(argv)
    seeds = {}
    for seed in args.seeds:
        report = run_all(tuple(args.n), args.trials, seed)
        seeds[str(seed)] = {name: [result.max_residual, result.passed]
                            for name, result in sorted(report.items())}
        failed = [name for name, result in sorted(report.items()) if not result.passed]
        print(f"seed {seed}: {len(report) - len(failed)} of {len(report)} suites pass"
              + (f"; failed: {', '.join(failed)}" if failed else ""))
    # one suite per line, [max_residual, pass], so that a diff lists each move
    blocks = [f" {json.dumps(seed)}: {{\n" + ",\n".join(
        f"  {json.dumps(name)}: {json.dumps(value)}" for name, value in suites.items()) + "\n }"
        for seed, suites in seeds.items()]
    Path(args.outfile).write_text(
        f'{{"n": {json.dumps(args.n)}, "trials": {args.trials}, "residuals": {{\n'
        + ",\n".join(blocks) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
