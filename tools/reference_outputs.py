"""Write the 27 reference outputs of this checkout into one directory.

    python3 tools/reference_outputs.py OUTDIR

Run it in two checkouts (the one under review and its parent) and compare
with `diff -r OUTDIR_A OUTDIR_B`: an empty diff means every output is
byte-identical.  OUTDIR must not exist yet.  It receives:

- `check.json` and `check.stdout`: `volflow check --n 2,3,4 --trials 100
  --seed 42 --report check.json`;
- for each of three `simulate` configs (`readme`, the README's example;
  `coupled`, a config that names only `coupled-oscillators`; `random`,
  `random-alpha` at n = 3, seed 2, `sample_every` 7): `<name>.csv`,
  `<name>.diag.json` and `<name>.stdout`, next to `<name>.config.json`;
- `oracle_<alpha>.stdout` for each of the five `volflow oracle --alpha`
  names (`volflow.cli.ORACLE_ALPHAS`): `volflow oracle --alpha <alpha>
  --point 0.3,-0.6,0.2,0.9 --seed 0`;
- `demo_<name>.stdout` for each of the eight scripts under `demos/`;
- `ensemble_seed<k>.npy` for seeds 1-3: the final states of the
  `ensemble` benchmark op (`perfbench/workloads.py`, full size).

Every command runs on this checkout's own `src/` in a fresh process, with
OUTDIR as its working directory, so the paths it prints are the same in
every checkout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from volflow.cli import ORACLE_ALPHAS  # noqa: E402  (needs the path above)

SIMULATE_CONFIGS = {
    "readme": {"system": {"name": "coupled-oscillators"}, "dt": 1e-3, "steps": 10000,
               "sample_every": 100, "x0": [1.0, 0.5, -0.2, 0.3]},
    "coupled": {"system": {"name": "coupled-oscillators"}},
    "random": {"system": {"name": "random-alpha", "params": {"n": 3, "seed": 2}},
               "sample_every": 7},
}

# Run in a fresh process with perfbench/ on the path: the ensemble op's final
# states at each seed, as the benchmark builds and runs them.
ENSEMBLE = """
import tempfile
import numpy as np
import workloads
for seed in (1, 2, 3):
    with tempfile.TemporaryDirectory() as work:
        op = workloads.make("ensemble", seed, "full", work)
        op.build()
        np.save(f"ensemble_seed{seed}.npy", op.run().states[-1])
"""


def _run(argv, out: Path, stdout_name=None, extra_path=()):
    """Run argv in `out` on this checkout's sources, its stdout written to
    `stdout_name` (or dropped); a non-zero exit stops the whole run."""
    env = dict(os.environ)
    env.pop("VOLFLOW_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), *map(str, extra_path)])
    with open(out / stdout_name if stdout_name else os.devnull, "w") as fh:
        subprocess.run(argv, cwd=out, env=env, stdout=fh, check=True)


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/reference_outputs.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True)
    cli = [sys.executable, "-m", "volflow.cli"]
    _run(cli + ["check", "--n", "2,3,4", "--trials", "100", "--seed", "42",
                "--report", "check.json"], out, "check.stdout")
    for name, config in SIMULATE_CONFIGS.items():
        config = dict(config, outputs={"trajectory": f"{name}.csv",
                                       "diagnostics": f"{name}.diag.json"})
        (out / f"{name}.config.json").write_text(json.dumps(config, indent=1) + "\n")
        _run(cli + ["simulate", "--config", f"{name}.config.json"], out, f"{name}.stdout")
    for alpha in ORACLE_ALPHAS:
        _run(cli + ["oracle", "--alpha", alpha, "--point", "0.3,-0.6,0.2,0.9", "--seed", "0"],
             out, f"oracle_{alpha}.stdout")
    demos = sorted((ROOT / "demos").glob("*.py"))
    for demo in demos:
        _run([sys.executable, str(demo)], out, f"demo_{demo.stem}.stdout")
    _run([sys.executable, "-c", ENSEMBLE], out, extra_path=[ROOT / "perfbench"])
    count = 2 + 3 * len(SIMULATE_CONFIGS) + len(ORACLE_ALPHAS) + len(demos) + 3
    print(f"wrote {count} outputs to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
