"""Regenerate the stored converged fig2 reference (about 25 s).

    python3 perfbench/make_reference.py

Runs ``qlimit evolve --preset fig2 --method reference`` (magnus2 at dt/8)
and stores the snapshot probabilities in ``perfbench/data``. The benchmark
measures ``prob_err_max`` against this file and never reruns it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import env

env.pin_blas_threads()
env.use_source_tree()

from jobs import SCRATCH, read_snapshots  # noqa: E402

REFERENCE_PATH = env.ROOT / "perfbench" / "data" / "fig2_reference.json"
COMMAND = "python3 perfbench/make_reference.py"


def main() -> int:
    from qlimit import cli

    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        argv = ["evolve", "--preset", "fig2", "--method", "reference", "--out", workdir]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"reference run exited with {code}")
        manifest = json.loads((Path(workdir) / "manifest.json").read_text())
        snapshots = read_snapshots(Path(workdir), manifest["config"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "command": COMMAND,
        "qlimit_argv": ["evolve", "--preset", "fig2", "--method", "reference"],
        "config": manifest["config"],
        "norm_drift": manifest["norm_drift"],
        "environment": env.describe(),
        "prob": {repr(t): snap["prob"].tolist() for t, snap in snapshots.items()},
    }
    REFERENCE_PATH.write_text(json.dumps(record, indent=1) + "\n")
    print(REFERENCE_PATH)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
