"""Record the z values of every workload at the default seed.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``, which the correctness gate of
``run.py`` compares against.  Run it from the repository root, only when
the program's output is meant to change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import warnings  # noqa: E402

import lrdextremes as lx  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

if __name__ == "__main__":
    ref = {}
    for name, w in WORKLOADS.items():
        cfg = lx.ExperimentConfig(**w.config_kwargs(DEFAULT_SEED))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", lx.TruncationWarning)
            res = lx.run_replicates(cfg, threads=1, with_reduction=w.with_reduction)
        ref[name] = [float(v) for v in res.z_samples]
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
