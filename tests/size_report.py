"""The size of every Monte Carlo acceptance criterion: how often it fails on the true model.

Runs each criterion function of ``criteria`` with the acceptance suite's
configs, bands and R at a list of master seeds other than the pinned one,
and writes ``SIZE.json`` at the repository root.  For each criterion it
records the seeds, the pass count, each failing part of the band with the
seeds it failed at, the median and quartiles of each statistic over the
seeds, and the seconds taken.  The studies are memoized across criteria,
so a criterion whose studies an earlier one ran (criterion 4 after 2 and
3; 8 and 12 after 2) is charged only for the studies it adds.

pytest does not collect this file.  Run it by hand from the repository
root (about three and a half minutes on one core):

    PYTHONPATH=src python tests/size_report.py
"""

import json
import os
import platform
import re
import time
from pathlib import Path

import numpy as np

from criteria import (
    CASE4_SIZES,
    R_REF,
    R_TREND,
    TREND_SIZES,
    case3_config,
    case4_config,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_7,
    criterion_8,
    criterion_12,
)

OUT = Path(__file__).resolve().parents[1] / "SIZE.json"

# criterion -> (its function, its configs, R, master seeds)
RUNS = {
    2: (criterion_2, (case4_config(2**15), case4_config(2**11)), R_REF, range(1, 41)),
    3: (criterion_3, (case3_config(2**15),), R_REF, range(1, 41)),
    4: (criterion_4, (case4_config(2**15), case3_config(2**15)), R_REF, range(1, 41)),
    7: (criterion_7, ([case4_config(n) for n in TREND_SIZES],), R_TREND, range(13, 41)),
    8: (criterion_8, ([case4_config(n) for n in CASE4_SIZES],), R_REF, range(13, 41)),
    12: (criterion_12, ([case4_config(n) for n in CASE4_SIZES],), R_REF, range(1, 11)),
}


def spread(values) -> dict:
    q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def size_of(fn, configs, R: int, seeds) -> dict:
    start = time.perf_counter()
    verdicts = [fn(*configs, seed, R) for seed in seeds]
    seconds = time.perf_counter() - start
    failing: dict[str, list[int]] = {}
    for seed, verdict in zip(seeds, verdicts):
        for part in verdict.failing:
            failing.setdefault(part, []).append(seed)
    return {
        "seeds": list(seeds),
        "R": R,
        "passes": sum(v.ok for v in verdicts),
        "runs": len(verdicts),
        "band": list(verdicts[0].band),
        "failing_parts": failing,
        "statistic": {name: spread([v.statistic[name] for v in verdicts]) for name in verdicts[0].statistic},
        "seconds": round(seconds, 1),
    }


def main() -> None:
    report = {
        "command": "PYTHONPATH=src python tests/size_report.py",
        "machine": {
            "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "criteria": {},
    }
    for num, (fn, configs, R, seeds) in RUNS.items():
        row = size_of(fn, configs, R, seeds)
        report["criteria"][str(num)] = row
        print(f"criterion {num}: {row['passes']} of {row['runs']} seeds pass ({row['seconds']} s)", flush=True)
    # one line per list of seeds
    text = re.sub(r"\[[\d,\s]*\]", lambda m: json.dumps(json.loads(m.group())), json.dumps(report, indent=2))
    OUT.write_text(text + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
