"""Replicate-study benchmark of lrdextremes.

    python3 perfbench/run.py --workload case4_n15 --seed 2026004 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, tracing off then on

Run from the repository root.  Every measurement runs in a fresh
interpreter (``jobs.py``), because ``build_problem`` is cached and peak RSS
only grows within a process.  With ``--trace 0`` the run prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a separate
traced run; the last line of standard output is one JSON object.  Details
of each run, the spans of a traced run included, go to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, WORKLOADS, Z_ATOL  # noqa: E402

HARD_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_BUDGET_S = 0.3  # set-up repeats after each end-to-end study (at least one)
# Two threads=1 studies per threads=2 study: a pool study already averages
# over two worker processes, and a process's speed is a draw of its own (see
# pooled_rate), so threads=1 needs more processes per run to be as steady.
STUDY_CYCLE = (1, 1, 2)
TRACED_SETUP_SHARE = 0.05  # share of a traced run spent repeating traced set-ups (at least two)
OUT_DIR = ROOT / ".bench_out"
REFERENCE = json.loads((HERE / "reference.json").read_text())

# per-layer counts derived from array sizes and formulas, not measured traffic
COMPUTED = {"simulate.fft_len", "simulate.bytes_per_rep", "estats.reduction_fft_calls", "estats.reduction_grid_points"}
END_TO_END_UNITS = {"reps_per_s": "1/s", "reps_per_s_2w": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "fraction"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failure of the program)."""


def run_job(job: str, args: dict, deadline: float) -> dict:
    """Run one job in a fresh interpreter and return its JSON result.

    The child gets its own process group, so a timeout also ends the pool
    workers it started.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(OUT_DIR / "tmp"))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "jobs.py"), job, json.dumps(args)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"job {job} passed the {HARD_LIMIT_S:.0f} s limit")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"job {job} exited with code {proc.returncode}: {err.strip()[-2000:]}")
    res = json.loads(out.strip().splitlines()[-1])
    if "error" in res:
        print(f"job {job} raised: {res['error']}", file=sys.stderr)
    return res


def failed_count(res: dict, w, R: int) -> int:
    """Replicates with a non-finite z, or a non-finite sup when reduction ran."""
    if "error" in res:
        return R
    bad = ~np.isfinite(res["z"])
    if w.with_reduction and res["p"] <= 2:
        bad |= ~np.isfinite(res["reduction_sup"])
    return int(np.sum(bad))


def pooled_rate(studies: list, R: int, what: str) -> float:
    """Replicates per second over all successful studies: total R over total wall time.

    On a shared host a process runs for its whole life in a fast or a slow
    state (about 1.4x apart), so per-study rates are bimodal and their
    median jumps between the modes; the pooled rate moves smoothly with the
    share of slow processes.
    """
    walls = [r["wall_s"] for r in studies if "wall_s" in r]
    if not walls:
        raise BenchError(f"no successful measurement of {what}")
    return R * len(walls) / sum(walls)


def median_of(values, what: str) -> float:
    values = list(values)
    if not values:
        raise BenchError(f"no successful measurement of {what}")
    return statistics.median(values)


def z_matches(z, z_ref) -> bool:
    z, z_ref = np.asarray(z, dtype=float), np.asarray(z_ref, dtype=float)
    return z.shape == z_ref.shape and bool(np.all(np.abs(z - z_ref) <= Z_ATOL * np.maximum(1.0, np.abs(z_ref))))


class Run:
    """One benchmark run of one workload: jobs, gates and their bookkeeping."""

    def __init__(self, w, seed: int, seconds: int):
        self.w, self.seed = w, seed
        self.start = time.monotonic()
        self.budget_end = self.start + seconds
        self.deadline = self.start + HARD_LIMIT_S
        self.seconds = seconds
        self.attempted = self.failed = 0
        self.gates: dict[str, bool] = {}
        self.notes: list[str] = []
        self.nproc = len(os.sched_getaffinity(0))

    def job(self, job: str, **args) -> dict:
        return run_job(job, dict(args, workload=self.w.name, seed=self.seed, out_dir=str(OUT_DIR)), self.deadline)

    def study(self, threads: int, **args) -> dict:
        res = self.job("study", threads=threads, **args)
        R = self.w.replicates
        self.attempted += R
        self.failed += failed_count(res, self.w, R)
        return res

    def gate(self, name: str, ok: bool):
        self.gates[name] = self.gates.get(name, True) and ok

    def check_reference(self, res: dict):
        """At the default seed, z must match the values recorded for it."""
        if self.seed == DEFAULT_SEED and "error" not in res:
            self.gate("z_matches_reference", z_matches(res["z"], REFERENCE[self.w.name]))

    def traced_setup(self) -> dict:
        res = self.job("setup", budget_s=TRACED_SETUP_SHARE * self.seconds, min_reps=2)
        if "error" in res:
            raise BenchError(f"set-up failed: {res['error']}")
        return res

    def can_repeat(self, next_s: float) -> bool:
        return time.monotonic() + next_s <= self.budget_end

    def pool_reason(self):
        if self.nproc < 2:
            return f"threads=2 skipped: only {self.nproc} core(s) available"
        return None

    def end_to_end(self) -> tuple[dict, dict]:
        R = self.w.replicates
        # one full cycle, then more while the next study fits
        kinds = STUDY_CYCLE if self.pool_reason() is None else (1,)
        studies = {k: [] for k in kinds}
        last_s = {}
        for i in itertools.count():
            k = kinds[i % len(kinds)]
            if i >= len(kinds) and not self.can_repeat(last_s[k]):
                break
            t0 = time.monotonic()
            studies[k].append(self.study(k, setup_budget_s=SETUP_BUDGET_S))
            last_s[k] = time.monotonic() - t0
        t1, t2 = studies[1], studies.get(2, [])
        for res in t1:
            self.check_reference(res)
        for res in t1[1:] + t2:
            self.gate("byte_identical", "error" not in res and res["z_hex"] == t1[0].get("z_hex"))
        for res in t1 + t2:
            self.gate("study_ran", "error" not in res)
        setups = [res["setups"] for res in t1 + t2 if "setups" in res]
        setup_s = [r["setup_s"] for s in setups for r in s["repeats"]]
        if not setups:
            raise BenchError("no study ran its set-ups")
        metrics = {
            "reps_per_s": pooled_rate(t1, R, "threads=1 studies"),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": median_of((r["peak_rss_mb"] for r in t1 if "peak_rss_mb" in r), "peak RSS"),
            "ok_frac": 1.0 - self.failed / self.attempted,
        }
        if t2:
            metrics["reps_per_s_2w"] = pooled_rate(t2, R, "threads=2 studies")
        else:
            self.notes.append(self.pool_reason())
        detail = {"model": setups[0]["model"], "studies_t1": len(t1), "studies_t2": len(t2),
                  "t1_wall_s": [r.get("wall_s") for r in t1], "t2_wall_s": [r.get("wall_s") for r in t2],
                  "setup_s": setup_s}
        return metrics, detail

    def per_layer(self) -> tuple[dict, dict]:
        setup = self.traced_setup()
        R = self.w.replicates
        pool = None
        if self.pool_reason() is None:
            pool = self.study(2, count_ipc=True)
            self.check_reference(pool)
            self.gate("study_ran", "error" not in pool)
        else:
            self.notes.append(self.pool_reason())
        pairs = []
        while True:
            t_pair = time.monotonic()
            untraced = self.study(1)
            self.check_reference(untraced)
            if pool is not None:
                self.gate("byte_identical", pool.get("z_hex") == untraced.get("z_hex"))
            traced = self.job("traced")
            if "error" in untraced or "error" in traced:
                raise BenchError("the untraced or traced replicate loop raised")
            pairs.append((untraced, traced))
            if not self.can_repeat(time.monotonic() - t_pair):
                break

        # the traced loop must compute what run_replicates computes
        stale = not all(z_matches(tr["z"], un["z"]) for un, tr in pairs)
        if stale:
            self.notes.append("stale trace: traced z differs from run_replicates z")

        def rep_median(name):
            return statistics.median(v for _, tr in pairs for v in tr["layers_ms"][name].values())

        def setup_median(name):
            return statistics.median(r[name] for r in setup["repeats"]) * 1e3

        rep_ms = [v for _, tr in pairs for v in tr["rep_ms"]]
        unattributed, overhead = [], []
        for un, tr in pairs:
            layer_ms = sum(sum(per_rep.values()) for per_rep in tr["layers_ms"].values())
            unattributed.append((un["wall_s"] * 1e3 - tr["setup_ms"] - layer_ms) / R)
            overhead.append((tr["wall_s"] - un["wall_s"]) * 1e3 / R)
        last = pairs[-1][1]
        metrics = {
            "config.build_problem_ms": (setup_median("config.build_problem"), "ms"),
            "scaling.feasibility_ms": (setup_median("scaling.feasibility"), "ms"),
            "scaling.make_bundle_ms": (setup_median("scaling.make_bundle"), "ms"),
            "scaling.sigma_n1_exact_ms": (setup_median("scaling.sigma_n1_exact"), "ms"),
            "simulate.gen_innovations_ms": (rep_median("simulate.gen_innovations"), "ms"),
            "simulate.moving_average_ms": (rep_median("simulate.moving_average"), "ms"),
            "estats.frame_ms": (rep_median("estats.frame"), "ms"),
            "estats.decompose_ms": (rep_median("estats.decompose"), "ms"),
            "estats.reduction_sup_ms": (rep_median("estats.reduction_sup"), "ms"),
            "mc.rep_ms_p50": (float(np.percentile(rep_ms, 50)), "ms"),
            "mc.rep_ms_p90": (float(np.percentile(rep_ms, 90)), "ms"),
            "mc.summarize_ms": (statistics.median(tr["summarize_ms"] for _, tr in pairs), "ms"),
            "mc.write_csv_ms": (statistics.median(tr["write_csv_ms"] for _, tr in pairs), "ms"),
            "mc.unattributed_ms_per_rep": (statistics.median(unattributed), "ms"),
            "mc.trace_overhead_ms_per_rep": (statistics.median(overhead), "ms"),
            "simulate.fft_len": (setup["model"]["fft_len"], "count"),
            "simulate.bytes_per_rep": (last["bytes_per_rep"], "bytes"),
            "estats.reduction_fft_calls": (last["reduction_fft_calls"], "count"),
            "estats.reduction_grid_points": (last["reduction_grid_points"], "count"),
            "trace.stale": (int(stale), "flag"),
        }
        if pool is not None and "ipc_bytes_sent" in pool:
            metrics["mc.task_bytes"] = (pool["ipc_bytes_sent"] / R, "bytes")
        detail = {"model": setup["model"], "pairs": len(pairs), "setup_repeats": len(setup["repeats"]),
                  "spans": last["spans"]}
        return metrics, detail


def environment() -> dict:
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}


def bench_one(name: str, seed: int, seconds: int, trace: int) -> dict:
    w = WORKLOADS[name]
    run = Run(w, seed, seconds)
    if trace:
        raw, detail = run.per_layer()
    else:
        raw, detail = run.end_to_end()
        raw = {k: (v, END_TO_END_UNITS[k]) for k, v in raw.items()}
    metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in raw.items()}
    correct = run.failed == 0 and all(run.gates.values())
    env = environment()

    print(f"[{name}] seed={seed} trace={trace} wall={time.monotonic() - run.start:.1f}s "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} nproc={env['nproc']}")
    print(f"[{name}] model: " + " ".join(f"{k}={v}" for k, v in detail["model"].items()))
    for k, m in metrics.items():
        label = " (computed)" if k in COMPUTED else " (pickled onto the pool's task queue)" if k == "mc.task_bytes" else ""
        print(f"[{name}] {k} = {m['value']:.6g} {m['unit']}{label}")
    print(f"[{name}] failed_frac = {run.failed / run.attempted:.6g} ({run.failed}/{run.attempted} replicates)")
    for g, ok in run.gates.items():
        print(f"[{name}] gate {g}: {'PASS' if ok else 'FAIL'}")
    for note in run.notes:
        print(f"[{name}] note: {note}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "environment": env,
              "gates": run.gates, "notes": run.notes, "metrics": metrics, **detail}
    (OUT_DIR / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics (default: 0, or both for 'all')")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lrdextremes" / "__init__.py").is_file():
        print(f"no lrdextremes sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)

    if args.workload != "all":
        runs = [(args.workload, args.trace or 0)]
    else:
        traces = (0, 1) if args.trace is None else (args.trace,)
        runs = [(name, t) for name in WORKLOADS for t in traces]
    try:
        results = {(name, t): bench_one(name, args.seed, args.seconds, t) for name, t in runs}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": m for (name, _), r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
