"""Monte Carlo harness: parallel replicates, goodness of fit, convergence.

Replicate r always draws from the stream derived as h(master_seed, r) (its
i.i.d. twin from that stream's first child), so results are byte-identical
across execution orders and worker counts; the reduction is by replicate
index, never by completion order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import kolmogorov, ndtr, ndtri

from .config import ExperimentConfig, build_problem
from .errors import DomainError, InfeasibleConfigError
from .estats import (
    MAX_REDUCTION_ORDER,
    ProcessFrame,
    TailGrid,
    decompose_I,
    multilinear_sums,
    reduction_sup_sorted,
    u_ratio,
)
from .model import _marginal_refusal
from .scaling import ScalingBundle, check_condition_Dr, make_bundle, power_rank_integral
from .simulate import FilterPlan, FilterSource, IidSource, config_hash, derive_seed

QQ_PROBS = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)


@dataclass(frozen=True)
class ReplicateResult:
    replicate: int
    seed: int
    z: float
    i1: float
    i2: float
    i3: float
    u_ratio: float
    reduction_sup: float
    s: float = float("nan")  # the top k_n sum of Y


@dataclass(frozen=True)
class McRunResult:
    """Replicate-level outputs plus a summary recomputable from z_samples."""

    z_samples: np.ndarray = field(repr=False)
    replicates: list = field(repr=False)
    summary: dict
    config_echo: dict
    master_seed: int
    bundle: ScalingBundle | None = field(default=None, repr=False)


def ks_test(sample) -> tuple[float, float]:
    """Exact KS distance to the standard normal and its asymptotic p-value.

    D = sup_x |F_m(x) - Phi(x)|; p follows the Kolmogorov distribution of
    sqrt(m) * D.
    """
    arr = np.sort(np.asarray(sample, dtype=float))
    m = arr.size
    if m < 8:
        raise DomainError(f"need at least 8 observations for the KS test, got {m}")
    cdf = ndtr(arr)
    grid = np.arange(m, dtype=float)
    d_plus = np.max((grid + 1.0) / m - cdf)
    d_minus = np.max(cdf - grid / m)
    d = float(max(d_plus, d_minus))
    return d, float(kolmogorov(math.sqrt(m) * d))


def _sample_variance(values) -> float:
    return float(np.var(values, ddof=1)) if len(values) >= 2 else float("nan")


def summarize(z_samples: np.ndarray) -> dict:
    """Deterministic summary of a z sample; recomputable bit-exactly."""
    z = np.asarray(z_samples, dtype=float)
    if z.size >= 8:
        d, p = ks_test(z)
    else:
        d, p = float("nan"), float("nan")
    qq = [
        {"prob": q, "theoretical": float(ndtri(q)), "empirical": float(np.quantile(z, q))}
        for q in QQ_PROBS
    ]
    return {
        "mean": float(np.mean(z)),
        "variance": _sample_variance(z),
        "ks_d": d,
        "ks_p": p,
        "qq": qq,
    }


def _resolve_threads(threads: int) -> int:
    """The worker count of a run: ``threads`` itself, or for 0 the cores this process may run on.

    The count serves both the set-up's threads and the replicates' process
    pool.  A negative count is refused.
    """
    if threads < 0:
        raise DomainError(f"threads = {threads} must be >= 0 (0 means every core this process may run on)")
    if threads:
        return threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _problem_and_bundle(config: ExperimentConfig, n: int, check_feasible: bool = True, workers: int = 1):
    """The realized (coeffs, dist, mx, ty) and the scaling bundle at size n, built on ``workers`` threads."""
    problem = build_problem(config)
    coeffs, dist, mx, ty = problem
    bundle = make_bundle(
        mx,
        ty,
        coeffs.c,
        dist.variance,
        config.beta,
        coeffs.L0,
        n,
        config.xi,
        p=config.p_override,
        spec_hash=config_hash(coeffs, dist, mx, ty, n),
        check_feasible=check_feasible,
        workers=workers,
    )
    return problem, bundle


def _feasibility_record(problem, bundle: ScalingBundle) -> dict:
    """Run the one-time hypothesis checks beyond xi; raise before any simulation."""
    coeffs, dist, mx, ty = problem
    if (refusal := _marginal_refusal(mx, dist)) is not None:
        raise InfeasibleConfigError(refusal)
    record = {"case": bundle.case.name, "xi_threshold": bundle.feasibility.threshold}
    pr = power_rank_integral(mx, ty)
    record["power_rank_integral"] = pr
    if pr == 0.0:
        raise InfeasibleConfigError("power-rank integral vanishes; normalization by sigma_n1 is invalid")
    record["p"] = bundle.p
    record["condition_Dr"] = [check_condition_Dr(mx, ty, r) for r in range(1, bundle.p + 1)]
    return record


def _reduction_skip_reason(source, p: int, with_reduction: bool) -> str | None:
    """Why no replicate drawn from ``source`` computes the reduction supremum, or None when every replicate does."""
    if not source.multilinear:
        return "i.i.d. twin: no power sums of a linear process"
    if not with_reduction:
        return "reduction off"
    if p > MAX_REDUCTION_ORDER:
        return f"p = {p} > MAX_REDUCTION_ORDER = {MAX_REDUCTION_ORDER}"
    return None


@dataclass(frozen=True, eq=False)
class ReplicatePlan:
    """What every replicate of one (problem, bundle) shares, built once per run.

    ``source`` draws a replicate's path from its seed (``simulate``'s path
    sources).  ``build`` makes the linear process's source: the filter plan
    of order p when the reduction supremum is computed (order 1 otherwise),
    that is the spectra of c**m for m < p and the window sums of c**p that
    give the top power's total as one weighted sum per replicate, and the
    innovation law.  A replicate streams its seeded innovations through the
    plan's one pass, which returns the path, the power sums below p and that
    total, so no replicate builds its n + M innovations as one array.  It is
    the run's one filter plan, so a run transforms the taps once per
    filtered power and never transforms c**p.  ``iid_twin`` makes the
    i.i.d. twin's source, n independent draws of the X marginal.
    ``tail`` is the tail grid, or None when ``_reduction_skip_reason``
    gives a reason not to compute the supremum.  The plan is built on
    ``workers`` threads, with the same bytes at every count.
    """

    source: FilterSource | IidSource
    tail: TailGrid | None

    @classmethod
    def build(cls, problem, bundle: ScalingBundle, with_reduction: bool, workers: int = 1) -> "ReplicatePlan":
        reduced = _reduction_skip_reason(FilterSource, bundle.p, with_reduction) is None
        order = max(bundle.p, 1) if reduced else 1
        tail = TailGrid.build(problem[2], bundle.p) if reduced else None
        plan = FilterPlan.build(problem[0].c, bundle.n, order, workers)
        return cls(source=FilterSource(plan, problem[1]), tail=tail)

    @classmethod
    def iid_twin(cls, problem, bundle: ScalingBundle) -> "ReplicatePlan":
        return cls(source=IidSource(problem[2].s, bundle.n), tail=None)


def _run_one(r: int, seed: int, problem, bundle: ScalingBundle, plan: ReplicatePlan) -> ReplicateResult:
    _, _, mx, ty = problem
    sums = plan.source.draw(seed)
    frame = ProcessFrame.from_path(sums.paths[0], mx, ty, bundle.sigma_n1)
    dec = decompose_I(frame, bundle)
    ur = u_ratio(frame, bundle.k_n)
    if plan.tail is not None:
        y = multilinear_sums(sums, bundle.p)
        red = reduction_sup_sorted(frame.x_sorted, frame.F_sorted, y, plan.tail, mx, bundle.sigma_n1).value
    else:
        red = float("nan")
    return ReplicateResult(
        replicate=r, seed=seed, z=dec.z, i1=dec.i1, i2=dec.i2, i3=dec.i3, u_ratio=ur, reduction_sup=red, s=dec.s
    )


# The heap set-up that keeps a replicate's arrays on reused pages is done
# once, when ``simulate`` is imported (see ``simulate._raise_mmap_threshold``).

# (problem, bundle, plan) of the run, set once in each pool worker
_worker_run = None


def _init_worker(problem, bundle: ScalingBundle, plan: ReplicatePlan) -> None:
    global _worker_run
    _worker_run = (problem, bundle, plan)


def _run_task(task) -> ReplicateResult:
    r, seed = task
    return _run_one(r, seed, *_worker_run)


def _run_replicate_loop(problem, bundle: ScalingBundle, plan: ReplicatePlan, master_seed: int, R: int, workers: int):
    """Replicates 0..R-1 of one plan on ``workers`` processes, in replicate order whatever their count.

    The caller builds the plan, once, before the pool forks (the filter
    plan on ``workers`` threads, joined before the call returns); pool
    workers receive it with the problem and the bundle when they start, so
    a task is only (r, seed).
    """
    tasks = [(r, derive_seed(master_seed, r)) for r in range(R)]
    if workers <= 1 or R == 1:
        reps = [_run_one(r, seed, problem, bundle, plan) for r, seed in tasks]
    else:
        n_workers = min(workers, R)
        with ProcessPoolExecutor(
            max_workers=n_workers, initializer=_init_worker, initargs=(problem, bundle, plan)
        ) as pool:
            reps = list(pool.map(_run_task, tasks, chunksize=max(1, R // (4 * n_workers))))
    reps.sort(key=lambda rep: rep.replicate)  # reduction by index, not completion order
    return reps


def run_replicates(
    config: ExperimentConfig,
    R: int | None = None,
    master_seed: int | None = None,
    threads: int = 1,
    with_reduction: bool = True,
    n: int | None = None,
) -> McRunResult:
    """Run R independent replicates of the extreme-sum experiment.

    Parameters
    ----------
    config : ExperimentConfig
        Validated configuration; feasibility (xi threshold, power rank,
        derivative-integrability) is checked once before any simulation.
    R, master_seed, n : optional overrides of the config values.
    threads : int
        Worker processes; 0 means the cores this process may run on, 1 runs
        inline, and a negative count is refused.  The set-up runs its chunk
        loops on as many threads first.  The output never depends on this
        value.
    """
    workers = _resolve_threads(threads)
    R = R if R is not None else config.replicates
    master_seed = master_seed if master_seed is not None else config.master_seed
    n = n if n is not None else config.n
    if R < 1:
        raise DomainError("R must be >= 1")
    if n is None:
        raise DomainError("an experiment size n is required")

    problem, bundle = _problem_and_bundle(config, n, workers=workers)
    feas = _feasibility_record(problem, bundle)
    plan = ReplicatePlan.build(problem, bundle, with_reduction, workers)
    feas["reduction_sup"] = _reduction_skip_reason(plan.source, bundle.p, with_reduction) or "computed"
    reps = _run_replicate_loop(problem, bundle, plan, master_seed, R, workers)

    z = np.array([rep.z for rep in reps])
    summary = summarize(z)
    summary["feasibility"] = feas
    echo = config.as_dict()
    echo["n"] = n
    echo["R"] = R
    return McRunResult(
        z_samples=z, replicates=reps, summary=summary, config_echo=echo, master_seed=master_seed, bundle=bundle
    )


def trend_nonincreasing(values, allowed_inversions: int = 1, rtol: float = 0.0) -> bool:
    """True when the sequence decreases with at most the allowed inversions."""
    vals = list(values)
    inversions = sum(1 for a, b in zip(vals, vals[1:]) if b > a * (1.0 + rtol))
    return inversions <= allowed_inversions


def _iid_twin_columns(problem, bundle: ScalingBundle, reps: list, master_seed: int, workers: int) -> dict:
    """var(S) of the replicates ``reps``, var(S_iid) of as many replicates of their i.i.d. twin, and the ratio.

    S is the top k_n sum of Y.  The twin's replicate r is n i.i.d. draws of
    the X marginal from a child of replicate r's seed (``IidSource``), sent
    through the same frame as a path.
    """
    plan = ReplicatePlan.iid_twin(problem, bundle)
    twin = _run_replicate_loop(problem, bundle, plan, master_seed, len(reps), workers)
    var_s = _sample_variance([rep.s for rep in reps])
    var_s_iid = _sample_variance([rep.s for rep in twin])
    return {"var_s": var_s, "var_s_iid": var_s_iid, "var_ratio": var_s / var_s_iid}


def convergence_study(
    config: ExperimentConfig,
    n_grid=None,
    R: int | None = None,
    master_seed: int | None = None,
    threads: int = 1,
) -> list[dict]:
    """Replicate study over increasing n; one row of diagnostics per size.

    Uses the same master seed family at every size (common random numbers),
    so the across-n trends are compared on coupled samples.  After each
    size's path study it runs the study's i.i.d. twin: replicate r draws n
    i.i.d. values of the X marginal from SeedSequence(h(master_seed, r),
    spawn_key=(0,)), the first child of replicate r's seed, a stream that no
    path reads.  The row reports var(S), var(S_iid) and their ratio, S the
    top k_n sum of Y.
    """
    n_grid = list(n_grid if n_grid is not None else (config.n_grid or []))
    if not n_grid:
        raise DomainError("an increasing n_grid is required")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise DomainError("n_grid must be strictly increasing")
    workers = _resolve_threads(threads)
    problem = build_problem(config)
    rows = []
    for nn in n_grid:
        res = run_replicates(config, R=R, master_seed=master_seed, threads=workers, n=nn)
        k_n, sigma_n1 = res.bundle.k_n, res.bundle.sigma_n1
        i2 = np.median(np.abs([r.i2 for r in res.replicates]))
        i3 = np.median(np.abs([r.i3 for r in res.replicates]))
        urdev = np.median(np.abs([r.u_ratio - 1.0 for r in res.replicates]))
        reds = np.array([r.reduction_sup for r in res.replicates])
        red = float(np.median(reds)) if np.all(np.isfinite(reds)) else float("nan")
        rows.append(
            {
                "n": nn,
                "k_n": k_n,
                "ks_d": res.summary["ks_d"],
                "ks_p": res.summary["ks_p"],
                "z_mean": res.summary["mean"],
                "z_var": res.summary["variance"],
                "med_abs_i2": float(i2),
                "med_abs_i3": float(i3),
                "med_u_ratio_dev": float(urdev),
                "med_reduction_sup": red,
                "lrd_scale": (nn / k_n) / sigma_n1,
                **_iid_twin_columns(problem, res.bundle, res.replicates, res.master_seed, workers),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# CSV emission (schema-stable, shortest round-trip floats)
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, (np.floating,)):
        return repr(float(v))
    return str(v)


def write_z_samples_csv(result: McRunResult, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("replicate,seed,z,i1,i2,i3,u_ratio,reduction_sup\n")
        for rep in result.replicates:
            fields = [rep.replicate, rep.seed, rep.z, rep.i1, rep.i2, rep.i3, rep.u_ratio, rep.reduction_sup]
            fh.write(",".join(_fmt(v) for v in fields) + "\n")


def write_summary_csv(result: McRunResult, path) -> None:
    rows = [
        ("mean", result.summary["mean"]),
        ("variance", result.summary["variance"]),
        ("ks_d", result.summary["ks_d"]),
        ("ks_p", result.summary["ks_p"]),
        ("replicates", len(result.z_samples)),
        ("master_seed", result.master_seed),
    ]
    for item in result.summary["qq"]:
        rows.append((f"qq_p{int(round(item['prob'] * 100)):02d}_theoretical", item["theoretical"]))
        rows.append((f"qq_p{int(round(item['prob'] * 100)):02d}_empirical", item["empirical"]))
    for key, val in sorted(result.config_echo.items()):
        rows.append((f"config_{key}", val))
    with open(path, "w", newline="") as fh:
        fh.write("metric,value\n")
        for key, val in rows:
            fh.write(f"{key},{_fmt(val)}\n")


def write_convergence_csv(rows: list[dict], path) -> None:
    """One line per row of ``convergence_study``; the header is its rows' keys, in their order."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(rows[0]) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row.values()) + "\n")


def write_errors_csv(errors: list[tuple[int, str]], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("code,message\n")
        for code, message in errors:
            sanitized = message.replace("\n", " ").replace(",", ";")
            fh.write(f"{code},{sanitized}\n")
