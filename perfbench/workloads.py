"""Reference workloads of the replicate-study benchmark.

Every workload uses a Gaussian X marginal, Gaussian innovations and
``trunc_tol = 1e-3``; the benchmark's ``--seed`` becomes ``master_seed``.
``replicates`` is fixed per workload, so a seed fixes every input of a run.
Why each workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

# acceptance MASTER_SEED; reference.json holds the z values recorded for it
DEFAULT_SEED = 2026004

# |z - z_ref| allowed by the correctness gates.  Changing the FFT length of
# the filter moves x by about 3e-16 relative, which reaches z as at most
# 1.6e-14 (measured over 100 Case 4 and 100 Case 3 replicates); reordering
# the top-k_n sum moves z by about 2e-15.  Any change of model, seed stream
# or statistic moves z by many orders more.
Z_ATOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    beta: float
    y_marginal: str
    xi: float
    n: int
    replicates: int
    with_reduction: bool

    def config_kwargs(self, seed: int) -> dict:
        return dict(
            beta=self.beta,
            y_marginal=self.y_marginal,
            xi=self.xi,
            n=self.n,
            replicates=self.replicates,
            master_seed=seed,
            x_marginal="gaussian",
            innovation="gaussian:1",
            trunc_tol=1e-3,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "case4_n15",
            beta=0.8,
            y_marginal="exponential",
            xi=0.9,
            n=2**15,
            replicates=100,
            with_reduction=True,
        ),
        Workload(
            "case3_n15",
            beta=0.8,
            y_marginal="pareto:6",
            xi=0.97,
            n=2**15,
            replicates=200,
            with_reduction=False,
        ),
        Workload(
            "p2_capped",
            beta=0.7,
            y_marginal="exponential",
            xi=0.9,
            n=2**13,
            replicates=2,
            with_reduction=True,
        ),
    )
}
