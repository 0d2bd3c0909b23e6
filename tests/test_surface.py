"""The package surface that the benchmark scripts use still exists.

``perfbench/`` runs the package through its public names in separate
interpreters, so a removed or renamed name would only show as a failed
benchmark run.  This test reads those scripts with ``ast``, finds every
attribute chain rooted at an import of ``lrdextremes`` (``lx.make_bundle``,
``lx.mc.write_z_samples_csv``, ``simulate.config_hash``, ...) and resolves
it against the package.  Attribute reads on the objects the package returns
escape that scan, so the benchmark's traced job also runs once.  It also
keeps every import inside the package at
module level, where a module's dependencies are visible at a glance, and
every ``scipy.fft`` call inside ``simulate.FilterPlan``, the one owner of
the filter's transforms, and keeps the replicate and set-up kernels off
BLAS and LAPACK: numpy hands ``np.dot``, ``np.vdot``, ``np.inner``,
``np.matmul`` and ``@`` on float64 to OpenBLAS, and ``np.linalg``, the
polynomial root finders (``np.roots``, ``polyroots``, ``hermeroots``, ...)
and the eigenvalue routines to LAPACK on OpenBLAS's threads.  Those threads
would make a one-worker run use more than one core, and BLAS's partial sums
depend on their count.
A study in a fresh interpreter loads no ``scipy.integrate``, nor the
subpackages it would bring.  Last, every name the package re-exports must have a caller in the package
or in ``perfbench/``, unless an allowlist names the reason it stays.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lrdextremes"


def package_roots(tree: ast.AST, package: str = "lrdextremes") -> dict[str, str]:
    """Local name -> module path, for every import of the package in the script."""
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == package:
                    # ``import a.b`` binds ``a``; ``import a.b as x`` binds ``x`` to ``a.b``
                    local = alias.asname or package
                    roots[local] = alias.name if alias.asname else package
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == package:
            for alias in node.names:
                roots[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return roots


def attribute_chains(tree: ast.AST, roots: dict[str, str]) -> set[tuple[str, ...]]:
    """Every (root, attr, attr, ...) chain whose innermost value is a package root."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in roots:
            chains.add((node.id, *reversed(parts)))
    return chains


def resolve(dotted: str) -> bool:
    """Whether ``lrdextremes.a.b...`` is reachable by attribute access from the package."""
    obj = importlib.import_module("lrdextremes")
    for attr in dotted.split(".")[1:]:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


@pytest.mark.parametrize("script", ["jobs.py", "record_reference.py"])
def test_benchmark_names_resolve(script):
    tree = ast.parse((PERFBENCH / script).read_text(), filename=script)
    roots = package_roots(tree)
    chains = attribute_chains(tree, roots)
    assert chains, f"no package names found in {script}; the scan no longer matches its imports"
    missing = [".".join(chain) for chain in sorted(chains) if not resolve(".".join((roots[chain[0]], *chain[1:])))]
    assert not missing, f"{script} uses names the package no longer has: {missing}"


def test_benchmark_traced_job_runs(tmp_path):
    # the name scan cannot see attribute reads on the objects the package returns
    # (``frame.analytic``), so run the benchmark's traced replicate loop once
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    args = json.dumps({"workload": "case4_n15", "seed": 2026004, "out_dir": str(tmp_path)})
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "jobs.py"), "traced", args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert "error" not in result, result.get("error")


def function_local_imports(tree: ast.AST) -> list[tuple[str, int]]:
    """(function name, line) of every import statement inside a function body."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append((fn.name, node.lineno))
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_function_local_imports(module):
    local = function_local_imports(ast.parse((PACKAGE / module).read_text(), filename=module))
    assert not local, f"{module} imports inside functions at {local}"



def fft_uses(tree: ast.AST) -> list[int]:
    """Lines that name ``scipy.fft`` or anything in it, through any import of scipy."""
    roots = package_roots(tree, "scipy")
    lines = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in roots:
            dotted = ".".join((roots[node.id], *reversed(parts)))
            if dotted == "scipy.fft" or dotted.startswith("scipy.fft."):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_fft_calls_only_in_the_filter_plan(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    if module == "simulate.py":
        tree.body = [node for node in tree.body if not (isinstance(node, ast.ClassDef) and node.name == "FilterPlan")]
    outside = fft_uses(tree)
    assert not outside, f"{module} uses scipy.fft outside simulate.FilterPlan at lines {outside}"


# the code every replicate runs, as (module, qualified name); the whole-array
# entries (gen_innovations, sample, apply) are the calls of perfbench's traced replicate
REPLICATE_KERNELS = [
    ("mc.py", "_run_one"),
    ("simulate.py", "innovation_source"),
    ("model.py", "InnovationDist.fill"),
    ("simulate.py", "FilterPlan.stream"),
    ("simulate.py", "gen_innovations"),
    ("model.py", "InnovationDist.sample"),
    ("simulate.py", "FilterPlan.apply"),
    ("estats.py", "multilinear_sums"),
    ("estats.py", "reduction_sup_sorted"),
    ("estats.py", "ProcessFrame.from_path"),
    ("estats.py", "ProcessFrame.top_y"),
    ("estats.py", "ProcessFrame.u_order"),
    ("estats.py", "decompose_I"),
    ("estats.py", "_stieltjes_y_minus_en"),
    ("estats.py", "_frame_z"),
    ("estats.py", "u_ratio"),
    # the marginal functions a replicate of the reference workloads evaluates
    ("model.py", "GaussianMarginal.F"),
    ("model.py", "GaussianMarginal.F_deriv"),
    ("model.py", "GaussianMarginal.F_derivs"),
    ("model.py", "GaussianMarginal.turning_gaps"),
    ("model.py", "ExponentialTarget.Q"),
    ("model.py", "ExponentialTarget.cum_Q"),
    ("model.py", "ExponentialTarget.integral_Q"),
    ("model.py", "ParetoTarget.Q"),
    ("model.py", "ParetoTarget.cum_Q"),
    ("model.py", "ParetoTarget.integral_Q"),
    ("model.py", "IdentityTarget.Q"),
    ("model.py", "IdentityTarget.cum_Q"),
    ("model.py", "IdentityTarget.integral_Q"),
]
BLAS_ROUTINES = {"dot", "vdot", "inner", "matmul"}
# LAPACK-backed: every call through a ``linalg`` module, these names, and every
# polynomial root finder (numpy's ``*roots`` take the companion matrix's eigenvalues)
LAPACK_ROUTINES = {"eig", "eigh", "eigvals", "eigvalsh", "lstsq", "polyfit"}


def definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Qualified name -> definition, for the module's functions and the methods of its classes."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs[f"{node.name}.{item.name}"] = item
    return defs


def with_local_callees(defs: dict[str, ast.AST], name: str) -> list[str]:
    """``name`` and every function of the same module it reaches by a bare name or ``self.``/``cls.``."""
    owner = name.rpartition(".")[0]
    seen, todo = [], [name]
    while todo:
        current = todo.pop()
        if current in seen:
            continue
        seen.append(current)
        for node in ast.walk(defs[current]):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in defs:
                todo.append(func.id)
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                if func.value.id in ("self", "cls") and f"{owner}.{func.attr}" in defs:
                    todo.append(f"{owner}.{func.attr}")
    return seen


def call_chain(func: ast.AST) -> list[str]:
    """The dotted names of a call's target, innermost first: ``np.linalg.solve`` -> [np, linalg, solve]."""
    parts = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
    return parts[::-1]


def blas_uses(fn: ast.AST) -> list[int]:
    """Lines with ``@``, ``@=`` or a call of a BLAS- or LAPACK-backed routine (``np.dot``, ``np.roots``, ...)."""
    lines = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.add(node.lineno)
        elif isinstance(node, ast.Call):
            chain = call_chain(node.func)
            name = chain[-1] if chain else None
            if name in BLAS_ROUTINES or name in LAPACK_ROUTINES or "linalg" in chain[:-1]:
                lines.add(node.lineno)
            elif name is not None and name.endswith("roots"):
                lines.add(node.lineno)
    return sorted(lines)


def test_blas_scan_finds_each_form():
    body = [
        "a @ b",
        "a @= b",
        "np.dot(a, b)",
        "a.dot(b)",
        "inner(a, b)",
        "np.linalg.solve(a, b)",
        "scipy.linalg.eigh(a)",
        "linalg.norm(a)",
        "np.roots(a)",
        "np.polynomial.polynomial.polyroots(a)",
        "hermeroots(a)",
        "np.linalg.eigvals(a)",
        "eigvals(a)",
        "np.polyfit(a, b, 1)",
        "np.sum(a * b)",
        "np.polynomial.hermite_e.hermeval(a, b)",
    ]
    snippet = "def f(a, b):\n" + "".join(f"    {line}\n" for line in body)
    assert blas_uses(ast.parse(snippet).body[0]) == list(range(2, 16))


def assert_no_blas(module: str, kernel: str, listed_in: str) -> None:
    defs = definitions(ast.parse((PACKAGE / module).read_text(), filename=module))
    assert kernel in defs, f"{module} no longer defines {kernel}; update {listed_in}"
    found = {name: blas_uses(defs[name]) for name in with_local_callees(defs, kernel)}
    found = {name: lines for name, lines in found.items() if lines}
    assert not found, f"{kernel} reaches BLAS- or LAPACK-backed calls in {module}: {found}"


@pytest.mark.parametrize("module,kernel", REPLICATE_KERNELS)
def test_replicate_kernels_call_no_blas(module, kernel):
    assert_no_blas(module, kernel, "REPLICATE_KERNELS")


# the set-up of a study, which runs in the same process before its replicates, and
# the exact lags (FilterPlan.autocovariances): no study calls them, but they are the
# reference sigma_{n,1} is tested against, so they are held to the same rule
SETUP_KERNELS = [
    ("scaling.py", "make_bundle"),
    ("simulate.py", "FilterPlan.sigma_n1"),
    ("simulate.py", "FilterPlan.build"),
    ("simulate.py", "FilterPlan.with_order"),
    ("simulate.py", "FilterPlan._spectrum"),
    ("simulate.py", "FilterPlan.autocovariances"),
    ("simulate.py", "window_sums"),
    ("model.py", "CoefficientModel.build"),
    ("model.py", "_square_sum"),
    ("mc.py", "ReplicatePlan.build"),
    ("estats.py", "TailGrid.build"),
    ("model.py", "_gauss_kronrod"),
    ("model.py", "_gauss_kronrod_groups"),
]


@pytest.mark.parametrize("module,kernel", SETUP_KERNELS)
def test_setup_kernels_call_no_blas(module, kernel):
    assert_no_blas(module, kernel, "SETUP_KERNELS")


# sigma_{n,1} of a fixed random filter of 32 262 taps, about the Case 4 truncation
# length, from a partitioned plan (n = 2^8: 32 segments) and a one-segment one
# (n = 2^15).  A sum taken by np.dot would be split by OpenBLAS's thread count,
# and its last bits with it
SIGMA_BITS_SCRIPT = """
import numpy as np
from lrdextremes.simulate import FilterPlan
c = np.random.default_rng(0).uniform(0.0, 1.0, 32262)
print(*(FilterPlan.build(c, n).sigma_n1(1.0).hex() for n in (2**8, 2**15)))
"""


def usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.mark.skipif(usable_cores() < 2, reason="one core: OpenBLAS would not split the sum between threads")
def test_sigma_n1_bits_do_not_depend_on_the_blas_thread_count():
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    bits = [
        subprocess.run(
            [sys.executable, "-c", SIGMA_BITS_SCRIPT],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        for threads in ("1", "2")
    ]
    assert bits[0] == bits[1], f"sigma_n1 under 1 and 2 OpenBLAS threads: {bits}"


# a study's set-up (feasibility quadratures, bundle) and one replicate, and K_n, in a
# fresh interpreter.  The package integrates with its own Gauss-Kronrod rule, so none
# of these is loaded: scipy.integrate alone brings the other three, 25 MB of RSS and
# 0.2-0.4 s of import in every process
UNLOADED_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg")
UNLOADED_SCRIPT = f"""
import sys
from lrdextremes import ExperimentConfig, build_problem, karamata_K, run_replicates
cfg = ExperimentConfig(beta=0.8, y_marginal="pareto:6", xi=0.97, master_seed=1, n=2**10, replicates=1)
run_replicates(cfg, threads=1)
_, _, mx, ty = build_problem(cfg)
karamata_K(mx, ty, 2**10, 2**9)
print(*(name for name in {UNLOADED_SCIPY!r} if name in sys.modules))
"""


def test_a_study_loads_no_scipy_integrate():
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", UNLOADED_SCRIPT],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert not loaded, f"a study loaded {loaded}"


# re-exported names that no program path calls, each kept for a named reason
EXPORTS_WITHOUT_CALLER = {
    "trimmed_sum": "acceptance criterion 9 checks it against top_k_sum",
    "z_statistic": "the independent route to Z_n that the decomposition tests compare with",
    "trend_nonincreasing": "the acceptance criteria judge their trends with it",
    "karamata_product": "the acceptance criteria check A_n K_n -> 1 with it",
    "autocovariance": "the scalar reference that FilterPlan.autocovariances is tested against",
    "autocovariances": "the exact lags rho_k; tests check sigma_n1 and the spectra against them, and ROADMAP item 2 builds on them",
    "autocovariance_model": "the theoretical autocovariance, kept for the LRD-at-experiment-size check",
    "clamp_events": "the clamp counter, kept until clamps are counted inside the replicate kernel",
    "reset_clamp_events": "resets the clamp counter, kept with it",
}


def package_exports() -> dict[str, str]:
    """Name -> defining module file, for every ``from .module import name`` of the package's ``__init__``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(), filename="__init__.py")
    return {
        alias.asname or alias.name: f"{node.module}.py"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def referenced_names(tree: ast.Module, skip: str | None = None) -> set[str]:
    """Ids of ``Name`` nodes and attrs of ``Attribute`` nodes, outside the function or class named ``skip``."""
    found = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and top.name == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def test_every_export_has_a_caller():
    # a name the package exports must be used by the package itself or by the benchmark scripts;
    # docstrings do not count, and neither does the name's own definition
    bench = set()
    for script in PERFBENCH.glob("*.py"):
        bench |= referenced_names(ast.parse(script.read_text(), filename=script.name))
    trees = {p.name: ast.parse(p.read_text(), filename=p.name) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    uncalled = [
        name
        for name, home in sorted(package_exports().items())
        if name not in EXPORTS_WITHOUT_CALLER
        and name not in bench
        and not any(name in referenced_names(tree, skip=name if module == home else None) for module, tree in trees.items())
    ]
    assert not uncalled, f"exported names with no caller in the package or perfbench/: {uncalled}"
    stale = sorted(set(EXPORTS_WITHOUT_CALLER) - set(package_exports()))
    assert not stale, f"EXPORTS_WITHOUT_CALLER names that the package no longer exports: {stale}"
