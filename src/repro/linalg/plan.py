"""The reusable structured-solve plan: symbolic structure + workspace arenas.

The arrow system of one LM iteration has a *structure* (feature count
``p``, stacked keyframe dimension ``q``, the D-type Schur elimination
order) that is fixed for the whole window. Across windows the width
``q`` takes only a handful of values (one per keyframe count the
sliding window passes through), while ``p`` changes from window to
window with the scene. The paper's accelerator configures its datapath
once and streams every window through it whatever the feature count
(Sec. 3.1/5). :class:`SolverPlan` is the software mirror of that idea:

* built once per width ``q``, it preallocates every buffer the solve
  stage touches (Schur arenas, the Cholesky factor, substitution and
  back-substitution vectors), so :meth:`SolverPlan.execute` performs
  **zero per-iteration array allocation** — verified by a tracemalloc
  assertion in ``tests/test_linalg_plan.py``;
* :meth:`SolverPlan.fit` re-views its ``p``-sized arenas as prefixes
  of capacity buffers that grow only past the largest ``p`` seen, so
  one plan serves every feature count at its width, bit-identically to
  a freshly built plan;
* it is reused across all LM iterations of a window and, through
  :class:`SolverPlanCache` (keyed by width and thread), across every
  window of the same width;
* every layer that solves the arrow system — the NLS solver and the
  functional accelerator simulation — executes the *same* plan object,
  so their agreement is by construction, and the dense float64 path
  (:meth:`repro.slam.problem.LinearSystem.solve_dense`) remains the
  independent conformance oracle.

The factorization and substitutions are the paper's two solve blocks,
the Evaluate/Update Cholesky and forward/backward substitution
(Sec. 4.3), and run as exactly two LAPACK routines, ``dpotrf`` and
``dtrtrs``, in place on Fortran-ordered workspaces (no copies). They
are called through SciPy's f2py binding ``scipy.linalg._flapack``, the
module whose routines ``scipy.linalg.cholesky`` and
``scipy.linalg.solve_triangular`` call, with the arguments those
functions pass, so every output bit is theirs. The binding is loaded
straight from its file (:func:`_load_flapack`): importing
``scipy.linalg`` would add about 28 MiB and some 300 modules to every
process that solves, for two routines. The retry policy is **no jitter
unless the factorization fails**, then escalating diagonal jitter,
with the applied value reported in :class:`PlanSolveStats`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from repro.errors import ConfigurationError, SolverError
from repro.linalg.schur import d_type_back_substitute_into, d_type_schur_into


def _load_flapack():
    """SciPy's f2py LAPACK module, without importing ``scipy.linalg``.

    ``import scipy`` loads only the package (and runs its library-path
    set-up); the extension file next to ``scipy/linalg/__init__.py`` is
    then loaded by itself. A process that already imported it gets the
    same module object.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    directory = Path(scipy.__file__).parent / "linalg"
    # The first suffix is the interpreter's own ABI tag, the one SciPy
    # wheels build with.
    path = directory / f"_flapack{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    if not path.is_file():
        raise ImportError(f"no {path.name} in {directory}")
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


_flapack = _load_flapack()

#: Diagonal floor applied to the landmark block before elimination; the
#: dense materialization (``repro.slam.problem.LinearSystem.dense``)
#: applies the same constant.
U_FLOOR = 1e-8

#: Jitter escalation schedule: nothing on the first attempt, then each
#: retry multiplies by JITTER_GROWTH starting from JITTER_INITIAL.
JITTER_INITIAL = 1e-9
JITTER_GROWTH = 100.0
MAX_FACTOR_ATTEMPTS = 6


@dataclass
class PlanSolveStats:
    """Per-execute measurements the observability layer consumes.

    Attributes:
        schur_seconds / chol_seconds / backsub_seconds: wall-clock split
            of the three solve phases (the ``schur``/``chol``/``backsub``
            child spans under the NLS ``solve`` span).
        jitter: diagonal jitter that made the factorization succeed
            (0.0 when the first, jitter-free attempt worked).
        jitter_applied: whether any jitter was needed.
        factor_attempts: factorization attempts including the final
            successful one.
    """

    schur_seconds: float = 0.0
    chol_seconds: float = 0.0
    backsub_seconds: float = 0.0
    jitter: float = 0.0
    jitter_applied: bool = False
    factor_attempts: int = 1


class SolverPlan:
    """One width's solve schedule plus its preallocated arenas.

    Args:
        num_features: ``p``, the diagonal landmark block size the plan
            is first fitted to (see :meth:`fit`).
        state_dim: ``q``, the stacked keyframe dimension.
    """

    def __init__(self, num_features: int, state_dim: int) -> None:
        if num_features < 0 or state_dim < 0:
            raise ConfigurationError("plan dimensions must be non-negative")
        self.state_dim = int(state_dim)
        q = self.state_dim

        # Schur arenas. ``reduced`` stays intact after execute() — the
        # functional simulator feeds it to the cycle-level Cholesky
        # timeline.
        self.scratch = np.empty((q, q))
        self.reduced = np.empty((q, q))
        self.reduced_rhs = np.empty(q)
        # Factor workspace: Fortran order so LAPACK potrf/trtrs run truly
        # in place.
        self.factor = np.empty((q, q), order="F")
        self.d_state = np.empty(q)
        self.last_stats = PlanSolveStats()
        self.executions = 0
        self._capacity = -1
        self.fit(num_features)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def fit(self, num_features: int) -> None:
        """Re-view the ``p``-sized arenas for ``num_features`` landmarks.

        ``u_damped``, ``u_inv``, ``d_lambda`` and ``w_scaled`` are
        contiguous prefixes of capacity buffers, which are reallocated
        only when ``num_features`` exceeds the largest value fitted so
        far. ``w_scaled`` is ``flat[:q*p].reshape(q, p)``, the layout of
        a fresh ``np.empty((q, p))``, so a refitted plan solves
        bit-identically to a freshly built one. The ``(q, q)`` arenas do
        not depend on ``p`` and are untouched.
        """
        if num_features < 0:
            raise ConfigurationError("plan dimensions must be non-negative")
        p, q = int(num_features), self.state_dim
        if p > self._capacity:
            self._capacity = p
            self._vectors = (np.empty(p), np.empty(p), np.empty(p))
            self._w_flat = np.empty(q * p)
        self.u_damped, self.u_inv, self.d_lambda = (v[:p] for v in self._vectors)
        self.w_scaled = self._w_flat[: q * p].reshape(q, p)
        self.num_features = p

    def matches(self, num_features: int, state_dim: int) -> bool:
        """Whether this plan is currently fitted to the given system."""
        return self.num_features == num_features and self.state_dim == state_dim

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(
        self,
        u_diag: np.ndarray,
        w_block: np.ndarray,
        v_block: np.ndarray,
        b_x: np.ndarray,
        b_y: np.ndarray,
        damping: float = 0.0,
    ) -> tuple[np.ndarray, np.ndarray, PlanSolveStats]:
        """Run the structured solve for one iteration's numbers.

        Returns ``(d_lambda, d_state, stats)``. The two update vectors
        are *views into the plan's arenas* — valid until the next
        ``execute`` on this plan; callers that keep them must copy
        (:meth:`repro.slam.problem.LinearSystem.solve` does by default).
        """
        if u_diag.shape[0] != self.num_features or b_y.shape[0] != self.state_dim:
            raise SolverError(
                f"system ({u_diag.shape[0]}, {b_y.shape[0]}) does not match "
                f"plan structure ({self.num_features}, {self.state_dim})"
            )
        stats = PlanSolveStats()

        tic = perf_counter()
        # Damped landmark diagonal: floor, then in-place damping add —
        # no np.eye materialization anywhere on this path.
        np.maximum(u_diag, U_FLOOR, out=self.u_damped)
        if damping:
            self.u_damped += damping
        np.divide(1.0, self.u_damped, out=self.u_inv)
        d_type_schur_into(
            v_block, w_block, self.u_inv, b_x, b_y,
            out_reduced=self.reduced, out_rhs=self.reduced_rhs,
            w_scaled=self.w_scaled, scratch=self.scratch,
        )
        if damping:
            # In-place diagonal add on the reduced keyframe block —
            # through a ravel view, not ``.flat`` (flatiter slicing
            # round-trips through a copy).
            self.reduced.reshape(-1)[:: self.state_dim + 1] += damping
        stats.schur_seconds = perf_counter() - tic

        tic = perf_counter()
        self._factor_with_retry(stats)
        stats.chol_seconds = perf_counter() - tic

        tic = perf_counter()
        self._triangular_solves(self.factor, self.reduced_rhs, self.d_state)
        d_type_back_substitute_into(
            w_block, self.u_damped, b_x, self.d_state, out=self.d_lambda
        )
        stats.backsub_seconds = perf_counter() - tic

        self.last_stats = stats
        self.executions += 1
        return self.d_lambda, self.d_state, stats

    # ------------------------------------------------------------------
    # Factorization with escalating-jitter retry
    # ------------------------------------------------------------------

    def _factor_with_retry(self, stats: PlanSolveStats) -> None:
        """Factor ``self.reduced`` into ``self.factor`` (lower triangle).

        The first attempt is jitter-free; each retry restores the
        workspace from ``self.reduced`` and escalates the diagonal
        jitter. ``self.reduced`` itself is never mutated.
        """
        if self.state_dim == 0:
            return
        factor = self.factor
        jitter = 0.0
        for attempt in range(MAX_FACTOR_ATTEMPTS):
            np.copyto(factor, self.reduced)
            if jitter:
                # The factor workspace is Fortran-ordered; its transpose
                # is a C-contiguous view with the same diagonal.
                factor.T.reshape(-1)[:: self.state_dim + 1] += jitter
            stats.factor_attempts = attempt + 1
            # The Fortran-ordered float64 workspace is factored in place.
            _, info = _flapack.dpotrf(factor, lower=1, overwrite_a=1, clean=1)
            if info > 0:  # leading minor ``info`` is not positive definite
                jitter = JITTER_INITIAL if jitter == 0.0 else jitter * JITTER_GROWTH
                continue
            if info:
                raise SolverError(f"dpotrf: illegal value in argument {-info}")
            stats.jitter = jitter
            stats.jitter_applied = jitter != 0.0
            return
        raise SolverError(
            f"Cholesky failed after {MAX_FACTOR_ATTEMPTS} attempts "
            f"(final jitter {jitter:.1e})"
        )

    # ------------------------------------------------------------------
    # Triangular solves
    # ------------------------------------------------------------------

    @staticmethod
    def _triangular_solves(
        factor: np.ndarray, rhs: np.ndarray, out: np.ndarray
    ) -> None:
        """Solve ``L L^T out = rhs`` given the lower factor, in place."""
        if factor.shape[0] == 0:
            return
        np.copyto(out, rhs)
        for trans in (0, 1):  # L y = rhs, then L^T out = y
            _, info = _flapack.dtrtrs(
                factor, out, overwrite_b=1, lower=1, trans=trans, unitdiag=0
            )
            if info:
                raise SolverError(f"dtrtrs failed with info {info} (trans={trans})")


# ----------------------------------------------------------------------
# The plan cache: reuse across every window of one width
# ----------------------------------------------------------------------

class SolverPlanCache:
    """LRU cache of :class:`SolverPlan` keyed by width and thread.

    One plan per width ``q`` serves every feature count: a lookup refits
    it to the requested ``p`` (:meth:`SolverPlan.fit`). Workspaces are
    mutable, so a plan must never be shared across threads; the cache
    keys on ``threading.get_ident()`` as well. This keeps concurrent
    callers (a fleet's shard-loop threads, the engine's parallel runner)
    race-free while still giving every thread cross-window reuse. A hit
    means the width's plan already existed, whether or not the refit had
    to grow it; the ``hits``/``misses`` counters surface in
    ``BENCH_estimator.json`` and in layerbench's ``linalg.plan_cache.*``
    metrics.
    """

    def __init__(self, max_plans: int = 64) -> None:
        if max_plans < 1:
            raise ConfigurationError("max_plans must be >= 1")
        self.max_plans = max_plans
        self._plans: OrderedDict[tuple, SolverPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, num_features: int, state_dim: int) -> SolverPlan:
        """This width's plan fitted to ``num_features`` (built on first miss)."""
        key = (int(state_dim), threading.get_ident())
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(key)
                plan.fit(num_features)
                return plan
            self.misses += 1
        # Build outside the lock — allocation is the slow part.
        plan = SolverPlan(num_features, state_dim)
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
        return plan

    def stats(self) -> dict:
        """Counters for benchmarks and observability exports."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "plans": len(self._plans),
            }

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


_default_cache: SolverPlanCache | None = None
_default_cache_lock = threading.Lock()


def default_plan_cache() -> SolverPlanCache:
    """The process-wide plan cache every solve path shares by default."""
    global _default_cache
    with _default_cache_lock:
        if _default_cache is None:
            _default_cache = SolverPlanCache()
        return _default_cache


def reset_default_plan_cache() -> SolverPlanCache:
    """Swap in a fresh default cache (tests, benchmark isolation)."""
    global _default_cache
    with _default_cache_lock:
        _default_cache = SolverPlanCache()
        return _default_cache
