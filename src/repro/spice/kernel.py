"""The solver kernel: backend selection, pattern-reuse assembly, profiling.

Every analysis (DC Newton, transient time stepping, AC sweeps) reduces to
solving ``A x = b`` where ``A`` shares one fixed sparsity pattern across
iterations — only device values change.  This module provides the three
pieces the analyses build on:

* **Backend selection** — dense ``numpy.linalg`` versus sparse
  ``scipy.sparse`` CSC + SuperLU (:func:`backend_for`), auto-selected by
  system size with an override via the ``REPRO_SOLVER`` environment
  variable, the ``--solver`` CLI flag, or a per-call argument.
* **:class:`SystemTemplate`** — an MNA system compiled once per
  (circuit, analysis) into COO index triplets.  The static (topology)
  part is accumulated a single time; each Newton iteration or time step
  only writes device values into a preallocated array.  The sparse
  backend additionally reuses the symbolic CSC pattern (index/indptr
  arrays and the triplet→slot scatter map) across every solve, and both
  backends can return a reusable :class:`Factorization` for systems
  whose matrix is iteration-invariant (linear networks at fixed ``dt``).
* **:class:`SolverStats`** — lightweight per-analysis profiling counters
  (stamp/factor/solve/device-eval time, Newton iterations, transient
  steps versus the fixed-step baseline), collected through a context
  variable so the evaluation runtime can attribute kernel time to the
  evaluation that spent it without threading a parameter through every
  call (see :func:`collect`).

The singular-matrix recovery — Tikhonov-regularized normal equations —
lives here in exactly one place (:func:`tikhonov_rescue`) and is shared
by the dense and sparse backends, preserving the ``"tikhonov"`` recovery
tag the failure log reports.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError, SingularMatrixError

# scipy is imported where the sparse backend and ``factor`` use it: the
# dense DC/AC/transient path never needs it, and loading it costs about
# a third of a second and 25 MiB per process.
if TYPE_CHECKING:
    import scipy.sparse

#: Solver choices.
DENSE = "dense"
SPARSE = "sparse"
AUTO = "auto"

_SOLVER_CHOICES = (AUTO, DENSE, SPARSE)

#: Environment variable overriding the solver backend for a whole run.
SOLVER_ENV = "REPRO_SOLVER"

#: Below this system size the dense backend wins: BLAS on a small dense
#: matrix beats SuperLU's per-factorization setup overhead.  Measured on
#: the library testbenches (tens of unknowns) versus the assembled
#: benchmark circuits (hundreds); see ``docs/performance.md``.
SPARSE_MIN_SIZE = 128

#: Relative Tikhonov regularization strength for singular-system recovery.
TIKHONOV_LAMBDA = 1.0e-10

#: Recovery-path tag for solves that needed the regularized fallback.
RECOVERY_TIKHONOV = "tikhonov"

#: Process-wide solver default set by the CLI's ``--solver`` flag (takes
#: precedence over the environment; per-call arguments beat both).
_configured_solver: str | None = None


def set_default_solver(solver: str | None) -> None:
    """Set the process-wide solver choice (``None`` restores auto)."""
    global _configured_solver
    if solver is not None and solver not in _SOLVER_CHOICES:
        raise SimulationError(
            f"unknown solver {solver!r}; choose from {', '.join(_SOLVER_CHOICES)}"
        )
    _configured_solver = solver


def resolve_solver(override: str | None = None) -> str:
    """The effective solver choice: argument > CLI default > env > auto."""
    for candidate, what in (
        (override, "solver argument"),
        (_configured_solver, "--solver"),
        (os.environ.get(SOLVER_ENV) or None, SOLVER_ENV),
    ):
        if candidate is not None:
            if candidate not in _SOLVER_CHOICES:
                raise SimulationError(
                    f"invalid {what} {candidate!r}; choose from "
                    f"{', '.join(_SOLVER_CHOICES)}"
                )
            return candidate
    return AUTO


def backend_for(size: int, solver: str | None = None) -> str:
    """Concrete backend (dense/sparse) for a system of ``size`` unknowns."""
    choice = resolve_solver(solver)
    if choice == AUTO:
        return SPARSE if size >= SPARSE_MIN_SIZE else DENSE
    return choice


# -- profiling ---------------------------------------------------------------


@dataclass
class SolverStats:
    """Per-analysis solver counters.

    Times are wall-clock seconds accumulated inside the kernel hot
    paths; counts are exact.  All fields add across evaluations, so one
    object can aggregate a whole optimization run.

    Attributes:
        stamp_s: Time assembling matrix values (COO accumulation, data
            scatter, dense stamping).
        factor_s: Time in LU factorizations (SuperLU ``splu`` / dense
            ``lu_factor``).  The dense one-shot path fuses factor+solve
            inside ``numpy.linalg.solve`` and reports under ``solve_s``.
        solve_s: Time in triangular solves / fused dense solves.
        device_eval_s: Time evaluating the MOSFET model.
        newton_iterations: Newton iterations across all solves.
        solves: Linear-system solves.
        factorizations: Explicit LU factorizations (pattern-reuse and
            reused-LU paths).
        lu_reuses: Solves answered by a previously computed
            factorization (the step-invariant linear part).
        tran_steps: Accepted transient steps.
        tran_rejected: Transient steps rejected by the LTE controller or
            a Newton failure under either stepper (each retried at half
            the step).
        tran_fixed_steps: Steps the fixed-step baseline would have taken
            for the same analyses (``round(t_stop / dt)`` summed).
        analyses: Analysis invocation counts keyed ``"dc"``/``"ac"``/
            ``"tran"``.
        backends: Solve counts keyed by backend (``"dense"``/``"sparse"``).
    """

    stamp_s: float = 0.0
    factor_s: float = 0.0
    solve_s: float = 0.0
    device_eval_s: float = 0.0
    newton_iterations: int = 0
    solves: int = 0
    factorizations: int = 0
    lu_reuses: int = 0
    tran_steps: int = 0
    tran_rejected: int = 0
    tran_fixed_steps: int = 0
    analyses: dict[str, int] = field(default_factory=dict)
    backends: dict[str, int] = field(default_factory=dict)

    def count_analysis(self, kind: str) -> None:
        self.analyses[kind] = self.analyses.get(kind, 0) + 1

    def count_backend(self, backend: str) -> None:
        self.backends[backend] = self.backends.get(backend, 0) + 1

    def merge(self, other: "SolverStats") -> None:
        """Add another stats object into this one."""
        self.stamp_s += other.stamp_s
        self.factor_s += other.factor_s
        self.solve_s += other.solve_s
        self.device_eval_s += other.device_eval_s
        self.newton_iterations += other.newton_iterations
        self.solves += other.solves
        self.factorizations += other.factorizations
        self.lu_reuses += other.lu_reuses
        self.tran_steps += other.tran_steps
        self.tran_rejected += other.tran_rejected
        self.tran_fixed_steps += other.tran_fixed_steps
        for key, count in other.analyses.items():
            self.analyses[key] = self.analyses.get(key, 0) + count
        for key, count in other.backends.items():
            self.backends[key] = self.backends.get(key, 0) + count

    def as_dict(self) -> dict:
        """JSON-serializable snapshot (times rounded to microseconds)."""
        return {
            "stamp_s": round(self.stamp_s, 6),
            "factor_s": round(self.factor_s, 6),
            "solve_s": round(self.solve_s, 6),
            "device_eval_s": round(self.device_eval_s, 6),
            "newton_iterations": self.newton_iterations,
            "solves": self.solves,
            "factorizations": self.factorizations,
            "lu_reuses": self.lu_reuses,
            "tran_steps": self.tran_steps,
            "tran_rejected": self.tran_rejected,
            "tran_fixed_steps": self.tran_fixed_steps,
            "analyses": dict(sorted(self.analyses.items())),
            "backends": dict(sorted(self.backends.items())),
        }

    def __bool__(self) -> bool:
        return bool(self.solves or self.analyses)

    @classmethod
    def from_dict(cls, data: dict) -> "SolverStats":
        """Rebuild a stats object from an :meth:`as_dict` snapshot
        (unknown keys are ignored so old snapshots stay loadable)."""
        stats = cls()
        for name in (
            "stamp_s",
            "factor_s",
            "solve_s",
            "device_eval_s",
            "newton_iterations",
            "solves",
            "factorizations",
            "lu_reuses",
            "tran_steps",
            "tran_rejected",
            "tran_fixed_steps",
        ):
            if name in data:
                setattr(stats, name, data[name])
        stats.analyses = dict(data.get("analyses", {}))
        stats.backends = dict(data.get("backends", {}))
        return stats


_active_stats: ContextVar[SolverStats | None] = ContextVar(
    "repro_solver_stats", default=None
)


def active() -> SolverStats | None:
    """The stats collector of the enclosing :func:`collect` block, if any."""
    return _active_stats.get()


@contextmanager
def collect(stats: SolverStats):
    """Accumulate kernel counters into ``stats`` for the enclosed block."""
    token = _active_stats.set(stats)
    try:
        yield stats
    finally:
        _active_stats.reset(token)


_clock = time.perf_counter


# -- shared singular-system recovery ----------------------------------------


def tikhonov_rescue(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a singular/ill-conditioned system by regularized least squares.

    The one recovery path shared by the dense and sparse backends:
    ``(AᴴA + λI) x = Aᴴ b`` with λ scaled to the matrix magnitude picks
    the minimum-norm least-squares solution.  ``a`` must be dense — the
    sparse backend densifies before rescue, which is fine because the
    rescue is rare and the systems are at most a few hundred unknowns.

    Raises:
        SingularMatrixError: When even the regularized solve yields a
            non-finite solution.
    """
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    lam = TIKHONOV_LAMBDA * (scale if scale > 0.0 else 1.0)
    ah = a.conj().T
    try:
        x = np.linalg.solve(
            ah @ a + lam * np.eye(a.shape[0], dtype=a.dtype), ah @ rhs
        )
    except np.linalg.LinAlgError:
        x = None
    if x is None or not np.all(np.isfinite(x)):
        raise SingularMatrixError(
            "MNA system is singular even after Tikhonov regularization"
        )
    return x


def solve_dense(a: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, str | None]:
    """One dense solve with the shared Tikhonov fallback.

    Returns ``(x, None)`` for a clean direct solve, ``(x, "tikhonov")``
    when the regularized fallback was needed.
    """
    stats = active()
    if stats is not None:
        t0 = _clock()
    try:
        x = np.linalg.solve(a, rhs)
        if np.all(np.isfinite(x)):
            if stats is not None:
                stats.solve_s += _clock() - t0
                stats.solves += 1
                stats.count_backend(DENSE)
            return x, None
    except np.linalg.LinAlgError:
        pass
    x = tikhonov_rescue(a, rhs)
    if stats is not None:
        stats.solve_s += _clock() - t0
        stats.solves += 1
        stats.count_backend(DENSE)
    return x, RECOVERY_TIKHONOV


# -- factorizations ---------------------------------------------------------


class Factorization:
    """A reusable LU factorization of one assembled MNA matrix.

    Obtained from :meth:`SystemTemplate.factor`; ``solve`` may be called
    any number of times with different right-hand sides — the
    step-invariant-LU reuse path of linear transient networks.
    """

    def __init__(self, solve_fn, backend: str):
        self._solve = solve_fn
        self.backend = backend

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Back-substitute one right-hand side (no fallback: callers keep
        the template around for the rescue path)."""
        stats = active()
        if stats is not None:
            t0 = _clock()
        x = self._solve(rhs)
        if stats is not None:
            stats.solve_s += _clock() - t0
            stats.solves += 1
            stats.lu_reuses += 1
            stats.count_backend(self.backend)
        if not np.all(np.isfinite(x)):
            raise SingularMatrixError("factorized solve produced non-finite values")
        return x


# -- the assembly template ---------------------------------------------------


class SystemTemplate:
    """An MNA system compiled to COO triplets with a fixed pattern.

    Args:
        size: Number of unknowns (the ghost ground index is ``size``;
            triplets touching it are accepted and discarded).
        static: ``(rows, cols, values)`` of the constant part, stamped
            once at construction.
        dyn_rows / dyn_cols: Index arrays of the *dynamic* slots; every
            :meth:`solve` call supplies a matching values array.
        dtype: ``float`` or ``complex``.
        backend: ``"dense"`` or ``"sparse"``.

    The sparse backend converts the union pattern to CSC **once**
    (symbolic reuse): per solve it copies the prefilled static data
    vector, scatters the dynamic values through a precomputed slot map,
    wraps the arrays in a ``csc_matrix`` without re-sorting, and calls
    SuperLU.  The dense backend keeps a prefilled base matrix and
    scatters dynamic values with ``np.add.at``.
    """

    def __init__(
        self,
        size: int,
        static: tuple[np.ndarray, np.ndarray, np.ndarray],
        dyn_rows: np.ndarray,
        dyn_cols: np.ndarray,
        dtype=float,
        backend: str = DENSE,
    ):
        if backend not in (DENSE, SPARSE):
            raise SimulationError(f"unknown backend {backend!r}")
        self.size = size
        self.ghost = size
        self.dtype = dtype
        self.backend = backend
        s_rows, s_cols, s_vals = static
        s_rows = np.asarray(s_rows, dtype=np.intp)
        s_cols = np.asarray(s_cols, dtype=np.intp)
        s_vals = np.asarray(s_vals, dtype=dtype)
        self._dyn_rows = np.asarray(dyn_rows, dtype=np.intp)
        self._dyn_cols = np.asarray(dyn_cols, dtype=np.intp)

        if backend == DENSE:
            base = np.zeros((size + 1, size + 1), dtype=dtype)
            if len(s_vals):
                np.add.at(base, (s_rows, s_cols), s_vals)
            self._base = base
        else:
            self._build_sparse(s_rows, s_cols, s_vals)

    # -- sparse symbolic setup ------------------------------------------

    def _build_sparse(self, s_rows, s_cols, s_vals) -> None:
        n = self.size
        rows = np.concatenate([s_rows, self._dyn_rows])
        cols = np.concatenate([s_cols, self._dyn_cols])
        # Linearize in CSC order (column-major); ghost entries map to a
        # sentinel that sorts last and lands in a trash slot.
        keep = (rows < n) & (cols < n)
        lin = np.where(keep, cols * n + rows, n * n)
        uniq, slots = np.unique(lin, return_inverse=True)
        has_trash = bool(len(uniq)) and uniq[-1] == n * n
        nnz = len(uniq) - (1 if has_trash else 0)
        entries = uniq[:nnz]
        self._nnz = nnz
        self._indices = (entries % n).astype(np.int32)
        self._indptr = np.searchsorted(entries // n, np.arange(n + 1)).astype(
            np.int32
        )
        # Data vector has one extra trash slot so ghost-touching stamps
        # vectorize without branches.
        n_static = len(s_vals)
        self._dyn_slots = slots[n_static:]
        static_data = np.zeros(nnz + 1, dtype=self.dtype)
        if n_static:
            np.add.at(static_data, slots[:n_static], s_vals)
        self._static_data = static_data

    # -- assembly -------------------------------------------------------

    def dyn_data(self, dyn_vals: np.ndarray) -> np.ndarray:
        """Sparse only: the dynamic values accumulated into a data
        vector (same layout as :attr:`static_data`), without the static
        part.  Used by the AC sweep to precompute the frequency-scaled
        susceptance data once."""
        assert self.backend == SPARSE
        data = np.zeros(self._nnz + 1, dtype=self.dtype)
        if len(self._dyn_slots):
            np.add.at(data, self._dyn_slots, np.asarray(dyn_vals, dtype=self.dtype))
        return data

    @property
    def static_data(self) -> np.ndarray:
        """Sparse only: the prefilled static data vector."""
        assert self.backend == SPARSE
        return self._static_data

    def _csc(self, data: np.ndarray) -> scipy.sparse.csc_matrix:
        import scipy.sparse

        n = self.size
        mat = scipy.sparse.csc_matrix(
            (data[: self._nnz], self._indices, self._indptr), shape=(n, n)
        )
        return mat

    def _dense_matrix(self, dyn_vals: np.ndarray) -> np.ndarray:
        a = self._base.copy()
        if len(self._dyn_rows):
            np.add.at(a, (self._dyn_rows, self._dyn_cols), dyn_vals)
        return a[: self.size, : self.size]

    def dense_matrix(self, dyn_vals: np.ndarray) -> np.ndarray:
        """The fully assembled dense core matrix (rescue/debug path)."""
        if self.backend == DENSE:
            return self._dense_matrix(np.asarray(dyn_vals, dtype=self.dtype))
        data = self._static_data.copy()
        if len(self._dyn_slots):
            np.add.at(data, self._dyn_slots, np.asarray(dyn_vals, dtype=self.dtype))
        return self._csc(data).toarray()

    # -- solving --------------------------------------------------------

    def solve(
        self, dyn_vals: np.ndarray, rhs: np.ndarray
    ) -> tuple[np.ndarray, str | None]:
        """Assemble with ``dyn_vals`` and solve against ``rhs``.

        Returns ``(x, recovery)`` where ``recovery`` is ``None`` for a
        clean solve or ``"tikhonov"`` when the shared singular-system
        fallback was needed.  Raises :class:`SingularMatrixError` only
        when even the rescue fails.
        """
        dyn_vals = np.asarray(dyn_vals, dtype=self.dtype)
        rhs = np.asarray(rhs[: self.size], dtype=self.dtype)
        stats = active()

        if self.backend == DENSE:
            if stats is not None:
                t0 = _clock()
            a = self._dense_matrix(dyn_vals)
            if stats is not None:
                stats.stamp_s += _clock() - t0
            return solve_dense(a, rhs)

        if stats is not None:
            t0 = _clock()
        data = self._static_data.copy()
        if len(self._dyn_slots):
            np.add.at(data, self._dyn_slots, dyn_vals)
        if stats is not None:
            stats.stamp_s += _clock() - t0
        return self.solve_data(data, rhs)

    def solve_data(
        self, data: np.ndarray, rhs: np.ndarray
    ) -> tuple[np.ndarray, str | None]:
        """Sparse only: solve from an explicit (prefabricated) data vector."""
        assert self.backend == SPARSE
        import scipy.sparse.linalg

        rhs = np.asarray(rhs[: self.size], dtype=self.dtype)
        stats = active()
        try:
            if stats is not None:
                t0 = _clock()
            lu = scipy.sparse.linalg.splu(self._csc(data))
            if stats is not None:
                t1 = _clock()
                stats.factor_s += t1 - t0
                stats.factorizations += 1
            x = lu.solve(rhs)
            if stats is not None:
                stats.solve_s += _clock() - t1
                stats.solves += 1
                stats.count_backend(SPARSE)
            if np.all(np.isfinite(x)):
                return x, None
        except RuntimeError:
            # SuperLU reports exact singularity as RuntimeError.
            pass
        x = tikhonov_rescue(self._csc(data).toarray(), rhs)
        if stats is not None:
            stats.solves += 1
            stats.count_backend(SPARSE)
        return x, RECOVERY_TIKHONOV

    def factor(self, dyn_vals: np.ndarray) -> Factorization:
        """Factor once for reuse across right-hand sides.

        Raises:
            SingularMatrixError: When the matrix cannot be factorized;
                callers fall back to :meth:`solve` (which carries the
                Tikhonov rescue).
        """
        import scipy.linalg
        import scipy.sparse.linalg

        dyn_vals = np.asarray(dyn_vals, dtype=self.dtype)
        stats = active()
        if stats is not None:
            t0 = _clock()
        if self.backend == DENSE:
            a = self._dense_matrix(dyn_vals)
            try:
                lu, piv = scipy.linalg.lu_factor(a)
            except (ValueError, np.linalg.LinAlgError) as exc:
                raise SingularMatrixError(f"dense LU failed: {exc}") from exc
            if not np.all(np.isfinite(lu)):
                raise SingularMatrixError("dense LU produced non-finite factors")
            if stats is not None:
                stats.factor_s += _clock() - t0
                stats.factorizations += 1
            return Factorization(
                lambda rhs: scipy.linalg.lu_solve(
                    (lu, piv), np.asarray(rhs[: self.size], dtype=self.dtype)
                ),
                DENSE,
            )
        data = self._static_data.copy()
        if len(self._dyn_slots):
            np.add.at(data, self._dyn_slots, dyn_vals)
        try:
            lu = scipy.sparse.linalg.splu(self._csc(data))
        except RuntimeError as exc:
            raise SingularMatrixError(f"sparse LU failed: {exc}") from exc
        if stats is not None:
            stats.factor_s += _clock() - t0
            stats.factorizations += 1
        return Factorization(
            lambda rhs: lu.solve(np.asarray(rhs[: self.size], dtype=self.dtype)),
            SPARSE,
        )


def coo_matvec(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    x: np.ndarray,
    size: int,
) -> np.ndarray:
    """``y = A @ x`` from COO triplets, without materializing ``A``.

    ``x`` has ``size`` entries; triplets may reference the ghost ground
    index ``size`` (reads 0, writes discarded).  Used for the transient
    history term ``C (2/dt x_prev + xdot_prev)``.
    """
    y = np.zeros(size + 1, dtype=np.result_type(vals, x))
    if len(vals):
        xg = np.append(x, 0.0)
        np.add.at(y, rows, vals * xg[cols])
    return y[:size]
