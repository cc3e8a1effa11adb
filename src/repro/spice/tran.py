"""Transient analysis.

Time integration is trapezoidal for capacitors (needed for low numerical
damping in oscillators) with a backward-Euler first step, and backward
Euler for inductor branches.  Each step runs damped Newton on the DC
nonlinearities with capacitor companion models; device capacitances are
re-evaluated at the previously converged point (quasi-static), which keeps
the Newton Jacobian simple while tracking bias-dependent capacitance.

Two steppers share the integrator:

* **adaptive** (the default) — an LTE-controlled variable step.  The
  local truncation error of each trapezoidal step is estimated from the
  derivative change (the trapezoidal/backward-Euler difference,
  ``0.5·h·|ẋ_new − ẋ_prev|``); steps whose error exceeds the tolerance
  are rejected and halved, and after a streak of comfortably accepted
  steps the step doubles, up to ``dt_max``.  A step that fails Newton is
  halved like a rejected one.  The solution is then resampled onto the
  requested output grid (multiples of ``dt``) so downstream waveform
  measurements are unchanged.
* **fixed** — one trapezoidal step per output point, recursively halving
  a failing step, as production fixed-step mode (selected with
  ``stepper="fixed"`` or ``REPRO_STEPPER=fixed``).

All stepping is deterministic: step-size decisions depend only on the
circuit and tolerances, never on wall-clock or randomness.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.errors import ConvergenceError, NetlistError, SingularMatrixError
from repro.runtime import faults
from repro.spice import kernel
from repro.spice.dc import (
    RELTOL,
    VNTOL,
    VOLTAGE_LIMIT,
    OperatingPoint,
    dc_operating_point,
)
from repro.spice.mna import CompiledCircuit

#: Maximum Newton iterations per time step.
MAX_STEP_ITERATIONS = 60

#: Maximum number of times a failing step may be halved.
MAX_STEP_HALVINGS = 10

#: Stepper choices.
ADAPTIVE = "adaptive"
FIXED = "fixed"

_STEPPER_CHOICES = (ADAPTIVE, FIXED)

#: Environment variable overriding the transient stepper for a whole run.
STEPPER_ENV = "REPRO_STEPPER"

#: Default relative local-truncation-error tolerance per node voltage.
#: Deliberately looser than the Newton tolerances: the default grids are
#: sized for waveform-level measures (crossings, periods, envelopes), so
#: the controller's job by default is to refine only where the grid is
#: qualitatively failing and to coarsen where it is overkill.  Tighten
#: per call via ``lte_rtol``/``lte_atol`` for pointwise accuracy.
DEFAULT_LTE_RTOL = 5.0e-2

#: Default absolute local-truncation-error tolerance (V).
DEFAULT_LTE_ATOL = 5.0e-2

#: Error ratio below which an accepted step counts toward growing.
GROW_THRESHOLD = 0.25

#: Consecutive comfortable accepts required before the step doubles.
GROW_STREAK = 2

#: Damped-trapezoid blend factor for the adaptive path's stored
#: derivative.  The trapezoidal derivative recursion has a parasitic
#: eigenvalue at exactly -1, so on rows pinned by a source (where the
#: solution moves but the constraint holds the node) the derivative
#: *rings* sign-alternating at constant amplitude after a breakpoint.
#: The LTE estimate then scales as h^1 instead of h^2 and the
#: controller equilibrates between the grow and reject thresholds —
#: stuck at a tiny step forever.  Blending this fraction of the
#: backward-Euler derivative moves the parasitic eigenvalue to
#: -(1 - XDOT_DAMPING) so ringing decays geometrically while the
#: smooth-solution accuracy stays effectively trapezoidal.  The fixed
#: stepper is untouched (bit-compatible with the original fixed-grid
#: results).
XDOT_DAMPING = 0.1


@dataclass
class TranResult:
    """Result of a transient run.

    Attributes:
        compiled: The compiled circuit.
        t: Time points (s), shape (nsteps,).
        solutions: Solution matrix, shape (nsteps, size).
    """

    compiled: CompiledCircuit
    t: np.ndarray
    solutions: np.ndarray

    def v(self, node: str) -> np.ndarray:
        """Node voltage waveform (zeros for ground)."""
        idx = self.compiled.index_of(node)
        if idx == self.compiled.ghost:
            return np.zeros(len(self.t))
        return self.solutions[:, idx]

    def i(self, branch_name: str) -> np.ndarray:
        """Branch current waveform (voltage source / VCVS / inductor)."""
        try:
            idx = self.compiled.branch_index[branch_name]
        except KeyError:
            raise NetlistError(f"{branch_name!r} is not a branch element") from None
        return self.solutions[:, idx]

    def vdiff(self, plus: str, minus: str) -> np.ndarray:
        """Differential voltage waveform."""
        return self.v(plus) - self.v(minus)


def resolve_stepper(override: str | None = None) -> str:
    """The effective stepper choice: argument > env > adaptive."""
    for candidate, what in (
        (override, "stepper argument"),
        (os.environ.get(STEPPER_ENV) or None, STEPPER_ENV),
    ):
        if candidate is not None:
            if candidate not in _STEPPER_CHOICES:
                raise NetlistError(
                    f"invalid {what} {candidate!r}; choose from "
                    f"{', '.join(_STEPPER_CHOICES)}"
                )
            return candidate
    return ADAPTIVE


def _tran_template(
    compiled: CompiledCircuit, backend: str
) -> "kernel.SystemTemplate":
    """The transient Newton system template (cached on the circuit).

    Static part: linear conductances and all branch topology rows.
    Dynamic slots, in order: MOSFET companion conductances (change per
    Newton iteration), element-capacitor companions, MOSFET-capacitance
    companions, and the inductor branch diagonal (all three change only
    with the step size / bias point of the step).
    """

    def build() -> "kernel.SystemTemplate":
        mos_rows, mos_cols = compiled.mos_conductance_pattern()
        cap_rows, cap_cols = compiled.capacitor_pattern()
        mc_rows, mc_cols = compiled.mos_capacitance_pattern()
        ind = compiled.inductor_branch_indices()
        return kernel.SystemTemplate(
            compiled.size,
            compiled.static_conductance_triplets(),
            np.concatenate([mos_rows, cap_rows, mc_rows, ind]),
            np.concatenate([mos_cols, cap_cols, mc_cols, ind]),
            dtype=float,
            backend=backend,
        )

    return compiled.kernel_template(("tran", backend), build)


class _Integrator:
    """Internal fixed-topology transient stepper."""

    def __init__(self, compiled: CompiledCircuit, backend: str):
        self.compiled = compiled
        self.size = compiled.size
        self.template = _tran_template(compiled, backend)
        self.has_mos = bool(compiled.mos_elements)
        self.cap_vals = compiled.capacitor_values()
        cap_rows, cap_cols = compiled.capacitor_pattern()
        mc_rows, mc_cols = compiled.mos_capacitance_pattern()
        # Combined capacitance pattern for the history mat-vec.
        self.c_rows = np.concatenate([cap_rows, mc_rows])
        self.c_cols = np.concatenate([cap_cols, mc_cols])
        self.ind_branches = compiled.inductor_branch_indices()
        self.ind_l = compiled.inductor_inductances()
        # For linear (MOSFET-free) circuits the matrix depends only on
        # the step size, so each distinct ``dt`` is factorized once and
        # the LU reused across every step and Newton iteration.
        self._lu_cache: dict[float, "kernel.Factorization"] = {}

    def step(
        self,
        x_prev: np.ndarray,
        xdot_prev: np.ndarray,
        t_new: float,
        dt: float,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Advance one trapezoidal step; returns (x, xdot) or None."""
        compiled = self.compiled
        size = self.size
        stats = kernel.active()

        ev_prev = compiled.eval_mosfets(x_prev)
        mos_cap_vals = compiled.mos_capacitance_values(ev_prev)
        c_vals = np.concatenate([self.cap_vals, mos_cap_vals])
        # Trapezoidal companion: (G + 2C/dt) x = rhs + C (2/dt x_prev + xdot_prev)
        hist = kernel.coo_matvec(
            self.c_rows,
            self.c_cols,
            c_vals,
            (2.0 / dt) * x_prev + xdot_prev,
            size,
        )
        # Per-step dynamic values: capacitor companions and the
        # backward-Euler inductor branch diagonal.
        step_vals = np.concatenate([(2.0 / dt) * c_vals, -self.ind_l / dt])

        rhs_src = compiled.source_rhs(t=t_new)
        if len(self.ind_branches):
            rhs_src[self.ind_branches] -= (self.ind_l / dt) * x_prev[
                self.ind_branches
            ]

        factorization: "kernel.Factorization" | None = None
        if not self.has_mos:
            factorization = self._lu_cache.get(dt)
            if factorization is None:
                try:
                    # No MOSFETs means no per-iteration dynamic values:
                    # the step values are the whole dynamic part.
                    factorization = self.template.factor(step_vals)
                except SingularMatrixError:
                    factorization = None  # fall through to the rescue path
                else:
                    self._lu_cache[dt] = factorization

        x = x_prev.copy()
        for _ in range(MAX_STEP_ITERATIONS):
            if stats is not None:
                stats.newton_iterations += 1
            rhs = rhs_src.copy()
            ev = compiled.eval_mosfets(x)
            if ev is not None:
                compiled.stamp_mos_rhs(rhs, ev, x)
            b_core = rhs[:size] + hist

            try:
                if factorization is not None:
                    x_new = factorization.solve(b_core)
                else:
                    x_new, _recovered = self.template.solve(
                        np.concatenate(
                            [compiled.mos_conductance_values(ev), step_vals]
                        ),
                        b_core,
                    )
            except SingularMatrixError:
                # Let the step-halving cascade shrink dt instead.
                return None

            delta = x_new - x
            dv = delta[: compiled.num_nodes]
            max_dv = float(np.max(np.abs(dv))) if len(dv) else 0.0
            if max_dv > VOLTAGE_LIMIT:
                x = x + delta * (VOLTAGE_LIMIT / max_dv)
                continue
            x = x_new
            if max_dv < VNTOL + RELTOL * np.max(
                np.abs(x[: compiled.num_nodes]), initial=0.0
            ):
                xdot = (2.0 / dt) * (x - x_prev) - xdot_prev
                return x, xdot
        return None

    def advance(
        self,
        x_prev: np.ndarray,
        xdot_prev: np.ndarray,
        t_prev: float,
        dt: float,
        depth: int = 0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance by ``dt``, recursively halving on Newton failure."""
        result = self.step(x_prev, xdot_prev, t_prev + dt, dt)
        if result is not None:
            return result
        if depth >= MAX_STEP_HALVINGS:
            raise ConvergenceError(
                f"transient step failed at t={t_prev:.4g}s even after "
                f"{MAX_STEP_HALVINGS} halvings",
                code="CONV-TRAN",
            )
        stats = kernel.active()
        if stats is not None:
            stats.tran_rejected += 1
        half = dt / 2.0
        x_mid, xdot_mid = self.advance(x_prev, xdot_prev, t_prev, half, depth + 1)
        return self.advance(x_mid, xdot_mid, t_prev + half, half, depth + 1)


def _lte_ratio(
    integrator: _Integrator,
    x_prev: np.ndarray,
    x_new: np.ndarray,
    xdot_prev: np.ndarray,
    xdot_new: np.ndarray,
    dt: float,
    rtol: float,
    atol: float,
) -> float:
    """Worst node-voltage LTE relative to its tolerance.

    The trapezoidal LTE is estimated from the derivative change across
    the step — half the distance between the trapezoidal and the
    backward-Euler solutions — per node against
    ``atol + rtol * max(|v_prev|, |v_new|)``.  Branch currents are
    excluded: their scale is unrelated to the voltage tolerances.
    """
    n = integrator.compiled.num_nodes
    if n == 0:
        return 0.0
    err = 0.5 * dt * np.abs(xdot_new[:n] - xdot_prev[:n])
    tol = atol + rtol * np.maximum(np.abs(x_prev[:n]), np.abs(x_new[:n]))
    return float(np.max(err / tol))


def _resample(
    times: np.ndarray, knot_t: np.ndarray, knot_x: np.ndarray
) -> np.ndarray:
    """Linear interpolation of the solution knots onto the output grid."""
    idx = np.searchsorted(knot_t, times, side="right") - 1
    idx = np.clip(idx, 0, len(knot_t) - 2)
    t0 = knot_t[idx]
    t1 = knot_t[idx + 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        w = (times - t0) / (t1 - t0)
    w = np.clip(np.nan_to_num(w), 0.0, 1.0)[:, None]
    return (1.0 - w) * knot_x[idx] + w * knot_x[idx + 1]


def _adaptive_march(
    integrator: _Integrator,
    x0: np.ndarray,
    t_end: float,
    dt: float,
    dt_max: float,
    rtol: float,
    atol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """March from 0 to ``t_end`` under LTE control; returns knots.

    Returns ``(knot_times, knot_solutions)`` with the first knot at
    ``t=0`` and the last at ``t_end``.
    """
    stats = kernel.active()
    dt_min = dt / (2.0**MAX_STEP_HALVINGS)
    knot_t = [0.0]
    knot_x = [x0]
    x = x0
    xdot = np.zeros_like(x0)
    t = 0.0
    h = dt
    streak = 0
    while t < t_end * (1.0 - 1e-12):
        h = min(h, dt_max, t_end - t)
        result = integrator.step(x, xdot, t + h, h)
        if result is None:
            # Newton failure: halve like the fixed stepper's cascade.
            if stats is not None:
                stats.tran_rejected += 1
            h /= 2.0
            streak = 0
            if h < dt_min:
                raise ConvergenceError(
                    f"adaptive transient step underflowed at t={t:.4g}s "
                    f"(step {h:.3g}s < floor {dt_min:.3g}s)",
                    code="CONV-TRAN",
                )
            continue
        x_new, xdot_new = result
        ratio = _lte_ratio(integrator, x, x_new, xdot, xdot_new, h, rtol, atol)
        if ratio > 1.0 and h >= 2.0 * dt_min:
            if stats is not None:
                stats.tran_rejected += 1
            h /= 2.0
            streak = 0
            continue
        if ratio > 1.0:
            # At the floor the estimate cannot shrink further — a true
            # source discontinuity keeps the derivative jump O(ΔV) at
            # any step size.  Accept backward-Euler style and reset the
            # derivative memory so the trapezoidal recursion does not
            # ring across the edge.
            xdot_new = (x_new - x) / h
        else:
            # Damp the parasitic -1 mode (see XDOT_DAMPING) after the
            # ratio is computed, so the controller still sees the true
            # trapezoidal error estimate.
            xdot_new = (1.0 - XDOT_DAMPING) * xdot_new + XDOT_DAMPING * (
                (x_new - x) / h
            )
        x, xdot = x_new, xdot_new
        t += h
        knot_t.append(t)
        knot_x.append(x)
        if stats is not None:
            stats.tran_steps += 1
        if ratio < GROW_THRESHOLD:
            streak += 1
            if streak >= GROW_STREAK:
                h = min(2.0 * h, dt_max)
                streak = 0
        else:
            streak = 0
    return np.array(knot_t), np.array(knot_x)


def transient(
    compiled: CompiledCircuit,
    t_stop: float,
    dt: float,
    op: OperatingPoint | None = None,
    ics: dict[str, float] | None = None,
    *,
    dt_max: float | None = None,
    stepper: str | None = None,
    lte_rtol: float | None = None,
    lte_atol: float | None = None,
    solver: str | None = None,
) -> TranResult:
    """Run a transient analysis from 0 to ``t_stop``.

    The default *adaptive* stepper treats ``dt`` as the output-grid
    spacing and the initial step: the step is halved whenever the local
    truncation error exceeds the tolerance (or Newton fails) and doubled
    after sustained comfortable accepts, up to ``dt_max``.  The solution
    is resampled onto the output grid ``0, dt, 2·dt, …``, so results
    have the same shape either way.  The *fixed* stepper takes exactly
    one trapezoidal step per grid point, halving only on Newton failure.

    Args:
        compiled: The compiled circuit.
        t_stop: End time (s).
        dt: Output-grid spacing and initial/default step (s); internally
            halved on demand by both steppers.
        op: Optional pre-computed operating point to start from.
        ics: Optional node voltages pinned during the initial DC solve
            (nodeset); used to break oscillator symmetry.
        dt_max: Adaptive-stepper step ceiling (s); defaults to ``dt``
            (refinement only).  Must be >= ``dt``.
        stepper: ``"adaptive"`` or ``"fixed"``; defaults to the
            ``REPRO_STEPPER`` environment variable, else adaptive.
        lte_rtol: Relative LTE tolerance per node voltage (adaptive
            only; default 1e-3).
        lte_atol: Absolute LTE tolerance in volts (adaptive only;
            default 1e-4).
        solver: Optional solver-backend override (``"dense"``/
            ``"sparse"``/``"auto"``).

    Returns:
        A :class:`TranResult` sampled at multiples of ``dt``.
    """
    if t_stop <= 0 or dt <= 0 or dt > t_stop:
        raise NetlistError("need 0 < dt <= t_stop")
    stepper = resolve_stepper(stepper)
    if dt_max is None:
        dt_max = dt
    elif not (dt_max >= dt):
        raise NetlistError(
            f"dt_max ({dt_max!r}) must be >= dt ({dt!r}); it is the adaptive "
            "step ceiling, dt the output-grid spacing"
        )
    if lte_rtol is None:
        lte_rtol = DEFAULT_LTE_RTOL
    elif not (lte_rtol > 0.0):
        raise NetlistError(f"lte_rtol must be > 0, got {lte_rtol!r}")
    if lte_atol is None:
        lte_atol = DEFAULT_LTE_ATOL
    elif not (lte_atol > 0.0):
        raise NetlistError(f"lte_atol must be > 0, got {lte_atol!r}")

    injector = faults.active()
    if injector is not None:
        injector.check_tran(compiled.circuit.name)

    stats = kernel.active()
    if stats is not None:
        stats.count_analysis("tran")

    if op is None:
        op = dc_operating_point(compiled, force=ics, solver=solver)
    x = op.x.copy()

    steps = int(round(t_stop / dt))
    times = np.arange(steps + 1) * dt
    backend = kernel.backend_for(compiled.size, solver)
    integrator = _Integrator(compiled, backend)
    if stats is not None:
        stats.tran_fixed_steps += steps

    # Backward-Euler first step to avoid trapezoidal ringing from the
    # (possibly inconsistent) initial condition: achieved by taking the
    # first trapezoidal step with xdot = 0, which reduces to BE flavour.
    if stepper == ADAPTIVE:
        knot_t, knot_x = _adaptive_march(
            integrator, x, float(times[-1]), dt, dt_max, lte_rtol, lte_atol
        )
        solutions = _resample(times, knot_t, knot_x)
        solutions[0] = x
    else:
        xdot = np.zeros_like(x)
        solutions = np.zeros((steps + 1, compiled.size))
        solutions[0] = x
        for k in range(1, steps + 1):
            x, xdot = integrator.advance(x, xdot, times[k - 1], dt)
            solutions[k] = x
            if stats is not None:
                stats.tran_steps += 1

    return TranResult(compiled=compiled, t=times, solutions=solutions)
