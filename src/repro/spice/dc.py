"""DC operating-point analysis and DC sweeps.

The solver is damped Newton-Raphson on the MNA system with two standard
homotopies layered on top:

1. **gmin stepping** — a shunt conductance from every node to ground is
   swept from large to negligible, each solve warm-starting the next;
2. **source stepping** — if gmin stepping fails, all independent sources
   are ramped from 10% to 100%.

``force`` lets callers pin chosen nodes near given voltages through a
large conductance during the solve — the *nodeset* mechanism used to break
the symmetry of oscillators before transient analysis.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.devices.mosfet import MosEval
from repro.errors import ConvergenceError, NetlistError, SingularMatrixError
from repro.runtime import context as eval_context
from repro.runtime import faults
from repro.spice import kernel
from repro.spice.mna import CompiledCircuit

#: Maximum node-voltage update per Newton iteration (V).
VOLTAGE_LIMIT = 0.3

#: Convergence tolerance on node voltages (V).
VNTOL = 1.0e-9

#: Relative convergence tolerance.
RELTOL = 1.0e-6

#: Conductance used to pin nodes listed in ``force`` (S).
FORCE_CONDUCTANCE = 1.0e3

#: Residual gmin left on every node for numerical robustness (S).
GMIN_FLOOR = 1.0e-12


@dataclass
class OperatingPoint:
    """Converged DC solution.

    Attributes:
        compiled: The compiled circuit the solution belongs to.
        x: Solution vector (node voltages then branch currents).
        mos_eval: Vectorized MOSFET evaluation at the solution (or None).
        recovery: Recovery paths the solve needed, in order — empty for
            a plain Newton solve, otherwise tags such as
            ``"gmin-stepping"``, ``"source-stepping"`` and
            ``"tikhonov"`` (singular-matrix fallback).
    """

    compiled: CompiledCircuit
    x: np.ndarray
    mos_eval: MosEval | None
    recovery: tuple[str, ...] = field(default=())

    def v(self, node: str) -> float:
        """Voltage of ``node`` (0.0 for ground)."""
        idx = self.compiled.index_of(node)
        if idx == self.compiled.ghost:
            return 0.0
        return float(self.x[idx])

    def i(self, branch_name: str) -> float:
        """Branch current of a voltage source, VCVS or inductor.

        For a voltage source the current flows from its positive terminal
        through the source to its negative terminal (SPICE convention).
        """
        try:
            return float(self.x[self.compiled.branch_index[branch_name]])
        except KeyError:
            raise NetlistError(
                f"{branch_name!r} is not a branch element (vsource/vcvs/inductor)"
            ) from None

    def mos(self, name: str) -> dict[str, float]:
        """Per-device operating point (id, gm, gds, capacitances)."""
        if self.mos_eval is None:
            raise NetlistError("circuit has no MOSFETs")
        return self.compiled.mos_eval_by_name(self.mos_eval, name)

    def net_currents(self) -> dict[str, float]:
        """Worst-case DC current each net must carry (A), per net.

        Folds every MOSFET's drain current onto its drain and source
        nets (``id > 0`` flows drain -> source inside the device, so it
        leaves the net at the drain and enters it at the source) and
        returns ``max(total inflow, total outflow)`` per net — the
        static bound on the current the net's metal mesh must carry,
        however the flow actually closes (through a port, a supply or
        another device).  Gates and bulks carry no DC current.

        This is the branch-current source the static EM/IR audit
        (:mod:`repro.verify.emag`) consumes when an operating point is
        available; nets are sorted so the result is deterministic.
        """
        if self.mos_eval is None:
            return {}
        inflow: dict[str, float] = {}
        outflow: dict[str, float] = {}
        for elem in self.compiled.mos_elements:
            drain_amps = self.mos(elem.name)["id"]
            for net, flow in ((elem.d, -drain_amps), (elem.s, drain_amps)):
                if flow >= 0.0:
                    inflow[net] = inflow.get(net, 0.0) + flow
                else:
                    outflow[net] = outflow.get(net, 0.0) - flow
        return {
            net: max(inflow.get(net, 0.0), outflow.get(net, 0.0))
            for net in sorted(set(inflow) | set(outflow))
        }


def _dc_template(
    compiled: CompiledCircuit, backend: str
) -> "kernel.SystemTemplate":
    """The DC Newton system template (cached on the compiled circuit).

    Static part: linear conductances plus all branch topology rows
    (inductors are DC shorts, so their topology rows are the whole
    stamp).  Dynamic slots: the node diagonal (gmin stepping and
    ``force`` pins) followed by the MOSFET companion conductances.
    """

    def build() -> "kernel.SystemTemplate":
        diag = compiled.node_diag_indices()
        mos_rows, mos_cols = compiled.mos_conductance_pattern()
        return kernel.SystemTemplate(
            compiled.size,
            compiled.static_conductance_triplets(),
            np.concatenate([diag, mos_rows]),
            np.concatenate([diag, mos_cols]),
            dtype=float,
            backend=backend,
        )

    return compiled.kernel_template(("dc", backend), build)


def _effective_max_iterations(
    compiled: CompiledCircuit, explicit: int | None
) -> int:
    """The Newton iteration budget for one solve.

    Priority: an explicit ``max_iterations`` argument, then the
    :class:`~repro.runtime.policy.RetryPolicy` budget threaded through
    the evaluation context, then the size heuristic.  A policy budget is
    honored *exactly* — including 0 and values below the heuristic's
    floor of 120 — so deadline-driven runs that shrink the budget
    actually fail fast instead of being silently clamped back up
    (see docs/robustness.md).
    """
    if explicit is not None:
        return explicit
    ctx = eval_context.current()
    if ctx is not None and ctx.newton_max_iterations is not None:
        return max(0, int(ctx.newton_max_iterations))
    # Large circuits under heavy damping need more iterations: the
    # voltage limiter advances at most VOLTAGE_LIMIT per step.
    return max(120, 2 * compiled.num_nodes)


def _newton_solve(
    compiled: CompiledCircuit,
    template: "kernel.SystemTemplate",
    x0: np.ndarray,
    gmin: float,
    source_scale: float,
    force: dict[str, float] | None,
    max_iterations: int | None = None,
    recovery: set[str] | None = None,
    rhs_src: np.ndarray | None = None,
) -> np.ndarray | None:
    """One damped Newton solve; returns the solution or None.

    ``recovery`` (when given) collects the tags of any singular-matrix
    fallbacks used along the way.  ``rhs_src`` overrides the circuit's
    own DC source vector (see :func:`dc_operating_point`); it is scaled
    by ``source_scale`` like the sources it stands for.
    """
    max_iterations = _effective_max_iterations(compiled, max_iterations)
    x = x0.copy()
    if rhs_src is None:
        rhs_src = compiled.source_rhs(t=None, scale=source_scale)
    else:
        rhs_src = rhs_src * source_scale
    stats = kernel.active()

    diag_vals = np.full(compiled.num_nodes, gmin + GMIN_FLOOR)
    if force:
        for node, value in force.items():
            idx = compiled.index_of(node)
            if idx != compiled.ghost:
                diag_vals[idx] += FORCE_CONDUCTANCE
                # Scale the pinned target with the sources so source
                # stepping ramps a consistent bias.
                rhs_src[idx] += FORCE_CONDUCTANCE * value * source_scale

    limit = VOLTAGE_LIMIT
    prev_dv: np.ndarray | None = None
    for _ in range(max_iterations):
        if stats is not None:
            stats.newton_iterations += 1
        rhs = rhs_src.copy()
        ev = compiled.eval_mosfets(x)
        if ev is not None:
            compiled.stamp_mos_rhs(rhs, ev, x)

        try:
            x_new, recovered = template.solve(
                np.concatenate([diag_vals, compiled.mos_conductance_values(ev)]),
                rhs,
            )
        except SingularMatrixError:
            # Truly unsolvable step: bail out so the gmin/source-stepping
            # homotopies (which regularize the physics, not the algebra)
            # get their chance.
            return None
        if recovered is not None and recovery is not None:
            recovery.add(recovered)

        delta = x_new - x
        dv = delta[: compiled.num_nodes]
        max_dv = np.max(np.abs(dv)) if len(dv) else 0.0

        # Oscillation-aware damping: when the update direction flips
        # (Newton cycling between basins, e.g. a near-metastable latch),
        # shrink the step limit so the iteration settles into one basin.
        if prev_dv is not None and len(dv) and float(np.dot(dv, prev_dv)) < 0.0:
            limit = max(0.01, limit * 0.6)
        else:
            limit = min(VOLTAGE_LIMIT, limit * 1.3)
        prev_dv = dv.copy()

        if max_dv > limit:
            delta = delta * (limit / max_dv)
            x = x + delta
            continue
        x = x_new
        if max_dv < VNTOL + RELTOL * np.max(np.abs(x[: compiled.num_nodes]), initial=0.0):
            return x
    return None


def dc_operating_point(
    compiled: CompiledCircuit,
    x0: np.ndarray | None = None,
    force: dict[str, float] | None = None,
    solver: str | None = None,
    rhs_src: np.ndarray | None = None,
    warm: np.ndarray | None = None,
) -> OperatingPoint:
    """Compute the DC operating point.

    Args:
        compiled: The compiled circuit.
        x0: Optional initial guess for the whole solve, homotopies
            included.
        force: Optional nodeset, mapping node names to voltages that are
            softly pinned during the solve (used to bias oscillators off
            their metastable point).
        solver: Optional solver-backend override (``"dense"``/
            ``"sparse"``/``"auto"``); defaults to the process-wide
            choice (``--solver`` / ``REPRO_SOLVER`` / auto by size).
        rhs_src: Optional DC source vector (the
            ``compiled.source_rhs(t=None)`` layout) replacing the
            compiled circuit's own — the compile-once path of sweeps
            whose points differ only in independent-source values
            (:meth:`~repro.spice.mna.CompiledCircuit.source_rhs_like`).
            Source stepping scales it.
        warm: Optional warm-start guess, tried with plain Newton first.
            If that fails, the solve starts over exactly as without
            ``warm`` (from ``x0``, then the gmin and source-stepping
            ladder), and the failed attempt leaves no recovery tags.

    Raises:
        ConvergenceError: If Newton fails even after gmin and source
            stepping (failure code ``CONV-DC``).
        SingularMatrixError: Only via fault injection; organic singular
            steps are absorbed by the Tikhonov fallback or the
            homotopies.
    """
    injector = faults.active()
    if injector is not None:
        injector.check_dc(compiled.circuit.name)

    stats = kernel.active()
    if stats is not None:
        stats.count_analysis("dc")
    backend = kernel.backend_for(compiled.size, solver)
    template = _dc_template(compiled, backend)

    base = x0.copy() if x0 is not None else np.zeros(compiled.size)
    x = _perturb_retry_guess(base)

    if warm is not None:
        # A retry perturbation shifts the warm guess by the same amount.
        guess = warm if x is base else warm + (x - base)
        warm_recovery: set[str] = set()
        solution = _newton_solve(
            compiled, template, guess, gmin=0.0, source_scale=1.0,
            force=force, recovery=warm_recovery, rhs_src=rhs_src,
        )
        if solution is not None:
            return _finish(compiled, solution, warm_recovery)

    recovery: set[str] = set()
    # Plain Newton from x0 first: cheap and usually sufficient.
    solution = _newton_solve(
        compiled, template, x, gmin=0.0, source_scale=1.0, force=force,
        recovery=recovery, rhs_src=rhs_src,
    )
    if solution is not None:
        return _finish(compiled, solution, recovery)

    # gmin stepping.
    recovery.add("gmin-stepping")
    for exponent in range(3, 13):
        gmin = 10.0 ** (-exponent)
        solution = _newton_solve(
            compiled, template, x, gmin=gmin, source_scale=1.0, force=force,
            recovery=recovery, rhs_src=rhs_src,
        )
        if solution is None:
            break
        x = solution
    else:
        solution = _newton_solve(
            compiled, template, x, gmin=0.0, source_scale=1.0, force=force,
            recovery=recovery, rhs_src=rhs_src,
        )
        if solution is not None:
            return _finish(compiled, solution, recovery)

    # Source stepping fallback, with a supporting gmin that relaxes as
    # the sources ramp up.
    recovery.add("source-stepping")
    x = np.zeros(compiled.size)
    for scale in np.linspace(0.1, 1.0, 10):
        stepped = _newton_solve(
            compiled,
            template,
            x,
            gmin=1e-9 * (1.0 - scale) + 1e-12,
            source_scale=float(scale),
            force=force,
            recovery=recovery,
            rhs_src=rhs_src,
        )
        if stepped is None:
            raise ConvergenceError(
                f"DC operating point failed for circuit "
                f"{compiled.circuit.name!r} at source scale {scale:.2f}",
                code="CONV-DC",
            )
        x = stepped
    final = _newton_solve(
        compiled, template, x, gmin=0.0, source_scale=1.0, force=force,
        recovery=recovery, rhs_src=rhs_src,
    )
    if final is None:
        raise ConvergenceError(
            f"DC operating point failed for circuit "
            f"{compiled.circuit.name!r} after source stepping",
            code="CONV-DC",
        )
    return _finish(compiled, final, recovery)


#: Order in which recovery tags are reported on an OperatingPoint.
_RECOVERY_ORDER = ("gmin-stepping", "source-stepping", "tikhonov")


def _perturb_retry_guess(x: np.ndarray) -> np.ndarray:
    """Perturb the initial guess on retry attempts.

    The evaluation runtime sets a nonzero perturbation amplitude on
    retries; a deterministic per-(key, attempt) perturbation keeps a
    retried solve from replaying the exact failing trajectory while
    remaining reproducible.
    """
    ctx = eval_context.current()
    if ctx is None or ctx.perturbation <= 0.0 or not len(x):
        return x
    seed = zlib.crc32(f"{ctx.key}|{ctx.attempt}".encode())
    rng = np.random.default_rng(seed)
    return x + ctx.perturbation * rng.standard_normal(len(x))


def _finish(
    compiled: CompiledCircuit, x: np.ndarray, recovery: set[str] | None = None
) -> OperatingPoint:
    tags = tuple(
        tag for tag in _RECOVERY_ORDER if recovery and tag in recovery
    )
    return OperatingPoint(
        compiled=compiled,
        x=x,
        mos_eval=compiled.eval_mosfets(x),
        recovery=tags,
    )


def dc_sweep(
    compiled: CompiledCircuit,
    source_name: str,
    values: np.ndarray,
) -> list[OperatingPoint]:
    """Sweep the DC level of one source, warm-starting each point.

    The named element must be a :class:`VoltageSource` or
    :class:`CurrentSource`; its waveform is replaced by a DC level and the
    circuit recompiled per sweep point (compilation is linear in element
    count, so this stays cheap for primitive-scale circuits).
    """
    from dataclasses import replace

    from repro.spice.elements import CurrentSource, VoltageSource
    from repro.spice.waveforms import Dc

    circuit = compiled.circuit
    element = circuit.element(source_name)
    if not isinstance(element, (VoltageSource, CurrentSource)):
        raise NetlistError(f"{source_name!r} is not an independent source")

    results: list[OperatingPoint] = []
    x_prev: np.ndarray | None = None
    try:
        for value in values:
            circuit.replace_element(
                source_name, replace(element, waveform=Dc(float(value)))
            )
            point_compiled = CompiledCircuit(circuit, compiled.rules)
            point = dc_operating_point(point_compiled, x0=x_prev)
            results.append(point)
            x_prev = point.x
    finally:
        circuit.replace_element(source_name, element)
    return results
