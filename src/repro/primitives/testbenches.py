"""Shared testbench building blocks for primitive metrics.

Each helper wires a DUT netlist (schematic or extracted — both expose the
same port names) into a stimulated circuit and extracts one number, the
way the paper's per-metric SPICE testbenches do (Fig. 4).  All helpers
return ``(value, n_simulations)`` where a "simulation" is one analysis
run (op / ac sweep / transient), matching the accounting of Table V.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MeasureError
from repro.spice import measure
from repro.spice.ac import ac_analysis
from repro.spice.dc import dc_operating_point
from repro.spice.mna import CompiledCircuit
from repro.spice.netlist import Circuit
from repro.spice.tran import transient
from repro.spice.waveforms import Pulse
from repro.tech.pdk import Technology

#: Frequency (Hz) at which port capacitances are read off ``Im(Y)/w``.
#: Low enough that series wire resistance does not shield the node
#: capacitance (400 ohm against 50 kOhm of 30 fF at 100 MHz).
CAP_PROBE_FREQUENCY = 1.0e8

#: Default AC sweep for primitive testbenches.
AC_START, AC_STOP, AC_PPD = 1.0e6, 1.0e11, 8


def attach_dut(tb: Circuit, dut: Circuit) -> None:
    """Instantiate the DUT in a testbench, ports mapped name-to-name."""
    tb.instantiate(dut, "dut", {p: p for p in dut.ports})


def run_ac(tb: Circuit, tech: Technology):
    """Operating point + AC sweep; returns (op, ac), costing 1 'sim'."""
    compiled = CompiledCircuit(tb, tech.rules)
    op = dc_operating_point(compiled)
    ac = ac_analysis(compiled, op, AC_START, AC_STOP, AC_PPD)
    return op, ac


def run_op(tb: Circuit, tech: Technology):
    """Operating point only."""
    compiled = CompiledCircuit(tb, tech.rules)
    return dc_operating_point(compiled)


def freq_index(freqs: np.ndarray, target: float) -> int:
    """Index of the sweep point closest to ``target`` (log distance)."""
    return int(np.argmin(np.abs(np.log10(freqs) - np.log10(target))))


def port_admittance(tb: Circuit, tech: Technology, source_name: str):
    """AC admittance seen by the AC voltage source ``source_name``.

    The branch current of a voltage source flows from its + terminal
    through the source, so the admittance looking *into the circuit* is
    ``-I/V``.
    """
    op, ac = run_ac(tb, tech)
    y = -ac.i(source_name) / 1.0
    return ac.freqs, y


def port_capacitance(tb: Circuit, tech: Technology, source_name: str) -> float:
    """Capacitance at an AC-driven port, from ``Im(Y)/w`` near 1 GHz."""
    freqs, y = port_admittance(tb, tech, source_name)
    k = freq_index(freqs, CAP_PROBE_FREQUENCY)
    return abs(float(np.imag(y[k]))) / (2.0 * np.pi * float(freqs[k]))


def port_resistance(tb: Circuit, tech: Technology, source_name: str) -> float:
    """Small-signal resistance at an AC-driven port, ``1/Re(Y)`` at f_min."""
    freqs, y = port_admittance(tb, tech, source_name)
    real = float(np.real(y[0]))
    if real < 0.0:
        # Negative-resistance structures (cross-coupled pairs) report the
        # magnitude; callers know the sign from the topology.
        real = abs(real)
    if real == 0.0:
        raise MeasureError(f"zero real admittance at {source_name!r}")
    return 1.0 / real


def transfer_current(
    tb: Circuit, tech: Technology, out_sources: list[str], signs: list[float]
):
    """AC transfer current: signed sum of V-source branch currents.

    Used by Gm testbenches (AC voltage at a gate, AC current measured
    through the drain bias sources).  Returns (freqs, complex current).
    """
    op, ac = run_ac(tb, tech)
    total = np.zeros(len(ac.freqs), dtype=complex)
    for name, sign in zip(out_sources, signs):
        total = total + sign * ac.i(name)
    return ac.freqs, total


def run_transient(
    tb: Circuit,
    tech: Technology,
    t_stop: float,
    dt: float,
    ics: dict[str, float] | None = None,
):
    """Transient run; returns the TranResult, costing 1 'sim'."""
    compiled = CompiledCircuit(tb, tech.rules)
    op = dc_operating_point(compiled, force=ics)
    return transient(compiled, t_stop=t_stop, dt=dt, op=op)


#: Offset-search resolution (V): results below this are reported 0.0.
_OFFSET_TOL = 1e-7


class _SourceSweep:
    """Compile-once, warm-started DC solves of one testbench family.

    ``build_tb(x)`` builds the testbench at sweep input ``x`` (an offset
    or bias search).  The first point is compiled; a later point whose
    netlist is :meth:`~repro.spice.mna.CompiledCircuit.structurally_like`
    it reuses that system and restamps only the source vector
    (:meth:`~repro.spice.mna.CompiledCircuit.source_rhs_like`).  Each
    solve warm-starts from the solution at the nearest input solved so
    far; :func:`~repro.spice.dc.dc_operating_point` falls back to its
    cold path when that guess does not converge.
    """

    def __init__(self, build_tb, tech: Technology):
        self.build_tb = build_tb
        self.rules = tech.rules
        self.compiled: CompiledCircuit | None = None
        self.solved: list[tuple[float, np.ndarray]] = []

    def solve(self, x: float):
        """The operating point at ``x``: one :func:`dc_operating_point`."""
        tb = self.build_tb(x)
        if self.compiled is not None and self.compiled.structurally_like(tb):
            rhs = self.compiled.source_rhs_like(tb)
        else:
            self.compiled = CompiledCircuit(tb, self.rules)
            # Solutions of another structure are no guess for this one.
            self.solved = []
            rhs = None
        warm = None
        if self.solved:
            warm = min(self.solved, key=lambda point: abs(point[0] - x))[1]
        op = dc_operating_point(self.compiled, rhs_src=rhs, warm=warm)
        self.solved.append((x, op.x))
        return op


def _snap_offset(offset: float) -> float:
    # An offset below the search resolution is indistinguishable from
    # zero.  Snap it so downstream consumers (the cost function's
    # zero-schematic-reference branch) see a true zero: a perfectly
    # symmetric circuit must measure 0.0 regardless of which LU backend
    # solved it — pivoting-order noise at the 1e-16 level otherwise
    # walks the search to an arbitrary sub-tolerance point.
    return 0.0 if abs(offset) < _OFFSET_TOL else offset


def dc_offset_bisection(
    build_tb,
    tech: Technology,
    response,
    lo: float = -0.05,
    hi: float = 0.05,
) -> float:
    """Input-referred offset: the root of a DC response in a bracket.

    The root is found by :func:`~repro.spice.measure.find_dc_zero`; the
    testbench is compiled once and every solve is warm-started
    (:class:`_SourceSweep`).

    Args:
        build_tb: Callable ``(x) -> Circuit`` building the testbench with
            differential input ``x``.
        tech: Technology node.
        response: Callable ``(op) -> float`` extracting the quantity to
            null (e.g. differential output current).
        lo, hi: Search bracket (V).

    Returns:
        The input voltage nulling the response; magnitudes below the
        search tolerance report as exactly ``0.0``.
    """
    sweep = _SourceSweep(build_tb, tech)
    offset = measure.find_dc_zero(
        lambda x: response(sweep.solve(x)), lo, hi, tolerance=_OFFSET_TOL
    )
    return _snap_offset(offset)


def solve_gate_bias(
    tech: Technology,
    build_tb,
    current_of,
    i_target: float,
    lo: float = 0.0,
    hi: float | None = None,
) -> float:
    """Find the gate bias that sets a device current to ``i_target``.

    This stands in for the paper's "DC bias conditions ... as input from
    circuit-level schematic simulations": gate-biased primitives derive
    their bias from a target current instead of a hard-coded voltage.
    The search shares the offset measurement's root finder and
    compile-once, warm-started solves.

    Args:
        tech: Technology node.
        build_tb: Callable ``(v) -> Circuit`` building the schematic
            testbench at gate bias ``v``.
        current_of: Callable ``(op) -> float`` extracting the device
            current.
        i_target: Target current (A).
        lo, hi: Search bracket; ``hi`` defaults to VDD.

    Returns:
        The bias voltage.
    """
    hi = tech.vdd if hi is None else hi
    sweep = _SourceSweep(build_tb, tech)
    return measure.find_dc_zero(
        lambda v: current_of(sweep.solve(v)) - i_target, lo, hi, tolerance=1e-6
    )


def standard_pulse(v_low: float, v_high: float, delay: float = 5.0e-11) -> Pulse:
    """The input pulse used by delay testbenches."""
    return Pulse(
        v1=v_low, v2=v_high, delay=delay, rise=5e-12, fall=5e-12, width=2e-9, period=0.0
    )
