"""The LTE-controlled adaptive transient stepper.

ISSUE acceptance: adaptive and fixed stepping agree on measured metrics
within the cost-function tolerance; ``dt`` becomes the output-grid pitch
(results are resampled, so downstream ``measure`` code sees the same
time axis either way); argument validation raises ``NetlistError`` with
actionable messages.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.spice import Circuit, CompiledCircuit, kernel, measure, transient
from repro.spice import tran as tran_mod
from repro.spice.waveforms import Pulse, Sin


def _rc(tech, tau_s=1e-9):
    c = Circuit("rc")
    c.add_vsource(
        "vin", "in", "0", Pulse(0.0, 1.0, delay=1e-9, rise=1e-12, width=1.0)
    )
    c.add_resistor("r1", "in", "out", 1e3)
    c.add_capacitor("c1", "out", "0", tau_s / 1e3)
    return CompiledCircuit(c, tech.rules)


def _lc(tech):
    c = Circuit("lc")
    c.add_isource(
        "ikick", "0", "t", Pulse(1e-3, 0.0, delay=0.0, rise=1e-12, width=1.0)
    )
    c.add_inductor("l1", "t", "0", 1e-9)
    c.add_capacitor("c1", "t", "0", 1e-12)
    c.add_resistor("rl", "t", "0", 10e3)
    return CompiledCircuit(c, tech.rules)


# -- stepper resolution and validation -----------------------------------


def test_stepper_resolution(monkeypatch):
    monkeypatch.delenv(tran_mod.STEPPER_ENV, raising=False)
    assert tran_mod.resolve_stepper() == tran_mod.ADAPTIVE
    assert tran_mod.resolve_stepper("fixed") == tran_mod.FIXED
    monkeypatch.setenv(tran_mod.STEPPER_ENV, "fixed")
    assert tran_mod.resolve_stepper() == tran_mod.FIXED
    assert tran_mod.resolve_stepper("adaptive") == tran_mod.ADAPTIVE


def test_invalid_stepper_rejected(tech, monkeypatch):
    cc = _rc(tech)
    with pytest.raises(NetlistError, match="stepper"):
        transient(cc, t_stop=1e-9, dt=1e-11, stepper="rk45")
    monkeypatch.setenv(tran_mod.STEPPER_ENV, "euler")
    with pytest.raises(NetlistError, match=tran_mod.STEPPER_ENV):
        transient(cc, t_stop=1e-9, dt=1e-11)


def test_dt_max_validation(tech):
    cc = _rc(tech)
    with pytest.raises(NetlistError, match="dt_max"):
        transient(cc, t_stop=1e-9, dt=1e-11, dt_max=1e-12)
    # dt_max == dt is the default and always legal.
    tr = transient(cc, t_stop=1e-10, dt=1e-11, dt_max=1e-11)
    assert len(tr.t) == 11


@pytest.mark.parametrize("field", ["lte_rtol", "lte_atol"])
@pytest.mark.parametrize("bad", [0.0, -1e-3, float("nan")])
def test_lte_tolerance_validation(tech, field, bad):
    cc = _rc(tech)
    with pytest.raises(NetlistError, match=field):
        transient(cc, t_stop=1e-9, dt=1e-11, **{field: bad})


# -- output grid ---------------------------------------------------------


def test_adaptive_output_grid_matches_fixed(tech):
    cc = _rc(tech)
    adaptive = transient(cc, t_stop=6e-9, dt=5e-12, stepper="adaptive")
    fixed = transient(cc, t_stop=6e-9, dt=5e-12, stepper="fixed")
    np.testing.assert_allclose(adaptive.t, fixed.t, rtol=0, atol=0)
    assert adaptive.solutions.shape == fixed.solutions.shape


# -- adaptive vs fixed agreement -----------------------------------------


def test_rc_step_response_agrees(tech):
    cc = _rc(tech)
    waves = {
        name: transient(cc, t_stop=6e-9, dt=5e-12, stepper=name).v("out")
        for name in ("adaptive", "fixed")
    }
    assert np.max(np.abs(waves["adaptive"] - waves["fixed"])) < 5e-3


def test_lc_frequency_agrees(tech):
    cc = _lc(tech)
    freqs = {}
    for name in ("adaptive", "fixed"):
        tr = transient(cc, t_stop=4e-9, dt=2e-12, stepper=name)
        freqs[name] = measure.oscillation_frequency(
            tr.t, tr.v("t"), settle_fraction=0.3
        )
    assert freqs["adaptive"] == pytest.approx(freqs["fixed"], rel=1e-2)


def test_sinusoid_amplitude_agrees(tech):
    c = Circuit("sin")
    c.add_vsource("vin", "in", "0", Sin(0.0, 1.0, 1e9))
    c.add_resistor("r1", "in", "mid", 1e3)
    c.add_capacitor("c1", "mid", "0", 1e-13)
    cc = CompiledCircuit(c, tech.rules)
    amps = {}
    for name in ("adaptive", "fixed"):
        tr = transient(cc, t_stop=6e-9, dt=2e-12, stepper=name)
        amps[name] = np.max(tr.v("mid")) - np.min(tr.v("mid"))
    assert amps["adaptive"] == pytest.approx(amps["fixed"], rel=1e-2)


# -- controller behavior -------------------------------------------------


def test_tight_tolerance_refines_below_the_output_grid(tech):
    """With a deliberately coarse grid and tight LTE tolerances the
    controller must take more internal steps than the grid has points —
    and land closer to the analytic answer than the fixed run."""
    cc = _rc(tech)
    stats_a, stats_f = kernel.SolverStats(), kernel.SolverStats()
    with kernel.collect(stats_a):
        adaptive = transient(
            cc,
            t_stop=6e-9,
            dt=2e-10,
            stepper="adaptive",
            lte_rtol=1e-4,
            lte_atol=1e-5,
        )
    with kernel.collect(stats_f):
        fixed = transient(cc, t_stop=6e-9, dt=2e-10, stepper="fixed")
    assert stats_a.tran_steps > stats_f.tran_steps
    assert stats_a.tran_fixed_steps == 30  # round(6e-9 / 2e-10)
    exact = np.where(
        adaptive.t > 1e-9, 1.0 - np.exp(-(adaptive.t - 1e-9) / 1e-9), 0.0
    )
    err_adaptive = np.max(np.abs(adaptive.v("out") - exact))
    err_fixed = np.max(np.abs(fixed.v("out") - exact))
    assert err_adaptive < err_fixed


def test_dt_max_allows_growth_past_the_grid(tech):
    """A quiescent network with ``dt_max > dt`` takes fewer internal
    steps than grid points — step doubling through the flat region."""
    c = Circuit("hold")
    c.add_vsource("vdd", "vdd", "0", 0.8)
    c.add_resistor("r1", "vdd", "out", 1e3)
    c.add_resistor("r2", "out", "0", 1e3)
    c.add_capacitor("c1", "out", "0", 1e-12)
    cc = CompiledCircuit(c, tech.rules)
    stats = kernel.SolverStats()
    with kernel.collect(stats):
        tr = transient(
            cc, t_stop=2e-8, dt=1e-11, stepper="adaptive", dt_max=1e-9
        )
    assert stats.tran_steps < stats.tran_fixed_steps
    assert len(tr.t) == 2001  # the output grid is still dt-pitched
    np.testing.assert_allclose(tr.v("out"), 0.4, atol=1e-6)


def test_linear_circuit_reuses_factorizations(tech):
    """MOSFET-free networks at a repeated step size answer from the
    cached LU instead of refactoring every step."""
    cc = _rc(tech)
    stats = kernel.SolverStats()
    with kernel.collect(stats):
        transient(cc, t_stop=6e-9, dt=5e-12, stepper="fixed")
    assert stats.lu_reuses > 0
    assert stats.factorizations < stats.solves


def test_fixed_stepper_counts_newton_failure_halvings(tech, monkeypatch):
    """A fixed step that fails Newton is halved and counted as rejected;
    the output grid does not move."""
    cc = _rc(tech)
    reference = transient(cc, t_stop=2e-9, dt=1e-11, stepper="fixed")
    real_step = tran_mod._Integrator.step
    failures = iter([True])

    def flaky_step(self, *args):
        if next(failures, False):
            return None
        return real_step(self, *args)

    monkeypatch.setattr(tran_mod._Integrator, "step", flaky_step)
    stats = kernel.SolverStats()
    with kernel.collect(stats):
        tr = transient(cc, t_stop=2e-9, dt=1e-11, stepper="fixed")
    assert stats.tran_rejected == 1
    assert stats.tran_steps == stats.tran_fixed_steps == 200
    np.testing.assert_array_equal(tr.t, reference.t)
    assert tr.solutions.shape == reference.solutions.shape
