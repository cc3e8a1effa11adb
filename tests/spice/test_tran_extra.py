"""Additional transient scenarios: stiffness, halving, MOS dynamics."""

import numpy as np
import pytest

from repro.devices.mosfet import MosGeometry
from repro.spice import Circuit, CompiledCircuit, transient
from repro.spice import measure
from repro.spice.waveforms import Pulse, Sin


def test_stiff_fast_edge_coarse_steps(tech):
    """A 1 ps edge sampled at 50 ps steps still integrates stably."""
    c = Circuit("stiff")
    c.add_vsource("vin", "in", "0", Pulse(0.0, 1.0, delay=1e-10, rise=1e-12,
                                          width=1.0))
    c.add_resistor("r", "in", "out", 100.0)
    c.add_capacitor("cl", "out", "0", 1e-14)  # tau = 1 ps << dt
    cc = CompiledCircuit(c, tech.rules)
    tr = transient(cc, t_stop=2e-9, dt=5e-11)
    assert np.all(np.isfinite(tr.solutions))
    assert tr.v("out")[-1] == pytest.approx(1.0, abs=0.01)


def test_ring_oscillator_three_inverters(tech):
    """A 3-stage single-ended CMOS ring oscillates without any kick."""
    c = Circuit("ring3")
    c.add_vsource("vdd", "vdd", "0", 0.8)
    g = MosGeometry(8, 2, 1)
    for k in range(3):
        inp, out = f"n{k}", f"n{(k + 1) % 3}"
        c.add_mosfet(f"mp{k}", out, inp, "vdd", "vdd", tech.pmos, g)
        c.add_mosfet(f"mn{k}", out, inp, "0", "0", tech.nmos, g)
        c.add_capacitor(f"cl{k}", out, "0", 2e-15)
    cc = CompiledCircuit(c, tech.rules)
    from repro.spice.dc import dc_operating_point

    # Kick one node off the metastable point.
    op = dc_operating_point(cc, force={"n0": 0.8})
    tr = transient(cc, t_stop=3e-9, dt=2e-12, op=op)
    freq = measure.oscillation_frequency(tr.t, tr.v("n1"), settle_fraction=0.3)
    assert 1e9 < freq < 1e11


@pytest.mark.parametrize("stepper", ["adaptive", "fixed"])
def test_ac_and_tran_agree_on_rc_pole(tech, stepper):
    """The transient step response time constant matches the AC pole."""
    from repro.spice import ac_analysis, dc_operating_point

    r_val, c_val = 2e3, 0.5e-12
    c = Circuit("agree")
    c.add_vsource("vin", "in", "0", Pulse(0.0, 1.0, delay=0.2e-9, rise=1e-12,
                                          width=1.0), ac_magnitude=1.0)
    c.add_resistor("r", "in", "out", r_val)
    c.add_capacitor("cl", "out", "0", c_val)
    cc = CompiledCircuit(c, tech.rules)
    op = dc_operating_point(cc)
    ac = ac_analysis(cc, op, 1e6, 1e12, 20)
    f3db = measure.bandwidth_3db(ac.freqs, ac.v("out"))

    tr = transient(cc, t_stop=8e-9, dt=2e-12, op=op, stepper=stepper)
    # 10-90% rise time of a single pole: 2.2 tau = 2.2/(2 pi f3db).
    rise = measure.delay_between(
        tr.t, tr.v("out"), tr.v("out"), 0.1, 0.9
    )
    assert rise == pytest.approx(2.2 / (2 * np.pi * f3db), rel=0.05)


def test_sinusoidal_steady_state_amplitude(tech):
    """Transient amplitude through an RC matches the AC magnitude."""
    from repro.spice import ac_analysis, dc_operating_point

    f0 = 1.0e9
    c = Circuit("ss")
    c.add_vsource("vin", "in", "0", Sin(0.0, 1.0, f0), ac_magnitude=1.0)
    c.add_resistor("r", "in", "out", 1e3)
    c.add_capacitor("cl", "out", "0", 0.3e-12)
    cc = CompiledCircuit(c, tech.rules)
    op = dc_operating_point(cc)
    ac = ac_analysis(cc, op, 1e8, 1e10, 40)
    k = int(np.argmin(np.abs(ac.freqs - f0)))
    expected = abs(ac.v("out")[k])

    tr = transient(cc, t_stop=10 / f0, dt=1 / (400 * f0), op=op)
    steady = tr.v("out")[len(tr.t) // 2 :]
    amplitude = (np.max(steady) - np.min(steady)) / 2
    assert amplitude == pytest.approx(expected, rel=0.03)
