"""DC operating-point analysis against hand-calculable circuits."""

import numpy as np
import pytest

from repro.devices.mosfet import MosGeometry
from repro.errors import ConvergenceError, NetlistError
from repro.runtime import context as eval_context
from repro.spice import Circuit, CompiledCircuit, dc_operating_point, dc_sweep


def compiled(circuit, tech):
    return CompiledCircuit(circuit, tech.rules)


def test_voltage_divider(tech):
    c = Circuit("div")
    c.add_vsource("v1", "in", "0", 2.0)
    c.add_resistor("r1", "in", "mid", 1000.0)
    c.add_resistor("r2", "mid", "0", 3000.0)
    op = dc_operating_point(compiled(c, tech))
    assert op.v("mid") == pytest.approx(1.5, rel=1e-6)
    assert op.i("v1") == pytest.approx(-0.5e-3, rel=1e-6)


def test_current_source_into_resistor(tech):
    c = Circuit("ir")
    c.add_isource("i1", "0", "n", 1e-3)
    c.add_resistor("r1", "n", "0", 2000.0)
    op = dc_operating_point(compiled(c, tech))
    assert op.v("n") == pytest.approx(2.0, rel=1e-6)


def test_ground_voltage_is_zero(tech):
    c = Circuit("g")
    c.add_vsource("v1", "a", "0", 1.0)
    c.add_resistor("r1", "a", "0", 1.0e3)
    op = dc_operating_point(compiled(c, tech))
    assert op.v("0") == 0.0
    assert op.v("gnd") == 0.0


def test_vcvs_gain(tech):
    c = Circuit("e")
    c.add_vsource("v1", "in", "0", 0.25)
    c.add_vcvs("e1", "out", "0", "in", "0", 4.0)
    c.add_resistor("rl", "out", "0", 1e3)
    op = dc_operating_point(compiled(c, tech))
    assert op.v("out") == pytest.approx(1.0, rel=1e-9)


def test_vccs_transconductance(tech):
    c = Circuit("gm")
    c.add_vsource("v1", "in", "0", 0.5)
    c.add_vccs("g1", "0", "out", "in", "0", 2e-3)  # pushes into out
    c.add_resistor("rl", "out", "0", 1e3)
    op = dc_operating_point(compiled(c, tech))
    assert op.v("out") == pytest.approx(1.0, rel=1e-9)


def test_inductor_is_dc_short(tech):
    c = Circuit("l")
    c.add_vsource("v1", "a", "0", 1.0)
    c.add_inductor("l1", "a", "b", 1e-9)
    c.add_resistor("r1", "b", "0", 1e3)
    op = dc_operating_point(compiled(c, tech))
    assert op.v("b") == pytest.approx(1.0, rel=1e-6)
    assert op.i("l1") == pytest.approx(1e-3, rel=1e-6)


def test_diode_connected_nmos(tech):
    c = Circuit("dio")
    c.add_isource("i1", "0", "d", 100e-6)
    c.add_mosfet("m1", "d", "d", "0", "0", tech.nmos, MosGeometry(8, 4, 1))
    op = dc_operating_point(compiled(c, tech))
    vgs = op.v("d")
    assert 0.2 < vgs < 0.7
    assert op.mos("m1")["id"] == pytest.approx(100e-6, rel=1e-4)


def test_nmos_resistor_load_kcl(tech):
    c = Circuit("inv")
    c.add_vsource("vdd", "vdd", "0", 0.8)
    c.add_vsource("vg", "g", "0", 0.5)
    c.add_resistor("rl", "vdd", "d", 5e3)
    c.add_mosfet("m1", "d", "g", "0", "0", tech.nmos, MosGeometry(8, 2, 1))
    op = dc_operating_point(compiled(c, tech))
    i_r = (op.v("vdd") - op.v("d")) / 5e3
    assert i_r == pytest.approx(op.mos("m1")["id"], rel=1e-4)


def test_cmos_inverter_transfer(tech):
    def inverter_out(vin):
        c = Circuit("cminv")
        c.add_vsource("vdd", "vdd", "0", 0.8)
        c.add_vsource("vin", "in", "0", vin)
        c.add_mosfet("mp", "out", "in", "vdd", "vdd", tech.pmos, MosGeometry(8, 2, 1))
        c.add_mosfet("mn", "out", "in", "0", "0", tech.nmos, MosGeometry(8, 2, 1))
        return dc_operating_point(compiled(c, tech)).v("out")

    assert inverter_out(0.0) > 0.75
    assert inverter_out(0.8) < 0.05
    # Monotone-decreasing transfer with a threshold inside the rails.
    lo, hi = inverter_out(0.3), inverter_out(0.5)
    assert lo > hi
    assert inverter_out(0.2) > 0.5


def test_warm_start_converges_faster(tech):
    c = Circuit("ws")
    c.add_vsource("vdd", "vdd", "0", 0.8)
    c.add_resistor("rl", "vdd", "d", 2e3)
    c.add_vsource("vg", "g", "0", 0.6)
    c.add_mosfet("m1", "d", "g", "0", "0", tech.nmos, MosGeometry(8, 4, 1))
    cc = compiled(c, tech)
    op1 = dc_operating_point(cc)
    op2 = dc_operating_point(cc, x0=op1.x)
    assert np.allclose(op1.x, op2.x, atol=1e-9)


def test_force_pins_node(tech):
    c = Circuit("force")
    c.add_vsource("vdd", "vdd", "0", 0.8)
    c.add_resistor("r1", "vdd", "a", 1e3)
    c.add_resistor("r2", "a", "0", 1e3)
    op_free = dc_operating_point(compiled(c, tech))
    op_forced = dc_operating_point(compiled(c, tech), force={"a": 0.1})
    assert op_free.v("a") == pytest.approx(0.4, rel=1e-4)
    assert op_forced.v("a") < 0.2


def test_branch_current_unknown_element(tech):
    c = Circuit("b")
    c.add_vsource("v1", "a", "0", 1.0)
    c.add_resistor("r1", "a", "0", 1e3)
    op = dc_operating_point(compiled(c, tech))
    with pytest.raises(NetlistError):
        op.i("r1")


def test_dc_sweep_monotone(tech):
    c = Circuit("sweep")
    c.add_vsource("vg", "g", "0", 0.0)
    c.add_vsource("vd", "d", "0", 0.8)
    c.add_mosfet("m1", "d", "g", "0", "0", tech.nmos, MosGeometry(8, 2, 1))
    cc = compiled(c, tech)
    points = dc_sweep(cc, "vg", np.linspace(0.0, 0.8, 9))
    currents = [-p.i("vd") for p in points]
    assert all(b >= a - 1e-12 for a, b in zip(currents, currents[1:]))
    assert currents[-1] > 1e-5


def test_dc_sweep_restores_source(tech):
    c = Circuit("sweep2")
    c.add_vsource("vg", "g", "0", 0.123)
    c.add_resistor("r", "g", "0", 1e3)
    cc = compiled(c, tech)
    dc_sweep(cc, "vg", np.array([0.0, 0.5]))
    assert c.element("vg").waveform.dc_value == 0.123


def test_dc_sweep_requires_source(tech):
    c = Circuit("sweep3")
    c.add_vsource("vg", "g", "0", 0.0)
    c.add_resistor("r", "g", "0", 1e3)
    cc = compiled(c, tech)
    with pytest.raises(NetlistError):
        dc_sweep(cc, "r", np.array([1.0]))


def test_bistable_latch_converges(tech):
    """Cross-coupled inverters (bistable) still yield an operating point.

    Newton tends to limit-cycle between the two stable basins; the
    oscillation-aware damping must settle it into one.
    """
    c = Circuit("latch")
    c.add_vsource("vdd", "vdd", "0", 0.8)
    for a, b in (("q", "qb"), ("qb", "q")):
        c.add_mosfet(f"mp_{a}", a, b, "vdd", "vdd", tech.pmos, MosGeometry(8, 2, 1))
        c.add_mosfet(f"mn_{a}", a, b, "0", "0", tech.nmos, MosGeometry(8, 2, 1))
    op = dc_operating_point(compiled(c, tech))
    # Some consistent solution: both nodes inside the rails.
    assert -0.01 <= op.v("q") <= 0.81
    assert -0.01 <= op.v("qb") <= 0.81


def test_latch_with_force_lands_in_chosen_basin(tech):
    c = Circuit("latch2")
    c.add_vsource("vdd", "vdd", "0", 0.8)
    for a, b in (("q", "qb"), ("qb", "q")):
        c.add_mosfet(f"mp_{a}", a, b, "vdd", "vdd", tech.pmos, MosGeometry(8, 2, 1))
        c.add_mosfet(f"mn_{a}", a, b, "0", "0", tech.nmos, MosGeometry(8, 2, 1))
    op = dc_operating_point(compiled(c, tech), force={"q": 0.8, "qb": 0.0})
    assert op.v("q") > 0.6
    assert op.v("qb") < 0.2


def test_newton_budget_honored_exactly(tech):
    # An explicit RetryPolicy budget must override the max(120, 2*nodes)
    # heuristic verbatim — even 0 — instead of being silently clamped
    # back up to the floor.
    c = Circuit("dio")
    c.add_isource("i1", "0", "d", 100e-6)
    c.add_mosfet("m1", "d", "d", "0", "0", tech.nmos, MosGeometry(8, 4, 1))
    circuit = compiled(c, tech)
    baseline = dc_operating_point(circuit)
    with eval_context.evaluation(eval_context.EvalContext(newton_max_iterations=0)):
        with pytest.raises(ConvergenceError):
            dc_operating_point(circuit)
    # A budget at/above what the solve needs reproduces the default.
    with eval_context.evaluation(
        eval_context.EvalContext(newton_max_iterations=200)
    ):
        op = dc_operating_point(circuit)
    assert np.array_equal(op.x, baseline.x)
    # None keeps the heuristic.
    with eval_context.evaluation(eval_context.EvalContext()):
        op = dc_operating_point(circuit)
    assert np.array_equal(op.x, baseline.x)
