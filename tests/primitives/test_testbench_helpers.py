"""The shared testbench helper functions."""

import numpy as np
import pytest

from repro.devices.mosfet import MosGeometry
from repro.errors import MeasureError
from repro.primitives import testbenches as tbh
from repro.spice import Circuit


def test_attach_dut_maps_ports_identically(tech, small_dp):
    dut = small_dp.schematic_circuit()
    tb = Circuit("tb")
    tbh.attach_dut(tb, dut)
    # Port nets keep their names; internals are prefixed.
    nodes = set()
    for e in tb.elements:
        from repro.spice.netlist import element_nodes

        nodes.update(element_nodes(e))
    for port in dut.ports:
        assert port in nodes


def test_freq_index_log_distance():
    freqs = np.logspace(6, 10, 5)  # 1e6 .. 1e10
    assert tbh.freq_index(freqs, 1.0e8) == 2
    assert tbh.freq_index(freqs, 2.0e6) == 0
    assert tbh.freq_index(freqs, 9.0e9) == 4


def test_port_capacitance_of_known_cap(tech):
    tb = Circuit("c")
    tb.add_vsource("vp", "a", "0", 0.0, ac_magnitude=1.0)
    tb.add_capacitor("c1", "a", "0", 7e-15)
    assert tbh.port_capacitance(tb, tech, "vp") == pytest.approx(7e-15, rel=0.01)


def test_port_resistance_of_known_resistor(tech):
    tb = Circuit("r")
    tb.add_vsource("vp", "a", "0", 0.0, ac_magnitude=1.0)
    tb.add_resistor("r1", "a", "0", 3.3e3)
    assert tbh.port_resistance(tb, tech, "vp") == pytest.approx(3.3e3, rel=0.01)


def test_port_resistance_negative_reported_as_magnitude(tech):
    # A negative conductance (VCCS feedback) reports its magnitude.
    tb = Circuit("neg")
    tb.add_vsource("vp", "a", "0", 0.0, ac_magnitude=1.0)
    tb.add_vccs("g1", "a", "0", "a", "0", 2e-3)  # pulls current out of a
    tb.add_resistor("stab", "a", "0", 200.0)  # keep DC solvable
    r = tbh.port_resistance(tb, tech, "vp")
    assert r > 0


def test_solve_gate_bias_monotone_increasing(tech):
    from repro.devices.mosfet import MosGeometry

    def build(v):
        c = Circuit("bias")
        c.add_vsource("vg", "g", "0", v)
        c.add_vsource("vd", "d", "0", 0.6)
        c.add_mosfet("m1", "d", "g", "0", "0", tech.nmos, MosGeometry(8, 4, 1))
        return c

    v = tbh.solve_gate_bias(
        tech, build, lambda op: abs(op.i("vd")), i_target=50e-6
    )
    op_check = tbh.run_op(build(v), tech)
    assert abs(op_check.i("vd")) == pytest.approx(50e-6, rel=0.01)


def test_standard_pulse_polarity():
    rise = tbh.standard_pulse(0.0, 0.8)
    fall = tbh.standard_pulse(0.8, 0.0)
    assert rise.value(0.0) == 0.0
    assert rise.value(1e-9) == 0.8
    assert fall.value(0.0) == 0.8
    assert fall.value(1e-9) == 0.0


def test_dc_offset_bisection_finds_injected_offset(tech):
    # A linear "circuit": response = x - 3 mV.
    def build(x):
        c = Circuit("lin")
        c.add_vsource("vx", "a", "0", x - 3e-3)
        c.add_resistor("r", "a", "0", 1e3)
        return c

    root = tbh.dc_offset_bisection(
        build, tech, lambda op: op.v("a"), lo=-0.05, hi=0.05
    )
    assert root == pytest.approx(3e-3, abs=1e-6)


def _linear_offset_tb(x):
    # A linear "circuit" whose response nulls at x = 3 mV.
    c = Circuit("lin")
    c.add_vsource("vx", "a", "0", x - 3e-3)
    c.add_resistor("r", "a", "0", 1e3)
    return c


def test_offset_search_compiles_once_and_warm_starts(tech, monkeypatch):
    from repro.spice import CompiledCircuit

    compiles, solves = [], []
    real_dc = tbh.dc_operating_point

    def counted_dc(compiled, **kwargs):
        solves.append(kwargs)
        return real_dc(compiled, **kwargs)

    monkeypatch.setattr(tbh, "dc_operating_point", counted_dc)
    monkeypatch.setattr(
        tbh,
        "CompiledCircuit",
        lambda *args: compiles.append(args) or CompiledCircuit(*args),
    )
    root = tbh.dc_offset_bisection(_linear_offset_tb, tech, lambda op: op.v("a"))
    assert root == pytest.approx(3e-3, abs=1e-7)
    assert len(compiles) == 1
    # Only the first point solves cold, with the compiled circuit's own
    # sources; every later one restamps them and starts warm.
    assert solves[0] == {"rhs_src": None, "warm": None}
    assert all(
        s["rhs_src"] is not None and s["warm"] is not None for s in solves[1:]
    )


def test_structure_drift_recompiles(tech):
    # A testbench whose netlist changes shape mid-search still measures
    # what a fresh compile per point would.
    def build(x):
        c = _linear_offset_tb(x)
        if x > 0.0:
            c.add_resistor("r2", "a", "0", 1e6)
        return c

    root = tbh.dc_offset_bisection(build, tech, lambda op: op.v("a"))
    assert root == pytest.approx(3e-3, abs=1e-7)


def _gmin_testbench(tech):
    # A cascode pair's post-layout bias testbench: its cold solve needs
    # gmin stepping.
    from repro.primitives import CascodeDifferentialPair

    pair = CascodeDifferentialPair(tech, base_fins=8, name="tb_cdp")
    dut = pair.layout_circuit(pair.variants()[0], "ABAB")
    return pair._bias_testbench(dut)


def test_failed_warm_start_runs_the_cold_ladder(tech):
    from repro.spice import CompiledCircuit
    from repro.spice.dc import dc_operating_point

    compiled = CompiledCircuit(_gmin_testbench(tech), tech.rules)
    cold = dc_operating_point(compiled)
    assert cold.recovery == ("gmin-stepping",)
    # 50 V on every node: plain Newton cannot come back within budget.
    bad_guess = np.full(compiled.size, 50.0)
    fallback = dc_operating_point(compiled, warm=bad_guess)
    assert fallback.recovery == cold.recovery
    assert np.array_equal(fallback.x, cold.x)
    # A good guess converges with plain Newton, to the same point.
    warm = dc_operating_point(compiled, warm=cold.x)
    assert warm.recovery == ()
    assert np.allclose(warm.x, cold.x, rtol=1e-9, atol=1e-12)


def test_retry_hooks_fire_once_per_solve(tech, monkeypatch):
    # Under a retry (perturbed guesses) and fault injection, every solve
    # of the offset search still perturbs its guess once and consults
    # the injector once.
    from repro.runtime import context as eval_context
    from repro.runtime.faults import FaultSpec, inject
    from repro.spice import dc

    calls = {"dc": 0, "perturb": 0, "check_dc": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(tbh, "dc_operating_point", counting("dc", tbh.dc_operating_point))
    monkeypatch.setattr(
        dc, "_perturb_retry_guess", counting("perturb", dc._perturb_retry_guess)
    )
    ctx = eval_context.EvalContext(key="retry", attempt=1, perturbation=1e-3)
    with inject(FaultSpec()) as injector, eval_context.evaluation(ctx):
        injector.check_dc = counting("check_dc", injector.check_dc)
        root = tbh.dc_offset_bisection(_linear_offset_tb, tech, lambda op: op.v("a"))
    assert root == pytest.approx(3e-3, abs=1e-7)
    assert calls["dc"] > 2
    assert calls["perturb"] == calls["dc"]
    assert calls["check_dc"] == calls["dc"]


def test_gate_bias_shares_the_sweep(tech, monkeypatch):
    from repro.spice import CompiledCircuit

    def build(v):
        c = Circuit("bias")
        c.add_vsource("vg", "g", "0", v)
        c.add_vsource("vd", "d", "0", 0.6)
        c.add_mosfet("m1", "d", "g", "0", "0", tech.nmos, MosGeometry(8, 4, 1))
        return c

    compiles = []
    monkeypatch.setattr(
        tbh,
        "CompiledCircuit",
        lambda *args: compiles.append(args) or CompiledCircuit(*args),
    )
    v = tbh.solve_gate_bias(tech, build, lambda op: abs(op.i("vd")), 50e-6)
    assert len(compiles) == 1
    monkeypatch.undo()
    assert abs(tbh.run_op(build(v), tech).i("vd")) == pytest.approx(50e-6, rel=0.01)
