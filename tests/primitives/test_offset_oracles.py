"""Physics oracles for the input-offset measurement.

Independent of any golden value: a mirror-symmetric pair measures
exactly zero, swapping a pair's two halves negates its offset, a
threshold mismatch injected on one device reads back as that offset,
and every warm-started, compile-once solve of the search agrees with a
cold solve of a freshly compiled testbench.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.primitives import CascodeDifferentialPair, DifferentialPair
from repro.primitives import testbenches as tbh
from repro.spice import Circuit, CompiledCircuit
from repro.spice.dc import RELTOL, VNTOL
from repro.tech import Technology

#: The search resolution: a measured root is within this of the true one.
TOL = tbh._OFFSET_TOL


@pytest.fixture(scope="module")
def symmetric_tech():
    # No layout-dependent effects and no across-die threshold gradient:
    # what is left between the two halves of a pair is its wiring.
    tech = Technology.without_lde()
    tech.vth_gradient_x = tech.vth_gradient_y = 0.0
    return tech


def _offset(pair, dut):
    return tbh.dc_offset_bisection(
        lambda x: pair._bias_testbench(dut, vin_diff=x),
        pair.tech,
        lambda op: op.i("voutp") - op.i("voutn"),
    )


def _mirrored(dut):
    """``dut`` with its two halves swapped (inp<->inn, outp<->outn)."""
    swap = {"inp": "inn", "inn": "inp", "outp": "outn", "outn": "outp"}
    mirror = Circuit(f"{dut.name}_mirror")
    mirror.ports = list(dut.ports)
    mirror.instantiate(dut, "m", {p: swap.get(p, p) for p in dut.ports})
    return mirror


def test_schematic_pair_measures_exactly_zero(symmetric_tech):
    pair = DifferentialPair(symmetric_tech, base_fins=24)
    assert _offset(pair, pair.schematic_circuit()) == 0.0


def test_symmetric_layout_measures_exactly_zero(symmetric_tech):
    # This ABAB variant routes both drains through equal resistances,
    # so its extracted netlist is mirror-symmetric.
    from repro.devices.mosfet import MosGeometry

    pair = DifferentialPair(symmetric_tech, base_fins=24)
    dut = pair.layout_circuit(MosGeometry(nfin=6, nf=2, m=2), "ABAB")
    assert _offset(pair, dut) == 0.0


@pytest.mark.parametrize("pattern", ["ABAB", "ABBA"])
def test_swapping_the_halves_negates_the_offset(symmetric_tech, pattern):
    # Generated drain routes are not always mirror-equal, so a layout's
    # offset need not vanish; it must be antisymmetric in the halves.
    pair = DifferentialPair(symmetric_tech, base_fins=24)
    for geometry in pair.variants():
        dut = pair.layout_circuit(geometry, pattern)
        offset = _offset(pair, dut)
        assert abs(offset) < 2e-6
        assert abs(_offset(pair, _mirrored(dut)) + offset) < TOL


@pytest.mark.parametrize("dvth", [-2e-3, 1e-3, 5e-3, 2e-2])
def test_injected_threshold_mismatch_reads_back_as_offset(symmetric_tech, dvth):
    # With both drains held at one voltage, equal currents need equal
    # gate overdrives: raising MA's threshold by dvth moves the nulling
    # input (applied +x/2 at MA's gate, -x/2 at MB's) by exactly dvth —
    # to the search resolution, not only to first order.
    pair = DifferentialPair(symmetric_tech, base_fins=24)
    schematic = pair.schematic_circuit()
    dut = Circuit(schematic.name)
    dut.ports = list(schematic.ports)
    for elem in schematic.elements:
        if elem.name == "MA":
            elem = replace(elem, vth_mismatch=elem.vth_mismatch + dvth)
        dut.add(elem)
    assert abs(_offset(pair, dut) - dvth) < TOL


@pytest.mark.parametrize("cls", [DifferentialPair, CascodeDifferentialPair])
def test_warm_solves_agree_with_cold_solves(tech, cls, monkeypatch):
    # Every point the search evaluates, solved warm from a compile-once
    # system, matches a cold solve of that point's own fresh compile
    # within the solver's convergence tolerance.  (The cascode's cold
    # solves need gmin stepping; its warm ones do not.)
    pair = cls(tech, base_fins=24)
    dut = pair.layout_circuit(pair.variants()[0], "ABAB")
    inputs, solved = [], []
    real_dc = tbh.dc_operating_point

    def build(x):
        inputs.append(x)
        return pair._bias_testbench(dut, vin_diff=x)

    def recording_dc(compiled, **kwargs):
        op = real_dc(compiled, **kwargs)
        solved.append((inputs[-1], op))
        return op

    monkeypatch.setattr(tbh, "dc_operating_point", recording_dc)
    tbh.dc_offset_bisection(
        build, tech, lambda op: op.i("voutp") - op.i("voutn")
    )
    monkeypatch.undo()
    assert len(solved) > 2
    for x, op in solved:
        cold = real_dc(CompiledCircuit(build(x), tech.rules))
        nodes = op.compiled.num_nodes
        v, v_cold = op.x[:nodes], cold.x[:nodes]
        assert np.max(np.abs(v - v_cold)) < VNTOL + RELTOL * np.max(np.abs(v_cold))
        i, i_cold = op.x[nodes:], cold.x[nodes:]
        assert np.max(np.abs(i - i_cold)) <= RELTOL * np.max(np.abs(i_cold))
