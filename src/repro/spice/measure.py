"""Measurement post-processing (the library's ``.measure`` statements).

All functions operate on :class:`~repro.spice.ac.AcResult` /
:class:`~repro.spice.tran.TranResult` data (or raw arrays) and raise
:class:`~repro.errors.MeasureError` when the requested feature does not
exist in the data (no crossing, no unity-gain point, ...).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import MeasureError


def _finite(value: float, what: str) -> float:
    """Guard a scalar measurement against NaN/inf.

    A non-finite measurement would otherwise flow silently into
    :class:`~repro.core.cost.CostBreakdown` and poison per-bin ordering
    (NaN compares false against everything, so ``min`` keeps whichever
    option it saw first).  Raising :class:`~repro.errors.MeasureError`
    (failure code ``BAD-METRIC``) lets the evaluation runtime absorb the
    option instead.
    """
    if not math.isfinite(value):
        raise MeasureError(f"{what} is not finite ({value!r})")
    return float(value)


# --- AC measures -----------------------------------------------------------


def magnitude_db(h: np.ndarray) -> np.ndarray:
    """Magnitude of a complex transfer function in dB."""
    return 20.0 * np.log10(np.abs(h) + 1e-300)


def phase_deg(h: np.ndarray) -> np.ndarray:
    """Unwrapped phase of a complex transfer function in degrees."""
    return np.rad2deg(np.unwrap(np.angle(h)))


def low_frequency_gain(h: np.ndarray) -> float:
    """Gain magnitude at the first (lowest) sweep point."""
    return _finite(float(np.abs(h[0])), "low-frequency gain")


def low_frequency_gain_db(h: np.ndarray) -> float:
    """Gain in dB at the first (lowest) sweep point."""
    return 20.0 * math.log10(low_frequency_gain(h) + 1e-300)


def _log_interp_crossing(
    freqs: np.ndarray, values: np.ndarray, target: float
) -> float:
    """Frequency where ``values`` first crosses down through ``target``
    (log-f interpolation).

    The search starts at the first point at-or-above the target, so a
    response that *starts below* the target (a coarse sweep catching the
    rising edge of a band-pass shape, or a gain curve whose first point
    sits a hair under unity) still reports its downward crossing instead
    of failing on the first sample.  A response that never reaches the
    target at all is a measurement error, as is one that reaches it but
    never comes back down.
    """
    above = values >= target
    above_idx = np.flatnonzero(above)
    if not len(above_idx):
        raise MeasureError("response never reaches the target level")
    start = int(above_idx[0])
    for k in range(start + 1, len(freqs)):
        if not above[k]:
            f0, f1 = freqs[k - 1], freqs[k]
            v0, v1 = values[k - 1], values[k]
            if v0 == v1:
                return float(f0)
            frac = (v0 - target) / (v0 - v1)
            return _finite(
                float(10 ** (np.log10(f0) + frac * (np.log10(f1) - np.log10(f0)))),
                "crossing frequency",
            )
    raise MeasureError("response never crosses the target level in the sweep")


def unity_gain_frequency(freqs: np.ndarray, h: np.ndarray) -> float:
    """Frequency where ``|h|`` crosses 1 (requires |h(f_min)| > 1)."""
    return _log_interp_crossing(np.asarray(freqs), np.abs(h), 1.0)


def bandwidth_3db(freqs: np.ndarray, h: np.ndarray) -> float:
    """-3dB bandwidth relative to the low-frequency gain."""
    mag = np.abs(h)
    return _log_interp_crossing(np.asarray(freqs), mag, mag[0] / math.sqrt(2.0))


def phase_margin(freqs: np.ndarray, h: np.ndarray) -> float:
    """Phase margin in degrees: ``180 + phase`` at the unity-gain frequency.

    The phase is unwrapped before interpolation, but unwrapping assumes
    less than a half-turn between adjacent sweep points; when the *raw*
    phase gap between the two samples bracketing the unity-gain crossing
    exceeds 180°, the unwrap correction applied right where the margin
    is read is guesswork (the true trajectory could have gone around
    either way), so the interpolated value is an artifact of sweep
    resolution, not a measurement — that case raises instead of
    returning a plausible wrong number.
    """
    freqs = np.asarray(freqs)
    fu = unity_gain_frequency(freqs, h)
    phase = phase_deg(h)
    logf = np.log10(freqs)
    k = int(np.searchsorted(logf, np.log10(fu)))
    k = min(max(k, 1), len(phase) - 1)
    raw = np.rad2deg(np.angle(h))
    if abs(float(raw[k] - raw[k - 1])) > 180.0:
        raise MeasureError(
            "phase wraps between the sweep points bracketing the "
            "unity-gain crossing; increase points_per_decade"
        )
    ph_u = float(np.interp(np.log10(fu), logf, phase))
    return _finite(180.0 + ph_u, "phase margin")


def input_admittance(v_port: np.ndarray, i_port: np.ndarray) -> np.ndarray:
    """Complex admittance seen at a port, ``I/V``."""
    return i_port / v_port


def capacitance_from_admittance(freqs: np.ndarray, y: np.ndarray, at_index: int = 0) -> float:
    """Extract capacitance from ``Im(Y)/omega`` at one sweep point."""
    omega = 2.0 * math.pi * float(np.asarray(freqs)[at_index])
    return _finite(float(np.imag(y[at_index]) / omega), "capacitance")


def resistance_from_admittance(y: np.ndarray, at_index: int = 0) -> float:
    """Extract parallel resistance from ``1/Re(Y)`` at one sweep point."""
    real = float(np.real(y[at_index]))
    if real == 0.0:
        raise MeasureError("port has zero real admittance")
    return _finite(1.0 / real, "resistance")


# --- transient measures ------------------------------------------------------


def crossing_times(
    t: np.ndarray,
    wave: np.ndarray,
    level: float,
    direction: str = "rise",
) -> np.ndarray:
    """All times where ``wave`` crosses ``level`` in the given direction.

    ``direction`` is ``"rise"``, ``"fall"`` or ``"both"``.  Crossing times
    are linearly interpolated between samples.
    """
    t = np.asarray(t)
    wave = np.asarray(wave)
    above = wave >= level
    changes = np.nonzero(above[1:] != above[:-1])[0]
    times = []
    for k in changes:
        rising = not above[k]
        if direction == "rise" and not rising:
            continue
        if direction == "fall" and rising:
            continue
        v0, v1 = wave[k], wave[k + 1]
        frac = (level - v0) / (v1 - v0)
        times.append(t[k] + frac * (t[k + 1] - t[k]))
    return np.asarray(times)


def delay_between(
    t: np.ndarray,
    wave_from: np.ndarray,
    wave_to: np.ndarray,
    level_from: float,
    level_to: float,
    direction_from: str = "rise",
    direction_to: str = "rise",
    occurrence: int = 0,
) -> float:
    """Delay from a crossing of one waveform to the next crossing of another."""
    from_times = crossing_times(t, wave_from, level_from, direction_from)
    if len(from_times) <= occurrence:
        raise MeasureError("reference waveform has no such crossing")
    t_ref = from_times[occurrence]
    to_times = crossing_times(t, wave_to, level_to, direction_to)
    later = to_times[to_times > t_ref]
    if len(later) == 0:
        raise MeasureError("target waveform never crosses after the reference")
    return _finite(float(later[0] - t_ref), "delay")


def oscillation_frequency(
    t: np.ndarray,
    wave: np.ndarray,
    settle_fraction: float = 0.5,
    min_cycles: int = 3,
) -> float:
    """Oscillation frequency from rising zero crossings of ``wave - mean``.

    Only the trailing ``1 - settle_fraction`` of the record is used, so
    start-up transients are excluded.  Raises
    :class:`~repro.errors.MeasureError` if fewer than ``min_cycles``
    periods are observed (i.e. the circuit is not oscillating).
    """
    t = np.asarray(t)
    wave = np.asarray(wave)
    start = int(len(t) * settle_fraction)
    tt, ww = t[start:], wave[start:]
    if len(tt) < 4:
        raise MeasureError("record too short for frequency measurement")
    swing = float(np.max(ww) - np.min(ww))
    if swing < 1e-6:
        raise MeasureError("waveform is flat; no oscillation")
    level = float(np.mean(ww))
    rises = crossing_times(tt, ww, level, "rise")
    if len(rises) < min_cycles + 1:
        raise MeasureError(
            f"only {max(0, len(rises) - 1)} full periods observed "
            f"(need {min_cycles})"
        )
    periods = np.diff(rises)
    return _finite(float(1.0 / np.mean(periods)), "oscillation frequency")


def average_power(
    t: np.ndarray, supply_current: np.ndarray, vdd: float, settle_fraction: float = 0.0
) -> float:
    """Average power drawn from a supply: ``vdd * mean(-i_source)``.

    By SPICE convention the current of a supply *source* flows from its
    positive terminal through the source, so a sourcing supply has a
    negative branch current; the sign flip makes the result positive.
    """
    t = np.asarray(t)
    i = np.asarray(supply_current)
    start = int(len(t) * settle_fraction)
    if len(t[start:]) < 2:
        raise MeasureError("record too short for power measurement")
    avg_current = float(np.trapezoid(i[start:], t[start:]) / (t[-1] - t[start]))
    return _finite(-avg_current * vdd, "average power")


def peak_to_peak(wave: np.ndarray) -> float:
    """Peak-to-peak amplitude of a waveform."""
    wave = np.asarray(wave)
    return _finite(float(np.max(wave) - np.min(wave)), "peak-to-peak amplitude")


#: Identifies the DC root finder behind offset and gate-bias measurements.
#: It is part of every evaluation-cache key (see
#: :func:`repro.runtime.evalcache.analysis_signature`), so values measured
#: by an earlier method are never served next to this one's.
ROOT_FINDER = "brent-v1"


class _Bracket:
    """One sign-change bracket refined by Brent's method.

    ``b`` is the best point so far (smallest ``|f|``), ``c`` the far end
    of the bracket (``f(c)`` of the opposite sign) and ``a`` the previous
    ``b``.  Each step interpolates — inverse quadratic through ``a, b,
    c`` or secant through ``a, b`` — and falls back to bisection when
    the interpolated step is not shrinking fast enough, so the bracket
    closes superlinearly on smooth responses and still closes on
    step-like or flat-tailed ones.  Steps are at least half a
    tolerance long: a point that lands next to the root is followed by
    one just across it, which closes the bracket.
    """

    __slots__ = ("a", "b", "c", "fa", "fb", "fc", "d", "e", "tolerance")

    def __init__(self, lo, hi, f_lo, f_hi, tolerance):
        self.a, self.fa = lo, f_lo
        self.b, self.fb = hi, f_hi
        self.c, self.fc = lo, f_lo
        self.d = self.e = hi - lo
        self.tolerance = tolerance

    def settle(self) -> bool:
        """Re-label the points after ``f(b)`` changed; True once the
        bracket ``[b, c]`` is narrower than the tolerance."""
        if self.fb * self.fc > 0:
            self.c, self.fc = self.a, self.fa
            self.d = self.e = self.b - self.a
        if abs(self.fc) < abs(self.fb):
            self.a, self.b, self.c = self.b, self.c, self.b
            self.fa, self.fb, self.fc = self.fb, self.fc, self.fb
        return abs(self.c - self.b) < self.tolerance

    def step(self) -> float:
        """Advance ``b`` to the next point to evaluate, and return it."""
        a, b, c = self.a, self.b, self.c
        fa, fb, fc = self.fa, self.fb, self.fc
        tol1 = 0.5 * self.tolerance
        xm = 0.5 * (c - b)
        if abs(self.e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * xm * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(self.e * q)):
                self.e, self.d = self.d, p / q
            else:
                self.d = self.e = xm
        else:
            self.d = self.e = xm
        self.a, self.fa = b, fb
        self.b = b + (self.d if abs(self.d) > tol1 else math.copysign(tol1, xm))
        return self.b


def find_dc_zero(
    evaluate,
    lo: float,
    hi: float,
    tolerance: float = 1e-7,
    max_iterations: int = 60,
) -> float:
    """Bracketed root finder used by offset and gate-bias measurements.

    ``evaluate`` maps a scalar input (e.g. differential input voltage) to a
    scalar response (e.g. differential output current); the root of the
    response in ``[lo, hi]`` is returned.

    Both ends of ``[lo, hi]`` are evaluated (``lo`` first); an exact zero
    at an end returns that end, and ends of equal sign raise a
    :class:`~repro.errors.MeasureError`.  Otherwise the bracket is refined
    by Brent's method (:class:`_Bracket`) until a point evaluates to
    exactly zero or the bracket is narrower than ``tolerance`` (or
    ``max_iterations`` steps have run), and its best point is returned.
    Exceptions raised by ``evaluate`` propagate.
    """
    f_lo = evaluate(lo)
    f_hi = evaluate(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        raise MeasureError(
            f"no sign change in [{lo:.4g}, {hi:.4g}] "
            f"(f={f_lo:.4g} .. {f_hi:.4g})"
        )
    bracket = _Bracket(lo, hi, f_lo, f_hi, tolerance)
    if bracket.settle():
        return bracket.b
    for _ in range(max_iterations):
        fv = evaluate(bracket.step())
        bracket.fb = fv
        if fv == 0.0 or bracket.settle():
            break
    return bracket.b
