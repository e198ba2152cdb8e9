"""Tension-dependent lumped vibration model and impact-test processing.

Each Cartesian axis carries an independent single mass-spring-damper whose
natural frequency grows linearly with the static tension carried by the
coupling module. The module provides FRF synthesis from that model, H1
FRF estimation from hammer-impact records, compliance peak picking and a
linear frequency-shift-vs-tension fit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .csvtable import read_table, write_table
from .errors import DegenerateSignalError, InvalidInputError, RankDeficiencyError
from .geometry import frozen

AXES = ("x", "y", "z")
# h1_estimate refuses an FFT length above this and above the longest record.
MAX_NFFT = 2**22


@dataclass(frozen=True)
class ModalModel:
    """Per-axis 1-DOF oscillator with linear tension sensitivity."""

    axis: str
    mass: float           # kg
    damping_ratio: float  # dimensionless, [0, 1)
    f0: float             # natural frequency at zero tension, Hz
    sensitivity: float    # Hz per N of tension

    def __post_init__(self):
        if self.axis not in AXES:
            raise InvalidInputError(f"axis must be one of {AXES}")
        if not (0 < self.mass < math.inf):
            raise InvalidInputError("mass must be positive and finite")
        if not (0 <= self.damping_ratio < 1):
            raise InvalidInputError("damping ratio must lie in [0, 1)")
        if not (0 < self.f0 < math.inf):
            raise InvalidInputError("zero-tension natural frequency must be positive and finite")
        if not math.isfinite(self.sensitivity):
            raise InvalidInputError("tension sensitivity must be finite")


@dataclass(frozen=True)
class FrfSeries:
    """Complex compliance (m/N) over an ascending frequency grid."""

    frequencies: np.ndarray
    values: np.ndarray
    axis: str = "x"
    position: str = ""
    tension: float = 0.0

    def __post_init__(self):
        f = frozen(self.frequencies)
        v = frozen(self.values, dtype=complex)
        if f.ndim != 1 or f.shape != v.shape:
            raise InvalidInputError("frequencies and values must be 1-D and the same length")
        down = np.flatnonzero(np.diff(f) <= 0)
        if down.size:
            k = int(down[0]) + 1
            raise InvalidInputError(f"frequency grid must be strictly ascending, found {float(f[k])!r} Hz "
                                    f"after {float(f[k - 1])!r} Hz", index=k)
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(v)) and math.isfinite(self.tension)):
            raise InvalidInputError("FRF contains non-finite entries or tension")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ImpactRecord:
    """One hammer impact: force and acceleration time series."""

    sample_rate: float
    force: np.ndarray
    acceleration: np.ndarray
    axis: str = "x"
    position: str = ""
    tension: float = 0.0

    def __post_init__(self):
        f = frozen(self.force)
        a = frozen(self.acceleration)
        if not (0 < self.sample_rate < math.inf):
            raise InvalidInputError("sample rate must be positive and finite")
        if f.ndim != 1 or f.shape != a.shape or f.size < 2:
            raise InvalidInputError("force and acceleration must be equal-length series of >= 2 samples")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(a)) and math.isfinite(self.tension)):
            raise InvalidInputError("impact record contains non-finite samples or tension")
        peak = np.max(np.abs(f))
        if peak == 0:
            raise DegenerateSignalError("force signal is identically zero")
        med = np.median(np.abs(f))
        if med > 0 and peak <= 10 * med:
            raise InvalidInputError("force signal lacks a dominant transient")
        object.__setattr__(self, "force", f)
        object.__setattr__(self, "acceleration", a)


@dataclass(frozen=True)
class ShiftFit:
    """Least-squares line through (tension, natural frequency) points."""

    slope: float       # Hz/N
    intercept: float   # Hz
    residuals: np.ndarray
    scope: str = "global"


def effective_stiffness(model: ModalModel, tension):
    fn = natural_frequency(model, tension)
    return model.mass * (2 * math.pi * fn) ** 2


def natural_frequency(model: ModalModel, tension):
    """f_n(T) = f0 + sensitivity * T; compression (T < 0) and a tension
    that drives f_n to zero or below are rejected."""
    if tension < 0:
        raise InvalidInputError("tension must be non-negative")
    fn = model.f0 + model.sensitivity * tension
    if not fn > 0:
        raise InvalidInputError(f"natural frequency at tension {tension:g} N is {fn:g} Hz, not positive")
    return fn


def frf_synthesize(model: ModalModel, tension, grid) -> FrfSeries:
    """Compliance H(f) = 1 / (k_eff - m w^2 + i c w) on the given grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise InvalidInputError("frequency grid is empty")
    if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise InvalidInputError("frequency grid must be positive and strictly ascending")
    k = effective_stiffness(model, tension)
    c = 2.0 * model.damping_ratio * math.sqrt(k * model.mass)
    w = 2 * math.pi * grid
    H = 1.0 / (k - model.mass * w**2 + 1j * c * w)
    return FrfSeries(grid, H, axis=model.axis, tension=float(tension))


def _force_window(force):
    """Rectangular window over the impact support (samples of at least 2 %
    of the peak, padded by one sample each side)."""
    mask = np.abs(force) >= 0.02 * np.max(np.abs(force))
    idx = np.nonzero(mask)[0]
    lo = max(0, idx[0] - 1)
    hi = min(force.size, idx[-1] + 2)
    w = np.zeros(force.size)
    w[lo:hi] = 1.0
    return w


def _exp_window(n):
    return np.exp(np.log(0.01) * np.arange(n) / (n - 1))


def h1_estimate(records, nfft=None) -> FrfSeries:
    """H1 compliance FRF averaged over repeated impacts.

    Accelerance S_fa/S_ff is formed from windowed FFTs (rectangular force
    window over the impact, exponential decay window on the response) and
    converted to compliance by dividing by -w^2; the DC bin is dropped.
    nfft (default: the longest record) may not exceed both it and MAX_NFFT.
    A record that differs from record 0 in sample rate, axis, position or
    tension is refused naming the field, both values and, as `index`, the
    record.
    """
    records = list(records)
    if not records:
        raise InvalidInputError("at least one impact record is required")
    first = records[0]
    for k, r in enumerate(records[1:], start=1):
        for name in ("sample_rate", "axis", "position", "tension"):
            value, want = getattr(r, name), getattr(first, name)
            if value != want:
                raise InvalidInputError(f"impact record {k} differs from record 0 in {name}: {value!r}, "
                                        f"not {want!r}", index=k)
    longest = max(len(r.force) for r in records)
    nfft = longest if nfft is None else nfft
    if isinstance(nfft, bool) or not (isinstance(nfft, numbers.Integral) and nfft >= 2):
        raise InvalidInputError(f"nfft must be an integer >= 2, got {nfft!r:.40}")
    if nfft > max(MAX_NFFT, longest):
        raise InvalidInputError(f"nfft {nfft} exceeds both {MAX_NFFT} and the longest record ({longest})")
    s_ff = np.zeros(nfft // 2 + 1)
    s_fa = np.zeros(nfft // 2 + 1, dtype=complex)
    for r in records:
        F = np.fft.rfft(r.force * _force_window(r.force), nfft)
        A = np.fft.rfft(r.acceleration * _exp_window(r.acceleration.size), nfft)
        s_ff += (np.conj(F) * F).real
        s_fa += np.conj(F) * A
    if np.all(s_ff == 0):
        raise DegenerateSignalError("force auto-spectrum is identically zero")
    freqs = np.fft.rfftfreq(nfft, 1.0 / first.sample_rate)
    accelerance = s_fa / s_ff
    w = 2 * math.pi * freqs[1:]
    compliance = accelerance[1:] / (-(w**2))
    return FrfSeries(freqs[1:], compliance, axis=first.axis, position=first.position,
                     tension=first.tension)


def peak_pick(frf: FrfSeries, min_freq, max_freq, prominence_factor=3.0):
    """Prominent local maxima of |H| inside [min_freq, max_freq].

    Returns (frequency, magnitude) tuples sorted ascending by frequency.
    Prominence threshold is prominence_factor times the median magnitude
    inside the band.
    """
    if not (prominence_factor > 0):
        raise InvalidInputError("prominence factor must be positive")
    sel = (frf.frequencies >= min_freq) & (frf.frequencies <= max_freq)
    if min_freq >= max_freq or not np.any(sel):
        raise InvalidInputError("requested band contains no grid points")
    mag = np.abs(frf.values[sel])
    freqs = frf.frequencies[sel]
    prominence = prominence_factor * np.median(mag)
    return [(float(freqs[i]), float(mag[i])) for i in _prominent_peaks(mag, prominence)]


def _prominent_peaks(x, prominence):
    """Indices of the peaks of the finite series x whose prominence is at
    least `prominence`, ascending.

    A peak is a run of equal samples with a lower sample on each side (not
    the first or last run), reported at its middle sample. Its prominence is
    its height over the higher of its two bases; a base is the lowest sample
    between the peak and the nearest strictly higher sample on that side, or
    the end of x. Each candidate is scanned on its own, as
    scipy.signal.find_peaks does: O(candidates x runs).
    """
    if x.size < 3:
        return np.zeros(0, dtype=np.intp)
    change = np.flatnonzero(x[1:] != x[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change - 1, [x.size - 1]))
    runs = x[starts]
    # No prominence exceeds the height over the minimum: drop those peaks first.
    mid = runs[1:-1]
    candidates = np.flatnonzero((mid > runs[:-2]) & (mid > runs[2:]) & (mid - runs.min() >= prominence)) + 1
    peaks = []
    for k in candidates:
        higher = np.flatnonzero(runs > runs[k])
        j = np.searchsorted(higher, k)
        left = higher[j - 1] + 1 if j else 0
        right = higher[j] if j < higher.size else runs.size
        if runs[k] - max(runs[left:k].min(), runs[k + 1:right].min()) >= prominence:
            peaks.append(k)
    peaks = np.array(peaks, dtype=np.intp)
    return (starts[peaks] + ends[peaks]) // 2


def fit_shift(points, scope="global") -> ShiftFit:
    """Ordinary least-squares line through (tension, frequency) points."""
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise InvalidInputError("at least two (tension, frequency) points are required")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("(tension, frequency) points must be finite")
    T, f = pts[:, 0], pts[:, 1]
    if np.ptp(T) == 0:
        raise RankDeficiencyError("all tensions identical: the line fit is rank deficient")
    A = np.column_stack([T, np.ones_like(T)])
    (slope, intercept), *_ = np.linalg.lstsq(A, f, rcond=None)
    residuals = f - (slope * T + intercept)
    return ShiftFit(float(slope), float(intercept), residuals, scope=scope)


def simulate_impact(model: ModalModel, tension, sample_rate=4096.0, duration=4.0,
                    impact_width=0.002) -> ImpactRecord:
    """Simulate the oscillator response to a 100 N half-sine hammer impact.

    Used to generate desk-scale stand-ins for the physical impact tests.
    The half-sine is sampled at `sample_rate` and held linearly between
    samples (a first-order hold), the usual lsim discretization. With state
    x = (displacement, velocity), x' = A x + B u and time step h,

        x[i] = Ad x[i-1] + Bd0 u[i-1] + Bd1 u[i],   x[0] = 0,

    where Ad = e^{A h}, Bd0 + Bd1 = int_0^h e^{A s} ds B and
    Bd1 = int_0^h e^{A s} (1 - s/h) ds B: the blocks of the exponential of
    [[A h, B h, 0], [0, 0, 1], [0, 0, 0]]. The acceleration is C x + D u.
    The steps run over the pulse samples only. Past the last nonzero force
    sample the response is free, x[last + j] = e^{A j h} x[last], and is
    written for all remaining samples at once; with 0 <= damping ratio < 1
    the oscillator is underdamped, so e^{A t} has a closed form.
    """
    if not all(0 < v < math.inf for v in (sample_rate, duration, impact_width)):
        raise InvalidInputError("sample rate, duration and impact width must be positive and finite")
    span = sample_rate * duration
    if not (1.5 <= span < math.inf):  # round(1.5) == 2
        raise InvalidInputError(f"sample rate x duration is {span:g} samples, need a finite count >= 2")
    n = int(round(span))
    t = np.arange(n) / sample_rate
    force = np.where(t < impact_width, 100.0 * np.sin(math.pi * t / impact_width), 0.0)
    k = effective_stiffness(model, tension)
    c = 2.0 * model.damping_ratio * math.sqrt(k * model.mass)
    m = model.mass
    A = np.array([[0.0, 1.0], [-k / m, -c / m]])
    B = np.array([0.0, 1.0 / m])
    C = np.array([-k / m, -c / m])  # output: acceleration
    D = 1.0 / m
    wn = math.sqrt(k / m)
    decay = model.damping_ratio * wn
    wd = wn * math.sqrt(1.0 - model.damping_ratio**2)

    def expm_coefficients(t):
        """(a, b) with e^{A t} = a I + b (A + decay I)."""
        envelope = np.exp(-decay * t)
        return envelope * np.cos(wd * t), envelope * np.sin(wd * t) / wd

    h = 1.0 / sample_rate
    a, b = expm_coefficients(h)
    Ad = a * np.eye(2) + b * (A + decay * np.eye(2))
    A_inv = np.linalg.inv(A)
    G = A_inv @ (Ad @ B - B)  # int_0^h e^{A s} ds B
    Bd1 = G - A_inv @ (Ad @ B - G / h)
    Bd0 = G - Bd1

    accel = force * D
    pulse = np.flatnonzero(force)
    last = min(pulse[-1] + 1, n - 1) if pulse.size else 0
    x = np.zeros(2)
    for i in range(1, last + 1):
        x = Ad @ x + Bd0 * force[i - 1] + Bd1 * force[i]
        accel[i] += C @ x
    a, b = expm_coefficients(np.arange(1, n - last) * h)
    accel[last + 1:] = a * (C @ x) + b * (C @ (A @ x + decay * x))
    return ImpactRecord(sample_rate, force, accel, axis=model.axis, tension=float(tension))


# ---------------------------------------------------------------------------
# CSV interchange


_FRF_COLUMNS = ("freq_hz", "re", "im")
_SHIFT_COLUMNS = ("tension_N", "freq_hz", "fit_hz", "residual_hz")
_IMPACT_COLUMNS = ("time_s", "force_N", "accel_ms2")


def frf_to_csv(frf: FrfSeries) -> str:
    meta = {"axis": frf.axis, "position": frf.position, "tension_N": repr(frf.tension)}
    table = np.column_stack([frf.frequencies, frf.values.real, frf.values.imag])
    return write_table(meta, _FRF_COLUMNS, table)


def frf_from_csv(text) -> FrfSeries:
    meta, data = read_table(text, _FRF_COLUMNS, "FRF CSV")
    values = np.empty(len(data), dtype=complex)
    values.real, values.imag = data[:, 1], data[:, 2]  # re + 1j * im would turn re = -0.0 into +0.0
    tension = meta.number("tension_N", 0.0)
    return meta.build(FrfSeries, data[:, 0], values, meta.get("axis", "x"), meta.get("position", ""), tension)


def shift_fit_to_csv(points, fit: ShiftFit) -> str:
    meta = {"scope": fit.scope, "slope_hz_per_n": repr(fit.slope), "intercept_hz": repr(fit.intercept)}
    T, f = np.reshape(np.asarray(list(points), dtype=float), (-1, 2)).T
    table = np.column_stack([T, f, fit.intercept + fit.slope * T, fit.residuals])
    return write_table(meta, _SHIFT_COLUMNS, table)


def impact_record_from_csv(text) -> ImpactRecord:
    """Parse an impact record CSV: columns time_s, force_N, accel_ms2 with
    metadata in '# key=value' header comments."""
    meta, data = read_table(text, _IMPACT_COLUMNS, "impact CSV")
    if data.shape[0] < 2:
        raise InvalidInputError("impact CSV needs at least two samples")
    rate = meta.number("sample_rate_hz", None)
    if rate is not None and not rate > 0:
        raise meta.error("sample_rate_hz", "is not positive")
    if rate is None:
        dt = np.diff(data[:, 0])
        if not dt[0] > 0:
            raise meta.row_error(1, f"time {float(data[1, 0])!r} s does not follow sample 0 at {float(data[0, 0])!r} s")
        off = np.flatnonzero(~(np.abs(dt - dt[0]) <= 1e-9 * dt[0]))
        if off.size:
            k = int(off[0]) + 1
            raise meta.row_error(k, f"time column is not uniformly sampled: sample {k} is {float(dt[k - 1])!r} s "
                                    f"after the one before, sample 1 {float(dt[0])!r} s")
        rate = 1.0 / float(dt[0])
    record = ImpactRecord(
        rate,
        data[:, 1],
        data[:, 2],
        axis=meta.get("axis", "x"),
        position=meta.get("position", ""),
        tension=meta.number("tension_N", 0.0),
    )
    # A time column that disagrees with the sample rate key would scale every frequency.
    off = np.flatnonzero(np.abs(data[:, 0] - np.arange(len(data)) / rate) > 1e-9 / rate)
    if off.size:
        k = int(off[0])
        raise meta.row_error(k, f"time {float(data[k, 0])!r} s does not match sample_rate_hz={rate!r}: "
                                f"sample {k} is at {k / rate!r} s")
    return record


def impact_record_to_csv(record: ImpactRecord) -> str:
    meta = {
        "axis": record.axis,
        "position": record.position,
        "tension_N": repr(record.tension),
        "sample_rate_hz": repr(record.sample_rate),
    }
    t = np.arange(record.force.size) / record.sample_rate
    table = np.column_stack([t, record.force, record.acceleration])
    return write_table(meta, _IMPACT_COLUMNS, table)

