"""Array geometry, steering vectors, scene synthesis, and DFT subbanding.

A uniform linear array of M sensors observes K far-field wideband sources.
The time-domain outputs are split into J narrowband bins; each bin j carries
a single-snapshot vector y(omega_j) that follows the narrowband steering
model at the scaled spatial frequency alpha_j * f_k, where f_k is the
spatial frequency of source k at the reference (highest) bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def check_integer(name: str, value, low: int):
    """value if it is an integer >= low, else ValueError; a bool is no integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def _is_real(value) -> bool:
    """Whether value is an int or float scalar; a bool is no number."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_real(name: str, value, sign: str = None):
    """value if it is a finite real number, of the given sign ("positive" or
    "nonnegative") if any, else ValueError."""
    if not (_is_real(value) and -np.inf < value < np.inf and (sign != "positive" or value > 0)
            and (sign != "nonnegative" or value >= 0)):
        raise ValueError(f"{name} must be finite and {sign}, got {value!r}" if sign
                         else f"{name} must be finite, got {value!r}")
    return value


def check_angles(name: str, angles) -> tuple:
    """angles as a tuple of floats if each is a real number strictly inside
    (-90, 90) degrees and no two are equal, else ValueError."""
    for a in angles:
        if not (_is_real(a) and -90 < a < 90):
            raise ValueError(f"{name}: angle must lie in (-90, 90) degrees, got {a!r}")
    angles = tuple(float(a) for a in angles)
    if len(set(angles)) != len(angles):
        raise ValueError(f"{name}: angles must be pairwise distinct, got {list(angles)}")
    return angles


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array geometry and physical constants.

    The spacing is pinned to half the minimum wavelength of the selected
    band, d = pi * c / omega1, which keeps every subband unambiguous.

    Parameters
    ----------
    M : int
        Number of sensors (>= 2).
    c : float
        Propagation speed in m/s.
    omega1 : float
        Highest selected angular frequency in rad/s.
    """

    M: int
    c: float
    omega1: float

    def __post_init__(self):
        check_integer("M", self.M, 2)
        check_real("c (propagation speed)", self.c, "positive")
        check_real("omega1 (reference frequency)", self.omega1, "positive")


@dataclass(frozen=True)
class WidebandScene:
    """A set of sources with per-bin spectra plus a noise level.

    ``source_spectra`` is K x J: row k holds s_k(omega_j) for the J bins.
    ``noise_variance`` is the total variance of each complex noise entry
    (real and imaginary parts carry half each). K = 0 means noise only.
    """

    angles_deg: tuple
    source_spectra: np.ndarray
    noise_variance: float = 0.0
    seed: int = 0

    def __post_init__(self):
        angles = check_angles("angles_deg", self.angles_deg)
        object.__setattr__(self, "angles_deg", angles)
        spectra = np.atleast_2d(np.asarray(self.source_spectra, dtype=complex))
        if len(angles) == 0:
            spectra = spectra.reshape(0, spectra.shape[1] if spectra.size else 0)
        object.__setattr__(self, "source_spectra", spectra)
        if spectra.ndim != 2 or not np.all(np.isfinite(spectra)):
            raise ValueError(f"source spectra must be a finite K x J array, got shape "
                             f"{spectra.shape}")
        if spectra.shape[0] != len(angles):
            raise ValueError(
                f"spectra rows ({spectra.shape[0]}) must match source count ({len(angles)})"
            )
        check_real("noise_variance", self.noise_variance, "nonnegative")
        check_integer("seed", self.seed, 0)

    @property
    def K(self) -> int:
        return len(self.angles_deg)


@dataclass
class SubbandData:
    """Single-snapshot measurements for J narrowband bins.

    ``Y`` is M x J with column j the snapshot at omega_j.  Bins are ordered
    by strictly decreasing frequency, and the ratios alphas = omegas /
    omegas[0] follow from them, so alphas[0] = 1 at the reference bin.
    """

    Y: np.ndarray
    omegas: np.ndarray

    def __post_init__(self):
        self.Y = np.asarray(self.Y, dtype=complex)
        if not np.all(np.isfinite(self.Y)):
            raise ValueError("Y must be finite (no NaN or Inf entries)")
        self.omegas = np.asarray(self.omegas, dtype=float)
        if self.Y.ndim != 2 or self.Y.shape[1] != self.omegas.size:
            raise ValueError("Y must be M x J with one column per bin")
        w = self.omegas
        if not (self.J >= 1 and np.isfinite(w[0]) and w[-1] > 0 and np.all(np.diff(w) < 0)):
            raise ValueError("omegas must be finite, positive and strictly decreasing, J >= 1")

    @property
    def alphas(self) -> np.ndarray:
        """Frequency ratios omega_j / omega_1, with alphas[0] = 1."""
        return self.omegas / self.omegas[0]

    @property
    def M(self) -> int:
        return self.Y.shape[0]

    @property
    def J(self) -> int:
        return self.Y.shape[1]

    def save_csv(self, path):
        """Write interleaved real/imag values, row-major, with a header."""
        M, J = self.Y.shape
        header = "M=%d,J=%d,omegas=%s" % (
            M,
            J,
            ";".join(repr(float(w)) for w in self.omegas),
        )
        flat = np.empty((M, 2 * J))
        flat[:, 0::2] = self.Y.real
        flat[:, 1::2] = self.Y.imag
        np.savetxt(path, flat, delimiter=",", header=header)

    @classmethod
    def load_csv(cls, path):
        with open(path) as fh:
            header = fh.readline().lstrip("# ").strip()
        fields = dict(kv.split("=", 1) for kv in header.split(",", 2))
        M, J = int(fields["M"]), int(fields["J"])
        omegas = np.array([float(w) for w in fields["omegas"].split(";")])
        flat = np.loadtxt(path, delimiter=",", skiprows=1).reshape(M, 2 * J)
        Y = flat[:, 0::2] + 1j * flat[:, 1::2]
        return cls(Y=Y, omegas=omegas)


def theta_to_f(theta_deg):
    """Map a DOA angle in degrees to its spatial frequency f = sin(theta)/2.

    Valid angles lie strictly inside (-90, 90); the mapping is strictly
    increasing and covers (-1/2, 1/2).
    """
    theta = np.asarray(theta_deg, dtype=float)
    if not np.all(np.abs(theta) < 90):
        raise ValueError(f"angle must lie in (-90, 90) degrees, got {theta_deg}")
    f = 0.5 * np.sin(np.deg2rad(theta))
    return float(f) if np.isscalar(theta_deg) else f


def f_to_theta(f):
    """Inverse of :func:`theta_to_f`; accepts f in [-1/2, 1/2]."""
    fa = np.asarray(f, dtype=float)
    if not np.all(np.abs(fa) <= 0.5):
        raise ValueError(f"spatial frequency must lie in [-1/2, 1/2], got {f}")
    theta = np.rad2deg(np.arcsin(2.0 * fa))
    return float(theta) if np.isscalar(f) else theta


def steering_vector(f, M: int) -> np.ndarray:
    """Steering vector a(f) with entries exp(-i*2*pi*f*m), m = 0..M-1; an
    array of frequencies gives one vector per entry along a new last axis."""
    return np.exp(-2j * np.pi * np.asarray(f)[..., None] * np.arange(check_integer("M", M, 1)))


def steering_matrix(fs, M: int) -> np.ndarray:
    """Stack steering vectors columnwise: M x len(fs)."""
    fs = np.atleast_1d(np.asarray(fs, dtype=float))
    m = np.arange(check_integer("M", M, 1))[:, None]
    return np.exp(-2j * np.pi * m * fs[None, :])


def stationary_frequencies(G: np.ndarray, maxima: bool) -> np.ndarray:
    """Sorted frequencies in [-1/2, 1/2] of the local maxima (else minima) of
    a(f)^H G a(f) for a Hermitian G; none if it is constant.

    With z = exp(-i 2 pi f) and r_k the k-th diagonal sum of G, a(f)^H G a(f)
    = sum_{|k|<M} r_k z^k is stationary at the unit-circle roots of
    sum_k k r_k z^k, with a maximum where Re sum_k k^2 r_k z^k > 0 (the
    root-finding step of Tang, Bhaskar, Shah & Recht, IEEE TIT 2013)."""
    M = G.shape[0]
    k = np.arange(1 - M, M)
    r = np.array([np.trace(G, offset) for offset in k])
    z = np.roots((k * r)[::-1])
    z = z[np.abs(np.abs(z) - 1.0) < 1e-6]
    curvature = np.real(z[:, None] ** k @ (k * k * r))
    keep = curvature > 0 if maxima else curvature < 0
    return np.sort(-np.angle(z[keep]) / (2 * np.pi))


def check_bins(scene: WidebandScene, J: int):
    """Raise ValueError unless the scene's spectra cover J bins."""
    if scene.K and scene.source_spectra.shape[1] != J:
        raise ValueError(
            f"scene spectra have {scene.source_spectra.shape[1]} bins, subbands have {J}")


def synthesize_scene(cfg: ArrayConfig, scene: WidebandScene, bins) -> SubbandData:
    """Simulate the M x J measurement matrix for a scene at the bins
    omega1 * alphas of ``bins`` (a FocusingSet, say; alphas[0] must be 1).

    Column j is sum_k a(alpha_j * f_k) * s_k(omega_j) plus circular complex
    Gaussian noise of per-entry variance ``scene.noise_variance``.  The draw
    is deterministic given ``scene.seed``.
    """
    alphas = bins.alphas
    if alphas[0] != 1.0:
        raise ValueError(f"reference bin must have alpha = 1, got {alphas[0]}")
    J = alphas.size
    check_bins(scene, J)
    Y = np.zeros((cfg.M, J), dtype=complex)
    for th, s in zip(scene.angles_deg, scene.source_spectra):
        Y += steering_vector(alphas * theta_to_f(th), cfg.M).T * s
    if scene.noise_variance > 0:
        rng = np.random.default_rng(scene.seed)
        scale = np.sqrt(scene.noise_variance / 2.0)
        Y += scale * (rng.standard_normal((cfg.M, J)) + 1j * rng.standard_normal((cfg.M, J)))
    return SubbandData(Y=Y, omegas=cfg.omega1 * alphas)


def subband_transform(time_signals: np.ndarray, dft_size: int, band, J: int) -> SubbandData:
    """Extract J narrowband snapshots from time-domain sensor signals.

    Applies a ``dft_size``-point DFT (rectangular window on the leading
    samples) to each sensor and keeps the J in-band bins of largest
    frequency, ordered so omega_1 > omega_2 > ... > omega_J.  Frequencies
    are in rad/sample.
    """
    x = np.asarray(time_signals)
    if x.ndim != 2:
        raise ValueError("time_signals must be M x T")
    M, T = x.shape
    check_integer("J", J, 1)
    if check_integer("dft_size", dft_size, 1) > T:
        raise ValueError(f"dft_size={dft_size} exceeds signal length T={T}")
    lo, hi = band
    if not (0 < lo < hi < np.pi):
        raise ValueError(f"band must lie inside (0, pi), got {band}")
    spec = np.fft.fft(x[:, :dft_size], n=dft_size, axis=1)
    bin_omegas = 2 * np.pi * np.arange(dft_size) / dft_size
    in_band = np.nonzero((bin_omegas >= lo) & (bin_omegas <= hi))[0]
    if J > in_band.size:
        raise ValueError(f"J={J} must lie in 1..{in_band.size}, the bins inside the band")
    chosen = in_band[np.argsort(bin_omegas[in_band])[::-1][:J]]
    omegas = bin_omegas[chosen]
    return SubbandData(Y=spec[:, chosen], omegas=omegas)
