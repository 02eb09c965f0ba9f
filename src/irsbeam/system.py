"""Physical setup of the BS / active-IRS / user link.

Holds the scenario parameters (powers, noise variances, node geometry,
path-loss exponents), unit conversions, and the seeded Rayleigh channel
sampler used by every experiment.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemParams",
    "ChannelRealization",
    "dbm_to_watts",
    "node_distances",
    "path_loss_gain",
    "sample_channels",
    "sample_channels_batch",
    "trial_seed",
]


def dbm_to_watts(level: float) -> float:
    """Convert a power level in dBm to watts: 10^((level - 30) / 10)."""
    if not math.isfinite(level):
        raise ValueError("dBm level must be finite")
    return 10.0 ** ((level - 30.0) / 10.0)


def path_loss_gain(distance: float, exponent: float, ref_loss_db: float) -> float:
    """Linear power gain of a link: 10^(ref_loss_db/10) * distance^(-exponent).

    ``ref_loss_db`` is the gain in dB at 1 m; the result is used as the
    variance of each complex channel entry on that link. A gain too large
    for a float is ``inf``.
    """
    if distance <= 0.0:
        raise ValueError("distance must be positive")
    try:
        return 10.0 ** (ref_loss_db / 10.0) * distance ** (-exponent)
    except OverflowError:
        return math.inf


# Each link: its name, its two end nodes and its path-loss exponent.
_LINKS = (
    ("BS-IRS", "pos_bs", "pos_irs", "alpha_bi"),
    ("IRS-user", "pos_irs", "pos_user", "alpha_iu"),
    ("BS-user", "pos_bs", "pos_user", "alpha_bu"),
)


@dataclass(frozen=True)
class SystemParams:
    """Scenario parameters for one simulation cell.

    Powers and noise variances are linear watts; positions are 2-D
    coordinates in meters. ``ref_loss_db`` is the path-loss intercept at
    1 m (dB), applied to all three links.
    """

    n_elements: int                 # IRS element count N
    p_s: float                      # BS transmit power (W)
    p_i: float                      # IRS reflect-power budget (W)
    sigma_i_sq: float               # IRS amplification noise variance (W)
    sigma_u_sq: float               # user receiver noise variance (W)
    pos_bs: tuple[float, float]
    pos_irs: tuple[float, float]
    pos_user: tuple[float, float]
    alpha_bi: float                 # path-loss exponent BS -> IRS
    alpha_iu: float                 # path-loss exponent IRS -> user
    alpha_bu: float                 # path-loss exponent BS -> user
    ref_loss_db: float = -30.0

    def __post_init__(self) -> None:
        if self.n_elements < 1:
            raise ValueError("n_elements must be >= 1")
        for name in ("p_s", "p_i", "sigma_i_sq", "sigma_u_sq"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("alpha_bi", "alpha_iu", "alpha_bu"):
            value = getattr(self, name)
            if not (value >= 2.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and >= 2")
        for name in ("pos_bs", "pos_irs", "pos_user"):
            if not all(math.isfinite(v) for v in getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not math.isfinite(self.ref_loss_db):
            raise ValueError("ref_loss_db must be finite")
        # link_variances raises on coincident nodes.
        for (link, a, b, alpha), variance in zip(_LINKS, self.link_variances()):
            if not 0.0 < variance < math.inf:
                raise ValueError(f"{link} link variance must be finite and > 0, got "
                                 f"{variance} (set by {a}, {b}, {alpha} and ref_loss_db)")

    @classmethod
    def default(cls, n_elements: int = 64) -> "SystemParams":
        """Reference scenario: BS at the origin, user 150 m away on the
        axis, IRS offset at (100 m, 30 m); P_S = 15 dBm, P_I = 30 dBm,
        both noise floors at -70 dBm; exponents 2.3 / 2.3 / 3.8."""
        return cls(
            n_elements=n_elements,
            p_s=dbm_to_watts(15.0),
            p_i=dbm_to_watts(30.0),
            sigma_i_sq=dbm_to_watts(-70.0),
            sigma_u_sq=dbm_to_watts(-70.0),
            pos_bs=(0.0, 0.0),
            pos_irs=(100.0, 30.0),
            pos_user=(150.0, 0.0),
            alpha_bi=2.3,
            alpha_iu=2.3,
            alpha_bu=3.8,
            ref_loss_db=-30.0,
        )

    def link_variances(self) -> tuple[float, float, float]:
        """Per-entry channel variances (BS-IRS, IRS-user, BS-user)."""
        d_bi, d_iu, d_bu = node_distances(self)
        return (
            path_loss_gain(d_bi, self.alpha_bi, self.ref_loss_db),
            path_loss_gain(d_iu, self.alpha_iu, self.ref_loss_db),
            path_loss_gain(d_bu, self.alpha_bu, self.ref_loss_db),
        )


def node_distances(params: SystemParams) -> tuple[float, float, float]:
    """Euclidean distances (BS-IRS, IRS-user, BS-user) in meters."""
    out = []
    for _, a, b, _ in _LINKS:
        pa, pb = getattr(params, a), getattr(params, b)
        d = math.hypot(pa[0] - pb[0], pa[1] - pb[1])
        if d <= 0.0:
            raise ValueError(f"coincident nodes: {a} {pa} and {b} {pb}")
        out.append(d)
    return out[0], out[1], out[2]


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the three fading channels.

    ``g`` (BS->IRS) and ``f`` (IRS->user) are length-N complex vectors;
    ``h`` is the scalar BS->user direct channel. The diagonal matrices
    diag(g) and diag(f) used in the link equations are derived views and
    never stored.
    """

    g: np.ndarray
    f: np.ndarray
    h: complex

    def __post_init__(self) -> None:
        g = np.asarray(self.g, dtype=np.complex128)
        f = np.asarray(self.f, dtype=np.complex128)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "h", complex(self.h))
        if g.ndim != 1 or f.ndim != 1 or g.shape != f.shape:
            raise ValueError("g and f must be 1-D vectors of equal length")
        if not (np.isfinite(g).all() and np.isfinite(f).all()
                and math.isfinite(self.h.real) and math.isfinite(self.h.imag)):
            raise ValueError("channel entries must be finite")

    @property
    def n_elements(self) -> int:
        return self.g.shape[0]


def _complex_gaussian(re: np.ndarray, im: np.ndarray, variance: float) -> np.ndarray:
    # Circularly-symmetric: variance split evenly between Re and Im.
    return np.multiply(math.sqrt(variance / 2.0), re + np.multiply(1j, im))


def sample_channels_batch(params: SystemParams,
                          seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one realization per seed, stacked: (T, N) arrays ``g`` and
    ``f`` and (T,) direct channels ``h``.

    Row t equals ``sample_channels(params, seeds[t])`` bit for bit. Each
    seed's generator fills one row of 4N + 2 standard normals, in the
    order Re g, Im g, Re f, Im f, Re h, Im h.
    """
    var_bi, var_iu, var_bu = params.link_variances()
    n = params.n_elements
    z = np.empty((len(seeds), 4 * n + 2))
    for row, seed in zip(z, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    g = _complex_gaussian(z[:, :n], z[:, n:2 * n], var_bi)
    f = _complex_gaussian(z[:, 2 * n:3 * n], z[:, 3 * n:4 * n], var_iu)
    h = _complex_gaussian(z[:, 4 * n], z[:, 4 * n + 1], var_bu)
    return g, f, h


def sample_channels(params: SystemParams, seed: int) -> ChannelRealization:
    """Draw one Rayleigh-faded realization of (g, f, h).

    Entries are i.i.d. circularly-symmetric complex Gaussian with the
    link's path-loss gain as variance. Identical (params, seed) pairs
    reproduce the identical realization bit for bit.
    """
    g, f, h = sample_channels_batch(params, [seed])
    return ChannelRealization(g=g[0], f=f[0], h=complex(h[0]))


def trial_seed(master_seed: int, trial_index: int, stream: int = 0) -> int:
    """Child seed for one Monte-Carlo trial.

    A fixed mixing of (master_seed, trial_index, stream), so a trial's
    draws do not depend on which other trials run or in what order.
    Stream 0 is the channel draw; other streams are free for methods
    that need their own randomness.
    """
    seq = np.random.SeedSequence([int(master_seed), int(trial_index), int(stream)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])
