"""Physical setup of the BS / active-IRS / user link.

Holds the scenario parameters (powers, noise variances, node geometry,
path-loss exponents), unit conversions, and the seeded Rayleigh channel
sampler used by every experiment.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
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
    "trial_seeds",
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


def _channel_rows(params: SystemParams, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Each row of z holds 4N + 2 standard normals: Re g, Im g, Re f, Im f,
    # Re h, Im h.
    var_bi, var_iu, var_bu = params.link_variances()
    n = params.n_elements
    g = _complex_gaussian(z[:, :n], z[:, n:2 * n], var_bi)
    f = _complex_gaussian(z[:, 2 * n:3 * n], z[:, 3 * n:4 * n], var_iu)
    h = _complex_gaussian(z[:, 4 * n], z[:, 4 * n + 1], var_bu)
    return g, f, h


# numpy's SeedSequence (O'Neill's seed_seq design, pcg-random.org, 2015) run
# as uint32 array arithmetic, one column per seed: a pool of four words
# hash-mixed from up to four entropy words, then hashed out into the state
# words. The running hash constants never depend on the data.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    # The hash constant before and after each of ``count`` hashes, as a
    # (count + 1, 1) column.
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# One hash per pool word, then one per ordered pair of distinct pool words.
_POOL_CONSTANTS = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL_SIZE * _POOL_SIZE)
# One hash per state word; PCG64 takes eight.
_STATE_CONSTANTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hash(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    # Row i is hashed with constants[i] and constants[i + 1].
    v = (values ^ constants[:-1]) * constants[1:]
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> 16)


def _seed_states(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(words).generate_state(n_words, np.uint32)`` for each
    column of ``entropy``, a (words, T) uint32 array with at most four
    words: (n_words, T)."""
    a = _POOL_CONSTANTS
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[:len(entropy)] = entropy
    pool = _hash(pool, a[:_POOL_SIZE + 1])
    used = _POOL_SIZE
    # Mix every pool word into every other; a source word is hashed once per
    # destination, each time with the next constant.
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], a[used:used + _POOL_SIZE]))
        used += _POOL_SIZE - 1
    return _hash(pool[np.arange(n_words) % _POOL_SIZE], _STATE_CONSTANTS[:n_words + 1])


def _uint64_words(state: np.ndarray) -> list[list[int]]:
    # Pairs of uint32 rows, low word first, as rows of Python ints.
    state = state.astype(np.uint64)
    return (state[1::2] << np.uint64(32) | state[0::2]).tolist()


def trial_seeds(master_seed: int, trials: Iterable[int], stream: int = 0) -> list[int]:
    """``[trial_seed(master_seed, t, stream) for t in trials]``, bit for bit,
    computed for all trials at once. The master seed must be below 2**64,
    and trial indices and the stream below 2**32."""
    index = np.fromiter(trials, dtype=np.int64)
    if index.size and not (index.min() >= 0 and index.max() <= _MASK32):
        raise ValueError("trial indices must be in [0, 2**32)")
    master_seed, stream = operator.index(master_seed), operator.index(stream)
    if not (0 <= master_seed < 2**64 and 0 <= stream <= _MASK32):
        raise ValueError("master_seed must be in [0, 2**64) and stream in [0, 2**32)")
    # SeedSequence reads an integer as its 32-bit words, low first: one word
    # below 2**32, else two.
    master = [master_seed & _MASK32] + ([master_seed >> 32] if master_seed >> 32 else [])
    entropy = np.empty((len(master) + 2, index.size), dtype=np.uint32)
    entropy[:len(master)] = np.array(master, dtype=np.uint32)[:, None]
    entropy[-2] = index
    entropy[-1] = stream
    return _uint64_words(_seed_states(entropy, 2))[0]


def _pcg64_seed_words(seeds: Sequence[int]) -> np.ndarray:
    """The (8, T) uint32 state words from which ``np.random.default_rng(seed)``
    seeds its PCG64, per seed in [0, 2**64).

    Every seed is mixed as two entropy words, low then high. A seed below
    2**32 is one word to numpy, but the pool pads missing words with hashes
    of zero, so a zero high word gives the same state."""
    try:
        seeds = np.fromiter(map(operator.index, seeds), dtype=np.uint64, count=len(seeds))
    except OverflowError:
        raise ValueError("seeds must be integers in [0, 2**64)") from None
    entropy = np.stack([seeds & np.uint64(_MASK32), seeds >> np.uint64(32)]).astype(np.uint32)
    return _seed_states(entropy, 8)


def sample_channels_batch(params: SystemParams,
                          seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one realization per seed, stacked: (T, N) arrays ``g`` and
    ``f`` and (T,) direct channels ``h``.

    Row t equals ``sample_channels(params, seeds[t])`` bit for bit, for any
    seed in [0, 2**64). The generator states of all seeds are derived at
    once; one reused generator, set to each state in turn, fills a row of
    4N + 2 standard normals per seed.
    """
    z = np.empty((len(seeds), 4 * params.n_elements + 2))
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    # PCG64 seeding: a 128-bit start and stream from four uint64 words, then
    # two steps of its LCG.
    for row, seed_hi, seed_lo, inc_hi, inc_lo in zip(
            z, *_uint64_words(_pcg64_seed_words(seeds))):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        rng.standard_normal(out=row)
    return _channel_rows(params, z)


def sample_channels(params: SystemParams, seed: int) -> ChannelRealization:
    """Draw one Rayleigh-faded realization of (g, f, h).

    Entries are i.i.d. circularly-symmetric complex Gaussian with the
    link's path-loss gain as variance. Identical (params, seed) pairs
    reproduce the identical realization bit for bit. The draw is one row of
    4N + 2 standard normals from ``np.random.default_rng(seed)``.
    """
    z = np.random.default_rng(seed).standard_normal((1, 4 * params.n_elements + 2))
    g, f, h = _channel_rows(params, z)
    return ChannelRealization(g=g[0], f=f[0], h=complex(h[0]))


def trial_seed(master_seed: int, trial_index: int, stream: int = 0) -> int:
    """Child seed for one Monte-Carlo trial.

    A fixed mixing of (master_seed, trial_index, stream), so a trial's
    draws do not depend on which other trials run or in what order.
    Stream 0 is the channel draw; other streams are free for methods
    that need their own randomness. ``trial_seeds`` gives the same seeds
    for many trials at once.
    """
    seq = np.random.SeedSequence([int(master_seed), int(trial_index), int(stream)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])
