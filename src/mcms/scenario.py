"""Cellular scenario generation and per-PRB rate realizations.

Geometry: ``num_cells`` pointy-top hexagonal cells of circumradius
``radius`` meters tiling the plane around the origin, one base station
at each center.  Users are dropped uniformly inside their primary
cell's hexagon, which is also the Voronoi cell of its base station, so
the nearest station is always the primary one.

Link model: urban macro log-distance path loss, per-PRB Rayleigh block
fading (i.i.d. across cells, PRBs, users and sub-frames), thermal noise
plus receiver noise figure, Shannon spectral efficiency over one PRB of
bandwidth.  Interference is not modeled; each PRB carries a single
multicast stream and the limit is the link budget.

A user can decode the stream on (cell, PRB) when the realized rate
reaches the stream rate; `derive_instance` turns one rate realization
plus a stream rate into a coverage problem.

`mean_snr` is the one place the link budget lives.  `sample_rates` uses
it per call; the Monte Carlo kernel in `mcms.kernel` uses it once per
placement, then decides each link by comparing the fading gain with the
gain threshold ``expm1(R / B * ln 2) / snr``, computing the rate only
for gains within a narrow guard band of it.  Both give the same
coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coverage import CoverageInstance

# Stream rate (bps) that puts a seven-cell, 300 m system in the regime
# where single-connectivity leaves a small but visible share of users
# unserved per sub-frame (mean about 13 of 1225 under the defaults).
DEFAULT_STREAM_RATE_BPS = 1.4e6

_SQRT3 = math.sqrt(3.0)
# Unit normals of a pointy-top hexagon's three edge-pair axes.
_HEX_AXES = np.array([
    [1.0, 0.0],
    [0.5, _SQRT3 / 2.0],
    [-0.5, _SQRT3 / 2.0],
])


@dataclass(frozen=True)
class ChannelParams:
    """Link-budget parameters; defaults describe an urban macro downlink.

    Attributes
    ----------
    tx_power_dbm : float
        Transmit power per PRB.
    noise_figure_db : float
        Receiver noise figure.
    noise_psd_dbm_hz : float
        Thermal noise power spectral density.
    bandwidth_hz : float
        Bandwidth of one PRB.
    pathloss_const_db, pathloss_slope_db : float
        Log-distance path loss ``const + slope * log10(d_km)``.
    min_distance_m : float
        Distances below this are clamped before the path-loss formula.
    fading : str
        ``"rayleigh"`` for i.i.d. unit-mean exponential power fading per
        (cell, PRB, user) link, ``"none"`` for the deterministic mean.
    """

    tx_power_dbm: float = 30.0
    noise_figure_db: float = 9.0
    noise_psd_dbm_hz: float = -174.0
    bandwidth_hz: float = 180e3
    pathloss_const_db: float = 128.1
    pathloss_slope_db: float = 37.6
    min_distance_m: float = 10.0
    fading: str = "rayleigh"

    def __post_init__(self):
        if self.fading not in ("rayleigh", "none"):
            raise ValueError(f"unknown fading mode {self.fading!r}")
        for name in ("bandwidth_hz", "min_distance_m"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):  # nan fails both
                raise ValueError(
                    f"{name} must be a finite number > 0, got {value!r}")

    @property
    def noise_power_dbm(self) -> float:
        """Noise power over one PRB including the noise figure."""
        return (self.noise_psd_dbm_hz
                + 10.0 * math.log10(self.bandwidth_hz)
                + self.noise_figure_db)


def hex_centers(num_cells: int, radius: float) -> np.ndarray:
    """Base-station positions for a 1, 7 or 19 cell hexagonal layout.

    Cell 0 sits at the origin; ring cells follow counter-clockwise from
    the positive x axis.  Adjacent centers are sqrt(3)*radius apart.
    """
    if num_cells not in (1, 7, 19):
        raise ValueError(f"num_cells must be 1, 7 or 19, got {num_cells}")
    if radius <= 0:
        raise ValueError("radius must be > 0")
    spacing = _SQRT3 * radius
    centers = [(0.0, 0.0)]
    if num_cells >= 7:
        for k in range(6):
            a = math.radians(60.0 * k)
            centers.append((spacing * math.cos(a), spacing * math.sin(a)))
    if num_cells == 19:
        for k in range(6):
            a = math.radians(60.0 * k)
            centers.append((2 * spacing * math.cos(a), 2 * spacing * math.sin(a)))
            b = math.radians(60.0 * k + 30.0)
            centers.append((3.0 * radius * math.cos(b), 3.0 * radius * math.sin(b)))
    out = np.array(centers, dtype=float)
    out.setflags(write=False)
    return out


def in_hexagon(points, center, radius: float) -> np.ndarray:
    """Boolean test for points inside a pointy-top hexagon.

    ``points`` is (..., 2); the result drops the last axis.  A point is
    inside when its projection onto each of the three edge-normal axes
    stays within the apothem.
    """
    p = np.asarray(points, dtype=float) - np.asarray(center, dtype=float)
    apothem = _SQRT3 / 2.0 * radius
    return np.all(np.abs(p @ _HEX_AXES.T) <= apothem, axis=-1)


@dataclass(frozen=True)
class Scenario:
    """Frozen snapshot of geometry: stations, users, primary assignment."""

    radius: float
    cell_centers: np.ndarray
    user_positions: np.ndarray
    primary_cell: np.ndarray

    def __post_init__(self):
        centers = np.asarray(self.cell_centers, dtype=float)
        users = np.asarray(self.user_positions, dtype=float)
        primary = np.asarray(self.primary_cell, dtype=np.intp)
        if self.radius <= 0:
            raise ValueError("radius must be > 0")
        if centers.ndim != 2 or centers.shape[1] != 2:
            raise ValueError("cell_centers must be [num_cells, 2]")
        if users.ndim != 2 or users.shape[1] != 2:
            raise ValueError("user_positions must be [num_users, 2]")
        if primary.shape != (users.shape[0],):
            raise ValueError("primary_cell must assign every user")
        if users.shape[0]:
            if primary.min() < 0 or primary.max() >= centers.shape[0]:
                raise ValueError("primary cell index out of range")
            inside = in_hexagon(
                users, centers[primary], self.radius * (1 + 1e-12)
            )
            if not inside.all():
                bad = int(np.flatnonzero(~inside)[0])
                raise ValueError(
                    f"user {bad} lies outside its primary cell's hexagon"
                )
        for arr in (centers, users, primary):
            arr.setflags(write=False)
        object.__setattr__(self, "cell_centers", centers)
        object.__setattr__(self, "user_positions", users)
        object.__setattr__(self, "primary_cell", primary)

    @property
    def num_cells(self) -> int:
        return self.cell_centers.shape[0]

    @property
    def num_users(self) -> int:
        return self.user_positions.shape[0]


def _sample_in_hex(n: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    # Rejection sampling from the bounding box; acceptance ratio is 3/4.
    half_w = _SQRT3 / 2.0 * radius
    out = np.empty((n, 2))
    filled = 0
    while filled < n:
        need = n - filled
        batch = max(2 * need, 16)
        pts = rng.uniform((-half_w, -radius), (half_w, radius), size=(batch, 2))
        pts = pts[in_hexagon(pts, (0.0, 0.0), radius)][:need]
        out[filled:filled + len(pts)] = pts
        filled += len(pts)
    return out


def generate_scenario(
    num_cells: int,
    radius: float,
    users_per_cell: int,
    rng,
) -> Scenario:
    """Drop ``users_per_cell`` users uniformly in each hexagonal cell.

    User ids are grouped by cell: users of cell c occupy the id block
    ``[c * users_per_cell, (c + 1) * users_per_cell)``.  ``rng`` may be
    a Generator or anything default_rng accepts (seed int, SeedSequence).
    """
    if users_per_cell < 0:
        raise ValueError("users_per_cell must be >= 0")
    rng = np.random.default_rng(rng)
    centers = hex_centers(num_cells, radius)
    positions = np.empty((num_cells * users_per_cell, 2))
    for c in range(num_cells):
        local = _sample_in_hex(users_per_cell, radius, rng)
        positions[c * users_per_cell:(c + 1) * users_per_cell] = (
            local + centers[c]
        )
    primary = np.repeat(np.arange(num_cells, dtype=np.intp), users_per_cell)
    return Scenario(
        radius=radius,
        cell_centers=centers,
        user_positions=positions,
        primary_cell=primary,
    )


def pathloss_db(distance_m, params: ChannelParams, out=None):
    """Log-distance path loss in dB; distances clamp at min_distance_m.
    With ``out``, an array the shape of ``distance_m``, it is computed
    in place there."""
    d_km = np.divide(np.maximum(distance_m, params.min_distance_m, out=out),
                     1000.0, out=out)
    loss = np.log10(d_km, out=out)
    loss *= params.pathloss_slope_db
    loss += params.pathloss_const_db
    return loss


def shannon_rate_bps(snr_linear, bandwidth_hz: float):
    return bandwidth_hz * np.log2(1.0 + snr_linear)


def mean_snr(scenario: Scenario, params: ChannelParams) -> np.ndarray:
    """Linear mean SNR [cells, users] of every link, before fading.

    Raises ValueError unless every entry is finite (a power ratio, it is
    never negative), so rates derived from it with a finite fading gain
    are finite and non-negative too.
    """
    users, cells = scenario.user_positions, scenario.cell_centers
    # One [C, M] array goes from distance to path loss, SNR in dB and
    # linear SNR, in place, by the same operations in the same order as
    # 10 ** ((tx_power - pathloss_db(distance) - noise_power) / 10).
    snr = np.subtract(users[None, :, 0], cells[:, None, 0])
    np.hypot(snr, users[None, :, 1] - cells[:, None, 1], out=snr)
    pathloss_db(snr, params, out=snr)
    np.subtract(params.tx_power_dbm, snr, out=snr)
    snr -= params.noise_power_dbm
    snr /= 10.0
    np.power(10.0, snr, out=snr)
    if not np.all(np.isfinite(snr)):
        raise ValueError("mean SNR must be finite")
    return snr


@dataclass(frozen=True)
class RateRealization:
    """Achievable rates in one sub-frame: rates[c, j, k] is the bps user
    k would get from cell c on PRB j."""

    subframe: int
    rates: np.ndarray

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float)
        if rates.ndim != 3:
            raise ValueError("rates must be [cells, prbs, users]")
        if not np.all(np.isfinite(rates)) or (rates < 0).any():
            raise ValueError("rates must be finite and non-negative")
        rates.setflags(write=False)
        object.__setattr__(self, "subframe", int(self.subframe))
        object.__setattr__(self, "rates", rates)

    @property
    def num_cells(self) -> int:
        return self.rates.shape[0]

    @property
    def num_prbs(self) -> int:
        return self.rates.shape[1]

    @property
    def num_users(self) -> int:
        return self.rates.shape[2]


def sample_rates(
    scenario: Scenario,
    params: ChannelParams,
    subframe: int,
    rng,
    num_prbs: int = 4,
) -> RateRealization:
    """Draw the per-link rates of one sub-frame.

    Mean SNR comes from the path loss to every station; with
    ``params.fading == "rayleigh"`` each (cell, PRB, user) link gets an
    independent unit-mean exponential power gain on top, otherwise the
    mean SNR is used as-is (so all PRBs of a cell tie).  Channel draws
    come only from ``rng``; pass a stream derived from (seed, subframe)
    to make sub-frames independently reproducible.
    """
    if num_prbs < 1:
        raise ValueError("num_prbs must be >= 1")
    rng = np.random.default_rng(rng)
    snr = mean_snr(scenario, params)
    shape = (scenario.num_cells, num_prbs, scenario.num_users)
    if params.fading == "rayleigh":
        gain = rng.exponential(1.0, size=shape)
    else:
        gain = np.ones(shape)
    rates = shannon_rate_bps(snr[:, None, :] * gain, params.bandwidth_hz)
    return RateRealization(subframe=subframe, rates=rates)


@dataclass(frozen=True)
class StreamSpec:
    """The multicast stream: one rate every user needs to decode."""

    rate_bps: float = DEFAULT_STREAM_RATE_BPS

    def __post_init__(self):
        if not self.rate_bps > 0:
            raise ValueError("rate_bps must be > 0")


def derive_instance(
    scenario: Scenario,
    realization: RateRealization,
    stream: StreamSpec,
) -> CoverageInstance:
    """Coverage problem for one sub-frame: user k is in the coverage set
    of (cell c, PRB j) exactly when rates[c, j, k] >= stream.rate_bps.
    The decode-at-rate boundary is inclusive."""
    if realization.num_users != scenario.num_users:
        raise ValueError(
            f"realization has {realization.num_users} users, "
            f"scenario has {scenario.num_users}"
        )
    if realization.num_cells != scenario.num_cells:
        raise ValueError(
            f"realization has {realization.num_cells} cells, "
            f"scenario has {scenario.num_cells}"
        )
    membership = realization.rates >= stream.rate_bps
    return CoverageInstance.from_membership(membership, scenario.primary_cell)
