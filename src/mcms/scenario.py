"""Cellular scenario generation and per-PRB link rates.

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

A user can decode the stream on (cell, PRB) when the link's rate
reaches the stream rate; `sample_rates` draws one sub-frame's rates as
a [cells, prbs, users] array, and `derive_instance` turns it plus a
stream rate into a coverage problem.

The link budget lives here alone: `mean_snr`, which `sample_rates` uses,
and `inverse_mean_snr`, the same budget from squared distances in the
log domain; `mcms.kernel._Placement` tells how the kernel uses both.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .coverage import CoverageInstance, whole_number

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


def finite_float(value, what: str, positive: bool = False) -> float:
    """``value`` as a plain float, which json can write; ValueError
    unless it is a real number, not a bool, whose float is finite, and
    > 0 if ``positive``.  An int beyond the float range is not finite."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number) and (number > 0 or not positive):
            return number
    least = " > 0" if positive else ""
    raise ValueError(f"{what} must be a finite number{least}, got {value!r}")


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
        # Plain floats, as json writes the channel to the .meta.json.
        for name in ("tx_power_dbm", "noise_figure_db", "noise_psd_dbm_hz",
                     "bandwidth_hz", "pathloss_const_db", "pathloss_slope_db",
                     "min_distance_m"):
            object.__setattr__(self, name, finite_float(
                getattr(self, name), name,
                positive=name in ("bandwidth_hz", "min_distance_m")))

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
    Raises ValueError unless every coordinate of the layout, and every
    distance between a station and a user, is finite.
    """
    if num_cells not in (1, 7, 19):
        raise ValueError(f"num_cells must be 1, 7 or 19, got {num_cells}")
    finite_float(radius, "radius", positive=True)
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
    # Users lie within radius of their station, so no coordinate and no
    # station-user distance exceeds twice this reach.
    with np.errstate(over="ignore", invalid="ignore"):
        reach = np.hypot(out[:, 0], out[:, 1]).max() + radius
        if not np.isfinite(2 * reach):
            raise ValueError(
                f"radius {radius!r} is too large for a {num_cells}-cell "
                f"layout: its coordinates or station-user distances overflow")
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
    # Three column compares: np.all over the last axis takes twice as long.
    d = p @ _HEX_AXES.T
    np.abs(d, out=d)
    return ((d[..., 0] <= apothem) & (d[..., 1] <= apothem)
            & (d[..., 2] <= apothem))


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
        finite_float(self.radius, "radius", positive=True)
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


def _sample_cells(num_cells: int, n: int, radius: float,
                  rng: np.random.Generator) -> np.ndarray:
    """``n`` points uniform in the hexagon of circumradius ``radius``
    around the origin, for each cell in turn: [cells, n, 2].

    Each cell takes rounds of rejection sampling (acceptance 3/4) of
    max(2 * need, 16) points from one stream uniform in the bounding box
    while it needs more.  All cells' first rounds are drawn as one block
    and tested at once; each cell whose round accepts n points takes its
    first n.  From the first cell that falls short, cells run the rounds
    one by one, the stream starting with the block's later points.  So
    every cell gets the points, and ``rng`` ends in the state, of the
    cells' rounds drawn one after another.  A point is low + (high -
    low) * u from doubles u of ``rng.random``, as ``rng.uniform`` draws.
    """
    out = np.empty((num_cells, n, 2))
    if n == 0:
        return out
    half_w = _SQRT3 / 2.0 * radius

    def uniform(rows):
        pts = rng.random((rows, 2))
        for column, half in ((pts[:, 0], half_w), (pts[:, 1], radius)):
            column *= half - -half
            column += -half
        return pts

    first = max(2 * n, 16)
    block = uniform(num_cells * first)
    inside = in_hexagon(block, 0.0, radius).reshape(num_cells, first)
    rank = np.cumsum(inside, axis=1)
    full = rank[:, -1] >= n
    short = num_cells if full.all() else int(np.argmin(full))
    take = inside[:short] & (rank[:short] <= n)
    out[:short] = block[:short * first][take.ravel()].reshape(short, n, 2)
    spare = block[short * first:]

    def stream(rows):
        nonlocal spare
        pts, spare = spare[:rows], spare[rows:]
        return pts if len(pts) == rows else np.concatenate(
            [pts, uniform(rows - len(pts))])

    for c in range(short, num_cells):
        filled = 0
        while filled < n:
            pts = stream(max(2 * (n - filled), 16))
            pts = pts[in_hexagon(pts, 0.0, radius)][:n - filled]
            out[c, filled:filled + len(pts)] = pts
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
    Each cell's users come from rejection sampling in its hexagon, cell
    after cell from one stream (`_sample_cells`).  ``users_per_cell``
    must be a whole number >= 0 (InstanceError, a ValueError, if not).
    """
    users_per_cell = whole_number(users_per_cell, "users_per_cell")
    if users_per_cell < 0:
        raise ValueError("users_per_cell must be >= 0")
    rng = np.random.default_rng(rng)
    centers = hex_centers(num_cells, radius)
    local = _sample_cells(num_cells, users_per_cell, radius, rng)
    positions = (local + centers[:, None, :]).reshape(-1, 2)
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


def inverse_mean_snr(scenario: Scenario, params: ChannelParams) -> np.ndarray:
    """1 / `mean_snr` [cells, users] by one log and one exp: K * max(d**2,
    min_distance**2) ** (slope / 20), ln K = ln 10 / 10 * (const +
    noise_power - tx_power - 3 * slope).  Within ~1e-14 of `mean_snr`'s
    at the defaults, 1e-11 at worst; NaN where that is not promised: an
    SNR that may lie beyond 2**±1020 (`mean_snr` may be subnormal, 0 or
    infinite), and every link if the terms' magnitudes sum to 1e4 dB or
    min_distance**2 is below 2**-1000, where rounding costs more."""
    users, cells = scenario.user_positions, scenario.cell_centers
    slope, floor = params.pathloss_slope_db, params.min_distance_m
    floor *= floor  # inf, not OverflowError, beyond the float range
    terms = (params.pathloss_const_db, params.noise_power_dbm,
             -params.tx_power_dbm, -3.0 * slope)
    if not (sum(map(abs, terms)) < 1e4 and floor >= 2.0 ** -1000):
        return np.full((len(cells), len(users)), np.nan)
    inv = np.subtract(users[None, :, 0], cells[:, None, 0])
    dy = np.empty(len(users))
    with np.errstate(over="ignore", invalid="ignore"):
        inv *= inv
        # The y term a cell row at a time: one [cells, users] array.
        for row, y in zip(inv, cells[:, 1]):
            np.subtract(users[:, 1], y, out=dy)
            dy *= dy
            row += dy
        np.log(np.maximum(inv, floor, out=inv), out=inv)
        inv *= slope / 20.0
        inv += sum(terms) * (math.log(10.0) / 10.0)
        limit = 1020 * math.log(2.0)  # ln 2**1020
        if not -limit <= inv.min(initial=0.0) <= inv.max(initial=0.0) <= limit:
            inv[~(np.abs(inv) <= limit)] = np.nan
    return np.exp(inv, out=inv)


def sample_rates(
    scenario: Scenario,
    params: ChannelParams,
    rng,
    num_prbs: int = 4,
) -> np.ndarray:
    """Draw the per-link rates of one sub-frame: ``rates[c, j, k]`` is
    the bps user k would get from cell c on PRB j.

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
    return shannon_rate_bps(snr[:, None, :] * gain, params.bandwidth_hz)


@dataclass(frozen=True)
class StreamSpec:
    """The multicast stream: one rate every user needs to decode."""

    rate_bps: float = DEFAULT_STREAM_RATE_BPS

    def __post_init__(self):
        finite_float(self.rate_bps, "rate_bps", positive=True)


def derive_instance(
    scenario: Scenario,
    rates: np.ndarray,
    stream: StreamSpec,
) -> CoverageInstance:
    """Coverage problem for one sub-frame: user k is in the coverage set
    of (cell c, PRB j) exactly when rates[c, j, k] >= stream.rate_bps.
    The decode-at-rate boundary is inclusive.  Raises ValueError unless
    ``rates`` is a finite, non-negative [cells, prbs, users] array whose
    cell and user counts are the scenario's."""
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 3:
        raise ValueError(f"rates must be [cells, prbs, users], "
                         f"got shape {rates.shape}")
    if not np.all(np.isfinite(rates)) or (rates < 0).any():
        raise ValueError("rates must be finite and non-negative")
    if rates.shape[::2] != (scenario.num_cells, scenario.num_users):
        raise ValueError(
            f"rates have {rates.shape[0]} cells and {rates.shape[2]} users, "
            f"scenario has {scenario.num_cells} and {scenario.num_users}")
    membership = rates >= stream.rate_bps
    return CoverageInstance.from_membership(membership, scenario.primary_cell)
