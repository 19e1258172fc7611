"""Map matching (§IV, Fig. 5).

The paper deliberately uses a *simple* matcher — full low-sampling-rate
trajectory matching (Lou et al.) is out of scope — relying on only the
current position and driving direction:

1. candidate segments are ranked by perpendicular distance;
2. the nearest segment wins **unless** the taxi's heading conflicts
   with the segment's orientation, in which case the next-nearest
   segment with a compatible orientation is used (the ``v2 → m2`` not
   ``m2'`` case in Fig. 5);
3. fixes farther than ``max_distance_m`` from every compatible segment
   stay unmatched.

Implementation: each fix is scored only against the segments that can
lie within ``max_distance_m`` of it.  Every segment's bounding box,
grown by ``max_distance_m`` on every side, is registered in each cell
of a uniform grid it overlaps; a fix's candidates are the segments
registered in its cell.  A fix within ``max_distance_m`` of a segment
lies inside that segment's grown box, so it falls in one of the
segment's cells and no winner of the rules above can be missed.  The
boxes grow by a millimetre and a billionth more than that, so rounding
in the distance formula cannot score a fix just outside a box within
range.  Distances and heading differences come from the same
elementwise formulas applied to (fix, candidate) pairs, so each value
has the bits a dense (fixes × segments) evaluation gives it.  Among
equally near compatible candidates the lowest segment id wins, which
is ``np.argmin``'s first-minimum rule.  Fixes run in blocks of at most
``_MAX_PAIRS`` pairs, so the matcher's temporaries do not grow with the
map or the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .._util import check_positive
from ..network.geometry import heading_difference, point_segment_distance
from ..network.roadnet import RoadNetwork
from ..trace.records import TraceArrays

__all__ = ["MatchConfig", "MatchResult", "match_trace"]

#: (fix, candidate) pairs scored at once.  A block of fixes holds at most
#: this many pairs, unless one fix alone has more candidates.
_MAX_PAIRS = 1 << 15

#: Cells per grid side at most, so cell keys stay far inside int64 for
#: any extent and ``max_distance_m``.
_MAX_CELLS_PER_SIDE = 1 << 20


@dataclass(frozen=True)
class MatchConfig:
    """Matcher parameters.

    Parameters
    ----------
    max_distance_m:
        Fixes farther than this from every compatible segment are
        unmatched (paper cites urban GPS errors up to ~100 m).
    max_heading_diff_deg:
        Heading compatibility threshold between the report's heading
        and the segment's travel direction.
    require_gps_ok:
        Drop reports whose GPS-condition flag (Table I field 8) is 0
        before matching — the paper's outlier filter.
    """

    max_distance_m: float = 120.0
    max_heading_diff_deg: float = 60.0
    require_gps_ok: bool = True

    def __post_init__(self) -> None:
        check_positive("max_distance_m", self.max_distance_m)
        check_positive("max_heading_diff_deg", self.max_heading_diff_deg)


@dataclass
class MatchResult:
    """Output of :func:`match_trace`.

    Attributes
    ----------
    trace:
        The (possibly GPS-filtered) trace that was matched, in the same
        row order as ``segment_id``.
    segment_id:
        Matched directed-segment id per record, or −1 if unmatched.
    distance_m:
        Distance from the fix to its matched segment (NaN if unmatched).
    n_gps_dropped:
        Input records the GPS-condition filter removed before matching.
    n_out_of_range:
        Unmatched fixes with no segment within ``max_distance_m``,
        non-finite positions included.
    n_heading_conflict:
        Unmatched fixes whose every segment within ``max_distance_m``
        conflicts with the fix's heading.

    The three counts and the matched fixes add up to the input length.
    """

    trace: TraceArrays
    segment_id: np.ndarray
    distance_m: np.ndarray
    n_gps_dropped: int
    n_out_of_range: int
    n_heading_conflict: int

    @property
    def matched_fraction(self) -> float:
        """Share of records that found a segment."""
        n = len(self.trace)
        return float((self.segment_id >= 0).sum() / n) if n else float("nan")

    def matched_only(self) -> Tuple[TraceArrays, np.ndarray]:
        """(sub-trace, segment ids) restricted to matched records."""
        keep = self.segment_id >= 0
        return self.trace.subset(keep), self.segment_id[keep]


@dataclass(frozen=True)
class _SegmentGrid:
    """Segments by grid cell: cell ``(i, j)`` spans ``x0 + [i, i+1) * width``
    by ``y0 + [j, j+1) * width`` and has key ``i * n_y + j``.

    ``keys`` holds the sorted keys of the cells some grown box overlaps;
    cell ``keys[k]`` holds ``seg[starts[k]:starts[k + 1]]``, ascending.
    Fixes outside ``[x0, x1] × [y0, y1]`` lie in no grown box.
    """

    x0: float
    y0: float
    x1: float
    y1: float
    width: float
    n_y: int
    keys: np.ndarray
    starts: np.ndarray
    seg: np.ndarray

    @classmethod
    def build(cls, net: RoadNetwork, max_distance_m: float) -> _SegmentGrid:
        """Register every segment's grown box in the cells it overlaps."""
        reach = max_distance_m * (1.0 + 1e-9) + 1e-3
        ax, ay, bx, by = net.seg_ax, net.seg_ay, net.seg_bx, net.seg_by
        xlo, xhi = np.minimum(ax, bx) - reach, np.maximum(ax, bx) + reach
        ylo, yhi = np.minimum(ay, by) - reach, np.maximum(ay, by) + reach
        x0, y0 = float(xlo.min()), float(ylo.min())
        x1, y1 = float(xhi.max()), float(yhi.max())
        # Cells at least ``reach`` wide, and as wide as a typical segment
        # so that a box spans few cells; few enough per side for int64 keys.
        width = max(
            reach,
            float(np.median(np.hypot(bx - ax, by - ay))),
            max(x1 - x0, y1 - y0) / _MAX_CELLS_PER_SIDE,
        )
        i_lo, i_hi = _cell(xlo, x0, width), _cell(xhi, x0, width)
        j_lo, j_hi = _cell(ylo, y0, width), _cell(yhi, y0, width)
        n_y = int(j_hi.max()) + 1
        # One entry per (segment, overlapped cell), segments ascending.
        n_j = j_hi - j_lo + 1
        per_seg = (i_hi - i_lo + 1) * n_j
        seg = np.repeat(np.arange(per_seg.size, dtype=np.int64), per_seg)
        k = np.arange(seg.size) - np.repeat(np.cumsum(per_seg) - per_seg, per_seg)
        key = (i_lo[seg] + k // n_j[seg]) * n_y + j_lo[seg] + k % n_j[seg]
        order = np.argsort(key, kind="stable")
        keys, starts = np.unique(key[order], return_index=True)
        return cls(x0, y0, x1, y1, width, n_y, keys,
                   np.append(starts, seg.size), seg[order])

    def pairs(
        self, x: np.ndarray, y: np.ndarray
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """(fix, segment) index pairs of every fix and its cell's segments.

        Fix by fix, each fix's segments ascending, in blocks of at most
        ``_MAX_PAIRS`` pairs (or one fix).  A fix in no grown box, a
        non-finite one included, has no pair.
        """
        inside = np.flatnonzero(
            (x >= self.x0) & (x <= self.x1) & (y >= self.y0) & (y <= self.y1)
        )
        key = (_cell(x[inside], self.x0, self.width) * self.n_y
               + _cell(y[inside], self.y0, self.width))
        cell = np.minimum(np.searchsorted(self.keys, key), self.keys.size - 1)
        hit = self.keys[cell] == key
        fixes, cell = inside[hit], cell[hit]
        first = self.starts[cell]
        count = self.starts[cell + 1] - first
        ends = np.cumsum(count)
        lo = 0
        while lo < fixes.size:
            done = int(ends[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + _MAX_PAIRS, side="right")))
            n = count[lo:hi]
            f = np.repeat(fixes[lo:hi], n)
            # A pair's entry: its fix's first entry plus its rank at the fix.
            rank = np.arange(f.size) - np.repeat(ends[lo:hi] - n - done, n)
            yield f, self.seg[np.repeat(first[lo:hi], n) + rank]
            lo = hi


def _cell(v: np.ndarray, origin: float, width: float) -> np.ndarray:
    """Grid index of each coordinate ``v >= origin``.

    Monotonic in ``v``, so a point inside a grown box gets a cell
    between the cells of the box's edges.
    """
    return np.floor((v - origin) / width).astype(np.int64)


def match_trace(
    trace: TraceArrays,
    net: RoadNetwork,
    config: Optional[MatchConfig] = None,
) -> MatchResult:
    """Match every report of *trace* onto *net* (Fig. 5 rules)."""
    config = MatchConfig() if config is None else config
    n_in = len(trace)
    if config.require_gps_ok:
        trace = trace.subset(trace.gps_ok)
    n = len(trace)
    seg_ids = np.full(n, -1, dtype=np.int64)
    dists = np.full(n, np.nan)
    in_range = np.zeros(n, dtype=bool)
    if n and net.segments:
        max_d = config.max_distance_m
        grid = _SegmentGrid.build(net, max_d)
        px, py = net.frame.to_local(trace.lon, trace.lat)
        for f, s in grid.pairs(px, py):
            d = point_segment_distance(
                px[f], py[f], net.seg_ax[s], net.seg_ay[s], net.seg_bx[s], net.seg_by[s]
            )
            # Only a pair within range can win, so the rest drop out here.
            near = np.flatnonzero(d <= max_d)
            in_range[f[near]] = True
            # The heading-conflict rule: orientation-incompatible segments
            # never win, regardless of proximity.
            hd = heading_difference(trace.heading_deg[f[near]], net.seg_heading[s[near]])
            ok = near[hd <= config.max_heading_diff_deg]
            # Each fix's nearest compatible pair.  The sort is stable, so
            # equally near pairs keep ascending segment ids and the first
            # wins, as in ``np.argmin``.
            ok = ok[np.lexsort((d[ok], f[ok]))]
            win = ok[np.diff(f[ok], prepend=-1) != 0]
            seg_ids[f[win]] = s[win]
            dists[f[win]] = d[win]
    matched = int((seg_ids >= 0).sum())
    n_conflict = int(in_range.sum()) - matched
    return MatchResult(
        trace, seg_ids, dists,
        n_gps_dropped=n_in - n,
        n_out_of_range=n - matched - n_conflict,
        n_heading_conflict=n_conflict,
    )
