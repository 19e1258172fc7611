"""Road-network model: intersections + directed road segments.

Substitutes for the paper's OpenStreetMap layer (§IV).  A network is a
set of :class:`Intersection` nodes and directed :class:`Segment` edges.
Each directed segment represents one driving direction of a road and is
an *approach* to the traffic light at its downstream intersection —
exactly the unit the paper partitions taxi data by ("a traffic light at
a road intersection only controls the taxis on the nearest segments").

Coordinates are local meters (see :mod:`repro.network.geometry`);
networks carry a :class:`~repro.network.geometry.LocalFrame` so traces
can be emitted in the geographic (lon, lat) Table I format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .._util import check_positive
from .geometry import LocalFrame, heading_of_vector

__all__ = [
    "Approach",
    "Intersection",
    "Segment",
    "RoadNetwork",
    "grid_network",
]


#: Cardinal approach groups at an intersection.  The paper's
#: intersection-based enhancement (§V.B) mirrors "North-South" vs
#: "East-West" perpendicular flows; we classify every directed segment
#: into one of these two groups by its heading.
class Approach:
    NS = "NS"
    EW = "EW"

    @staticmethod
    def of_heading(heading_deg: float) -> str:
        """Classify a travel heading into the NS or EW approach group."""
        h = float(heading_deg) % 360.0
        # Within 45° of due north or due south → NS; otherwise EW.
        return Approach.NS if min(abs(h - 0.0), abs(h - 360.0), abs(h - 180.0)) <= 45.0 else Approach.EW


@dataclass(frozen=True)
class Intersection:
    """A network node, optionally signalized.

    Attributes
    ----------
    id:
        Dense integer identifier (index into ``RoadNetwork.intersections``).
    x, y:
        Position in local meters.
    signalized:
        Whether a traffic light is installed here.
    name:
        Optional human-readable label (e.g. Table II road names).
    """

    id: int
    x: float
    y: float
    signalized: bool = True
    name: str = ""


@dataclass(frozen=True)
class Segment:
    """A directed road segment from one intersection to another.

    The downstream end (``to_id``) is where the controlling traffic
    light stands; ``heading`` is the direction of travel along the
    segment in degrees clockwise from north.
    """

    id: int
    from_id: int
    to_id: int
    ax: float
    ay: float
    bx: float
    by: float
    name: str = ""

    @property
    def length(self) -> float:
        """Segment length in meters."""
        return float(np.hypot(self.bx - self.ax, self.by - self.ay))

    @property
    def heading(self) -> float:
        """Travel heading (deg clockwise from north)."""
        return float(heading_of_vector(self.bx - self.ax, self.by - self.ay))

    @property
    def approach(self) -> str:
        """Cardinal approach group (``"NS"`` or ``"EW"``)."""
        return Approach.of_heading(self.heading)

    def point_at(self, distance_from_stopline: float) -> Tuple[float, float]:
        """(x, y) of the point *distance_from_stopline* meters upstream
        of the downstream stop line, clamped into the segment."""
        L = self.length
        if L <= 0:
            return self.bx, self.by
        t = 1.0 - min(max(distance_from_stopline, 0.0), L) / L
        return self.ax + t * (self.bx - self.ax), self.ay + t * (self.by - self.ay)


class RoadNetwork:
    """A directed road network with vectorized geometry tables.

    Parameters
    ----------
    intersections:
        Sequence of :class:`Intersection`; ids must equal their index.
    segments:
        Sequence of :class:`Segment`; ids must equal their index.
    frame:
        Geographic registration for (lon, lat) emission.
    """

    def __init__(
        self,
        intersections: Sequence[Intersection],
        segments: Sequence[Segment],
        frame: Optional[LocalFrame] = None,
    ) -> None:
        self.intersections: List[Intersection] = list(intersections)
        self.segments: List[Segment] = list(segments)
        self.frame = frame if frame is not None else LocalFrame()
        for i, node in enumerate(self.intersections):
            if node.id != i:
                raise ValueError(f"intersection id {node.id} at index {i}: ids must be dense")
        for i, seg in enumerate(self.segments):
            if seg.id != i:
                raise ValueError(f"segment id {seg.id} at index {i}: ids must be dense")
            n = len(self.intersections)
            if not (0 <= seg.from_id < n and 0 <= seg.to_id < n):
                raise ValueError(f"segment {i} references unknown intersection")

        # Struct-of-arrays geometry tables for vectorized map matching.
        if self.segments:
            self.seg_ax = np.array([s.ax for s in self.segments])
            self.seg_ay = np.array([s.ay for s in self.segments])
            self.seg_bx = np.array([s.bx for s in self.segments])
            self.seg_by = np.array([s.by for s in self.segments])
            self.seg_heading = np.array([s.heading for s in self.segments])
            self.seg_to = np.array([s.to_id for s in self.segments], dtype=np.int64)
            self.seg_from = np.array([s.from_id for s in self.segments], dtype=np.int64)
        else:  # pragma: no cover - degenerate but kept consistent
            self.seg_ax = self.seg_ay = self.seg_bx = self.seg_by = np.empty(0)
            self.seg_heading = np.empty(0)
            self.seg_to = self.seg_from = np.empty(0, dtype=np.int64)

        self._out: Dict[int, List[int]] = {i: [] for i in range(len(self.intersections))}
        self._in: Dict[int, List[int]] = {i: [] for i in range(len(self.intersections))}
        for s in self.segments:
            self._out[s.from_id].append(s.id)
            self._in[s.to_id].append(s.id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def outgoing(self, intersection_id: int) -> List[Segment]:
        """Directed segments leaving an intersection."""
        return [self.segments[i] for i in self._out[intersection_id]]

    def incoming(self, intersection_id: int) -> List[Segment]:
        """Directed segments arriving at (controlled by) an intersection."""
        return [self.segments[i] for i in self._in[intersection_id]]

    def approaches(self, intersection_id: int) -> Dict[str, List[Segment]]:
        """Incoming segments grouped into NS/EW approach groups."""
        groups: Dict[str, List[Segment]] = {Approach.NS: [], Approach.EW: []}
        for seg in self.incoming(intersection_id):
            groups[seg.approach].append(seg)
        return groups

    def signalized_intersections(self) -> List[Intersection]:
        """All intersections that carry a traffic light."""
        return [n for n in self.intersections if n.signalized]

    def segment_between(self, from_id: int, to_id: int) -> Optional[Segment]:
        """The directed segment from→to, or ``None``."""
        for sid in self._out[from_id]:
            if self.segments[sid].to_id == to_id:
                return self.segments[sid]
        return None

    def neighbors(self, intersection_id: int) -> List[int]:
        """Downstream intersection ids reachable in one segment."""
        return [self.segments[sid].to_id for sid in self._out[intersection_id]]

    def to_networkx(self) -> Any:
        """Export as a :class:`networkx.DiGraph` (edge attr: segment id, length)."""
        import networkx as nx

        g = nx.DiGraph()
        for node in self.intersections:
            g.add_node(node.id, x=node.x, y=node.y, signalized=node.signalized)
        for seg in self.segments:
            g.add_edge(seg.from_id, seg.to_id, segment_id=seg.id, length=seg.length)
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoadNetwork({len(self.intersections)} intersections, "
            f"{len(self.segments)} segments)"
        )


def grid_network(
    n_cols: int,
    n_rows: int,
    spacing_m: float = 1000.0,
    *,
    frame: Optional[LocalFrame] = None,
    signalized: bool = True,
) -> RoadNetwork:
    """Build a rectangular grid network.

    This is the topology of the paper's navigation demo (Fig. 15): a
    regular grid whose shortest road segment is 1 km.  Every adjacent
    pair of intersections is connected by two directed segments (one per
    driving direction).

    Parameters
    ----------
    n_cols, n_rows:
        Grid dimensions (number of intersections per axis), each ≥ 2.
    spacing_m:
        Edge length in meters (paper: 1000 m).
    signalized:
        Whether every intersection carries a light.
    """
    if n_cols < 2 or n_rows < 2:
        raise ValueError("grid_network requires n_cols >= 2 and n_rows >= 2")
    spacing_m = check_positive("spacing_m", spacing_m)

    intersections: List[Intersection] = []
    for r in range(n_rows):
        for c in range(n_cols):
            intersections.append(
                Intersection(
                    id=r * n_cols + c,
                    x=c * spacing_m,
                    y=r * spacing_m,
                    signalized=signalized,
                    name=f"I({c},{r})",
                )
            )

    segments: List[Segment] = []

    def _add_bidir(a: Intersection, b: Intersection) -> None:
        for u, v in ((a, b), (b, a)):
            segments.append(
                Segment(
                    id=len(segments),
                    from_id=u.id,
                    to_id=v.id,
                    ax=u.x,
                    ay=u.y,
                    bx=v.x,
                    by=v.y,
                    name=f"{u.name}->{v.name}",
                )
            )

    for r in range(n_rows):
        for c in range(n_cols):
            node = intersections[r * n_cols + c]
            if c + 1 < n_cols:
                _add_bidir(node, intersections[r * n_cols + c + 1])
            if r + 1 < n_rows:
                _add_bidir(node, intersections[(r + 1) * n_cols + c])

    return RoadNetwork(intersections, segments, frame=frame)
