"""GPS error model for the trace generator.

The paper reports urban GPS localization errors of up to ~100 m [15],
plus reports flagged unavailable (Table I field 8).  The model is a
two-component mixture: routine multipath jitter around the true
position, and occasional urban-canyon outliers with much larger spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np
import numpy.typing as npt

from .._util import RngLike, as_rng, check_in_range, check_nonnegative

__all__ = ["GPSDraws", "GPSErrorModel"]


class GPSDraws(NamedTuple):
    """Per-fix draws of :class:`GPSErrorModel`, in draw order: the two
    uniforms that decide outlier and availability, then standard normal
    noise per axis."""

    outlier: np.ndarray
    available: np.ndarray
    x_noise: np.ndarray
    y_noise: np.ndarray


@dataclass(frozen=True)
class GPSErrorModel:
    """Additive planar GPS noise.

    Parameters
    ----------
    sigma_m:
        Std-dev of routine noise per axis (meters).
    outlier_prob:
        Probability a fix is an urban-canyon outlier.
    outlier_sigma_m:
        Per-axis std-dev of outlier fixes (≈ 100 m paper bound at ~3σ
        of the default 35 m).
    unavailable_prob:
        Probability the GPS condition flag reads 0 (field 8); such
        records are kept in the raw trace — preprocessing drops them.
    """

    sigma_m: float = 5.0
    outlier_prob: float = 0.02
    outlier_sigma_m: float = 35.0
    unavailable_prob: float = 0.01

    def __post_init__(self) -> None:
        check_nonnegative("sigma_m", self.sigma_m)
        check_in_range("outlier_prob", self.outlier_prob, 0.0, 1.0)
        check_nonnegative("outlier_sigma_m", self.outlier_sigma_m)
        check_in_range("unavailable_prob", self.unavailable_prob, 0.0, 1.0)

    def apply(
        self, x: npt.ArrayLike, y: npt.ArrayLike, rng: RngLike = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Noise up true local coordinates.

        Returns ``(x_noisy, y_noisy, gps_ok)``; positions flagged not-ok
        get outlier-scale noise (a dying fix wanders before dropping
        out), which is why preprocessing must respect the flag.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = x.shape[0] if x.ndim else 1
        x = np.atleast_1d(x).astype(float)
        y = np.atleast_1d(y).astype(float)
        return self.perturb(x, y, self.draw(n, rng))

    def draw(self, n: int, rng: RngLike = None) -> GPSDraws:
        """The random draws :meth:`apply` makes for ``n`` fixes."""
        rng = as_rng(rng)
        return GPSDraws(
            rng.uniform(size=n),
            rng.uniform(size=n),
            rng.normal(0.0, 1.0, size=n),
            rng.normal(0.0, 1.0, size=n),
        )

    def perturb(
        self, x: np.ndarray, y: np.ndarray, draws: GPSDraws
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`apply` with its draws given; elementwise, so the draws
        of many calls to :meth:`draw`, concatenated, perturb at once."""
        is_outlier = draws.outlier < self.outlier_prob
        gps_ok = draws.available >= self.unavailable_prob
        sigma = np.where(is_outlier | ~gps_ok, self.outlier_sigma_m, self.sigma_m)
        return x + draws.x_noise * sigma, y + draws.y_noise * sigma, gps_ok
