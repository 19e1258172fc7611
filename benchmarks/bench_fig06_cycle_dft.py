"""Fig. 6 — traffic-light periodicity via interpolation + DFT.

The paper's worked example: one hour of data at a light whose true
cycle is 98 s; the strongest DFT bin is 37 cycles/hour → 3600/37 ≈ 97 s
(1 s error).  We regenerate the exact workflow — raw sparse reports →
1 Hz spline regularization → magnitude spectrum → Eq. 2 — on a light
simulated with a 98 s cycle.
"""

import numpy as np
import pytest

from conftest import banner, window_samples
from repro.core import PipelineConfig, identify_cycles
from repro.core.cycle import CycleConfig, spectrum
from repro.core.interpolation import regularize
from repro.trace.store import PartitionStore

TRUE_CYCLE = 98.0
WINDOW = 3600.0
#: The cycle stage on the 1 h window: 150 m cut, no mirror, no stop-end comb.
CONFIG = PipelineConfig(
    window_s=WINDOW, use_enhancement=False, cycle=CycleConfig(stop_end_weight=0.0)
)


@pytest.fixture(scope="module")
def one_light(small_city_data):
    _, partitions = small_city_data
    # the busiest partition of the test city (whose lights run 98 s)
    key = max(partitions, key=lambda k: len(partitions[k]))
    return partitions[key]


def test_fig06_interpolation_and_dft(benchmark, one_light):
    t, v = window_samples(one_light, 7200.0 - WINDOW, 7200.0, 150.0)

    banner("Fig. 6 — cycle identification by interpolation + DFT")
    print(f"  raw samples in the 1 h window: {t.size} "
          f"(data missing + redundancy, as in Fig. 6(a))")

    grid, sig = regularize(t, v, 7200.0 - WINDOW, 7200.0, kind="spline")
    print(f"  regularized to {sig.size} x 1 Hz points (Fig. 6(b)); "
          f"negative excursions allowed: min={sig.min():.1f} km/h")

    periods, mag = spectrum(sig)
    in_band = (periods >= 40.0) & (periods <= 320.0)
    best_bin = int(np.argmax(np.where(in_band, mag, -np.inf))) + 1
    plain_cycle = WINDOW / best_bin
    print(f"  strongest in-band DFT bin: {best_bin} cycles/hour "
          f"-> Eq.2 cycle = 3600/{best_bin} = {plain_cycle:.1f} s (Fig. 6(c))")
    print(f"  paper example: bin 37 -> 97 s vs ground truth 98 s")

    key = one_light.key
    store = PartitionStore.from_partitions({key: one_light})
    cycles, _, _ = benchmark(identify_cycles, store, 7200.0, config=CONFIG)
    est = cycles[key]
    print(f"  refined estimate: {est.cycle_s:.2f} s "
          f"(truth {TRUE_CYCLE:.0f} s, error {est.cycle_s - TRUE_CYCLE:+.2f} s, "
          f"quality z={est.quality:.1f})")

    assert abs(plain_cycle - TRUE_CYCLE) <= 6.0, "raw DFT within leakage bound"
    assert abs(est.cycle_s - TRUE_CYCLE) <= 2.0, "refined within paper's 1 s-class error"
