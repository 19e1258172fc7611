"""repro — reproduction of "Exploiting Real-Time Traffic Light
Scheduling with Taxi Traces" (He et al., ICPP 2016).

The package identifies traffic-light scheduling (cycle length, red
duration, signal-change time, scheduling-change time) from
low-frequency taxi GPS traces, and ships every substrate the paper
depends on: a road-network model, ground-truth signal controllers, a
queue-based traffic microsimulator, a Table I-format taxi-trace
generator, map matching and per-light partitioning, a light-aware
navigation demo, and an evaluation harness for every figure and table
in the paper.

Quick start::

    from repro.scenario import small_scenario
    from repro.eval import simulate_and_partition
    from repro.core import identify_many

    scn = small_scenario()
    trace, parts = simulate_and_partition(scn, 0.0, 7200.0, seed=1)
    estimates, failures = identify_many(parts, at_time=7200.0)
    for key, est in estimates.items():
        print(est.row())

Subpackages are imported on first use, not here, so a tool that needs
one of them (``python -m repro.analysis`` needs no numpy or scipy)
pays only for that one.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
