"""Regenerate the committed golden fixtures.

Run deliberately, after an *intended* numeric change, and commit the
diff alongside the change that caused it::

    PYTHONPATH=src python -m tests.golden.regen

The regression test (``tests/test_golden.py``) never regenerates; it
only compares, so an accidental numeric drift cannot silently rewrite
its own oracle.
"""

from __future__ import annotations

from .scenarios import (
    ALL_GOLDEN_SCENARIOS,
    MONITOR_GOLDEN_SCENARIOS,
    compute_monitor_payload,
    compute_payload,
    save_fixture,
)


def main() -> int:
    for spec in ALL_GOLDEN_SCENARIOS:
        payload = compute_payload(spec)
        save_fixture(spec, payload)
        print(
            f"wrote {spec.path} "
            f"({len(payload['estimates'])} estimates, "
            f"{len(payload['failures'])} failures)"
        )
    for mspec in MONITOR_GOLDEN_SCENARIOS:
        payload = compute_monitor_payload(mspec)
        save_fixture(mspec, payload)
        print(f"wrote {mspec.path} ({len(payload['lights'])} monitored lights)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
