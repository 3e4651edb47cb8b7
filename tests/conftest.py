"""Hypothesis profiles of the property tests.

The ``default`` profile runs each property test with the example count
that its ``@examples(n)`` names, and hypothesis's own seeding.
``HYPOTHESIS_PROFILE=deep`` runs ten times as many examples, for changes to
the kernel:

    HYPOTHESIS_PROFILE=deep PYTHONPATH=src python -m pytest tests/test_series.py
"""

import os

from hypothesis import settings

SCALE = {"default": 1, "deep": 10}
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "default")
if PROFILE not in SCALE:
    raise ValueError(f"HYPOTHESIS_PROFILE must be one of {sorted(SCALE)}, "
                     f"got {PROFILE!r}")
for name in SCALE:
    settings.register_profile(name, deadline=None)
settings.load_profile(PROFILE)


def examples(n: int) -> settings:
    """The settings of a property test that runs n examples under the
    default profile, scaled by the loaded one."""
    return settings(max_examples=n * SCALE[PROFILE])
