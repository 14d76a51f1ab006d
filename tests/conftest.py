"""Shared test settings.

Property tests run hypothesis derandomized and without an example
database, so every run draws the same examples; no deadline, because
the checks' cost varies with host load.  What hypothesis still caches
on disk (constants read from the source) goes to a temporary directory
that is removed at exit, so no .hypothesis/ directory appears in the
checkout.
"""

import atexit
import tempfile

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property tests skip themselves without it
    pass
else:
    settings.register_profile(
        "weightsys", derandomize=True, database=None, deadline=None
    )
    settings.load_profile("weightsys")
    _STORAGE = tempfile.TemporaryDirectory(prefix="weightsys-hypothesis-")
    atexit.register(_STORAGE.cleanup)
    set_hypothesis_home_dir(_STORAGE.name)
