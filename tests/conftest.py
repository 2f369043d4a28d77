"""Session-wide test settings.

Hypothesis runs derandomized, without an example database and with a
fixed example budget, so every run draws the same examples. No deadline
applies: a slow machine must not turn a passing example into a failure.
Hypothesis also caches the constants it reads from local source files in
its storage directory; that directory is a temporary one, so a test run
leaves no ``.hypothesis/`` directory in the checkout.
"""

import os
import tempfile

from hypothesis import settings

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _storage.name)

settings.register_profile(
    "deterministic", derandomize=True, database=None, max_examples=200, deadline=None
)
settings.load_profile("deterministic")
