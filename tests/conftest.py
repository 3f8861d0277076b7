"""Hypothesis settings for the whole suite.

With ``CI`` set, as on GitHub Actions, the ``ci`` profile is loaded, and it
prints a ``@reproduce_failure`` line with each failing property test: the
example database that found a failure stays on the machine that ran it, so
the printed blob is the only way to replay the failure elsewhere. Recent
Hypothesis releases register a ``ci`` profile of their own; it is kept, with
``print_blob`` set on it.
"""

import os

from hypothesis import settings
from hypothesis.errors import InvalidArgument

try:
    _parent = settings.get_profile("ci")
except InvalidArgument:  # a release without its own ci profile
    _parent = settings.get_profile("default")
settings.register_profile("ci", _parent, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
