"""Root pytest configuration.

Loads the SimSanitizer plugin so ``pytest --simsan`` (or the
``REPRO_SIMSAN=1`` environment variable) arms runtime invariant checking
for the whole test session.  See DESIGN.md "Determinism contract".

Under CI (the ``CI`` environment variable, which GitHub Actions sets)
hypothesis runs derandomized, so a latent failing seed fails every CI run
or none instead of flaking; local runs keep random exploration.
"""

import os

from hypothesis import settings

pytest_plugins = ["repro.analysis.pytest_plugin"]

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
