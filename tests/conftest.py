"""Shared fixtures and hypothesis profiles.

The tier-1 profile is derandomized and keeps no example database, so a
test gives the same verdict on a clean clone and in a checkout holding a
local ``.hypothesis`` directory.  ``pytest --hypothesis-profile=explore``
switches to random search with the example database, for hunting new
failures; pin what it finds with ``@example``.
"""

import pytest
from hypothesis import settings

from repro.core.resource_vector import ErvLayout
from repro.platform.topology import odroid_xu3e, raptor_lake_i9_13900k

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")


@pytest.fixture
def intel():
    return raptor_lake_i9_13900k()


@pytest.fixture
def odroid():
    return odroid_xu3e()


@pytest.fixture
def intel_layout(intel):
    return ErvLayout(intel)


@pytest.fixture
def odroid_layout(odroid):
    return ErvLayout(odroid)
