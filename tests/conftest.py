from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from fllp.algebra import DEFAULT_ALGEBRA_CONFIG, load_algebra_config
from fllp.inverse import build_inverse_table

from randprog import algebra_config_text, random_algebra

# One derandomised profile for every property test: the same examples on
# every run, no example database, no per-example deadline.  Tests set only
# their example counts.
settings.register_profile("fllp", derandomize=True, database=None, deadline=None)
settings.load_profile("fllp")

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

# One strengthening hedge against two weakening ones, to exercise domains
# where the two hedge classes have different sizes.
ASYM_CONFIG = """\
primary: low, high
hedge: more class=+ rank=1
hedge: roughly class=- rank=1
hedge: barely class=- rank=2
positive: more -> more, barely
negative: more -> roughly
positive: roughly -> roughly
negative: roughly -> more, barely
positive: barely -> roughly
negative: barely -> more, barely
limit: 2
"""


def shape_config(key: str) -> str:
    """Config text of a pinned shape (a key of
    ``expected.DOMAIN_INVERSE_SHA256``): ``default-<limit>``, ``asym``,
    ``vmpl`` or ``seed-<n>`` for ``random_algebra(n)``."""
    kind, _, arg = key.partition("-")
    if kind == "default":
        return DEFAULT_ALGEBRA_CONFIG.replace("limit: 2", f"limit: {arg}")
    if kind == "seed":
        return algebra_config_text(random_algebra(int(arg))[0].spec)
    return ASYM_CONFIG if kind == "asym" else (SAMPLES / "vmpl.alg").read_text()


@pytest.fixture(scope="session")
def vmpl():
    algebra, domain, overrides = load_algebra_config(DEFAULT_ALGEBRA_CONFIG)
    return algebra, domain, build_inverse_table(domain, overrides)


@pytest.fixture(scope="session")
def algebra(vmpl):
    return vmpl[0]


@pytest.fixture(scope="session")
def domain(vmpl):
    return vmpl[1]


@pytest.fixture(scope="session")
def table(vmpl):
    return vmpl[2]


@pytest.fixture(scope="session")
def asym():
    algebra, domain, overrides = load_algebra_config(ASYM_CONFIG)
    return algebra, domain, build_inverse_table(domain, overrides)


@pytest.fixture(scope="session")
def samples_dir():
    return SAMPLES
