import json
import signal

import pytest

from graphprod import corpus, parse_presentation
from graphprod.presentation import presentation_from_config

TEST_SECONDS = 60  # the slowest test takes about 5 s


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs longer than TEST_SECONDS, so a hang fails it
    instead of stalling the suite.  Skipped where there is no SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran longer than {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def path_racg():
    return presentation_from_config(corpus.PATH_RACG)


@pytest.fixture(scope="session")
def star_racg():
    return presentation_from_config(corpus.STAR_RACG)


@pytest.fixture(scope="session")
def free_zz():
    return presentation_from_config(corpus.FREE_ZZ)


@pytest.fixture(scope="session")
def edge_zz():
    return presentation_from_config(corpus.EDGE_ZZ)


@pytest.fixture(scope="session")
def triangle_mixed():
    return presentation_from_config(corpus.TRIANGLE_MIXED)


@pytest.fixture(scope="session")
def single_z():
    return parse_presentation(json.dumps({"vertices": [{"name": "x", "group": "Z"}], "edges": []}))


@pytest.fixture(scope="session")
def all_presentations(path_racg, star_racg, free_zz, edge_zz, triangle_mixed):
    return {
        "path-racg": path_racg,
        "star-racg": star_racg,
        "free-zz": free_zz,
        "edge-zz": edge_zz,
        "triangle-mixed": triangle_mixed,
    }
