import pytest

from doublechar import (
    FiniteGroup,
    TaftParams,
    WeightSystem,
    bgg_matrices,
    build_profile_and_table,
)

S3_GENS = [(1, 0, 2), (1, 2, 0)]

# one line per acceptance criterion, echoed after the run so they stay
# visible without -s
ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance_line():
    def put(line):
        ACCEPTANCE_LINES.append(line)
        print(line, flush=True)

    return put


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def s3_system(tmp_path_factory):
    cache = tmp_path_factory.mktemp("tables")
    return WeightSystem(FiniteGroup.from_generators(3, S3_GENS), cache_dir=str(cache))


@pytest.fixture(scope="session")
def c3_system():
    return WeightSystem(FiniteGroup.from_generators(3, [(1, 2, 0)]))


@pytest.fixture(scope="session")
def taft3():
    params = TaftParams(3)
    profile, table = build_profile_and_table(params)
    return params, profile, table


@pytest.fixture(scope="session")
def taft3_report(taft3):
    _, profile, table = taft3
    return bgg_matrices(profile, table)
