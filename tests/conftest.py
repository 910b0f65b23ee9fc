import pytest

from mvgroups.wordspec import load_instance

from oracles import PATHS, ROOT, SHIPPED


@pytest.fixture(scope="session")
def config_dir():
    return ROOT / "configs"


@pytest.fixture(scope="session")
def instances():
    """All golden configs, built once."""
    return {name: load_instance(PATHS[name]) for name in SHIPPED}


@pytest.fixture(scope="session")
def every_instance(instances):
    """The golden configs and the n >= 3 test instances."""
    return {name: instances.get(name) or load_instance(PATHS[name]) for name in PATHS}
