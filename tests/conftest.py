import pathlib

import pytest

from mvgroups import load_instance

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
# coset instances with n >= 3, kept out of configs/ (whose survey output is pinned)
INSTANCE_DIR = pathlib.Path(__file__).resolve().parent / "instances"


@pytest.fixture(scope="session")
def config_dir():
    return CONFIG_DIR


@pytest.fixture(scope="session")
def instances():
    """All golden configs, built once."""
    names = [p.stem for p in CONFIG_DIR.glob("*.json")]
    return {name: load_instance(CONFIG_DIR / f"{name}.json") for name in sorted(names)}


@pytest.fixture(scope="session")
def every_instance(instances):
    """The golden configs and the n >= 3 test instances."""
    return {**instances, **{p.stem: load_instance(p) for p in INSTANCE_DIR.glob("*.json")}}
