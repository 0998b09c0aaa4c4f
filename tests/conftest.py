import numpy as np
import pytest

from plateflow.config import ExperimentConfig
from plateflow.galerkin import ForcingConfig, assemble
from plateflow.mesh import GeometryConfig, build_grid
from plateflow.modal import build_modal_basis
from plateflow.verification import run_all


@pytest.fixture(scope="session")
def grid():
    return build_grid(GeometryConfig(n_x=16, n_z=16))


@pytest.fixture(scope="session")
def basis(grid):
    return build_modal_basis(grid, m=12, n=8)


@pytest.fixture(scope="session")
def sys_free(basis):
    return assemble(basis, nu=1.0)


@pytest.fixture(scope="session")
def sys_forced(basis):
    forcing = ForcingConfig(fluid_kind="shear", fluid_amp=1.0,
                            plate_kind="sine", plate_amp=0.5)
    return assemble(basis, nu=1.0, forcing=forcing)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def battery_run(tmp_path_factory):
    """run_all on the default config: (summary, reported lines, mode-cache dir)."""
    cache = str(tmp_path_factory.mktemp("modes_cache"))
    lines = []
    summary, _ = run_all(ExperimentConfig(), cache_dir=cache, report=lines.append)
    return summary, lines, cache
