import copy

import numpy as np
import pytest

import plateflow.modal as modal
import plateflow.verification as verification
from plateflow.config import ExperimentConfig
from plateflow.dynamics import Stepper
from plateflow.galerkin import assemble, fluid_forcing_field, plate_forcing_profile
from plateflow.mesh import Grid, build_grid
from plateflow.modal import build_modal_basis


@pytest.fixture(scope="session")
def grid():
    return build_grid(Grid(n_x=16, n_z=16))


@pytest.fixture(scope="session")
def built(grid):
    """build_modal_basis's (basis, (mu, psi_res, kappa, xi_res)) at m = 12, n = 8."""
    return build_modal_basis(grid, m=12, n=8)


@pytest.fixture(scope="session")
def basis(built):
    return built[0]


@pytest.fixture(scope="session")
def eigen(built):
    """The eigen-data of basis: (mu, psi_res, kappa, xi_res)."""
    return built[1]


@pytest.fixture(scope="session")
def sys_free(basis):
    return assemble(basis, nu=1.0)


@pytest.fixture(scope="session")
def sys_forced(basis, grid):
    return assemble(basis, nu=1.0, gf=fluid_forcing_field("shear", 1.0, grid),
                    plate=plate_forcing_profile("sine", 0.5, grid))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def battery_run(tmp_path_factory):
    """run_all on the default config: (summary, reported lines, mode-cache dir,
    steppers, judged).  steppers lists each Stepper the battery builds, in
    order, as a dict of its system, model and dt and the number of steps it
    took per state shape; judged maps each criterion to the (result, measured)
    its check returned, the result as it was before judge set its verdicts."""
    cache = str(tmp_path_factory.mktemp("modes_cache"))
    lines, steppers, judged = [], [], {}
    init, step, judge = Stepper.__init__, Stepper.step, verification.judge

    def counted_init(self, sys, dt, model=None):
        self.record = {"sys": sys, "model": model, "dt": dt, "steps": {}}
        steppers.append(self.record)
        init(self, sys, dt, model)

    def counted_step(self, y):
        steps = self.record["steps"]
        steps[y.shape] = steps.get(y.shape, 0) + 1
        return step(self, y)

    def recorded_judge(name, result, measured):
        judged[name] = (copy.deepcopy(result), measured)
        return judge(name, result, measured)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Stepper, "__init__", counted_init)
        mp.setattr(Stepper, "step", counted_step)
        mp.setattr(verification, "judge", recorded_judge)
        summary, _ = verification.run_all(ExperimentConfig(), cache_dir=cache,
                                          report=lines.append)
    return summary, lines, cache, steppers, judged


@pytest.fixture
def forbid_eigensolve(monkeypatch):
    """forbid() makes the Stokes eigensolver raise from then on, so that every
    later basis must come from the mode cache."""
    def fail(*args, **kwargs):
        raise AssertionError("the Stokes eigenproblem was solved")

    def forbid():
        monkeypatch.setattr(modal, "solve_stokes_eigenmodes", fail)
    return forbid
