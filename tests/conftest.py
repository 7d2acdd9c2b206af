import pytest

from driftguard.checkpoints import CheckpointManager
from driftguard.embedding import calibrate_null, shipped_corpus
from driftguard.schemes import build_problem_scheme

EQ3_PROBLEM = {"task": "SA", "d_in": 4, "d_out": 1, "n_budget": 8000,
               "epsilon": 0.05, "model_id": "structural_eq3",
               "dist_family": ["Uniform"] * 4}

G8_PROBLEM = {"task": "SA", "d_in": 8, "d_out": 1, "n_budget": 15000,
              "epsilon": 0.1, "model_id": "g_function_8d",
              "dist_family": ["Uniform"] * 8}

BEAM_PROBLEM = {"task": "SA", "d_in": 4, "d_out": 1, "n_budget": 12000,
                "epsilon": 0.05, "model_id": "cantilever_beam",
                "dist_family": ["Normal"] * 4}


@pytest.fixture(scope="session")
def null_floor():
    return calibrate_null(shipped_corpus())


@pytest.fixture()
def manager(null_floor):
    return CheckpointManager(null_floor)


@pytest.fixture(scope="session")
def ps_eq3():
    return build_problem_scheme(EQ3_PROBLEM)


@pytest.fixture(scope="session")
def ps_g8():
    return build_problem_scheme(G8_PROBLEM)


@pytest.fixture(scope="session")
def ps_beam():
    return build_problem_scheme(BEAM_PROBLEM)
