import pytest

from golay486 import codes, constructions, permaction
from oracles import relabel_action


@pytest.fixture(scope="session")
def golay():
    return codes.golay_code()


@pytest.fixture(scope="session")
def gamma(golay):
    return codes.coset_graph(golay)


@pytest.fixture(scope="session")
def leaders(golay):
    return codes.syndrome_table(golay)


@pytest.fixture(scope="session")
def family(golay):
    return constructions.classify_types(golay)


@pytest.fixture(scope="session")
def bundled_action():
    return constructions.bundled_action()


@pytest.fixture(scope="session")
def relabelled_action(bundled_action):
    """The bundled action conjugated by a seeded random relabelling, so the
    coset half is no longer 0..242."""
    return relabel_action(bundled_action, 2024)[0]


@pytest.fixture(scope="session")
def decomp(bundled_action):
    return permaction.orbitals(bundled_action)


@pytest.fixture(scope="session")
def orbital_models(decomp):
    half = constructions.compute_coset_half(decomp)
    return {
        w: constructions.orbital_model(decomp, w, half=half)
        for w in constructions.ORBITAL_MODELS
    }
