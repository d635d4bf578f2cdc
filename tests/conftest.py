import random

import pytest

from golay486 import codes, constructions, permaction


@pytest.fixture(scope="session")
def golay():
    return codes.golay_code()


@pytest.fixture(scope="session")
def gamma(golay):
    return codes.coset_graph(golay)


@pytest.fixture(scope="session")
def family():
    return constructions.classify_types()


@pytest.fixture(scope="session")
def bundled_action():
    return constructions.bundled_action()


@pytest.fixture(scope="session")
def relabelled_action(bundled_action):
    """The bundled action conjugated by a seeded random relabelling, so the
    coset half is no longer 0..242."""
    n = bundled_action.degree
    sigma = list(range(n))
    random.Random(2024).shuffle(sigma)
    gens = []
    for g in bundled_action.generators:
        conj = [0] * n
        for x in range(n):
            conj[sigma[x]] = sigma[g[x]]
        gens.append(tuple(conj))
    return permaction.GroupAction(n, tuple(gens))


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
