import random

import pytest

from golay486 import codes, constructions, permaction


@pytest.fixture(scope="session")
def golay():
    return codes.golay_code()


@pytest.fixture(scope="session")
def gamma():
    return constructions.build_gamma()


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
def decomp():
    return constructions.bundled_orbitals()


@pytest.fixture(scope="session")
def orbital_models():
    return {w: constructions.build_from_orbitals(w) for w in constructions.ORBITAL_MODELS}
