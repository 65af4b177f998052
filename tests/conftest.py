import numpy as np
import pytest

from dapt import GammaModel, Grid, SpinHalfModel, Workspace


@pytest.fixture(autouse=True)
def private_cache(tmp_path, monkeypatch):
    """Each test gets its own, empty parsed-Hamiltonian cache in tmp_path,
    so no test writes the user's cache or starts from another's entries."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "dapt"


@pytest.fixture(scope="session")
def gamma():
    return GammaModel(gap=1.0, cone_angle=np.pi / 3)


@pytest.fixture(scope="session")
def spin():
    return SpinHalfModel(gap=1.0, cone_angle=np.pi / 3)


@pytest.fixture(scope="session")
def grid801():
    return Grid.uniform(801)


@pytest.fixture(scope="session")
def ws_gamma(gamma, grid801):
    """Shared numeric-transport workspace; treat as read-only."""
    return Workspace.build(model=gamma, grid=grid801, order=2,
                           model_holonomy=False)


@pytest.fixture(scope="session")
def ragged():
    """Sampler of H(s) = W(s) D W(s)^dagger, W(s) = exp(sK) for a fixed
    anti-Hermitian K, with levels of degeneracy (2, 3, 1): the ground
    level is smaller than the next one."""
    rng = np.random.default_rng(2010)
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    lam, vec = np.linalg.eigh(0.25 * (x + x.conj().T))     # K = i lam
    energies = np.array([-1.0, -1.0, 0.5, 0.5, 0.5, 2.0])

    def samples(grid):
        w = (vec * np.exp(1j * np.outer(grid.s, lam))[:, None, :]) \
            @ vec.conj().T
        return (w * energies) @ np.swapaxes(w, 1, 2).conj()
    return samples
