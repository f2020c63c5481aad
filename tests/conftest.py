"""Session fixtures: the desk-scale spaces every test module shares.

cfg1  -- the clique/exchange/reconstruction workhorse (both gates of the
         abstract pipeline get exercised; the bundle gate formula holds).
cfg3  -- the pencil-gate config (3 <= n-k and 3 <= k-m) used for the
         ternary concurrency and pencil recovery sweeps.
cex   -- the neighbourhood-of-a-point case over GF(3), where a central
         collineation of one star breaks bundle preservation.
roomy -- a config whose lines all sit in 4-dimensional stars, where the
         full reconstruction genuinely succeeds for both relations.
"""

from __future__ import annotations

import pytest

from spinegeo import verify
from spinegeo.harness import RunConfig, Workspace

CFG1 = (2, 6, 2, 1, 3)
CFG3 = (2, 6, 3, 0, 1)
CEX = (3, 5, 2, 1, 2)
ROOMY = (2, 6, 2, 0, 2)
SEED = 11


def workspace(params, out_dir) -> Workspace:
    """The pipeline of one configuration, stripped with SEED."""
    return Workspace(RunConfig(*params, seed=SEED, out_dir=out_dir))


@pytest.fixture(scope="session")
def cfg1_ws(tmp_path_factory):
    return workspace(CFG1, tmp_path_factory.mktemp("cfg1"))


@pytest.fixture(scope="session")
def cfg1_space(cfg1_ws):
    return cfg1_ws.space()


@pytest.fixture(scope="session")
def cfg1_pi(cfg1_ws):
    return cfg1_ws.graph("pi")


@pytest.fixture(scope="session")
def cfg1_rho(cfg1_ws):
    return cfg1_ws.graph("rho")


@pytest.fixture(scope="session")
def cfg1_fams(cfg1_ws):
    return cfg1_ws.families()


@pytest.fixture(scope="session")
def cfg3_ws(tmp_path_factory):
    return workspace(CFG3, tmp_path_factory.mktemp("cfg3"))


@pytest.fixture(scope="session")
def cfg3_space(cfg3_ws):
    return cfg3_ws.space()


@pytest.fixture(scope="session")
def cfg3_pi(cfg3_ws):
    return cfg3_ws.graph("pi")


@pytest.fixture(scope="session")
def cfg3_rho(cfg3_ws):
    return cfg3_ws.graph("rho")


@pytest.fixture(scope="session")
def cex_ws(tmp_path_factory):
    return workspace(CEX, tmp_path_factory.mktemp("cex"))


@pytest.fixture(scope="session")
def cex_space(cex_ws):
    return cex_ws.space()


@pytest.fixture(scope="session")
def cex_pi(cex_ws):
    return cex_ws.graph("pi")


@pytest.fixture(scope="session")
def cex_rho(cex_ws):
    return cex_ws.graph("rho")


@pytest.fixture(scope="session")
def roomy_ws(tmp_path_factory):
    return workspace(ROOMY, tmp_path_factory.mktemp("roomy"))


@pytest.fixture(scope="session")
def roomy_space(roomy_ws):
    return roomy_ws.space()


@pytest.fixture(scope="session")
def roomy_reconstruction(roomy_ws):
    """`check_reconstruction` reports on roomy for pi and rho (seed 11).

    The roomy pipeline is the slowest work in the suite, so every test that
    needs it reads these shared reports.
    """
    return {kind: verify.check_reconstruction(roomy_ws, kind) for kind in ("pi", "rho")}
