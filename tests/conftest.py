"""Session fixtures: tiny mask dataset, CHI index, engine, baseline, and
the exploded-pixel oracle tables."""
import pytest

from repro.core.chi import ChiConfig, ChiIndex, build_index
from repro.core.executor import MaskSearchEngine
from repro.core.incremental import IncrementalSession
from repro.masks.synth import TINY
from repro.maskstore.store import build_store

from . import testing

#: Default CHI config for the tiny 32x32 dataset: 4x4 grid, 8 bins.
TINY_CFG = ChiConfig(8, 8, 8)
#: Coarser config for index-granularity tests (2x2 grid, 4 bins).
TINY_COARSE_CFG = ChiConfig(16, 16, 4)


@pytest.fixture(scope="session")
def tiny_store(spark, tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_store")
    return build_store(spark, TINY, str(root))


@pytest.fixture(scope="session")
def tiny_cfg():
    return TINY_CFG


@pytest.fixture(scope="session")
def tiny_index_path(spark, tiny_store):
    return build_index(spark, tiny_store, TINY_CFG)


@pytest.fixture(scope="session")
def tiny_index(spark, tiny_store, tiny_index_path):
    return ChiIndex.load(spark, tiny_index_path, TINY_CFG)


@pytest.fixture(scope="session")
def tiny_coarse_index(spark, tiny_store):
    path = build_index(spark, tiny_store, TINY_COARSE_CFG)
    return ChiIndex.load(spark, path, TINY_COARSE_CFG)


@pytest.fixture(scope="session")
def engine(spark, tiny_store, tiny_index):
    return MaskSearchEngine(spark, tiny_store, tiny_index)


@pytest.fixture()
def msii(spark, tiny_store):
    """A fresh MS-II session: the engine over an empty CHI."""
    return IncrementalSession(spark, tiny_store, TINY_CFG)


@pytest.fixture(scope="session")
def baseline(spark, tiny_store):
    """The full-scan baseline: the engine without an index."""
    return MaskSearchEngine(spark, tiny_store, None)


@pytest.fixture(scope="session")
def tiny_meta(spark, tiny_store):
    return tiny_store.metadata_pandas(spark)


@pytest.fixture(scope="session")
def pixels(tiny_meta):
    return testing.pixels_table(tiny_meta)
