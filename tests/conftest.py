import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from hddrul import dataset as ds


@pytest.fixture(scope="session")
def small_cohort():
    """Five synthetic drives, 30-day lookback, uncapped labels."""
    config = ds.SynthConfig(n_drives=5, lookback_days=30, jump_day=10, seed=101)
    return ds.generate_synthetic(config)


@pytest.fixture(scope="session")
def small_frames(small_cohort):
    capped = [ds.cap_rul(s, 12) for s in small_cohort]
    return ds.materialize_cohort(capped, ds.synthetic_attribute_ids(5))


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def load_perfbench():
    """Load a module of ``perfbench/`` by path, e.g. ``load_perfbench("corpus")``.

    ``perfbench/run.py`` is not meant for this: it sets the BLAS thread
    variables at import.
    """
    def load(name):
        path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
        module = importlib.util.module_from_spec(spec)
        # dataclasses resolve string annotations through sys.modules
        sys.modules[spec.name] = module
        try:
            spec.loader.exec_module(module)
        finally:
            del sys.modules[spec.name]
        return module

    return load
