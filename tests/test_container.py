"""What a model load rejects: each case is a DataError that names the file."""
import re

import numpy as np
import pytest

from hddrul import forest, neural
from hddrul.errors import DataError


def _save_lstm(path):
    settings = neural.TrainSettings(bidirectional=True, hidden_size=3, seed=1)
    neural.save_model(neural.init_model(settings, n_features=2, timesteps=4), path)


def _save_forest(path):
    rng = np.random.default_rng(0)
    model = forest.fit_forest(rng.normal(size=(20, 2)), rng.normal(size=20), n_estimators=3, seed=2)
    forest.save_forest(model, path)


def _members(edit):
    """A well-formed container whose members ``edit`` has changed."""
    def damage(path):
        with np.load(path) as archive:
            members = dict(archive)
        edit(members)
        with open(path, "wb") as fh:
            np.savez(fh, **members)
    return damage


def _link_backward(members):
    members["left"][0] = 0  # the first root's left child is the root itself


def _feature_past_ids(members):
    members["feature"][0] = len(members["feature_ids"])


def _write(data):
    return lambda path: path.write_bytes(data(path.read_bytes()))


def _bare_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.arange(3.0))


def _directory(path):
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize("save,damage,load", [
    (_save_lstm, _members(lambda m: m.update({"forward.w_h": m["forward.w_h"][:, 1:]})),
     neural.load_model),
    (_save_lstm, _members(lambda m: m.update(timesteps=np.array(0))), neural.load_model),
    (_save_lstm, _members(lambda m: m.update(seed=np.array(-1))), neural.load_model),
    (_save_forest, _members(_link_backward), forest.load_forest),
    (_save_forest, _members(_feature_past_ids), forest.load_forest),
    (_save_forest, _members(lambda m: m.update(tree_nodes=m["tree_nodes"][1:])),
     forest.load_forest),
    (_save_forest, lambda path: None, neural.load_model),
    (_save_lstm, _members(lambda m: m.update(version=np.array(3))), neural.load_model),
    (_save_lstm, _members(lambda m: m.update(kind=np.array("scaler"))), neural.load_model),
    (_save_lstm, _members(lambda m: m.pop("dense.bias")), neural.load_model),
    (_save_lstm, _write(lambda raw: b""), neural.load_model),
    (_save_forest, _write(lambda raw: raw[: len(raw) // 2]), forest.load_forest),
    (_save_forest, _write(lambda raw: b"junk" + raw), forest.load_forest),
    (_save_lstm, _bare_npy, neural.load_model),
    (_save_lstm, _directory, neural.load_model),
    (_save_lstm, _members(lambda m: m["forward.w_x"].__setitem__((0, 0), np.nan)),
     neural.load_model),
    (_save_forest, _members(lambda m: m["threshold"].__setitem__(0, np.nan)), forest.load_forest),
    (_save_forest, _members(lambda m: m["value"].__setitem__(-1, np.inf)), forest.load_forest),
], ids=["param_shape", "timesteps", "seed_dtype", "link_backward", "feature_past_ids",
        "node_count", "forest_as_lstm", "version", "kind", "missing_member", "empty", "truncated",
        "junk_prefix", "bare_npy", "directory", "nan_weight", "nan_threshold", "inf_value"])
def test_bad_container_is_data_error(tmp_path, save, damage, load):
    path = tmp_path / "x.model"
    save(path)
    damage(path)
    with pytest.raises(DataError, match=re.escape(str(path))):
        load(path)
