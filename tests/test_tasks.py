import numpy as np
import pytest

from genoseq.errors import ConfigError
from genoseq.tasks import adding_task, deep_recall_task, lag_memory_task, make_task


class TestLagMemoryTask:
    def test_structure(self):
        batch = lag_memory_task(8, 50, seed=3)
        assert batch.inputs.shape == (8, 50, 1)
        np.testing.assert_array_equal(batch.inputs[:, 1:, 0], np.zeros((8, 49)))
        np.testing.assert_array_equal(batch.inputs[:, 0, 0], batch.targets[:, 0])

    def test_deterministic(self):
        a = lag_memory_task(5, 20, seed=9)
        b = lag_memory_task(5, 20, seed=9)
        assert a.inputs.tobytes() == b.inputs.tobytes()

    def test_value_range(self):
        batch = lag_memory_task(100, 10, seed=1)
        assert batch.targets.min() >= -1.0 and batch.targets.max() < 1.0
        assert batch.targets.min() < -0.9 and batch.targets.max() > 0.9  # the whole of [-1, 1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            lag_memory_task(0, 10, seed=1)


class TestDeepRecallTask:
    def test_silence_outside_signal_positions(self):
        batch = deep_recall_task(6, 100, seed=4)
        nonzero_cols = np.nonzero(np.abs(batch.inputs).sum(axis=(0, 2)))[0]
        assert len(nonzero_cols) == 6
        # deepest signal sits at the very first step
        assert 0 in nonzero_cols
        # nothing within the last few steps carries signal
        assert nonzero_cols.max() < 95

    def test_target_is_sum_of_shown_values(self):
        batch = deep_recall_task(6, 100, seed=4)
        np.testing.assert_allclose(batch.inputs.sum(axis=(1, 2)), batch.targets[:, 0])

    def test_deterministic(self):
        a = deep_recall_task(4, 60, seed=2)
        b = deep_recall_task(4, 60, seed=2)
        assert a.inputs.tobytes() == b.inputs.tobytes()


class TestAddingTask:
    def test_structure(self):
        batch = adding_task(10, 40, seed=5)
        assert batch.inputs.shape == (10, 40, 2)
        markers = batch.inputs[:, :, 1]
        np.testing.assert_array_equal(markers.sum(axis=1), np.full(10, 2.0))
        # one marker in each half
        half = 20
        assert (markers[:, :half].sum(axis=1) == 1.0).all()
        assert (markers[:, half:].sum(axis=1) == 1.0).all()

    def test_target_is_mean_of_marked_values(self):
        batch = adding_task(10, 40, seed=5)
        marked = (batch.inputs[:, :, 0] * batch.inputs[:, :, 1]).sum(axis=1)
        np.testing.assert_allclose(batch.targets[:, 0], marked / 2.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            adding_task(4, 1, seed=1)


class TestMakeTask:
    @pytest.mark.parametrize("name,width", [("lag", 1), ("deep", 1), ("adding", 2)])
    def test_dispatch(self, name, width):
        batch = make_task(name, 4, 30, seed=8)
        assert batch.inputs.shape == (4, 30, width)

    def test_unknown_task(self):
        with pytest.raises(ConfigError):
            make_task("copy", 4, 30, seed=8)
