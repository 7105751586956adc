import numpy as np
import pytest

from mergeopt import (
    DataSettings,
    InvalidConfig,
    SuiteSizes,
    gen_task_suite,
    oracle_pretrain_accuracy,
)

SMALL = SuiteSizes(200, 100, 200, 100, 200, 100)


def test_same_seed_is_bit_identical():
    a = gen_task_suite(42, DataSettings(sizes=SMALL))
    b = gen_task_suite(42, DataSettings(sizes=SMALL))
    assert a.pretrain_train.x.tobytes() == b.pretrain_train.x.tobytes()
    assert a.pref_train.x.tobytes() == b.pref_train.x.tobytes()
    assert np.array_equal(a.pref_train.chosen, b.pref_train.chosen)
    assert a.utility_w.tobytes() == b.utility_w.tobytes()


def test_different_seed_differs():
    a = gen_task_suite(1, DataSettings(sizes=SMALL))
    b = gen_task_suite(2, DataSettings(sizes=SMALL))
    assert not np.array_equal(a.pretrain_train.x, b.pretrain_train.x)


def test_zero_noise_preferences_follow_utility():
    suite = gen_task_suite(7, DataSettings(sizes=SMALL, preference_noise=0.0))
    for split in (suite.pref_train, suite.pref_eval):
        u = suite.utility(split.x)
        rows = np.arange(len(split))
        assert np.all(u[rows, split.chosen] >= u[rows, split.rejected])


def test_noisy_preferences_flip_roughly_at_rate():
    data = DataSettings(sizes=SuiteSizes(pref_train=20000), preference_noise=0.1)
    suite = gen_task_suite(7, data)
    u = suite.utility(suite.pref_train.x)
    rows = np.arange(len(suite.pref_train))
    flipped = np.mean(u[rows, suite.pref_train.chosen] < u[rows, suite.pref_train.rejected])
    assert abs(flipped - 0.1) < 0.01


def test_oracle_classifier_separates_pretrain_clusters():
    for seed in (1, 2, 3):
        assert oracle_pretrain_accuracy(gen_task_suite(seed, DataSettings(sizes=SMALL))) >= 0.95


def test_eval_split_disjoint_from_train():
    suite = gen_task_suite(5, DataSettings(sizes=SMALL))
    train_rows = {row.tobytes() for row in suite.pretrain_train.x}
    assert not any(row.tobytes() in train_rows for row in suite.pretrain_eval.x)


def test_labels_in_range():
    suite = gen_task_suite(5, DataSettings(sizes=SMALL, num_responses=4))
    for split in (suite.pretrain_train, suite.sft_train):
        assert split.y.min() >= 0 and split.y.max() < 4
    assert np.all(suite.pref_train.chosen != suite.pref_train.rejected)


def test_candidate_pairs_distinct_and_uniformish():
    suite = gen_task_suite(9, DataSettings(sizes=SuiteSizes(pref_train=20000)))
    both = np.stack([suite.pref_train.chosen, suite.pref_train.rejected])
    counts = np.bincount(both.reshape(-1), minlength=4) / both.size
    assert np.all(np.abs(counts - 0.25) < 0.02)


def test_sft_task_is_rotated_and_shifted():
    suite = gen_task_suite(3, DataSettings(sizes=SMALL))
    assert not np.allclose(suite.centers_pretrain, suite.centers_sft)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(sizes=SuiteSizes(pretrain_train=0)),
        dict(num_responses=1),
        dict(num_responses=9, input_dim=6),
        dict(preference_noise=0.5),
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(InvalidConfig):
        gen_task_suite(1, DataSettings(**kwargs))
