"""Synthetic two-task data: a "pretrain" cluster task, a rotated/shifted "SFT"
task, and preference pairs scored by a latent linear utility.

The utility is drawn independently of the class structure, so optimizing
preferences genuinely competes with the classification abilities: that is the
desk-scale stand-in for the reward-vs-forgetting trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidConfig, check_u64, is_count, is_real

_CLUSTER_NOISE = 0.5
_CENTER_SCALE = 3.0
_ROTATION_STRENGTH = 0.35
_SHIFT_SCALE = 0.8
_UTILITY_CLUSTER_PENALTY = 4.0
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max


def check_rows(where: str, rows: int, width: int) -> None:
    """Raise InvalidConfig if numpy cannot address a rows x width float64 array."""
    if rows * width * 8 > _MAX_ARRAY_BYTES:
        raise InvalidConfig(
            f"{where} ({rows}) x {width} float64 values exceed numpy's maximum array size"
        )


@dataclass(frozen=True)
class SuiteSizes:
    pretrain_train: int = 2000
    pretrain_eval: int = 500
    sft_train: int = 2000
    sft_eval: int = 500
    pref_train: int = 2000
    pref_eval: int = 500


@dataclass(frozen=True)
class DataSettings:
    """The data section of a run config: what gen_task_suite builds from a
    seed. check_data decides which settings it can build."""

    input_dim: int = 6
    hidden_dim: int = 16
    num_responses: int = 4
    preference_noise: float = 0.1
    sizes: SuiteSizes = field(default_factory=SuiteSizes)


@dataclass(frozen=True)
class LabeledSet:
    x: np.ndarray
    y: np.ndarray

    def __len__(self):
        return len(self.y)


@dataclass(frozen=True)
class PreferenceSet:
    x: np.ndarray
    chosen: np.ndarray
    rejected: np.ndarray

    def __len__(self):
        return len(self.chosen)

    def take(self, idx) -> "PreferenceSet":
        return PreferenceSet(self.x[idx], self.chosen[idx], self.rejected[idx])


@dataclass(frozen=True)
class TaskSuite:
    pretrain_train: LabeledSet
    pretrain_eval: LabeledSet
    sft_train: LabeledSet
    sft_eval: LabeledSet
    pref_train: PreferenceSet
    pref_eval: PreferenceSet
    centers_pretrain: np.ndarray
    centers_sft: np.ndarray
    utility_w: np.ndarray
    utility_b: np.ndarray
    input_dim: int
    hidden_dim: int
    num_responses: int

    def utility(self, x: np.ndarray) -> np.ndarray:
        """Latent utility of every candidate response for each row of x.

        A linear score minus a penalty on the input's own SFT cluster, so the
        preferred behavior deliberately deviates from pure SFT behavior: that
        is what puts preference reward in tension with the supervised tasks.
        """
        return _utility_scores(np.atleast_2d(x), self.centers_sft, self.utility_w, self.utility_b)


def _utility_scores(x, centers_sft, utility_w, utility_b) -> np.ndarray:
    scores = x @ utility_w.T + utility_b
    d2 = ((x[:, None, :] - centers_sft[None, :, :]) ** 2).sum(axis=2)
    own = np.argmin(d2, axis=1)
    scores[np.arange(len(x)), own] -= _UTILITY_CLUSTER_PENALTY
    return scores


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _sample_labeled(rng, centers: np.ndarray, n: int) -> LabeledSet:
    c = len(centers)
    labels = rng.integers(0, c, size=n)
    x = centers[labels] + _CLUSTER_NOISE * rng.normal(size=(n, centers.shape[1]))
    return LabeledSet(_read_only(x), _read_only(labels))


def _sample_preferences(rng, centers, utility_w, utility_b, n, noise) -> PreferenceSet:
    c = len(centers)
    x = _sample_labeled(rng, centers, n).x
    first = rng.integers(0, c, size=n)
    second = (first + 1 + rng.integers(0, c - 1, size=n)) % c
    u = _utility_scores(x, centers, utility_w, utility_b)
    rows = np.arange(n)
    first_wins = u[rows, first] >= u[rows, second]
    chosen = np.where(first_wins, first, second)
    rejected = np.where(first_wins, second, first)
    flip = rng.random(n) < noise
    chosen, rejected = (
        np.where(flip, rejected, chosen),
        np.where(flip, chosen, rejected),
    )
    return PreferenceSet(x, _read_only(chosen), _read_only(rejected))


def check_data(data: DataSettings) -> None:
    """Raise InvalidConfig unless gen_task_suite can build a suite from data."""
    for name, least in (("input_dim", 1), ("hidden_dim", 1), ("num_responses", 2)):
        value = getattr(data, name)
        if not is_count(value, least):
            raise InvalidConfig(f"{name} must be an integer >= {least}, got {value!r}")
    d, h, c = data.input_dim, data.hidden_dim, data.num_responses
    if c > d:
        raise InvalidConfig(
            f"num_responses ({c}) must not exceed input_dim ({d}) "
            "so cluster centers can be mutually orthogonal"
        )
    noise = data.preference_noise
    if not (is_real(noise) and 0.0 <= noise < 0.5):
        raise InvalidConfig(f"preference_noise must be in [0, 0.5), got {noise!r}")
    for f in fields(data.sizes):
        rows = getattr(data.sizes, f.name)
        if not is_count(rows, 1):
            raise InvalidConfig(f"size {f.name} must be a positive integer, got {rows!r}")
        check_rows(f"size {f.name}", rows, d)
    # The suite draws input_dim x input_dim matrices, and the policy keeps its
    # h*d + h + C*h + C parameters in one vector.
    check_rows("input_dim", d, d)
    check_rows("policy parameters", h * d + h + c * h + c, 1)


def gen_task_suite(seed: int, data: DataSettings = DataSettings()) -> TaskSuite:
    """Deterministically generate the full suite from (seed, data settings).

    Pretrain clusters sit on orthogonal directions so a nearest-center oracle
    is nearly perfect; the SFT task is the same clusters rotated and shifted.
    Preferences label the higher-utility response, flipped with probability
    preference_noise so the loss cannot saturate instantly. Every array is
    read-only, so runs may share a suite.
    """
    rng = np.random.default_rng(check_u64(seed, "seed"))
    check_data(data)
    input_dim, num_responses, sizes = data.input_dim, data.num_responses, data.sizes
    q, _ = np.linalg.qr(rng.normal(size=(input_dim, input_dim)))
    centers_pre = _CENTER_SCALE * q[:num_responses]
    # Partial rotation (orthogonalized perturbation of I) keeps the SFT task
    # distinct but close enough that a fresh policy can retain both. QR leaves
    # column signs arbitrary; fix them so the rotation stays near identity.
    rot, r = np.linalg.qr(
        np.eye(input_dim) + _ROTATION_STRENGTH * rng.normal(size=(input_dim, input_dim))
    )
    rot = rot * np.sign(np.diag(r))
    shift = _SHIFT_SCALE * rng.normal(size=input_dim)
    centers_sft = centers_pre @ rot + shift
    utility_w = rng.normal(size=(num_responses, input_dim))
    utility_b = rng.normal(size=num_responses)

    return TaskSuite(
        pretrain_train=_sample_labeled(rng, centers_pre, sizes.pretrain_train),
        pretrain_eval=_sample_labeled(rng, centers_pre, sizes.pretrain_eval),
        sft_train=_sample_labeled(rng, centers_sft, sizes.sft_train),
        sft_eval=_sample_labeled(rng, centers_sft, sizes.sft_eval),
        pref_train=_sample_preferences(
            rng, centers_sft, utility_w, utility_b, sizes.pref_train, data.preference_noise
        ),
        pref_eval=_sample_preferences(
            rng, centers_sft, utility_w, utility_b, sizes.pref_eval, data.preference_noise
        ),
        centers_pretrain=_read_only(centers_pre),
        centers_sft=_read_only(centers_sft),
        utility_w=_read_only(utility_w),
        utility_b=_read_only(utility_b),
        input_dim=input_dim,
        hidden_dim=data.hidden_dim,
        num_responses=num_responses,
    )


def oracle_pretrain_accuracy(suite: TaskSuite) -> float:
    """Accuracy of the nearest-center classifier on the pretrain eval split."""
    x, y = suite.pretrain_eval.x, suite.pretrain_eval.y
    d2 = ((x[:, None, :] - suite.centers_pretrain[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(np.argmin(d2, axis=1) == y))
