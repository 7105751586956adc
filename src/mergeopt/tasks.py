"""Synthetic two-task data: a "pretrain" cluster task, a rotated/shifted "SFT"
task, and preference pairs scored by a latent linear utility.

The utility is drawn independently of the class structure, so optimizing
preferences genuinely competes with the classification abilities: that is the
desk-scale stand-in for the reward-vs-forgetting trade-off.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidConfig

_CLUSTER_NOISE = 0.5
_CENTER_SCALE = 3.0
_ROTATION_STRENGTH = 0.35
_SHIFT_SCALE = 0.8
_UTILITY_CLUSTER_PENALTY = 4.0


def is_count(value, least: int) -> bool:
    """An integer, not a bool, of at least `least`."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def check_rows(where: str, rows: int, input_dim: int) -> None:
    """Raise InvalidConfig if numpy cannot address a rows x input_dim float64 array."""
    if rows * input_dim * 8 > np.iinfo(np.intp).max:
        raise InvalidConfig(
            f"{where} ({rows}) x input_dim ({input_dim}) exceeds numpy's maximum array size"
        )


def is_real(value) -> bool:
    """A finite real number that is not a bool."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


@dataclass(frozen=True)
class SuiteSizes:
    pretrain_train: int = 2000
    pretrain_eval: int = 500
    sft_train: int = 2000
    sft_eval: int = 500
    pref_train: int = 2000
    pref_eval: int = 500

    def validate(self):
        for name, value in asdict(self).items():
            if not is_count(value, 1):
                raise InvalidConfig(f"size {name} must be a positive integer, got {value!r}")


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
    seed: int
    sizes: SuiteSizes
    preference_noise: float

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


def _sample_labeled(rng, centers: np.ndarray, n: int) -> LabeledSet:
    c = len(centers)
    labels = rng.integers(0, c, size=n)
    x = centers[labels] + _CLUSTER_NOISE * rng.normal(size=(n, centers.shape[1]))
    return LabeledSet(x, labels)


def _sample_preferences(rng, centers, utility_w, utility_b, n, noise) -> PreferenceSet:
    c = len(centers)
    labels = rng.integers(0, c, size=n)
    x = centers[labels] + _CLUSTER_NOISE * rng.normal(size=(n, centers.shape[1]))
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
    return PreferenceSet(x, chosen, rejected)


def check_data(input_dim, hidden_dim, num_responses, sizes: SuiteSizes, preference_noise) -> None:
    """Raise InvalidConfig unless gen_task_suite can build a suite from these."""
    for name, value, least in (
        ("input_dim", input_dim, 1),
        ("hidden_dim", hidden_dim, 1),
        ("num_responses", num_responses, 2),
    ):
        if not is_count(value, least):
            raise InvalidConfig(f"{name} must be an integer >= {least}, got {value!r}")
    if num_responses > input_dim:
        raise InvalidConfig(
            f"num_responses ({num_responses}) must not exceed input_dim ({input_dim}) "
            "so cluster centers can be mutually orthogonal"
        )
    if not (is_real(preference_noise) and 0.0 <= preference_noise < 0.5):
        raise InvalidConfig(f"preference_noise must be in [0, 0.5), got {preference_noise!r}")
    sizes.validate()
    for name, rows in asdict(sizes).items():
        check_rows(f"size {name}", rows, input_dim)


def gen_task_suite(
    seed: int,
    input_dim: int = 6,
    hidden_dim: int = 16,
    num_responses: int = 4,
    sizes: SuiteSizes | None = None,
    preference_noise: float = 0.1,
) -> TaskSuite:
    """Deterministically generate the full suite from (seed, dimensions, sizes).

    Pretrain clusters sit on orthogonal directions so a nearest-center oracle
    is nearly perfect; the SFT task is the same clusters rotated and shifted.
    Preferences label the higher-utility response, flipped with probability
    preference_noise so the loss cannot saturate instantly.
    """
    sizes = sizes or SuiteSizes()
    check_data(input_dim, hidden_dim, num_responses, sizes, preference_noise)

    rng = np.random.default_rng(int(seed))
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
            rng, centers_sft, utility_w, utility_b, sizes.pref_train, preference_noise
        ),
        pref_eval=_sample_preferences(
            rng, centers_sft, utility_w, utility_b, sizes.pref_eval, preference_noise
        ),
        centers_pretrain=centers_pre,
        centers_sft=centers_sft,
        utility_w=utility_w,
        utility_b=utility_b,
        input_dim=input_dim,
        hidden_dim=hidden_dim,
        num_responses=num_responses,
        seed=int(seed),
        sizes=sizes,
        preference_noise=float(preference_noise),
    )


def oracle_pretrain_accuracy(suite: TaskSuite) -> float:
    """Accuracy of the nearest-center classifier on the pretrain eval split."""
    x, y = suite.pretrain_eval.x, suite.pretrain_eval.y
    d2 = ((x[:, None, :] - suite.centers_pretrain[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(np.argmin(d2, axis=1) == y))
