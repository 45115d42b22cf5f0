"""CIFAR-10 loading, augmentation, SGD, and the training loop."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DataFormatError, TrainConfigError, TrainingDivergedError
from .model import Network
from .tensor import Tensor

__all__ = [
    "Cifar10",
    "TrainConfig",
    "SGD",
    "load_cifar10",
    "load_split",
    "normalize_images",
    "augment_batch",
    "lr_for_epoch",
    "train_model",
    "evaluate",
    "write_history_csv",
]

RECORD_BYTES = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes
RECORDS_PER_FILE = 10000
FILE_BYTES = RECORD_BYTES * RECORDS_PER_FILE
TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
TEST_FILE = "test_batch.bin"
NUM_CLASSES = 10
LR_DROPS = (0.5, 0.75)  # fractions of the epochs after which the rate is divided by 10
MOMENTUM = 0.9


@dataclass
class Cifar10:
    """Raw uint8 image tensors plus the normalization fitted on the train split."""

    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray
    mean: np.ndarray
    std: np.ndarray


def _read_batch_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    """A file's images, as a view of its bytes, and its labels."""
    try:
        size = os.path.getsize(path)
    except OSError:
        raise DataFormatError(f"missing data file {path}") from None
    if size != FILE_BYTES:
        raise DataFormatError(
            f"{path} has {size} bytes; expected exactly {FILE_BYTES} "
            f"({RECORDS_PER_FILE} records of {RECORD_BYTES} bytes)"
        )
    with open(path, "rb") as fh:
        raw = np.frombuffer(fh.read(), dtype=np.uint8)
    records = raw.reshape(RECORDS_PER_FILE, RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.max() >= NUM_CLASSES:
        raise DataFormatError(f"{path} contains label {labels.max()} outside [0, {NUM_CLASSES})")
    return records[:, 1:].reshape(RECORDS_PER_FILE, 3, 32, 32), labels


def load_split(data_dir, split: str, subset: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Images (uint8 NCHW) and labels of the ``"train"`` or ``"test"`` split.

    A subset holds the first subset/10 images of each class in file order,
    so repeated calls are deterministic.  Each file is read and checked, and
    its picks are taken before the files are joined, so a subset load never
    holds the whole split.  A subset size that is not a positive multiple of
    10, or more images of a class than the split holds, raises
    DataFormatError.
    """
    if subset is not None and (subset <= 0 or subset % NUM_CLASSES):
        raise DataFormatError(f"{split} subset size must be a positive multiple of "
                              f"{NUM_CLASSES}, got {subset}")
    names = {"train": TRAIN_FILES, "test": (TEST_FILE,)}[split]
    per_class = None if subset is None else subset // NUM_CLASSES
    seen = np.zeros(NUM_CLASSES, dtype=np.int64)
    images, labels = [], []
    for name in names:
        file_images, file_labels = _read_batch_file(os.path.join(data_dir, name))
        if per_class is not None:
            # the first images of each class that the earlier files left short
            keep = np.zeros(len(file_labels), dtype=bool)
            for k in range(NUM_CLASSES):
                picked = np.flatnonzero(file_labels == k)[:per_class - seen[k]]
                keep[picked] = True
                seen[k] += len(picked)
            file_images, file_labels = file_images[keep], file_labels[keep]
        images.append(file_images)
        labels.append(file_labels)
    if per_class is not None and seen.sum() < subset:
        raise DataFormatError(
            f"requested {per_class} images per class but the data ran out after {seen.sum()}"
        )
    return np.concatenate(images), np.concatenate(labels)


def load_cifar10(data_dir, train_subset: int | None = None,
                 test_subset: int | None = None) -> Cifar10:
    """Read the binary CIFAR-10 layout (5 train files + 1 test file).

    Both splits are read by ``load_split``, subsets included.  Channel
    mean/std are fitted on the (possibly subset) train images in [0, 1]
    scale.
    """
    train_images, train_labels = load_split(data_dir, "train", train_subset)
    test_images, test_labels = load_split(data_dir, "test", test_subset)

    # One float copy, fitted in place in the order numpy's own ``std`` uses,
    # so the statistics keep the bits of ``scaled.mean`` and ``scaled.std``.
    scaled = train_images.astype(np.float32)
    scaled /= 255.0
    mean = scaled.mean(axis=(0, 2, 3), keepdims=True)
    scaled -= mean
    scaled *= scaled
    std = np.maximum(np.sqrt(scaled.mean(axis=(0, 2, 3))), 1e-8)
    return Cifar10(train_images, train_labels, test_images, test_labels,
                   mean.reshape(3), std)


def normalize_images(images: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    x = images.astype(np.float32) / 255.0
    return (x - mean.reshape(1, 3, 1, 1)) / std.reshape(1, 3, 1, 1)


def augment_batch(batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Horizontal flip with p=0.5, then 4-pixel zero pad and random 32x32 crop.

    Runs after normalization, so the pad band is exactly zero in
    normalized units.
    """
    n, c, h, w = batch.shape
    out = batch.copy()
    flips = rng.random(n) < 0.5
    out[flips] = out[flips, :, :, ::-1]
    padded = np.zeros((n, c, h + 8, w + 8), dtype=batch.dtype)
    padded[:, :, 4:4 + h, 4:4 + w] = out
    tops = rng.integers(0, 9, size=n)
    lefts = rng.integers(0, 9, size=n)
    for i in range(n):
        out[i] = padded[i, :, tops[i]:tops[i] + h, lefts[i]:lefts[i] + w]
    return out


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 64
    base_lr: float = 0.1
    weight_decay: float = 1e-4
    seed: int = 0
    augment: bool = True


def lr_for_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Step schedule: divide by 10 after each ``LR_DROPS`` fraction of total epochs."""
    drops = sum(1 for frac in LR_DROPS if epoch > int(frac * cfg.epochs))
    return cfg.base_lr * (0.1 ** drops)


class SGD:
    """SGD with Nesterov momentum ``MOMENTUM`` and decoupled-from-nothing L2 weight decay.

    The decay term is added to the raw gradient before the momentum update,
    matching the common implementation: with fresh velocity the first step
    is w -= lr * (1 + MOMENTUM) * (grad + wd * w).  Every parameter decays
    alike, batch-norm scales and shifts and biases included.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 1e-4):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self) -> None:
        mu, wd = MOMENTUM, self.weight_decay
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if wd:
                g = g + wd * p.data
            buf = self.velocity[name]
            buf *= mu
            buf += g
            p.data -= self.lr * (g + mu * buf)


def _require_positive(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise TrainConfigError(f"{name} must be a positive integer, got {value!r}")


def _require_rate(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)) \
            or not 0 <= value < np.inf:
        raise TrainConfigError(f"{name} must be a finite number >= 0, got {value!r}")


def _forward_loss(net: Network, x: np.ndarray, y: np.ndarray, training: bool):
    logits = net.forward(x, training=training)
    loss = T.softmax_cross_entropy(logits, y)
    return logits, loss


def evaluate(net: Network, images: np.ndarray, labels: np.ndarray,
             mean: np.ndarray, std: np.ndarray, batch_size: int = 200) -> tuple[float, float]:
    """Eval-mode loss and top-1 error rate over a uint8 image array."""
    _require_positive("batch size", batch_size)
    total_loss = 0.0
    wrong = 0
    n = images.shape[0]
    with T.no_grad():
        for start in range(0, n, batch_size):
            xb = normalize_images(images[start:start + batch_size], mean, std)
            yb = labels[start:start + batch_size]
            logits, loss = _forward_loss(net, xb, yb, training=False)
            total_loss += float(loss.data) * len(yb)
            wrong += int((logits.data.argmax(axis=1) != yb).sum())
    return total_loss / n, wrong / n


def train_model(net: Network, data: Cifar10, cfg: TrainConfig,
                log=None, on_epoch=None) -> list[dict]:
    """Train in place; returns one history row per epoch.

    Raises TrainingDivergedError (with the offending epoch and step) as
    soon as the loss or a parameter gradient stops being finite; a
    non-finite gradient is caught before the optimizer writes it into the
    weights, and the error names the parameter.  Epochs and batch size
    below 1, and a learning rate or weight decay that is negative or not
    finite, raise TrainConfigError.
    """
    _require_positive("epochs", cfg.epochs)
    _require_positive("batch size", cfg.batch_size)
    _require_rate("learning rate", cfg.base_lr)
    _require_rate("weight decay", cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    opt = SGD(net.params, lr=cfg.base_lr, weight_decay=cfg.weight_decay)
    n = data.train_images.shape[0]
    history: list[dict] = []
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        opt.lr = lr_for_epoch(cfg, epoch)
        perm = rng.permutation(n)
        epoch_loss = 0.0
        correct = 0
        for step, start in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[start:start + cfg.batch_size]
            xb = normalize_images(data.train_images[idx], data.mean, data.std)
            if cfg.augment:
                xb = augment_batch(xb, rng)
            yb = data.train_labels[idx]
            logits, loss = _forward_loss(net, xb, yb, training=True)
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingDivergedError(
                    f"loss became non-finite at epoch {epoch}, step {step}"
                )
            net.zero_grad()
            loss.backward()
            for name, p in net.params.items():
                if p.grad is not None and not np.isfinite(p.grad).all():
                    raise TrainingDivergedError(
                        f"gradient of {name} became non-finite at epoch {epoch}, step {step}"
                    )
            opt.step()
            epoch_loss += value * len(idx)
            correct += int((logits.data.argmax(axis=1) == yb).sum())
        test_loss, test_err = evaluate(net, data.test_images, data.test_labels,
                                       data.mean, data.std, batch_size=cfg.batch_size)
        row = {
            "epoch": epoch,
            "lr": opt.lr,
            "train_loss": epoch_loss / n,
            "train_acc": correct / n,
            "test_loss": test_loss,
            "test_err": test_err,
            "seconds": time.perf_counter() - t0,
        }
        history.append(row)
        if log is not None:
            log(f"epoch {epoch:3d}/{cfg.epochs}  lr {opt.lr:.4f}  "
                f"train_loss {row['train_loss']:.4f}  train_acc {row['train_acc']:.4f}  "
                f"test_err {row['test_err']:.4f}  ({row['seconds']:.1f}s)")
        if on_epoch is not None:
            on_epoch(epoch, row)
    return history


HISTORY_COLUMNS = ("epoch", "lr", "train_loss", "train_acc", "test_loss", "test_err", "seconds")


def write_history_csv(history: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(HISTORY_COLUMNS) + "\n")
        for row in history:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                              for c in HISTORY_COLUMNS) + "\n")
