import os
import shutil

import numpy as np
import pytest

from sparseagg.architecture import BlockSpec, InputSpec, NetworkSpec, StemSpec
from sparseagg.errors import DataFormatError, TrainConfigError, TrainingDivergedError
from sparseagg.model import compile_network
from sparseagg.tensor import Tensor
from sparseagg.topology import Sparse
from sparseagg.train import (
    SGD,
    TrainConfig,
    augment_batch,
    evaluate,
    lr_for_epoch,
    load_cifar10,
    normalize_images,
    train_model,
    write_history_csv,
)


def tiny_spec():
    return NetworkSpec(family="concat", topology=Sparse(2),
                       blocks=(BlockSpec(num_layers=2, growth_rate=4),
                               BlockSpec(num_layers=2, growth_rate=4)),
                       stem=StemSpec(out_channels=8, kernel=3, stride=1),
                       num_classes=10, input=InputSpec(32, 32, 3))


class StubRng:
    """Deterministic stand-in for the augmentation RNG."""

    def __init__(self, flip_all: bool, offset: int):
        self.flip_value = 0.0 if flip_all else 0.9
        self.offset = offset

    def random(self, n):
        return np.full(n, self.flip_value)

    def integers(self, low, high, size):
        return np.full(size, self.offset, dtype=np.int64)


# ---------------------------------------------------------------------------
# data loading


def test_loader_full_shapes(cifar_dir):
    data = load_cifar10(cifar_dir)
    assert data.train_images.shape == (50000, 3, 32, 32)
    assert data.test_images.shape == (10000, 3, 32, 32)
    assert data.train_images.dtype == np.uint8
    assert data.train_labels.dtype == np.int64
    assert data.train_labels.min() >= 0 and data.train_labels.max() <= 9
    assert data.mean.shape == (3,) and data.std.shape == (3,)


def test_stratified_subset_is_balanced(cifar_dir):
    data = load_cifar10(cifar_dir, train_subset=2000, test_subset=500)
    np.testing.assert_array_equal(np.bincount(data.train_labels, minlength=10),
                                  np.full(10, 200))
    np.testing.assert_array_equal(np.bincount(data.test_labels, minlength=10),
                                  np.full(10, 50))


def test_subset_must_be_multiple_of_class_count(cifar_dir):
    with pytest.raises(DataFormatError):
        load_cifar10(cifar_dir, train_subset=1995)


@pytest.mark.parametrize("size", [25, 0, -10])
@pytest.mark.parametrize("split", ["train_subset", "test_subset"])
def test_subset_must_be_positive_multiple_of_ten(cifar_dir, split, size):
    with pytest.raises(DataFormatError, match="positive multiple of 10"):
        load_cifar10(cifar_dir, **{split: size})


def test_subset_selection_is_deterministic(cifar_dir):
    a = load_cifar10(cifar_dir, train_subset=100, test_subset=100)
    b = load_cifar10(cifar_dir, train_subset=100, test_subset=100)
    np.testing.assert_array_equal(a.train_images, b.train_images)
    np.testing.assert_array_equal(a.mean, b.mean)


def test_truncated_file_reports_expected_size(cifar_dir, tmp_path):
    for name in os.listdir(cifar_dir):
        shutil.copy(os.path.join(cifar_dir, name), tmp_path / name)
    target = tmp_path / "data_batch_3.bin"
    target.write_bytes(target.read_bytes()[:-100])
    with pytest.raises(DataFormatError, match="30730000"):
        load_cifar10(tmp_path)


def test_missing_file_is_reported(tmp_path):
    with pytest.raises(DataFormatError, match="missing"):
        load_cifar10(tmp_path)


def test_normalize_centers_train_split(small_data):
    x = normalize_images(small_data.train_images, small_data.mean, small_data.std)
    np.testing.assert_allclose(x.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
    np.testing.assert_allclose(x.std(axis=(0, 2, 3)), 1.0, atol=1e-4)


# ---------------------------------------------------------------------------
# augmentation


def test_flip_frequency_near_half():
    n = 10000
    batch = np.zeros((n, 1, 32, 32), dtype=np.float32)
    batch[:, :, :, :16] = 1.0  # mass on the left half, crop shifts at most 4
    out = augment_batch(batch, np.random.default_rng(123))
    left = out[:, :, :, :12].sum(axis=(1, 2, 3))
    right = out[:, :, :, 20:].sum(axis=(1, 2, 3))
    flipped = (right > left).mean()
    assert 0.48 <= flipped <= 0.52


def test_flip_is_exact_column_reversal():
    rng = np.random.default_rng(5)
    batch = rng.standard_normal((3, 3, 32, 32)).astype(np.float32)
    out = augment_batch(batch, StubRng(flip_all=True, offset=4))
    np.testing.assert_array_equal(out, batch[:, :, :, ::-1])


def test_centered_crop_without_flip_is_identity():
    rng = np.random.default_rng(6)
    batch = rng.standard_normal((3, 3, 32, 32)).astype(np.float32)
    out = augment_batch(batch, StubRng(flip_all=False, offset=4))
    np.testing.assert_array_equal(out, batch)


def test_shifted_crop_pads_with_zeros():
    batch = np.ones((2, 3, 32, 32), dtype=np.float32)
    out = augment_batch(batch, StubRng(flip_all=False, offset=0))
    assert np.all(out[:, :, :4, :] == 0.0)
    assert np.all(out[:, :, :, :4] == 0.0)
    assert np.all(out[:, :, 4:, 4:] == 1.0)


def test_augment_does_not_mutate_input():
    rng = np.random.default_rng(7)
    batch = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
    snap = batch.copy()
    augment_batch(batch, np.random.default_rng(0))
    np.testing.assert_array_equal(batch, snap)


# ---------------------------------------------------------------------------
# schedule and optimizer


def test_lr_schedule_steps_twice():
    cfg = TrainConfig(epochs=10, base_lr=0.1)
    lrs = [lr_for_epoch(cfg, e) for e in range(1, 11)]
    assert lrs == [0.1] * 5 + [0.1 * 0.1] * 2 + [0.1 * 0.1 * 0.1] * 3
    assert set(np.round(lrs, 10)) == {0.1, 0.01, 0.001}


def test_lr_schedule_short_run():
    cfg = TrainConfig(epochs=4, base_lr=0.1)
    lrs = [lr_for_epoch(cfg, e) for e in range(1, 5)]
    assert lrs == [0.1, 0.1, 0.1 * 0.1, 0.1 * 0.1 * 0.1]


def test_nesterov_first_step_oracle():
    w0 = np.array([1.0, -2.0, 3.0])
    g = np.array([0.5, 0.25, -1.0])
    lr, mu, wd = 0.1, 0.9, 1e-4
    p = Tensor(w0.copy(), requires_grad=True)
    p.grad = g.copy()
    opt = SGD({"w": p}, lr=lr, momentum=mu, weight_decay=wd)
    opt.step()
    expected = w0 - lr * (1 + mu) * (g + wd * w0)
    np.testing.assert_allclose(p.data, expected, rtol=1e-12)


def test_weight_decay_closed_form_with_zero_gradient():
    w0 = np.array([2.0, -4.0])
    lr, mu, wd = 0.5, 0.9, 0.01
    p = Tensor(w0.copy(), requires_grad=True)
    p.grad = np.zeros_like(w0)
    opt = SGD({"w": p}, lr=lr, momentum=mu, weight_decay=wd)
    opt.step()
    np.testing.assert_allclose(p.data, w0 * (1.0 - lr * wd * (1.0 + mu)), rtol=1e-12)


def test_momentum_accumulates_over_steps():
    w0 = np.array([1.0])
    g = np.array([1.0])
    lr, mu = 0.1, 0.9
    p = Tensor(w0.copy(), requires_grad=True)
    opt = SGD({"w": p}, lr=lr, momentum=mu, weight_decay=0.0)
    p.grad = g.copy()
    opt.step()
    w1 = w0 - lr * (1 + mu) * g
    np.testing.assert_allclose(p.data, w1, rtol=1e-12)
    p.grad = g.copy()
    opt.step()
    buf2 = mu * g + g
    w2 = w1 - lr * (g + mu * buf2)
    np.testing.assert_allclose(p.data, w2, rtol=1e-12)


def test_every_parameter_decays_alike():
    # norm scales and shifts and biases decay like conv weights
    w0 = np.array([2.0, -4.0])
    lr, mu, wd = 0.5, 0.9, 0.01
    names = ("block1.layer1.conv1", "block1.layer1.bn1.gamma", "block1.layer1.bn1.beta",
             "classifier.fc.bias")
    params = {name: Tensor(w0.copy(), requires_grad=True) for name in names}
    for p in params.values():
        p.grad = np.zeros_like(w0)
    SGD(params, lr=lr, momentum=mu, weight_decay=wd).step()
    for p in params.values():
        np.testing.assert_allclose(p.data, w0 * (1.0 - lr * wd * (1.0 + mu)), rtol=1e-12)


# ---------------------------------------------------------------------------
# training loop


def test_zero_lr_freezes_parameters(small_data):
    net = compile_network(tiny_spec(), seed=1)
    snap = {k: p.data.copy() for k, p in net.params.items()}
    cfg = TrainConfig(epochs=2, batch_size=500, base_lr=0.0, seed=0, augment=False)
    history = train_model(net, small_data, cfg)
    for name, p in net.params.items():
        np.testing.assert_array_equal(p.data, snap[name])
    # batch statistics are summed in shuffled row order, so the loss is
    # only reproducible up to float32 reduction noise
    assert history[0]["train_loss"] == pytest.approx(history[1]["train_loss"], rel=1e-5)


def test_histories_reproduce_with_fixed_seed(cifar_dir):
    data = load_cifar10(cifar_dir, train_subset=100, test_subset=100)
    cfg = TrainConfig(epochs=2, batch_size=32, base_lr=0.1, seed=9)

    def run():
        net = compile_network(tiny_spec(), seed=4)
        return train_model(net, data, cfg)

    rows_a, rows_b = run(), run()
    for a, b in zip(rows_a, rows_b):
        for key in ("epoch", "lr", "train_loss", "train_acc", "test_loss", "test_err"):
            assert a[key] == b[key], key


def test_untrained_network_sits_at_chance(small_data):
    # score against labels drawn independently of the images so the error
    # rate reflects chance no matter how the untrained logits happen to vary
    net = compile_network(tiny_spec(), seed=2)
    labels = np.random.default_rng(11).integers(0, 10, size=small_data.test_images.shape[0])
    _, err = evaluate(net, small_data.test_images, labels,
                      small_data.mean, small_data.std)
    assert abs(err - 0.9) <= 0.03


def test_evaluate_is_repeatable(small_data):
    net = compile_network(tiny_spec(), seed=3)
    first = evaluate(net, small_data.test_images, small_data.test_labels,
                     small_data.mean, small_data.std)
    second = evaluate(net, small_data.test_images, small_data.test_labels,
                      small_data.mean, small_data.std)
    assert first == second


@pytest.mark.parametrize("field,value", [
    ("epochs", 0), ("epochs", -2), ("batch_size", 0), ("batch_size", -4),
    ("batch_size", 2.5), ("epochs", True),
])
def test_train_model_rejects_bad_epochs_and_batch_size(small_data, field, value):
    net = compile_network(tiny_spec(), seed=5)
    snap = {k: p.data.copy() for k, p in net.params.items()}
    cfg = TrainConfig(epochs=1, batch_size=50, seed=0, augment=False)
    setattr(cfg, field, value)
    with pytest.raises(TrainConfigError, match="must be a positive integer"):
        train_model(net, small_data, cfg)
    for name, p in net.params.items():
        np.testing.assert_array_equal(p.data, snap[name])


@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluate_rejects_non_positive_batch_size(small_data, batch_size):
    net = compile_network(tiny_spec(), seed=5)
    with pytest.raises(TrainConfigError, match="batch size"):
        evaluate(net, small_data.test_images, small_data.test_labels,
                 small_data.mean, small_data.std, batch_size=batch_size)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_absurd_lr_diverges_with_location(cifar_dir):
    data = load_cifar10(cifar_dir, train_subset=100, test_subset=100)
    net = compile_network(tiny_spec(), seed=0)
    cfg = TrainConfig(epochs=1, batch_size=10, base_lr=1e12, seed=0, augment=False)
    with pytest.raises(TrainingDivergedError, match="epoch 1"):
        train_model(net, data, cfg)


def test_non_finite_gradient_stops_before_the_update(cifar_dir, monkeypatch):
    # a finite loss with a NaN gradient must not reach SGD.step
    data = load_cifar10(cifar_dir, train_subset=100, test_subset=100)
    net = compile_network(tiny_spec(), seed=0)
    snap = {k: p.data.copy() for k, p in net.params.items()}
    victim = "block2.layer1.conv1"
    assert victim in net.params
    backward = Tensor.backward

    def poisoned(self, grad=None, free_graph=True):
        backward(self, grad, free_graph)
        net.params[victim].grad.flat[3] = np.nan

    monkeypatch.setattr(Tensor, "backward", poisoned)
    cfg = TrainConfig(epochs=1, batch_size=50, base_lr=0.1, seed=0, augment=False)
    with pytest.raises(TrainingDivergedError, match=rf"{victim}.*epoch 1, step 0"):
        train_model(net, data, cfg)
    for name, p in net.params.items():
        np.testing.assert_array_equal(p.data, snap[name])


def test_history_csv_round_trips_floats(tmp_path):
    history = [{"epoch": 1, "lr": 0.1, "train_loss": 2.302585092994046,
                "train_acc": 0.125, "test_loss": 2.3979400086720375,
                "test_err": 0.9, "seconds": 12.5}]
    path = tmp_path / "history.csv"
    write_history_csv(history, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,lr,train_loss,train_acc,test_loss,test_err,seconds"
    cells = lines[1].split(",")
    assert int(cells[0]) == 1
    assert float(cells[2]) == history[0]["train_loss"]
