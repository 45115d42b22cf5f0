import json
import shutil
import subprocess

import numpy as np
import pytest

from conftest import config_path
from sparseagg.architecture import load_spec
from sparseagg.cli import main
from sparseagg.model import compile_network, save_checkpoint
from sparseagg.tensor import load_array, save_array
from sparseagg.train import evaluate, load_cifar10


def run_json(out_dir):
    with open(out_dir / "run.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_graph_dot_export(tmp_path, capsys):
    code = main(["graph", "--topology", "sparse:2", "--layers", "8",
                 "--format", "dot", "--out", str(tmp_path)])
    assert code == 0
    dot = (tmp_path / "graph_sparse2_L8.dot").read_text()
    assert dot.count("->") == 17
    record = run_json(tmp_path)
    assert record["status"] == "ok"
    assert record["edges"] == 17
    assert record["command"] == "graph"
    assert "8 layers, 17 edges" in capsys.readouterr().out


def test_graph_json_export(tmp_path):
    assert main(["graph", "--topology", "dense", "--layers", "6",
                 "--format", "json", "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "graph_dense_L6.json").read_text())
    assert obj["num_layers"] == 6
    assert len(obj["edges"]) == 15


def test_run_json_records_environment(tmp_path):
    main(["graph", "--topology", "plain", "--layers", "4", "--out", str(tmp_path),
          "--seed", "7"])
    record = run_json(tmp_path)
    assert record["seed"] == 7
    assert isinstance(record["wall_time_s"], float)
    for key in ("python", "numpy", "sparseagg", "kernel_backend"):
        assert key in record["versions"]
    assert record["argv"][0] == "graph"


def test_analyze_reports_reference_costs(tmp_path, capsys):
    code = main(["analyze", "--spec", config_path("dense121_imagenet.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    assert "params=7978856" in capsys.readouterr().out
    csv = (tmp_path / "analysis_dense.csv").read_text()
    assert csv.strip().split("\n")[-1].startswith("total,,,,7978856,")
    assert run_json(tmp_path)["spec_hash"]


def test_analyze_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["analyze", "--spec", config_path("sparse40_k12_cifar.json"),
                     "--format", "json", "--out", str(out)]) == 0
    assert (a / "analysis_sparse2.json").read_bytes() == (b / "analysis_sparse2.json").read_bytes()


def test_analyze_compare_writes_one_report_per_topology(tmp_path):
    assert main(["analyze", "--spec", config_path("dense40_k12_cifar.json"),
                 "--compare", "plain,sparse:2,dense", "--out", str(tmp_path)]) == 0
    for name in ("analysis_plain.csv", "analysis_sparse2.csv", "analysis_dense.csv"):
        assert (tmp_path / name).exists()


@pytest.mark.slow
def test_train_eval_heatmap_pipeline(tmp_path, cifar_dir):
    spec = config_path("sparse_bc_tiny_cifar.json")
    code = main(["train", "--spec", spec, "--data", cifar_dir,
                 "--epochs", "2", "--batch-size", "50",
                 "--subset", "100", "--test-subset", "100",
                 "--out", str(tmp_path), "--seed", "1"])
    assert code == 0
    history = (tmp_path / "history.csv").read_text().strip().split("\n")
    assert len(history) == 3  # header + one row per epoch
    assert history[0].startswith("epoch,lr,train_loss")
    train_record = run_json(tmp_path)
    assert train_record["status"] == "ok"
    manifest = json.loads((tmp_path / "checkpoint" / "manifest.json").read_text())
    assert manifest["epoch"] == 2

    eval_out = tmp_path / "eval"
    code = main(["eval", "--checkpoint", str(tmp_path / "checkpoint"),
                 "--data", cifar_dir, "--subset", "100", "--out", str(eval_out)])
    assert code == 0
    metrics = json.loads((eval_out / "metrics.json").read_text())
    assert metrics["images"] == 100
    # same subset and stored normalization: eval reproduces the final
    # test error from training exactly
    assert metrics["test_err"] == train_record["final_test_err"]

    hm_out = tmp_path / "hm"
    code = main(["heatmap", "--checkpoint", str(tmp_path / "checkpoint"),
                 "--format", "both", "--out", str(hm_out)])
    assert code == 0
    assert (hm_out / "heatmap_block1.csv").exists()
    assert (hm_out / "heatmap_block3.pgm").exists()
    meta = json.loads((hm_out / "heatmap_meta.json").read_text())
    assert meta["spec_hash"] == train_record["spec_hash"]
    assert meta["epoch"] == 2


@pytest.mark.slow
def test_cli_does_not_mutate_inputs(tmp_path, cifar_dir):
    import os
    spec = config_path("sparse_bc_tiny_cifar.json")
    spec_before = open(spec, "rb").read()
    data_file = os.path.join(cifar_dir, "data_batch_1.bin")
    data_before = open(data_file, "rb").read()
    main(["train", "--spec", spec, "--data", cifar_dir, "--epochs", "1",
          "--batch-size", "50", "--subset", "100", "--test-subset", "100",
          "--out", str(tmp_path)])
    assert open(spec, "rb").read() == spec_before
    assert open(data_file, "rb").read() == data_before


def test_eval_of_float64_checkpoint(tmp_path, cifar_dir):
    # The batch used to reach the network as a float32 Tensor, which a
    # float64 conv rejected: exit 2.
    net = compile_network(load_spec(config_path("sparse_bc_tiny_cifar.json")), seed=0,
                          dtype=np.float64)
    save_checkpoint(net, tmp_path / "checkpoint")
    code = main(["eval", "--checkpoint", str(tmp_path / "checkpoint"), "--data", cifar_dir,
                 "--subset", "20", "--out", str(tmp_path / "out")])
    assert code == 0
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    data = load_cifar10(cifar_dir, test_subset=20)
    loss, err = evaluate(net, data.test_images, data.test_labels, data.mean, data.std)
    assert (metrics["test_loss"], metrics["test_err"]) == (loss, err)


def test_eval_with_stored_normalization_reads_only_the_test_file(tmp_path, cifar_dir):
    # eval used to load and fit the whole train split, then drop its
    # statistics for the checkpoint's, so it failed without the train files
    test_only = tmp_path / "test_only"
    test_only.mkdir()
    shutil.copy(f"{cifar_dir}/test_batch.bin", test_only / "test_batch.bin")
    net = compile_network(load_spec(config_path("sparse_bc_tiny_cifar.json")), seed=0)
    save_checkpoint(net, tmp_path / "stored", extra={"mean": [0.5] * 3, "std": [0.25] * 3})
    save_checkpoint(net, tmp_path / "fitted")
    metrics = []
    for data in (cifar_dir, test_only):
        out = tmp_path / f"out{len(metrics)}"
        code = main(["eval", "--checkpoint", str(tmp_path / "stored"), "--data", str(data),
                     "--subset", "20", "--out", str(out)])
        assert code == 0
        metrics.append(json.loads((out / "metrics.json").read_text()))
    assert metrics[0] == metrics[1] and metrics[0]["images"] == 20
    code = main(["eval", "--checkpoint", str(tmp_path / "fitted"), "--data", str(test_only),
                 "--subset", "20", "--out", str(tmp_path / "no_norm")])
    assert code == 1
    assert "data_batch_1.bin" in run_json(tmp_path / "no_norm")["error"]


@pytest.mark.parametrize("resize", ["truncated", "oversized"])
def test_checkpoint_tensor_of_wrong_size_exits_1(tmp_path, resize):
    spec = load_spec(config_path("sparse_bc_tiny_cifar.json"))
    ckpt = tmp_path / "checkpoint"
    save_checkpoint(compile_network(spec, seed=0), ckpt)
    bin_path = ckpt / "stem.conv.bin"
    raw = bin_path.read_bytes()
    bin_path.write_bytes(raw[:-3] if resize == "truncated" else raw + bytes(4))
    code = main(["heatmap", "--checkpoint", str(ckpt), "--out", str(tmp_path / "hm")])
    assert code == 1
    record = run_json(tmp_path / "hm")
    assert record["status"] == "error" and "stem.conv.bin" in record["error"]


@pytest.mark.parametrize("where,key,value", [
    ("bn_states", "eps", -1e9), ("bn_states", "momentum", 5), ("bn_states", "steps", -3),
    ("tensor", "stem.conv", float("nan")), ("tensor", "classifier.bn.running_var", -4.0),
], ids=["negative-eps", "momentum-5", "negative-steps", "nan-weight", "negative-running-var"])
def test_checkpoint_value_that_breaks_eval_exits_1(tmp_path, cifar_dir, where, key, value):
    # Unchecked, the eps, weight and running_var damages make eval report loss
    # nan with exit 0, and momentum 5 and steps -3 load silently.
    ckpt = tmp_path / "checkpoint"
    save_checkpoint(compile_network(load_spec(config_path("sparse_bc_tiny_cifar.json")), seed=0),
                    ckpt)
    if where == "tensor":
        arr = load_array(ckpt / key)
        arr.flat[0] = value
        save_array(arr, ckpt / key)
    else:
        path = ckpt / "manifest.json"
        manifest = json.loads(path.read_text())
        for meta in manifest["bn_states"].values():
            meta[key] = value
        path.write_text(json.dumps(manifest))
    code = main(["eval", "--checkpoint", str(ckpt), "--data", cifar_dir, "--subset", "10",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    record = run_json(tmp_path / "out")
    assert record["status"] == "error" and "checkpoint" in record["error"]
    assert not (tmp_path / "out" / "metrics.json").exists()


@pytest.mark.parametrize("command", ["heatmap", "eval"])
@pytest.mark.parametrize("key,value", [("eps", 10.0), ("eps", 1), ("momentum", 0.5)],
                         ids=["eps-10.0", "int-eps-1", "momentum-0.5"])
def test_checkpoint_batch_norm_constant_other_than_fixed_exits_1(tmp_path, cifar_dir, command,
                                                                 key, value):
    # Each used to load, and eval and heatmap exited 0 with the value in use.
    ckpt = tmp_path / "checkpoint"
    net = compile_network(load_spec(config_path("sparse_bc_tiny_cifar.json")), seed=0)
    save_checkpoint(net, ckpt)
    site = list(net.bn_states)[len(net.bn_states) // 2]
    path = ckpt / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["bn_states"][site][key] = value
    path.write_text(json.dumps(manifest))
    extra = ["--data", cifar_dir, "--subset", "10"] if command == "eval" else []
    code = main([command, "--checkpoint", str(ckpt), "--out", str(tmp_path / "out"), *extra])
    assert code == 1
    record = run_json(tmp_path / "out")
    assert record["error"].startswith("CheckpointError") and f"state {site} " in record["error"]


def _break_manifest(manifest, damage):
    if damage == "list":
        return [manifest]
    if damage.startswith("missing-"):
        del manifest[damage[len("missing-"):]]
    else:
        key, value = damage.split("=", 1)
        try:
            value = json.loads(value)  # "epoch=-5" sets an int, "seed=abc" a string
        except ValueError:
            pass
        manifest[key] = value
    return manifest


@pytest.mark.parametrize("command", ["heatmap", "eval"])
@pytest.mark.parametrize("damage", [
    "list", "seed=abc", "dtype=bogus", "dtype=float16",
    # unchecked, each epoch exited 0 and heatmap copied it into heatmap_meta.json
    "epoch=abc", "epoch=-5", 'epoch={"a": 1}', "epoch=NaN", "epoch=true",
    *(f"missing-{key}" for key in ("spec", "spec_hash", "seed", "epoch", "dtype", "params",
                                   "bn_states")),
])
def test_malformed_checkpoint_manifest_exits_1(tmp_path, cifar_dir, command, damage):
    spec = load_spec(config_path("sparse_bc_tiny_cifar.json"))
    ckpt = tmp_path / "checkpoint"
    save_checkpoint(compile_network(spec, seed=0), ckpt)
    path = ckpt / "manifest.json"
    path.write_text(json.dumps(_break_manifest(json.loads(path.read_text()), damage)))
    extra = ["--data", cifar_dir, "--subset", "10"] if command == "eval" else []
    code = main([command, "--checkpoint", str(ckpt), "--out", str(tmp_path / "out"), *extra])
    assert code == 1
    record = run_json(tmp_path / "out")
    assert record["status"] == "error" and "checkpoint" in record["error"]


@pytest.mark.parametrize("extra", [
    [[0.5, 0.5, 0.5], [0.25, 0.25, 0.25]],
    {"mean": [0.5, 0.5], "std": [0.25, 0.25, 0.25]},
    {"mean": [0.5, 0.5, 0.5, 0.5], "std": [0.25, 0.25, 0.25]},
    {"mean": ["0.5", 0.5, 0.5], "std": [0.25, 0.25, 0.25]},
    {"mean": [0.5, 0.5, 0.5], "std": [True, 0.25, 0.25]},
    {"mean": [0.5, 0.5, 0.5], "std": "0.25"},
    {"mean": [0.5, float("nan"), 0.5], "std": [0.25, 0.25, 0.25]},
    {"mean": [0.5, 0.5, 0.5], "std": [1e39, 0.25, 0.25]},
    {"mean": [0.5, 0.5, 0.5], "std": [0.25, 0.0, 0.25]},
    {"mean": [0.5, 0.5, 0.5], "std": [0.25, -0.25, 0.25]},
], ids=["list", "two-means", "four-means", "string-entry", "bool-entry", "string-std",
        "nan-mean", "std-overflows-float32", "zero-std", "negative-std"])
def test_eval_rejects_bad_checkpoint_normalization(tmp_path, cifar_dir, extra):
    # Before the check: a list `extra`, a wrong entry count and a string entry
    # exited 2; a zero std gave a NaN loss and exit 0.
    ckpt = tmp_path / "checkpoint"
    save_checkpoint(compile_network(load_spec(config_path("sparse_bc_tiny_cifar.json")), seed=0),
                    ckpt, extra={"mean": [0.5] * 3, "std": [0.25] * 3})
    path = ckpt / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["extra"] = extra
    path.write_text(json.dumps(manifest))
    code = main(["eval", "--checkpoint", str(ckpt), "--data", cifar_dir, "--subset", "10",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    record = run_json(tmp_path / "out")
    assert record["status"] == "error" and "checkpoint" in record["error"]
    assert not (tmp_path / "out" / "metrics.json").exists()


@pytest.mark.parametrize("seed", ["-1", "abc", "1.5"])
@pytest.mark.parametrize("command", [
    ["graph", "--topology", "dense", "--layers", "4"],
    ["analyze", "--spec", config_path("sparse_bc_tiny_cifar.json")],
    ["train", "--spec", config_path("sparse_bc_tiny_cifar.json"), "--data", "."],
    ["eval", "--checkpoint", ".", "--data", "."],
    ["heatmap", "--checkpoint", "."],
], ids=lambda command: command[0])
def test_bad_seed_exits_1(tmp_path, capsys, command, seed):
    # `train --seed -1` used to reach numpy and exit 2
    with pytest.raises(SystemExit) as exc:
        main([*command, "--seed", seed, "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert "seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("compare", [",", " , ", ""])
def test_analyze_empty_compare_exits_1(tmp_path, capsys, compare):
    # `--compare ","` used to exit 0 and write nothing
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--spec", config_path("sparse_bc_tiny_cifar.json"),
              "--compare", compare, "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert "expected at least one topology" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_analyze_of_unpoolable_input_exits_1(tmp_path):
    obj = json.loads(load_spec(config_path("sparse40_k12_cifar.json")).to_json())
    obj["input"].update(height=34, width=34)  # block 2 would be 17x17, pooled by 2
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(obj))
    assert main(["analyze", "--spec", str(spec), "--out", str(tmp_path)]) == 1
    record = run_json(tmp_path)
    assert record["status"] == "error" and "transition2" in record["error"]


@pytest.mark.parametrize("key,value", [
    ("allow_projection", False), ("allow_projection", 1), ("spatial_stride_out", 1),
    ("spatial_stride_out", 4), ("spatial_stride_out", 2.0), ("unit_order", "postact"),
    ("family", "average"),
])
def test_analyze_of_retired_option_exits_1(tmp_path, key, value):
    # every spec carries these keys at one value; "average" is no family
    obj = json.loads(load_spec(config_path("sum_plain_d12_cifar.json")).to_json())
    (obj["blocks"][0] if key == "spatial_stride_out" else obj)[key] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(obj))
    assert main(["analyze", "--spec", str(spec), "--out", str(tmp_path)]) == 1
    record = run_json(tmp_path)
    assert record["status"] == "error" and key in record["error"]


@pytest.mark.parametrize("command", [["analyze"], ["train", "--epochs", "1", "--subset", "100"]],
                         ids=lambda command: command[0])
def test_zero_width_transition_exits_1(tmp_path, cifar_dir, command):
    # analyze used to exit 0 and price a 0-channel transition, and train
    # exited 2 on a ZeroDivisionError in the weight initializer
    obj = json.loads(load_spec(config_path("sparse_bc_tiny_cifar.json")).to_json())
    obj["compression"] = 1e-9  # of any transition's input channels rounds down to 0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(obj))
    data = ["--data", cifar_dir] if command[0] == "train" else []
    assert main([*command, "--spec", str(spec), *data, "--out", str(tmp_path)]) == 1
    record = run_json(tmp_path)
    assert record["status"] == "error" and "transition1" in record["error"]


def test_train_plans_the_spec_before_reading_data(tmp_path):
    # an unplannable spec needs no data to be rejected: the missing --data
    # directory is never opened
    obj = json.loads(load_spec(config_path("sparse_bc_tiny_cifar.json")).to_json())
    obj["compression"] = 1e-9
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(obj))
    code = main(["train", "--spec", str(spec), "--data", str(tmp_path / "no-such-dir"),
                 "--epochs", "1", "--out", str(tmp_path)])
    assert code == 1
    record = run_json(tmp_path)
    assert record["error"].startswith("PlanError") and "transition1" in record["error"]


def test_unknown_flag_exits_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["graph", "--topology", "dense", "--layers", "4",
              "--out", str(tmp_path), "--wat"])
    assert exc.value.code == 1


def test_missing_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


@pytest.mark.parametrize("case", [
    "analyze-spec-dir", "train-spec-dir", "analyze-spec-binary", "eval-checkpoint-file",
    "heatmap-checkpoint-file", "manifest-not-utf8", "sidecar-not-utf8", "analyze-spec-deep",
    "manifest-deep", "sidecar-deep",
])
def test_unreadable_or_wrong_kind_input_exits_1(tmp_path, cifar_dir, case):
    # Each used to exit 2 as a runtime failure: IsADirectoryError,
    # UnicodeDecodeError, NotADirectoryError or, for JSON nested deeper
    # than the decoder recurses, RecursionError.
    ckpt = tmp_path / "checkpoint"
    save_checkpoint(compile_network(load_spec(config_path("sparse_bc_tiny_cifar.json")), seed=0),
                    ckpt)
    path = ckpt / ("manifest.json" if case.startswith("manifest") else "stem.conv.json")
    if case.endswith("not-utf8"):
        path.write_bytes(b"\xff" + path.read_bytes())
    deep = "[" * 100_000 + "]" * 100_000
    if case.endswith("deep"):
        (tmp_path / "deep.json" if "spec" in case else path).write_text(deep)
    a_file = str(ckpt / "manifest.json")
    argv = {
        "analyze-spec-dir": ["analyze", "--spec", str(ckpt)],
        "train-spec-dir": ["train", "--spec", str(ckpt), "--data", cifar_dir],
        "analyze-spec-binary": ["analyze", "--spec", f"{cifar_dir}/test_batch.bin"],
        "analyze-spec-deep": ["analyze", "--spec", str(tmp_path / "deep.json")],
        "eval-checkpoint-file": ["eval", "--checkpoint", a_file, "--data", cifar_dir],
        "heatmap-checkpoint-file": ["heatmap", "--checkpoint", a_file],
    }.get(case, ["heatmap", "--checkpoint", str(ckpt)])
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    error = run_json(tmp_path / "out")["error"]
    assert error.startswith("SpecFormatError" if "spec" in case else "CheckpointError"), error


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_naming_a_file_is_a_usage_error(tmp_path, capsys, under):
    # os.makedirs used to raise outside the command's error handling: a
    # FileExistsError (or NotADirectoryError) traceback and no run.json.
    a_file = tmp_path / "notes.txt"
    a_file.write_text("keep me\n")
    out = a_file / "sub" if under else a_file
    with pytest.raises(SystemExit) as exc:
        main(["graph", "--topology", "dense", "--layers", "4", "--out", str(out)])
    assert exc.value.code == 1
    assert str(out) in capsys.readouterr().err.splitlines()[-1]
    assert a_file.read_text() == "keep me\n"


def test_output_that_cannot_be_written_exits_2(tmp_path):
    # unreadable inputs are validation errors; a failed write is a runtime failure
    (tmp_path / "graph_dense_L4.dot").mkdir()
    assert main(["graph", "--topology", "dense", "--layers", "4", "--out", str(tmp_path)]) == 2
    assert run_json(tmp_path)["error"].startswith("IsADirectoryError")


def test_missing_spec_file_exits_1(tmp_path):
    code = main(["analyze", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 1
    record = run_json(tmp_path)
    assert record["status"] == "error"
    assert record["error"]


def test_malformed_spec_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "concat"}')
    assert main(["analyze", "--spec", str(bad), "--out", str(tmp_path)]) == 1
    assert run_json(tmp_path)["status"] == "error"


def test_unknown_topology_exits_1(tmp_path):
    assert main(["graph", "--topology", "mesh", "--layers", "4",
                 "--out", str(tmp_path)]) == 1
    assert run_json(tmp_path)["status"] == "error"


@pytest.mark.parametrize("size", ["25", "0", "-10"])
@pytest.mark.parametrize("flag", ["--subset", "--test-subset"])
def test_bad_subset_size_exits_1(tmp_path, cifar_dir, flag, size):
    code = main(["train", "--spec", config_path("sparse_bc_tiny_cifar.json"),
                 "--data", cifar_dir, "--epochs", "1", flag, size, "--out", str(tmp_path)])
    assert code == 1
    record = run_json(tmp_path)
    assert record["status"] == "error"
    assert "positive multiple of 10" in record["error"]


@pytest.mark.parametrize("flag,value,name", [
    ("--batch-size", "0", "batch size"), ("--batch-size", "-4", "batch size"),
    ("--epochs", "0", "epochs"), ("--epochs", "-1", "epochs"),
])
def test_train_rejects_non_positive_setting(tmp_path, cifar_dir, flag, value, name):
    # Before the check: batch size 0 exited 2 (ValueError from range), epochs 0
    # exited 2 (IndexError on an empty history), batch size -4 trained on nothing
    # and exited 0.
    code = main(["train", "--spec", config_path("sparse_bc_tiny_cifar.json"),
                 "--data", cifar_dir, "--subset", "100", "--test-subset", "100",
                 flag, value, "--out", str(tmp_path)])
    assert code == 1
    record = run_json(tmp_path)
    assert record["status"] == "error"
    assert f"{name} must be a positive integer, got {value}" in record["error"]
    assert not (tmp_path / "checkpoint").exists()


@pytest.mark.parametrize("flag,value", [
    ("--lr", "nan"), ("--lr", "inf"), ("--lr", "-0.1"),
    ("--weight-decay", "nan"), ("--weight-decay", "-1"),
])
def test_train_rejects_bad_learning_rate_or_weight_decay(tmp_path, cifar_dir, flag, value):
    # Unchecked, NaN and inf diverge after one step (exit 2 with
    # TrainingDivergedError) and the negative values train with the wrong
    # sign (exit 0).
    code = main(["train", "--spec", config_path("sparse_bc_tiny_cifar.json"),
                 "--data", cifar_dir, "--epochs", "1", "--batch-size", "50",
                 "--subset", "100", "--test-subset", "100", flag, value,
                 "--out", str(tmp_path)])
    assert code == 1
    record = run_json(tmp_path)
    assert record["status"] == "error" and "TrainConfigError" in record["error"]
    assert "must be a finite number >= 0" in record["error"]
    assert not (tmp_path / "checkpoint").exists()


@pytest.mark.parametrize("value", ["0", "-4"])
def test_eval_rejects_non_positive_batch_size(tmp_path, cifar_dir, value):
    ckpt = tmp_path / "checkpoint"
    save_checkpoint(compile_network(load_spec(config_path("sparse_bc_tiny_cifar.json")), seed=0),
                    ckpt)
    code = main(["eval", "--checkpoint", str(ckpt), "--data", cifar_dir, "--subset", "10",
                 "--batch-size", value, "--out", str(tmp_path / "out")])
    assert code == 1
    record = run_json(tmp_path / "out")
    assert record["status"] == "error"
    assert f"batch size must be a positive integer, got {value}" in record["error"]
    assert not (tmp_path / "out" / "metrics.json").exists()


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exits_2(tmp_path, cifar_dir):
    code = main(["train", "--spec", config_path("sparse_bc_tiny_cifar.json"),
                 "--data", cifar_dir, "--epochs", "1", "--batch-size", "10",
                 "--subset", "100", "--test-subset", "100", "--lr", "1e12",
                 "--no-augment", "--out", str(tmp_path)])
    assert code == 2
    record = run_json(tmp_path)
    assert record["status"] == "error"
    assert "TrainingDivergedError" in record["error"]


def test_console_script_is_installed(tmp_path):
    exe = shutil.which("sparseagg")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "graph", "--topology", "sparse:3", "--layers", "9",
                           "--out", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "graph_sparse3_L9.dot").exists()
