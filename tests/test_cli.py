import csv
import json
import math
import shutil
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest

from aigopt.cli import main


def run(args):
    return main(args)


def test_gen_writes_circuit_and_manifest(tmp_path):
    out = tmp_path / "adder.aag"
    assert run(["gen", "--family", "ripple_adder", "--size", "4",
                "--out", str(out)]) == 0
    assert out.exists()
    manifest = json.loads((tmp_path / "adder.aag.manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["config"]["family"] == "ripple_adder"
    from aigopt.aig import parse_aiger

    aig = parse_aiger(out.read_bytes())
    assert aig.n_inputs == 8


def test_gen_search_end_to_end(tmp_path, capsys):
    out = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "4", "--out", str(out)])
    run_dir = tmp_path / "run"
    code = run(["search", "--aig", str(out), "--alpha", "0",
                "--budget", "30", "--k", "8", "--seed", "1",
                "--out-dir", str(run_dir)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "recipe:" in printed
    recipe_line = [l for l in printed.splitlines() if l.startswith("recipe:")][0]
    assert len(recipe_line.split(" ")[1].split(",")) == 10
    with open(run_dir / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "prefix", "node_count", "depth",
                       "adp_proxy", "reward", "wall_ns"]
    assert len(rows) - 1 <= 30
    result = json.loads((run_dir / "result.json").read_text())
    assert result["budget_used"] <= 30
    assert (run_dir / "manifest.json").exists()


def test_search_reruns_byte_identical(tmp_path):
    out = tmp_path / "a.aag"
    run(["gen", "--family", "random_dag", "--size", "60", "--seed", "2",
         "--out", str(out)])
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        assert run(["search", "--aig", str(out), "--alpha", "0",
                    "--budget", "25", "--k", "8", "--seed", "3",
                    "--out-dir", str(d)]) == 0
    assert (dirs[0] / "trace.csv").read_bytes() == \
        (dirs[1] / "trace.csv").read_bytes()
    assert (dirs[0] / "result.json").read_bytes() == \
        (dirs[1] / "result.json").read_bytes()


def test_search_alpha_auto_requires_model(tmp_path, capsys):
    out = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(out)])
    code = run(["search", "--aig", str(out), "--alpha", "auto",
                "--out-dir", str(tmp_path / "r")])
    assert code == 1
    assert "--model" in capsys.readouterr().err


def test_search_alpha_literal_requires_model(tmp_path, capsys):
    out = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(out)])
    code = run(["search", "--aig", str(out), "--alpha", "0.5",
                "--out-dir", str(tmp_path / "r")])
    assert code == 1
    assert "--model" in capsys.readouterr().err


def test_search_bad_alpha_rejected(tmp_path, capsys):
    out = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(out)])
    assert run(["search", "--aig", str(out), "--alpha", "nope",
                "--out-dir", str(tmp_path / "r")]) == 1
    assert run(["search", "--aig", str(out), "--alpha", "1.5",
                "--out-dir", str(tmp_path / "r")]) == 1


def test_unknown_flag_exits_one(capsys):
    assert run(["search", "--bogus"]) == 1


def test_missing_file_is_runtime_error(tmp_path):
    assert run(["search", "--aig", str(tmp_path / "missing.aag"),
                "--alpha", "0", "--out-dir", str(tmp_path / "r")]) == 2


def test_full_pipeline_train_calibrate_search(tmp_path, capsys):
    # Tiny but complete: gen -> train(+bank) -> calibrate -> search --alpha auto
    train_paths = []
    for family, size in (("ripple_adder", 3), ("mux_tree", 2)):
        p = tmp_path / f"{family}_{size}.aag"
        run(["gen", "--family", family, "--size", str(size), "--out", str(p)])
        train_paths.append(str(p))
    model = tmp_path / "model.bin"
    bank = tmp_path / "bank.csv"
    assert run(["train", "--circuits", *train_paths, "--out", str(model),
                "--bank", str(bank), "--epochs", "2", "--k", "4",
                "--gcn-layers", "2", "--d-hidden", "8", "--seed", "0"]) == 0
    assert model.exists() and bank.exists()
    assert model.with_suffix(".loss.csv").exists()

    val_in = tmp_path / "val_in.aag"
    run(["gen", "--family", "ripple_adder", "--size", "4", "--out", str(val_in)])
    val_out = tmp_path / "val_out.aag"
    run(["gen", "--family", "array_multiplier", "--size", "3",
         "--out", str(val_out)])
    val_csv = tmp_path / "val.csv"
    val_csv.write_text(f"{val_in},0\n{val_out},1\n")
    ood_json = tmp_path / "ood.json"
    report_csv = tmp_path / "caltable.csv"
    assert run(["calibrate", "--model", str(model), "--bank", str(bank),
                "--validation", str(val_csv), "--out", str(ood_json),
                "--report", str(report_csv)]) == 0
    gate = json.loads(ood_json.read_text())
    assert "delta_th" in gate
    assert report_csv.exists()

    test_circuit = tmp_path / "test.aag"
    run(["gen", "--family", "ripple_adder", "--size", "5",
         "--out", str(test_circuit)])
    capsys.readouterr()
    assert run(["search", "--aig", str(test_circuit), "--alpha", "auto",
                "--model", str(model), "--bank", str(bank),
                "--ood-config", str(ood_json), "--budget", "15", "--k", "6",
                "--out-dir", str(tmp_path / "auto_run")]) == 0
    printed = capsys.readouterr().out
    assert "ood gate:" in printed
    assert (tmp_path / "auto_run" / "result.json").exists()


def _tiny_model_and_bank(tmp_path, circuit_path):
    from aigopt.aig import parse_aiger
    from aigopt.ood import EmbeddingBank
    from aigopt.policy import PolicyConfig, PolicyNetwork, save

    net = PolicyNetwork(PolicyConfig(d_hidden=8, d_emb=4, d_head=8,
                                     gcn_layers=2))
    model = tmp_path / "model.bin"
    save(net, model)
    bank = EmbeddingBank()
    bank.add("c", net.encode_aig(parse_aiger(circuit_path.read_bytes())))
    bank_path = tmp_path / "bank.csv"
    bank.save_csv(bank_path)
    return model, bank_path


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_search_ood_config_without_delta_th_exits_two(tmp_path, capsys):
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    model, bank = _tiny_model_and_bank(tmp_path, circuit)
    ood_json = tmp_path / "ood.json"
    ood_json.write_text('{"temperature": 0.0}\n')
    capsys.readouterr()
    assert run(["search", "--aig", str(circuit), "--alpha", "auto",
                "--model", str(model), "--bank", str(bank),
                "--ood-config", str(ood_json), "--budget", "4", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    _assert_one_line_error(capsys)


def _edit_model_header(model, edit):
    """Re-emits the model file with ``edit`` applied to its JSON header and
    a valid length and checksum, so only the header itself is wrong."""
    import hashlib
    import struct

    data = model.read_bytes()[:-32]
    header_len, = struct.unpack_from("<I", data, 12)
    header = json.loads(data[16:16 + header_len])
    edit(header)
    header_bytes = json.dumps(header, sort_keys=True).encode()
    body = (data[:12] + struct.pack("<I", len(header_bytes)) + header_bytes
            + data[16 + header_len:])
    model.write_bytes(body + hashlib.sha256(body).digest())


def test_model_with_unknown_config_key_exits_two(tmp_path, capsys):
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    model, _ = _tiny_model_and_bank(tmp_path, circuit)
    _edit_model_header(model, lambda h: h["config"].update(bogus=1))
    capsys.readouterr()
    assert run(["search", "--aig", str(circuit), "--alpha", "1",
                "--model", str(model), "--budget", "4", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("header_edit, net_edit", [
    (lambda h: h.pop("params"), None),
    (lambda h: h.pop("buffers"), None),
    (None, lambda net: net.params.pop("fc2.b")),
    (None, lambda net: net.params.update(bogus=np.zeros(2))),
    # a (1,) bias would broadcast silently against the (7,) logits
    (None, lambda net: net.params.update({"fc2.b": np.zeros(1)})),
], ids=["no_params", "no_buffers", "missing_tensor", "extra_tensor",
        "wrong_shape"])
def test_model_tensors_differing_from_network_exit_two(tmp_path, capsys,
                                                       header_edit, net_edit):
    from aigopt.policy import PolicyConfig, PolicyNetwork, save

    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    net = PolicyNetwork(PolicyConfig(d_hidden=8, d_emb=4, d_head=8,
                                     gcn_layers=2))
    if net_edit is not None:
        net_edit(net)
    model = tmp_path / "model.bin"
    save(net, model)
    if header_edit is not None:
        _edit_model_header(model, header_edit)
    capsys.readouterr()
    assert run(["search", "--aig", str(circuit), "--alpha", "1",
                "--model", str(model), "--budget", "4", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert "model header" in err


@pytest.mark.parametrize("command", ["search", "bench"])
def test_recipe_longer_than_model_exits_two(tmp_path, capsys, command):
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    model, _ = _tiny_model_and_bank(tmp_path, circuit)  # recipe length 10
    if command == "search":
        args = ["search", "--aig", str(circuit), "--alpha", "1"]
    else:
        args = ["bench", "--test", str(circuit), "--methods", "agent_guided"]
    capsys.readouterr()
    assert run([*args, "--model", str(model), "--recipe-len", "12",
                "--budget", "4", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert "recipe length 12" in err and "recipe length 10" in err
    assert not (tmp_path / "r").exists()


def test_unguided_search_longer_than_model_runs(tmp_path):
    # alpha 0 never asks the model for a prior, so its length does not apply
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    model, _ = _tiny_model_and_bank(tmp_path, circuit)  # recipe length 10
    assert run(["search", "--aig", str(circuit), "--alpha", "0",
                "--model", str(model), "--recipe-len", "12", "--budget", "4",
                "--k", "2", "--out-dir", str(tmp_path / "r")]) == 0
    result = json.loads((tmp_path / "r" / "result.json").read_text())
    assert len(result["recipe"].split(",")) == 12


@pytest.mark.parametrize("flag, value", [("--budget", "0"), ("--budget", "-1"),
                                         ("--recipe-len", "0")])
@pytest.mark.parametrize("command", ["search", "bench"])
def test_budget_or_recipe_len_below_one_exits_two(tmp_path, capsys, command,
                                                  flag, value):
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    if command == "search":
        args = ["search", "--aig", str(circuit), "--alpha", "0"]
    else:
        args = ["bench", "--test", str(circuit), "--methods", "pure_mcts"]
    argv = [*args, "--budget", "4", "--k", "2", "--out-dir", str(tmp_path / "r")]
    capsys.readouterr()
    assert run([*argv, flag, value]) == 2
    err = _assert_one_line_error(capsys)
    assert flag[2:].replace("-", "_") in err


def test_bench_without_seeds_exits_two(tmp_path, capsys):
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    capsys.readouterr()
    assert run(["bench", "--test", str(circuit), "--methods", "pure_mcts",
                "--seeds", "0", "--budget", "4", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert "seeds" in err


def test_train_without_epochs_exits_two(tmp_path, capsys):
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    capsys.readouterr()
    assert run(["train", "--circuits", str(circuit), "--out",
                str(tmp_path / "m.bin"), "--epochs", "0", "--k", "2"]) == 2
    err = _assert_one_line_error(capsys)
    assert "epochs" in err
    assert not (tmp_path / "m.bin").exists()


def test_diverging_training_exits_two(tmp_path, capsys):
    # With this rate the first step leaves finite but huge parameters, and
    # the second epoch's loss is NaN; no model, loss or bank file is
    # written, and numpy's overflow warnings (errors here) stay silent.
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    capsys.readouterr()
    model = tmp_path / "m.bin"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["train", "--circuits", str(circuit), "--out", str(model),
                    "--bank", str(tmp_path / "bank.csv"), "--epochs", "3",
                    "--k", "2", "--gcn-layers", "2", "--d-hidden", "8",
                    "--lr", "1e300", "--seed", "1"]) == 2
    err = _assert_one_line_error(capsys)
    assert "diverged at epoch 1" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.aag", "a.aag.manifest.json"]


def test_training_whose_bank_embedding_overflows_exits_two(tmp_path, capsys):
    # One epoch at this rate leaves finite but huge weights, so training
    # ends; embedding the circuit for the bank then overflows. That exits 2
    # before the model and loss files are written.
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["train", "--circuits", str(circuit), "--out",
                    str(tmp_path / "m.bin"), "--bank", str(tmp_path / "b.csv"),
                    "--epochs", "1", "--k", "2", "--gcn-layers", "2",
                    "--d-hidden", "8", "--lr", "1e300", "--seed", "1"]) == 2
    err = _assert_one_line_error(capsys)
    assert "embedding of circuit" in err and "not finite" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.aag", "a.aag.manifest.json"]


@pytest.mark.parametrize("value, position", [
    (math.nan, 0), (math.inf, -1), (-math.inf, 0)])
def test_model_with_non_finite_tensor_exits_two(tmp_path, capsys, value,
                                                position):
    # position 0 is the first parameter, -1 the last batch-norm statistic
    import hashlib
    import struct

    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    model, _ = _tiny_model_and_bank(tmp_path, circuit)
    body = bytearray(model.read_bytes()[:-32])
    header_len, = struct.unpack_from("<I", body, 12)
    offset = 16 + header_len if position == 0 else len(body) - 8
    struct.pack_into("<d", body, offset, value)
    model.write_bytes(bytes(body) + hashlib.sha256(body).digest())
    capsys.readouterr()
    assert run(["search", "--aig", str(circuit), "--alpha", "1",
                "--model", str(model), "--budget", "4", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert "not finite" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("scaled, what", [
    (("fc0.W", "fc1.W"), "action priors"),
    (("gcn0.W", "gcn1.W"), "embedding of circuit")])
def test_model_with_overflowing_weights_exits_two(tmp_path, capsys, scaled,
                                                  what):
    # Weights scaled by 1e200 are finite, so the model loads; its forward
    # pass overflows. Scaled head weights gave NaN priors, on which the
    # search committed "b" ten times and exited 0.
    from aigopt.policy import PolicyConfig, PolicyNetwork, save

    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    net = PolicyNetwork(PolicyConfig(d_hidden=8, d_emb=4, d_head=8,
                                     gcn_layers=2))
    for name in scaled:
        net.params[name] *= 1e200
    model = tmp_path / "model.bin"
    save(net, model)  # a valid checksum over the scaled tensors
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["search", "--aig", str(circuit), "--alpha", "1",
                    "--model", str(model), "--budget", "20", "--k", "4",
                    "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert what in err and "not finite" in err
    assert not (tmp_path / "r").exists()


def test_train_makes_the_bank_directory(tmp_path):
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    model = tmp_path / "m.bin"
    bank = tmp_path / "banks" / "bank.csv"
    assert run(["train", "--circuits", str(circuit), "--out", str(model),
                "--bank", str(bank), "--epochs", "1", "--k", "2",
                "--gcn-layers", "2", "--d-hidden", "8"]) == 0
    assert bank.exists()
    assert model.with_suffix(".manifest.json").exists()


def test_calibrate_makes_the_report_directory(tmp_path):
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    model, bank = _tiny_model_and_bank(tmp_path, circuit)
    validation = tmp_path / "val.csv"
    validation.write_text(f"{circuit},0\n")
    report = tmp_path / "reports" / "r.csv"
    assert run(["calibrate", "--model", str(model), "--bank", str(bank),
                "--validation", str(validation),
                "--out", str(tmp_path / "ood.json"),
                "--report", str(report)]) == 0
    assert report.exists()
    assert (tmp_path / "ood.manifest.json").exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--d-hidden", "0", "d_hidden"), ("--gcn-layers", "0", "gcn_layers"),
    ("--lr", "nan", "learning_rate"), ("--lr", "inf", "learning_rate"),
    ("--lr", "0", "learning_rate"), ("--lr", "-1", "learning_rate"),
    ("--seed", "-1", "seed")])
def test_train_size_or_rate_out_of_range_exits_two(tmp_path, capsys, flag,
                                                   value, field):
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    capsys.readouterr()
    assert run(["train", "--circuits", str(circuit), "--out",
                str(tmp_path / "m.bin"), "--epochs", "1", "--k", "2",
                flag, value]) == 2
    err = _assert_one_line_error(capsys)
    assert field in err
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("command", ["gen", "search"])
def test_negative_seed_exits_two(tmp_path, capsys, command):
    # random.Random seeds with abs(seed), so -1 would silently alias seed 1.
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    out = tmp_path / "r"
    if command == "gen":
        argv = ["gen", "--family", "random_dag", "--size", "30",
                "--out", str(out)]
    else:
        argv = ["search", "--aig", str(circuit), "--alpha", "0",
                "--budget", "4", "--k", "2", "--out-dir", str(out)]
    capsys.readouterr()
    assert run([*argv, "--seed", "-1"]) == 2
    err = _assert_one_line_error(capsys)
    assert "seed" in err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_jobs_below_one_exits_two(tmp_path, capsys, jobs):
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    capsys.readouterr()
    assert run(["bench", "--test", str(circuit), "--methods", "pure_mcts",
                "--jobs", jobs, "--budget", "2", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert "jobs" in err


@pytest.mark.parametrize("bad_file, bad_row", [
    ("val.csv", "{circuit}"),        # validation row without its label
    ("bank.csv", "x"),               # bank row without dim and values
    ("bank.csv", "c,3,0.5,0.5"),     # dim disagrees with the value count
    # a field past the csv module's 131,072-character limit
    pytest.param("val.csv", "x" * 131073, id="val.csv-oversized_field"),
    pytest.param("bank.csv", "x" * 131073, id="bank.csv-oversized_field"),
    pytest.param("val.csv", "{circuit},2", id="val.csv-label_2"),
    pytest.param("bank.csv", "c,16,nan" + ",1" * 15, id="bank.csv-nan"),
    pytest.param("bank.csv", "c,16" + ",0" * 16, id="bank.csv-zero_norm"),
    pytest.param("bank.csv", "c,16" + ",1e200" * 16,
                 id="bank.csv-norm_overflow"),
])
def test_calibrate_malformed_csv_row_exits_two(tmp_path, capsys, bad_file,
                                               bad_row):
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    model, bank = _tiny_model_and_bank(tmp_path, circuit)
    validation = tmp_path / "val.csv"
    validation.write_text(f"circuit,label\n{circuit},0\n")
    bad = tmp_path / bad_file
    bad.write_text(bad.read_text().splitlines()[0] + "\n"
                   + bad_row.format(circuit=circuit) + "\n")
    capsys.readouterr()
    assert run(["calibrate", "--model", str(model), "--bank", str(bank),
                "--validation", str(validation),
                "--out", str(tmp_path / "ood.json")]) == 2
    err = _assert_one_line_error(capsys)
    assert f"{bad}: line 2" in err


@pytest.mark.parametrize("command, content, line", [
    ("search", b"\xff\n", 1),  # the bank of --alpha auto
    ("calibrate", b"\xff\n", 1),  # the validation set
    ("calibrate", b"circuit,label\n\xff.aag,0\n", 2),
])
def test_non_utf8_csv_names_the_file(tmp_path, capsys, command, content,
                                     line):
    circuit, model, bank = _gate_inputs(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    capsys.readouterr()
    if command == "search":
        gate = tmp_path / "ood.json"
        gate.write_text('{"delta_th": 0.5}')
        argv = ["search", "--aig", str(circuit), "--alpha", "auto",
                "--model", str(model), "--bank", str(bad),
                "--ood-config", str(gate), "--budget", "4", "--k", "2",
                "--out-dir", str(tmp_path / "r")]
    else:
        argv = ["calibrate", "--model", str(model), "--bank", str(bank),
                "--validation", str(bad), "--out", str(tmp_path / "ood.json")]
    assert run(argv) == 2
    err = _assert_one_line_error(capsys)
    assert f"{bad}: line {line}:" in err


@pytest.mark.parametrize("bad_file, content, message", [
    ("bank.csv", "circuit_id,dim,values\nc,2,1,0\nd,3,1,0,0\n",
     "line 3: embedding dimension mismatch"),
    ("val.csv", "circuit,label\n", "validation set is empty"),
], ids=["bank.csv-two_widths", "val.csv-header_only"])
def test_calibrate_csv_file_errors_name_the_file(tmp_path, capsys, bad_file,
                                                 content, message):
    circuit, model, bank = _gate_inputs(tmp_path)
    validation = tmp_path / "val.csv"
    validation.write_text(f"circuit,label\n{circuit},0\n")
    bad = tmp_path / bad_file
    bad.write_text(content)
    capsys.readouterr()
    assert run(["calibrate", "--model", str(model), "--bank", str(bank),
                "--validation", str(validation),
                "--out", str(tmp_path / "ood.json")]) == 2
    err = _assert_one_line_error(capsys)
    assert f"{bad}: {message}" in err


@pytest.mark.parametrize("bank_kind", ["empty", "wider"])
@pytest.mark.parametrize("command", ["calibrate", "search", "bench"])
def test_gate_bank_is_checked_against_the_model(tmp_path, capsys, command,
                                                bank_kind):
    from aigopt.aig import parse_aiger
    from aigopt.ood import EmbeddingBank
    from aigopt.policy import PolicyConfig, PolicyNetwork

    circuit, model, bank = _gate_inputs(tmp_path)  # model d_hidden 8
    if bank_kind == "empty":
        bank.write_text("circuit_id,dim,values\n")
        message = "embedding bank is empty"
    else:
        wide = PolicyNetwork(PolicyConfig(d_hidden=16, d_emb=4, d_head=8,
                                          gcn_layers=2))
        wider = EmbeddingBank()
        wider.add("c", wide.encode_aig(parse_aiger(circuit.read_bytes())))
        wider.save_csv(bank)
        message = "bank embeddings have 32 values, but the model's have 16"
    gate = tmp_path / "ood.json"
    if command == "calibrate":
        validation = tmp_path / "val.csv"
        validation.write_text(f"circuit,label\n{circuit},0\n")
        argv = ["calibrate", "--validation", str(validation),
                "--out", str(gate)]
    elif command == "search":
        gate.write_text('{"delta_th": 0.5}')
        argv = ["search", "--aig", str(circuit), "--alpha", "auto",
                "--ood-config", str(gate), "--budget", "4", "--k", "2",
                "--out-dir", str(tmp_path / "r")]
    else:
        argv = ["bench", "--test", str(circuit), "--methods",
                "pure_mcts,agent_ood", "--delta-th", "0.5", "--budget", "4",
                "--k", "2", "--out-dir", str(tmp_path / "r")]
    capsys.readouterr()
    assert run([*argv, "--model", str(model), "--bank", str(bank)]) == 2
    err = _assert_one_line_error(capsys)
    assert f"{bank}: {message}" in err


@pytest.mark.parametrize("header", ["circuit,label\n", ""],
                         ids=["header", "headerless"])
def test_calibrate_reads_validation_from_a_pipe(tmp_path, header):
    import os
    import sys

    import aigopt

    circuit, model, bank = _gate_inputs(tmp_path)
    other = tmp_path / "m.aag"
    run(["gen", "--family", "mux_tree", "--size", "2", "--out", str(other)])
    rows = f"{header}{circuit},0\n{other},1\n"
    validation = tmp_path / "val.csv"
    validation.write_text(rows)
    gate = ["--model", str(model), "--bank", str(bank)]
    assert run(["calibrate", *gate, "--validation", str(validation),
                "--out", str(tmp_path / "file/ood.json")]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(aigopt.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "aigopt.cli", "calibrate", *gate,
         "--validation", "/dev/stdin", "--out", str(tmp_path / "pipe/ood.json")],
        input=rows, capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert ((tmp_path / "pipe/ood.json").read_bytes()
            == (tmp_path / "file/ood.json").read_bytes())


_FUZZ_VALUES = ["nan", "inf", "-inf", "0", "1e400", "-1e400", "x", ""]
_FUZZ_LABELS = ["0", "1", "2", "-1", "x", "", "nan", "1e400", "0.5"]


def _fuzz_csv(rng, rows, label_only):
    """One seeded mutation of ``rows`` (lists of fields, the header first),
    returned as file text. With ``label_only`` (a validation file) the first
    field of every row, the circuit path, stays whole."""
    rows = [list(row) for row in rows]
    row = rng.choice(rows[1:])
    kind = rng.choice(["field", "field", "drop", "extra", "header",
                       "truncate"] + ([] if label_only else ["zeros", "width"]))
    if kind == "field":
        i = 1 if label_only else rng.randrange(1, len(row))
        pool = _FUZZ_LABELS if label_only or i == 1 else _FUZZ_VALUES
        row[i] = rng.choice(pool + [str(rng.randint(-2, 20))])
    elif kind == "drop":
        del row[rng.randrange(1, len(row)):]  # dropped trailing fields
    elif kind == "extra":
        row.append(rng.choice(_FUZZ_VALUES))
    elif kind == "zeros":
        row[2:] = ["0"] * (len(row) - 2)
    elif kind == "width":  # one value fewer, dim agreeing
        del row[-1]
        row[1] = str(len(row) - 2)
    elif kind == "header":
        del rows[0]
    text = "".join(",".join(r) + "\n" for r in rows)
    if kind == "truncate":
        # cut at a line end, or within the last row's label or values
        ends = [i for i, ch in enumerate(text) if ch == "\n"]
        last = text.rindex(",", 0, ends[-1]) + 1
        cut = rng.choice([*ends[:-1], rng.randint(last, ends[-1])])
        text = text[:cut]
    return text


def test_calibrate_fuzzed_bank_and_validation_exit_cleanly(tmp_path, capsys):
    """Seeded mutations of a valid bank and validation file: each run of
    ``calibrate`` exits 0, or exits 2 with one error line naming the file."""
    import random

    circuit, model, bank = _gate_inputs(tmp_path)
    other = tmp_path / "m.aag"
    run(["gen", "--family", "mux_tree", "--size", "2", "--out", str(other)])
    validation = tmp_path / "val.csv"
    validation.write_text(f"circuit,label\n{circuit},0\n{other},1\n")
    with open(bank, newline="") as fh:
        bank_rows = list(csv.reader(fh))
    bank_rows.append(["d", *bank_rows[1][1:]])
    val_rows = [line.split(",") for line in
                validation.read_text().splitlines()]
    clean = {bank: "".join(",".join(r) + "\n" for r in bank_rows),
             validation: validation.read_text()}
    codes = []
    for seed in range(64):
        rng = random.Random(seed)
        target = rng.choice([bank, validation])
        for path, text in clean.items():
            path.write_text(text)
        target.write_text(_fuzz_csv(
            rng, bank_rows if target == bank else val_rows,
            label_only=target == validation))
        capsys.readouterr()
        code = run(["calibrate", "--model", str(model), "--bank", str(bank),
                    "--validation", str(validation),
                    "--out", str(tmp_path / "ood.json")])
        err = capsys.readouterr().err
        assert code in (0, 2), (seed, err)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert str(target) in err, (seed, err)
        codes.append(code)
    assert 0 in codes and 2 in codes


def test_bench_command(tmp_path):
    paths = []
    for family, size in (("ripple_adder", 3), ("mux_tree", 2)):
        p = tmp_path / f"{family}.aag"
        run(["gen", "--family", family, "--size", str(size), "--out", str(p)])
        paths.append(str(p))
    out_dir = tmp_path / "bench"
    assert run(["bench", "--test", *paths, "--methods", "pure_mcts",
                "--budget", "10", "--k", "4", "--seeds", "2",
                "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "report.json").exists()
    assert (out_dir / "manifest.json").exists()
    trace = out_dir / "traces" / "pure_mcts" / "ripple_adder" / "seed0.csv"
    assert trace.exists()


def test_bench_agent_requires_model(tmp_path, capsys):
    p = tmp_path / "c.aag"
    run(["gen", "--family", "mux_tree", "--size", "2", "--out", str(p)])
    assert run(["bench", "--test", str(p), "--methods", "agent_guided",
                "--out-dir", str(tmp_path / "b")]) == 1
    assert "--model" in capsys.readouterr().err


def test_results_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("AIGOPT_RESULTS", str(tmp_path))
    assert run(["gen", "--family", "mux_tree", "--size", "2",
                "--out", "sub/m.aag"]) == 0
    assert (tmp_path / "sub" / "m.aag").exists()


def _gate_inputs(tmp_path):
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    model, bank = _tiny_model_and_bank(tmp_path, circuit)
    return circuit, model, bank


@pytest.mark.parametrize("temperature", ["-1", "nan", "inf"])
def test_calibrate_bad_temperature_exits_two(tmp_path, capsys, temperature):
    circuit, model, bank = _gate_inputs(tmp_path)
    validation = tmp_path / "val.csv"
    validation.write_text(f"circuit,label\n{circuit},0\n")
    out = tmp_path / "gate" / "ood.json"
    capsys.readouterr()
    assert run(["calibrate", "--model", str(model), "--bank", str(bank),
                "--validation", str(validation), "--out", str(out),
                f"--temperature={temperature}"]) == 2
    err = _assert_one_line_error(capsys)
    assert "temperature" in err
    assert not out.parent.exists()


@pytest.mark.parametrize("gate", [
    '{"delta_th": NaN}', '{"delta_th": -Infinity}',
    '{"delta_th": 0.5, "temperature": NaN}',
    pytest.param('{"delta_th": 1%s, "temperature": 0.5}' % ("0" * 400),
                 id="delta_th_past_float_range"),
    pytest.param('{"delta_th": 0.5, "temperature": 1%s}' % ("0" * 400),
                 id="temperature_past_float_range")])
def test_search_non_finite_gate_config_exits_two(tmp_path, capsys, gate):
    circuit, model, bank = _gate_inputs(tmp_path)
    ood_json = tmp_path / "ood.json"
    ood_json.write_text(gate + "\n")
    capsys.readouterr()
    assert run(["search", "--aig", str(circuit), "--alpha", "auto",
                "--model", str(model), "--bank", str(bank),
                "--ood-config", str(ood_json), "--budget", "4", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert "delta_th" in err or "temperature" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("gate", [
    '{"delta_th": -1}', '{"delta_th": NaN}',
    '{"delta_th": 0.1, "temperature": -2}',
    '{"delta_th": 0.1, "temperature": Infinity}'])
def test_search_gate_config_out_of_range_names_the_file(tmp_path, capsys,
                                                        gate):
    circuit, model, bank = _gate_inputs(tmp_path)
    ood_json = tmp_path / "ood.json"
    ood_json.write_text(gate + "\n")
    capsys.readouterr()
    assert run(["search", "--aig", str(circuit), "--alpha", "auto",
                "--model", str(model), "--bank", str(bank),
                "--ood-config", str(ood_json), "--budget", "4", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert f"{ood_json}: " in err


@pytest.mark.parametrize("content", [b"", b"{delta_th: 0.5}\n", b"\xff\n"],
                         ids=["empty", "not_json", "not_utf8"])
def test_search_unreadable_gate_config_names_the_file(tmp_path, capsys,
                                                      content):
    circuit, model, bank = _gate_inputs(tmp_path)
    ood_json = tmp_path / "ood.json"
    ood_json.write_bytes(content)
    capsys.readouterr()
    assert run(["search", "--aig", str(circuit), "--alpha", "auto",
                "--model", str(model), "--bank", str(bank),
                "--ood-config", str(ood_json), "--budget", "4", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert str(ood_json) in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("c_uct", ["nan", "-3", "inf"])
def test_search_bad_c_uct_exits_two(tmp_path, capsys, c_uct):
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    capsys.readouterr()
    assert run(["search", "--aig", str(circuit), "--alpha", "0",
                "--budget", "4", "--k", "2", f"--c-uct={c_uct}",
                "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert "c_uct" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flags, field", [
    (["--delta-th", "nan"], "delta_th"),
    (["--delta-th=-inf"], "delta_th"),
    (["--delta-th", "0.5", "--temperature", "nan"], "temperature"),
])
def test_bench_bad_gate_settings_exit_two(tmp_path, capsys, flags, field):
    circuit, model, bank = _gate_inputs(tmp_path)
    capsys.readouterr()
    assert run(["bench", "--test", str(circuit), "--methods", "agent_ood",
                "--model", str(model), "--bank", str(bank), *flags,
                "--budget", "2", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert field in err
    assert not (tmp_path / "r").exists()


def _subparser_flags(command):
    import argparse

    from aigopt.cli import _build_parser

    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


def test_manifests_record_every_flag(tmp_path):
    circuit = tmp_path / "a.aag"
    assert run(["gen", "--family", "ripple_adder", "--size", "3",
                "--out", str(circuit)]) == 0
    model, bank = tmp_path / "m.bin", tmp_path / "bank.csv"
    assert run(["train", "--circuits", str(circuit), "--out", str(model),
                "--bank", str(bank), "--epochs", "1", "--k", "2",
                "--gcn-layers", "2", "--d-hidden", "8"]) == 0
    validation = tmp_path / "val.csv"
    validation.write_text(f"{circuit},0\n")
    ood_json = tmp_path / "ood.json"
    assert run(["calibrate", "--model", str(model), "--bank", str(bank),
                "--validation", str(validation), "--out", str(ood_json),
                "--report", str(tmp_path / "cal.csv")]) == 0
    assert run(["search", "--aig", str(circuit), "--alpha", "auto",
                "--model", str(model), "--bank", str(bank),
                "--ood-config", str(ood_json), "--budget", "3", "--k", "2",
                "--measure-time", "--out-dir", str(tmp_path / "s")]) == 0
    assert run(["bench", "--test", str(circuit), "--methods", "pure_mcts",
                "--budget", "2", "--k", "2",
                "--out-dir", str(tmp_path / "b")]) == 0
    manifests = {
        "gen": tmp_path / "a.aag.manifest.json",
        "train": tmp_path / "m.manifest.json",
        "calibrate": tmp_path / "ood.manifest.json",
        "search": tmp_path / "s" / "manifest.json",
        "bench": tmp_path / "b" / "manifest.json",
    }
    for command, path in manifests.items():
        manifest = json.loads(path.read_text())
        assert manifest["command"] == command
        assert set(manifest["config"]) == _subparser_flags(command), command
    search = json.loads(manifests["search"].read_text())["config"]
    assert search["alpha"] == "auto"
    assert search["bank"] == str(bank)
    assert search["ood_config"] == str(ood_json)
    assert search["out_dir"] == str(tmp_path / "s")
    assert search["measure_time"] is True


def test_search_cyclic_aiger_exits_two(tmp_path, capsys):
    circuit = tmp_path / "cyclic.aag"
    circuit.write_bytes(b"aag 3 1 0 1 2\n2\n4\n4 2 6\n6 2 4\n")
    assert run(["search", "--aig", str(circuit), "--alpha", "0",
                "--budget", "4", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert "cyclic" in err
    assert not (tmp_path / "r").exists()


def test_bench_cyclic_second_circuit_names_its_file(tmp_path, capsys):
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    cyclic = tmp_path / "b.aag"
    cyclic.write_bytes(b"aag 3 1 0 1 2\n2\n4\n4 2 6\n6 2 4\n")
    capsys.readouterr()
    assert run(["bench", "--test", str(circuit), str(cyclic),
                "--methods", "pure_mcts", "--budget", "3", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert f"{cyclic}: cyclic gate definition" in err
    assert not (tmp_path / "r").exists()


def test_model_header_not_utf8_names_its_file(tmp_path, capsys):
    import hashlib
    import struct

    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    model, _ = _tiny_model_and_bank(tmp_path, circuit)
    data = model.read_bytes()[:-32]
    header_len, = struct.unpack_from("<I", data, 12)
    body = (data[:12] + struct.pack("<I", 2) + b"\xff\xfe"
            + data[16 + header_len:])
    model.write_bytes(body + hashlib.sha256(body).digest())
    capsys.readouterr()
    assert run(["search", "--aig", str(circuit), "--alpha", "1",
                "--model", str(model), "--budget", "4", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert f"{model}: model header is not UTF-8 JSON" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("gate", ['{"delta_th": 0.5, "temperature": true}',
                                  '{"delta_th": true}'],
                         ids=["bool_temperature", "bool_delta_th"])
def test_search_boolean_gate_field_exits_two(tmp_path, capsys, gate):
    circuit, model, bank = _gate_inputs(tmp_path)
    ood_json = tmp_path / "ood.json"
    ood_json.write_text(gate + "\n")
    capsys.readouterr()
    assert run(["search", "--aig", str(circuit), "--alpha", "auto",
                "--model", str(model), "--bank", str(bank),
                "--ood-config", str(ood_json), "--budget", "4", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert "numeric delta_th" in err
    assert not (tmp_path / "r").exists()


def test_bench_repeated_method_exits_two(tmp_path, capsys):
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    capsys.readouterr()
    assert run(["bench", "--test", str(circuit),
                "--methods", "pure_mcts,pure_mcts", "--budget", "3",
                "--k", "2", "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert "pure_mcts" in err
    assert not (tmp_path / "r").exists()


def test_bench_repeated_circuit_stem_exits_two(tmp_path, capsys):
    # The grid keys circuits by file stem, so one c.aag would replace the
    # other.
    paths = []
    for family, folder in (("ripple_adder", "x"), ("comparator", "y")):
        path = tmp_path / folder / "c.aag"
        run(["gen", "--family", family, "--size", "3", "--out", str(path)])
        paths.append(str(path))
    capsys.readouterr()
    assert run(["bench", "--test", *paths, "--methods", "pure_mcts",
                "--budget", "3", "--k", "2",
                "--out-dir", str(tmp_path / "b")]) == 2
    err = _assert_one_line_error(capsys)
    assert "'c'" in err
    assert not (tmp_path / "b").exists()


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
def test_manifest_describes_the_package_checkout(tmp_path, monkeypatch):
    # Run from another repository, the manifest still names the checkout
    # that holds aigopt (or "unknown" outside one), not the caller's.
    import aigopt

    other = tmp_path / "other"
    other.mkdir()
    for argv in (["init", "-q"], ["-c", "user.name=t", "-c", "user.email=t@t",
                                  "commit", "-q", "--allow-empty", "-m", "x"]):
        subprocess.run(["git", *argv], cwd=other, check=True)
    other_head = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                cwd=other, capture_output=True, text=True,
                                check=True).stdout.strip()
    own = subprocess.run(["git", "describe", "--always", "--dirty"],
                         cwd=Path(aigopt.__file__).parent,
                         capture_output=True, text=True)
    expected = own.stdout.strip() if own.returncode == 0 else "unknown"
    monkeypatch.chdir(other)
    assert run(["gen", "--family", "ripple_adder", "--size", "3",
                "--out", "c.aag"]) == 0
    manifest = json.loads((other / "c.aag.manifest.json").read_text())
    assert manifest["run"]["git_describe"] == expected
    assert not expected.startswith(other_head)


@pytest.mark.parametrize("key, value", [
    ("d_in", 7), ("n_actions", 5), ("bn_eps", -1.0), ("bn_momentum", 2),
    ("leaky_slope", "a"), ("final_layer_scale", 1), ("d_hidden", True),
    ("d_hidden", 2.5), ("recipe_len", 0), ("seed", True), ("gcn_layers", "2")])
def test_model_with_removed_config_key_exits_two(tmp_path, capsys, key,
                                                 value):
    # Each key names a constant of the network design, not a config field,
    # or gives a config field a value that is not an integer or is below 1.
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    model, _ = _tiny_model_and_bank(tmp_path, circuit)
    _edit_model_header(model, lambda h: h["config"].update({key: value}))
    capsys.readouterr()
    assert run(["search", "--aig", str(circuit), "--alpha", "1",
                "--model", str(model), "--budget", "4", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert key in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda h: h["config"].update(d_hidden=10**6), "model header"),
    (lambda h: h["config"].update(recipe_len=10**9), "model header"),
    (lambda h: h["params"].append(["zz", [10**6, 10**6]]), "model header"),
    (lambda h: h["params"].sort(reverse=True), "model header"),
    (None, "bytes of tensors"),
], ids=["d_hidden", "recipe_len", "extra_tensor", "order", "body_length"])
def test_model_load_checks_header_before_building_network(
        tmp_path, monkeypatch, edit, message):
    import hashlib

    from aigopt import policy

    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    model, _ = _tiny_model_and_bank(tmp_path, circuit)
    if edit is None:  # one float64 more than the header lists
        body = model.read_bytes()[:-32] + bytes(8)
        model.write_bytes(body + hashlib.sha256(body).digest())
    else:
        _edit_model_header(model, edit)

    def build(config):
        raise AssertionError("the network was built before the check")

    monkeypatch.setattr(policy, "PolicyNetwork", build)
    with pytest.raises(policy.ModelFormatError, match=message):
        policy.load(model)


def test_model_of_format_version_one_exits_two(tmp_path, capsys):
    import hashlib
    import struct

    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    model, _ = _tiny_model_and_bank(tmp_path, circuit)
    body = bytearray(model.read_bytes()[:-32])
    struct.pack_into("<I", body, 8, 1)  # the version follows the magic
    model.write_bytes(bytes(body) + hashlib.sha256(body).digest())
    capsys.readouterr()
    assert run(["search", "--aig", str(circuit), "--alpha", "1",
                "--model", str(model), "--budget", "4", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert "unsupported model format version 1" in err
    assert not (tmp_path / "r").exists()


def test_oversized_aiger_header_exits_two(tmp_path, capsys):
    circuit = tmp_path / "huge.aig"
    circuit.write_bytes(b"aig 1000000000 1000000000 0 1 0\n2\n")
    assert run(["search", "--aig", str(circuit), "--alpha", "0",
                "--budget", "4", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert "exceeds the limit" in err
    assert not (tmp_path / "r").exists()


def test_aiger_with_properties_exits_two(tmp_path, capsys):
    # 30 inputs; gates 31-34 chain-AND inputs 1-5. Read as gate deltas, the
    # bad-state line "3" would give 3 ANDs and a different function.
    circuit = tmp_path / "bad_state.aig"
    circuit.write_bytes(b"aig 34 30 0 1 4 1\n68\n3\n"
                        + bytes([58, 2, 2, 56, 2, 56, 2, 56]))
    assert run(["search", "--aig", str(circuit), "--alpha", "0",
                "--budget", "4", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    err = _assert_one_line_error(capsys)
    assert "properties unsupported (B=1)" in err
    assert not (tmp_path / "r").exists()


def _run_memory_capped(argv, limit=512 << 20):
    """Runs ``python -m aigopt.cli`` in a child process whose address space
    is capped at ``limit`` bytes; the cap never applies to this process."""
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    import aigopt

    # one BLAS thread, so numpy's import does not reserve address space
    # per core
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(aigopt.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "aigopt.cli", *argv], capture_output=True,
        text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))


def _assert_out_of_memory_exit(result, out_dir):
    assert result.returncode == 2, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert not out_dir.exists()


def test_binary_aiger_exhausting_memory_exits_two(tmp_path):
    # Binary inputs are implicit: 31 bytes declare 2^22 of them, below the
    # header cap, and reading them needs more than the child may allocate.
    circuit = tmp_path / "wide.aig"
    circuit.write_bytes(b"aig 4194304 4194304 0 1 0\n2\n")
    result = _run_memory_capped(["search", "--aig", str(circuit),
                                 "--alpha", "0", "--budget", "4", "--k", "2",
                                 "--out-dir", str(tmp_path / "r")])
    _assert_out_of_memory_exit(result, tmp_path / "r")


def test_binary_aiger_of_inputs_only_runs_in_bounded_memory(tmp_path):
    # 2^20 implicit inputs and no AND: the reader keeps one table entry per
    # input, and no pass runs on a graph with no AND.
    circuit = tmp_path / "wide.aig"
    circuit.write_bytes(b"aig 1048576 1048576 0 1 0\n2\n")
    result = _run_memory_capped(["search", "--aig", str(circuit),
                                 "--alpha", "0", "--budget", "4", "--k", "2",
                                 "--out-dir", str(tmp_path / "r")])
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "r" / "result.json").exists()


def test_binary_aiger_with_one_and_over_many_inputs_runs_in_bounded_memory(
        tmp_path):
    # 2^20 implicit inputs and one AND over the first two: the passes keep
    # cut rows and fanout lists only for nodes that an AND reads.
    circuit = tmp_path / "wide.aig"
    circuit.write_bytes(b"aig 1048577 1048576 0 1 1\n2097154\n\xfe\xff\x7f\x02")
    result = _run_memory_capped(["search", "--aig", str(circuit),
                                 "--alpha", "0", "--budget", "4", "--k", "2",
                                 "--out-dir", str(tmp_path / "r")])
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "r" / "result.json").exists()


def test_model_exhausting_memory_exits_two(tmp_path):
    # A valid checksum over a header whose d_hidden asks for terabytes.
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    model, _ = _tiny_model_and_bank(tmp_path, circuit)
    _edit_model_header(model, lambda h: h["config"].update(d_hidden=10**6))
    result = _run_memory_capped(["search", "--aig", str(circuit),
                                 "--alpha", "1", "--model", str(model),
                                 "--budget", "4", "--k", "2",
                                 "--out-dir", str(tmp_path / "r")])
    _assert_out_of_memory_exit(result, tmp_path / "r")


def _child_modules(code: str) -> set:
    """Runs ``code`` in a fresh interpreter with this package on its path
    and returns the top-level names of the modules it had loaded."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import aigopt

    env = dict(os.environ, PYTHONPATH=str(Path(aigopt.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\n"
         "print(' '.join(sorted({m.split('.')[0] for m in sys.modules})))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def test_gen_and_unguided_search_load_neither_numpy_nor_scipy(tmp_path):
    circuit, out = tmp_path / "a.aag", tmp_path / "r"
    loaded = _child_modules(
        "import aigopt, aigopt.cli, aigopt.bench\n"
        f"assert aigopt.cli.main(['gen', '--family', 'ripple_adder', "
        f"'--size', '3', '--out', {str(circuit)!r}]) == 0\n"
        f"assert aigopt.cli.main(['search', '--aig', {str(circuit)!r}, "
        f"'--alpha', '0', '--budget', '4', '--k', '2', "
        f"'--out-dir', {str(out)!r}]) == 0")
    assert "aigopt" in loaded
    assert not loaded & {"numpy", "scipy"}


def test_train_loads_numpy_and_not_scipy(tmp_path):
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "2", "--out", str(circuit)])
    loaded = _child_modules(
        "import aigopt.cli\n"
        f"assert aigopt.cli.main(['train', '--circuits', {str(circuit)!r}, "
        f"'--out', {str(tmp_path / 'm.bin')!r}, '--epochs', '1', "
        f"'--k', '2', '--d-hidden', '4']) == 0")
    assert "numpy" in loaded
    assert "scipy" not in loaded


def test_model_with_huge_layer_count_fails_before_listing_shapes(tmp_path):
    # A layer count the header's own listing cannot hold is rejected before
    # a shape is listed per layer; the child's memory cap keeps a failure
    # of this check from exhausting the host.
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    model, _ = _tiny_model_and_bank(tmp_path, circuit)
    _edit_model_header(model, lambda h: h["config"].update(gcn_layers=10**9))
    result = _run_memory_capped(["search", "--aig", str(circuit),
                                 "--alpha", "1", "--model", str(model),
                                 "--budget", "4", "--k", "2",
                                 "--out-dir", str(tmp_path / "r")])
    _assert_out_of_memory_exit(result, tmp_path / "r")
    assert "model header 'params'" in result.stderr


_SEARCH = ["search", "--aig", "{circuit}"]
_BENCH = ["bench", "--test", "{circuit}"]


@pytest.mark.parametrize("argv, message", [
    (_SEARCH + ["--alpha", "auto"], "--alpha auto requires --model"),
    (_SEARCH + ["--alpha", "auto", "--model", "m.bin"],
     "--alpha auto requires --bank and --ood-config"),
    (_SEARCH + ["--alpha", "nope"],
     "--alpha must be 'auto' or a number in [0,1], got 'nope'"),
    (_SEARCH + ["--alpha", "1.5"], "--alpha literal must lie in [0,1]"),
    (_SEARCH + ["--alpha", "0.5"], "--alpha > 0 requires --model"),
    (_BENCH + ["--methods", "pure_mcts,bogus"], "unknown method 'bogus'"),
    (_BENCH + ["--methods", "agent_guided"], "agent methods require --model"),
    (_BENCH + ["--methods", "agent_ood", "--model", "m.bin"],
     "agent_ood requires --bank and --delta-th"),
], ids=["auto_no_model", "auto_no_gate_files", "alpha_unparsable",
        "alpha_out_of_range", "alpha_no_model", "unknown_method",
        "agent_no_model", "ood_no_gate"])
def test_usage_error_exits_one_and_writes_nothing(tmp_path, capsys, argv,
                                                  message):
    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    (tmp_path / "a.aag.manifest.json").unlink()
    capsys.readouterr()
    argv = [a.format(circuit=circuit) for a in argv]
    assert run([*argv, "--out-dir", str(tmp_path / "r")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == [circuit]


# sha256 of the outputs at the commit before the CLI took over manifests
# and exit codes; the bytes must not move with the plumbing.
_OUTPUT_DIGESTS = {
    "s/result.json":
        "604aded451b944da5e6bf86211927cc749d9bbf5cfa7a0fd79b54a5cf653a1ef",
    "s/trace.csv":
        "7bb768eebd089adce9a6f25b2f522836c084583cc7bb06ca5c5efecc4c6814be",
    "b/report.csv":
        "4c01105c1848f3f17550d6ca0b42d1167b9d584c15834e208accf25d5310005d",
    "b/report.json":
        "16140901710d5bbcf6265d1e1a39f8a591cd928697a1df973a51e92ed024bb99",
    "b/traces/pure_mcts/mux_tree_2/seed0.csv":
        "2ee188902bbb440edac371e3d0caae4fba7790188eb894792f430a52c95b6f34",
    "b/traces/pure_mcts/mux_tree_2/seed1.csv":
        "a7c8dbc2c3992ed3e4bf8150277b0827cad334fd3ff6a9f06bc978c1da898624",
    "b/traces/pure_mcts/ripple_adder_3/seed0.csv":
        "989a086b41351d279c27f850aa8892610305a563133d73475f81e1dd997839f4",
    "b/traces/pure_mcts/ripple_adder_3/seed1.csv":
        "19960b02ba87056b5d56a21fa3073eba46613de98c393f3fe3ad88e4e5e6c13a",
}


def test_outputs_match_parent_digest(tmp_path):
    import hashlib

    for family, size in (("ripple_adder", 4), ("ripple_adder", 3),
                         ("mux_tree", 2)):
        assert run(["gen", "--family", family, "--size", str(size),
                    "--out", str(tmp_path / f"{family}_{size}.aag")]) == 0
    assert run(["search", "--aig", str(tmp_path / "ripple_adder_4.aag"),
                "--alpha", "0", "--budget", "12", "--k", "8", "--seed", "3",
                "--out-dir", str(tmp_path / "s")]) == 0
    assert run(["bench", "--test", str(tmp_path / "ripple_adder_3.aag"),
                str(tmp_path / "mux_tree_2.aag"), "--methods", "pure_mcts",
                "--seeds", "2", "--budget", "6", "--k", "4",
                "--out-dir", str(tmp_path / "b")]) == 0
    digests = {
        path.relative_to(tmp_path).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for out_dir in (tmp_path / "s", tmp_path / "b")
        for path in out_dir.rglob("*")
        if path.is_file() and path.name != "manifest.json"}
    assert digests == _OUTPUT_DIGESTS


def _learned_pipeline(tmp_path):
    """gen → train (with bank) → calibrate (with report) → a three-method
    bench → search at alpha 1 and auto, all on tiny settings. Returns the
    sha256 of every non-manifest output, keyed by its path under
    ``tmp_path``."""
    import hashlib

    def gen(family, size):
        path = tmp_path / "in" / f"{family}_{size}.aag"
        assert run(["gen", "--family", family, "--size", str(size),
                    "--out", str(path)]) == 0
        return str(path)

    train = [gen("ripple_adder", 3), gen("mux_tree", 2)]
    assert run(["train", "--circuits", *train, "--out",
                str(tmp_path / "t/model.bin"), "--bank",
                str(tmp_path / "t/bank.csv"), "--epochs", "2", "--k", "4",
                "--gcn-layers", "2", "--d-hidden", "8", "--seed", "1"]) == 0
    validation = tmp_path / "in/val.csv"
    validation.write_text(f"circuit,label\n{gen('ripple_adder', 4)},0\n"
                          f"{gen('array_multiplier', 3)},1\n"
                          f"{gen('comparator', 3)},1\n")
    assert run(["calibrate", "--model", str(tmp_path / "t/model.bin"),
                "--bank", str(tmp_path / "t/bank.csv"),
                "--validation", str(validation),
                "--out", str(tmp_path / "c/ood.json"),
                "--report", str(tmp_path / "c/report.csv")]) == 0
    delta_th = json.loads((tmp_path / "c/ood.json").read_text())["delta_th"]
    model = ["--model", str(tmp_path / "t/model.bin")]
    gate = ["--bank", str(tmp_path / "t/bank.csv")]
    assert run(["bench", "--test", train[0], gen("comparator", 2),
                "--methods", "pure_mcts,agent_guided,agent_ood", *model,
                *gate, "--delta-th", repr(delta_th), "--seeds", "2",
                "--budget", "20", "--k", "12",
                "--out-dir", str(tmp_path / "b")]) == 0
    for alpha in ("1", "auto"):
        assert run(["search", "--aig", gen("ripple_adder", 4), "--alpha", alpha,
                    *model, *gate, "--ood-config", str(tmp_path / "c/ood.json"),
                    "--budget", "20", "--k", "12", "--seed", "2",
                    "--out-dir", str(tmp_path / f"s{alpha}")]) == 0
    return {
        path.relative_to(tmp_path).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for out_dir in ("t", "c", "b", "s1", "sauto")
        for path in (tmp_path / out_dir).rglob("*")
        if path.is_file() and not path.name.endswith("manifest.json")}


# sha256 of the learned pipeline's outputs with the sparse adjacency
# product done by scipy; the numpy product must give the same bytes.
_LEARNED_DIGESTS = {
    "b/report.csv":
        "07b4cfb6a48ac0b9c9b1331ae28897fc04619c46680c6bced0fbb7429ed9229a",
    "b/report.json":
        "15cb1d5a1e67def289383efb78f2bdbaa51c597ef75bfb17435444fe6abbf970",
    "b/traces/agent_guided/comparator_2/seed0.csv":
        "dfd383b244816ef5a97a7e33342727c8479c49e2a1be223f59273d79409355e7",
    "b/traces/agent_guided/comparator_2/seed1.csv":
        "911b5d8c9dc4d7222e610b8595505cdac6c342e1964ead97f877f76f47a78b38",
    "b/traces/agent_guided/ripple_adder_3/seed0.csv":
        "d5c49ec4f109aef472b6f2f1b7016406d20bab444c69691e7f486207f739d6d7",
    "b/traces/agent_guided/ripple_adder_3/seed1.csv":
        "e8e72f4c1878f0ec3e16c1cc36cc0e0d3f601db3eb4dc0c16009662af195b07e",
    "b/traces/agent_ood_T0/comparator_2/seed0.csv":
        "c2fb4de2fc400c72d202022a266fe6641e31aee1c9674a0199adaa425f030b50",
    "b/traces/agent_ood_T0/comparator_2/seed1.csv":
        "d0be8f4eb2d2e6baebde53c210d3d40ca7fdc4a1f24b9ef5cae96d3f550d5382",
    "b/traces/agent_ood_T0/ripple_adder_3/seed0.csv":
        "d5c49ec4f109aef472b6f2f1b7016406d20bab444c69691e7f486207f739d6d7",
    "b/traces/agent_ood_T0/ripple_adder_3/seed1.csv":
        "e8e72f4c1878f0ec3e16c1cc36cc0e0d3f601db3eb4dc0c16009662af195b07e",
    "b/traces/pure_mcts/comparator_2/seed0.csv":
        "c2fb4de2fc400c72d202022a266fe6641e31aee1c9674a0199adaa425f030b50",
    "b/traces/pure_mcts/comparator_2/seed1.csv":
        "d0be8f4eb2d2e6baebde53c210d3d40ca7fdc4a1f24b9ef5cae96d3f550d5382",
    "b/traces/pure_mcts/ripple_adder_3/seed0.csv":
        "c5a0344fbe316a887e1d69c0d098703a75f7f670a7d88e4fe1a3a3b6186d2e1f",
    "b/traces/pure_mcts/ripple_adder_3/seed1.csv":
        "c171145d465728b26dd8fff7db4d249e925e03ec2ba5d46db54852feb53c8963",
    "c/ood.json":
        "1a071435a7587a69bd0ba590e1dacc1e315899e735a2139e97e9fcc9305bdadd",
    "c/report.csv":
        "db59fa1ee146ca334dc30b1df18f7a5652bb16533d84967b1f8345496b2ce839",
    "s1/result.json":
        "484e5fd1beafe233d38e862348787e47293dfff15f533203563b5b9c6e426f51",
    "s1/trace.csv":
        "3dc69cef31b1519a54995a6df247096905c5220955de59a824c02e5e9ff3b35e",
    "sauto/result.json":
        "484e5fd1beafe233d38e862348787e47293dfff15f533203563b5b9c6e426f51",
    "sauto/trace.csv":
        "3dc69cef31b1519a54995a6df247096905c5220955de59a824c02e5e9ff3b35e",
    "t/bank.csv":
        "f371cbf45f94c42d5e74f65b3b564dbe6c9d0b8e7a12ed03d083acb287b19074",
    "t/model.bin":
        "1bae9fb5b627880f0f70d60d5e96f6cdf7e63f8cfb3f19b0a7902d032f959f64",
    "t/model.loss.csv":
        "60d95f95df0cbad43aa1f83cb363eb35b97d3c53dafba53295a4bc070da97cb5",
}


def test_learned_pipeline_matches_parent_digest(tmp_path):
    assert _learned_pipeline(tmp_path) == _LEARNED_DIGESTS
