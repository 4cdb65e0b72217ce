import csv
import json

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


def test_model_with_unknown_config_key_exits_two(tmp_path, capsys):
    import hashlib
    import struct

    circuit = tmp_path / "a.aag"
    run(["gen", "--family", "ripple_adder", "--size", "3", "--out", str(circuit)])
    model, _ = _tiny_model_and_bank(tmp_path, circuit)
    # Re-emit the file with one unknown key in the header config and a
    # valid length and checksum, so only the config itself is wrong.
    data = model.read_bytes()[:-32]
    header_len, = struct.unpack_from("<I", data, 12)
    header = json.loads(data[16:16 + header_len])
    header["config"]["bogus"] = 1
    header_bytes = json.dumps(header, sort_keys=True).encode()
    body = (data[:12] + struct.pack("<I", len(header_bytes)) + header_bytes
            + data[16 + header_len:])
    model.write_bytes(body + hashlib.sha256(body).digest())
    capsys.readouterr()
    assert run(["search", "--aig", str(circuit), "--alpha", "1",
                "--model", str(model), "--budget", "4", "--k", "2",
                "--out-dir", str(tmp_path / "r")]) == 2
    _assert_one_line_error(capsys)


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
