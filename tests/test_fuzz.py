"""Seeded mutations of the files the CLI reads besides the CSVs: AIGER
circuits in both encodings (read by ``search``), model files (``search
--alpha 1``) and OOD gate files (``search --alpha auto``). Every case runs
through ``cli.main`` and must exit 0, or exit 2 with one ``error:`` line
that names the mutated file; a traceback fails the test. A circuit whose
header declares more than 2^16 variables, and a model whose config asks for
more than 2^16 of anything, run in a child process with a capped address
space instead."""

import hashlib
import random
import struct

from test_cli import _edit_model_header, _gate_inputs, _run_memory_capped

from aigopt.aig import parse_aiger
from aigopt.cli import main

_LARGE = 1 << 16
_SEARCH = ["--budget", "4", "--k", "2"]


def _binary_aiger(aig) -> bytes:
    """``aig`` in the binary AIGER encoding."""
    n_in, n_and = aig.n_inputs, len(aig.ands)
    data = bytearray(
        f"aig {n_in + n_and} {n_in} 0 {aig.n_outputs} {n_and}\n".encode())
    data += b"".join(b"%d\n" % o for o in aig.outputs)
    for lhs, (f0, f1) in enumerate(aig.ands, n_in + 1):
        rhs0, rhs1 = max(f0, f1), min(f0, f1)
        for delta in (2 * lhs - rhs0, rhs0 - rhs1):
            while delta >= 0x80:
                data.append(delta & 0x7F | 0x80)
                delta >>= 7
            data.append(delta)
    return bytes(data)


def _edit_bytes(rng, data: bytes) -> bytes:
    """One byte replaced, inserted or deleted, or a truncation."""
    pos = rng.randrange(len(data) + 1)
    pool = b"0123456789 -\n\xff" + bytes([rng.randrange(256)])
    byte = bytes([rng.choice(pool)])
    kind = rng.choice(["replace", "replace", "insert", "delete", "truncate"])
    if kind == "replace":
        return data[:pos] + byte + data[pos + 1:]
    if kind == "insert":
        return data[:pos] + byte + data[pos:]
    if kind == "delete":
        return data[:pos] + data[pos + 1:]
    return data[:pos]


_HEADER_VALUES = [0, 1, 2, 3, 5, 8, 40, _LARGE + 1, 1 << 20, (1 << 24) + 1,
                  10**9]


def _mutate_aiger(rng, data: bytes) -> bytes:
    """A byte edit, a header count set to one of ``_HEADER_VALUES``, or one
    line copied over another: a duplicate, a dangling literal, a cycle."""
    kind = rng.choice(["bytes", "bytes", "bytes", "header", "line"])
    lines = data.split(b"\n")
    tokens = lines[0].split()
    if kind == "header" and len(tokens) > 1:
        value = rng.choice(_HEADER_VALUES)
        tokens[rng.randrange(1, len(tokens))] = b"%d" % value
        lines[0] = b" ".join(tokens)
    elif kind == "line" and len(lines) > 2:
        lines[rng.randrange(1, len(lines) - 1)] = lines[
            rng.randrange(1, len(lines) - 1)]
    else:
        return _edit_bytes(rng, data)
    return b"\n".join(lines)


def _declares_many(data: bytes) -> bool:
    header = data.partition(b"\n")[0].split()
    return any(t.isdigit() and int(t) > _LARGE for t in header[1:])


def _check(code: int, err: str, path, allowed: str | None = None) -> None:
    """Exit 0, or exit 2 with one error line naming ``path`` (or, when
    given, holding ``allowed``)."""
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(path) in err or (allowed and allowed in err), err


def test_fuzzed_aiger_exits_cleanly(tmp_path, capsys):
    circuit, _, _ = _gate_inputs(tmp_path)
    seeds = {tmp_path / "a.aag": circuit.read_bytes(),
             tmp_path / "a.aig": _binary_aiger(parse_aiger(
                 circuit.read_bytes()))}
    assert parse_aiger(seeds[tmp_path / "a.aig"]).ands \
        == parse_aiger(seeds[tmp_path / "a.aag"]).ands
    codes, capped = [], 0
    for seed in range(80):
        rng = random.Random(seed)
        path = rng.choice(sorted(seeds))
        data = _mutate_aiger(rng, seeds[path])
        path.write_bytes(data)
        argv = ["search", "--aig", str(path), "--alpha", "0", *_SEARCH,
                "--out-dir", str(tmp_path / "r")]
        if _declares_many(data):
            capped += 1
            result = _run_memory_capped(argv)
            code, err = result.returncode, result.stderr
        else:
            capsys.readouterr()
            code, err = main(argv), capsys.readouterr().err
        _check(code, err, path)
        codes.append(code)
    assert 0 in codes and 2 in codes and capped > 0


_CONFIG_VALUES = [0, -1, 1, 2, 3, 1.5, "x", None, True, [], _LARGE + 1,
                  10**9]
_TENSOR_VALUES = [float("nan"), float("inf"), -float("inf"), 0.0, -0.0,
                  1e300, -1e300, 1e-300, 5e-324, 1e154]


def _mutate_model(rng, model) -> bool:
    """One seeded edit of the header or a tensor value of ``model``, with a
    valid checksum; returns whether the config asks for a large network."""
    kind = rng.choice(["config", "config", "listing", "drop", "tensor",
                       "tensor"])
    large = False
    if kind == "config":
        value = rng.choice(_CONFIG_VALUES)
        large = type(value) is int and value > _LARGE

        def edit(header):
            header["config"][rng.choice(sorted(header["config"]))] = value
    elif kind == "listing":  # one dimension of one listed shape
        def edit(header):
            name_shape = rng.choice(header[rng.choice(["params", "buffers"])])
            shape = name_shape[1]
            shape[rng.randrange(len(shape))] = rng.choice([0, 1, 2, 7, 9])
    elif kind == "drop":
        def edit(header):
            del header[rng.choice(sorted(header))]
    if kind != "tensor":
        _edit_model_header(model, edit)
        return large
    body = bytearray(model.read_bytes()[:-32])
    header_len, = struct.unpack_from("<I", body, 12)
    start = 16 + header_len
    offset = start + 8 * rng.randrange((len(body) - start) // 8)
    struct.pack_into("<d", body, offset, rng.choice(_TENSOR_VALUES))
    model.write_bytes(bytes(body) + hashlib.sha256(body).digest())
    return False


def test_fuzzed_model_exits_cleanly(tmp_path, capsys):
    circuit, model, _ = _gate_inputs(tmp_path)
    clean = model.read_bytes()
    codes, capped = [], 0
    for seed in range(40):
        rng = random.Random(seed)
        model.write_bytes(clean)
        large = _mutate_model(rng, model)
        argv = ["search", "--aig", str(circuit), "--alpha", "1",
                "--model", str(model), *_SEARCH,
                "--out-dir", str(tmp_path / "r")]
        if large:
            capped += 1
            result = _run_memory_capped(argv)
            code, err = result.returncode, result.stderr
        else:
            capsys.readouterr()
            code, err = main(argv), capsys.readouterr().err
        # an overflow in the forward pass names what overflowed
        _check(code, err, model, allowed="the model's")
        codes.append(code)
    assert 0 in codes and 2 in codes and capped > 0


_GATE_VALUES = ["NaN", "Infinity", "-Infinity", "-1", "0", "0.25", "2",
                "1e400", "1" + "0" * 400, '"x"', "true", "null", "[]", "{}"]


def test_fuzzed_gate_file_exits_cleanly(tmp_path, capsys):
    circuit, model, bank = _gate_inputs(tmp_path)
    gate = tmp_path / "ood.json"
    codes = []
    for seed in range(40):
        rng = random.Random(seed)
        fields = {"delta_th": "0.5", "temperature": "0.0"}
        kind = rng.choice(["value", "value", "drop", "shape", "bytes"])
        if kind == "value":
            fields[rng.choice(sorted(fields))] = rng.choice(_GATE_VALUES)
        elif kind == "drop":
            del fields[rng.choice(sorted(fields))]
        text = "{%s}\n" % ", ".join(f'"{k}": {v}' for k, v in fields.items())
        if kind == "shape":  # JSON that is not an object
            text = rng.choice(["[0.5]\n", "0.5\n", '"x"\n', "null\n"])
        data = text.encode()
        gate.write_bytes(_edit_bytes(rng, data) if kind == "bytes" else data)
        capsys.readouterr()
        code = main(["search", "--aig", str(circuit), "--alpha", "auto",
                     "--model", str(model), "--bank", str(bank),
                     "--ood-config", str(gate), *_SEARCH,
                     "--out-dir", str(tmp_path / "r")])
        _check(code, capsys.readouterr().err, gate)
        codes.append(code)
    assert 0 in codes and 2 in codes
