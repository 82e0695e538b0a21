import json

import pytest

from vsakit import sizing
from vsakit.cli import main
from vsakit.codebook import Codebook
from vsakit.setalg import SymbolSet


def write_codebook(tmp_path, cb, name="cb.json"):
    path = tmp_path / name
    path.write_text(cb.to_json())
    return str(path)


def write_set(tmp_path, s, name="set.json"):
    path = tmp_path / name
    path.write_text(json.dumps(s.to_json_obj()))
    return str(path)


def test_size_prints_json(tmp_path, capsys):
    rc = main(["size", "--arch", "mapi", "--task", "pairs",
               "--param", "N=16", "--param", "M=100", "--param", "delta=0.01"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["m"] == sizing.size("mapi", "pairs", N=16, M=100, delta=0.01).m


def test_size_unknown_task_exits_2(capsys):
    assert main(["size", "--arch", "mapi", "--task", "bogus"]) == 2


def test_size_bad_param_syntax_exits_2(capsys):
    assert main(["size", "--arch", "mapi", "--task", "norm", "--param", "eps"]) == 2


def test_encode_and_membership_query(tmp_path, capsys):
    cb = Codebook("dense-sign", 512, 32, seed=5)
    cb_path = write_codebook(tmp_path, cb)
    set_path = write_set(tmp_path, SymbolSet.from_ids(32, [3, 9]))
    bundle_path = str(tmp_path / "b.vsab")
    assert main(["encode", "--arch", "mapb", "--codebook", cb_path,
                 "--set", set_path, "--out", bundle_path, "--seed", "7"]) == 0
    rc = main(["query", "membership", "--bundle", bundle_path, "--codebook", cb_path,
               "--symbol", "3", "--delta", "0.05"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["contained"] is True
    rc = main(["query", "membership", "--bundle", bundle_path, "--codebook", cb_path,
               "--symbol", "20", "--delta", "0.05"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["contained"] is False


def test_encode_and_bloom_intersection_query(tmp_path, capsys):
    cb = Codebook("sparse-binary-trials", 4096, 64, k=8, seed=2)
    cb_path = write_codebook(tmp_path, cb)
    a_path = str(tmp_path / "a.vsab")
    b_path = str(tmp_path / "b.vsab")
    main(["encode", "--arch", "bloom", "--codebook", cb_path,
          "--set", write_set(tmp_path, SymbolSet.from_ids(64, [0, 1, 2]), "a.json"),
          "--out", a_path])
    main(["encode", "--arch", "bloom", "--codebook", cb_path,
          "--set", write_set(tmp_path, SymbolSet.from_ids(64, [1, 2, 3]), "b.json"),
          "--out", b_path])
    rc = main(["query", "intersection", "--bundle", a_path, "--bundle", b_path,
               "--codebook", cb_path])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["estimate"] - 2.0) < 1.0


def test_query_wrong_codebook_exits_2(tmp_path, capsys):
    cb = Codebook("dense-sign", 128, 16, seed=5)
    other = Codebook("dense-sign", 128, 16, seed=6)
    cb_path = write_codebook(tmp_path, cb)
    other_path = write_codebook(tmp_path, other, "other.json")
    set_path = write_set(tmp_path, SymbolSet.from_ids(16, [1]))
    bundle_path = str(tmp_path / "b.vsab")
    main(["encode", "--arch", "mapb", "--codebook", cb_path, "--set", set_path,
          "--out", bundle_path])
    assert main(["query", "membership", "--bundle", bundle_path,
                 "--codebook", other_path, "--symbol", "1"]) == 2


def test_experiment_deterministic_and_sidecar(tmp_path):
    config = {
        "arch": "mapi", "task": "norm",
        "grid": {"m": [64], "n": [2], "d": [16], "eps": [0.5]},
        "trials": 10, "seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out2),
                 "--threads", "8"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    sidecar = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert sidecar["cells"] == [{"d": 16, "eps": 0.5, "m": 64, "n": 2}]


def test_experiment_respects_config_seed(tmp_path):
    config = {
        "arch": "mapi", "task": "norm",
        "grid": {"m": [64], "n": [2], "d": [16], "eps": [0.5]},
        "trials": 10, "seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[-3] == "3"  # seed column reflects the config, not a CLI default
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out),
                 "--seed", "9"]) == 0
    assert out.read_text().splitlines()[1].split(",")[-3] == "9"


def test_experiment_bad_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("{not json")
    assert main(["experiment", "--config", str(cfg_path)]) == 2


def test_experiment_missing_file_exits_3(tmp_path, capsys):
    assert main(["experiment", "--config", str(tmp_path / "absent.json")]) == 3


def test_out_path_io_error_exits_3(tmp_path, capsys):
    rc = main(["size", "--arch", "mapi", "--task", "norm",
               "--param", "eps=0.5", "--param", "delta=0.05",
               "--out", str(tmp_path / "no-such-dir" / "x.json")])
    assert rc == 3


def test_calibrate_cli(tmp_path, capsys):
    rc = main(["calibrate", "--arch", "mapi", "--task", "norm",
               "--param", "eps=10.0", "--param", "delta=0.05",
               "--param", "n=4", "--param", "d=64",
               "--target", "0.05", "--trials", "100", "--seed", "1"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["m_star"] == 1
    assert report["ratio"] == report["m_theory"]


def test_seed_and_threads_only_on_subcommands_that_read_them(tmp_path, capsys):
    size_argv = ["size", "--arch", "mapi", "--task", "norm",
                 "--param", "eps=0.5", "--param", "delta=0.05"]
    assert main(size_argv) == 0
    assert main(size_argv + ["--threads", "2"]) == 2
    cb = Codebook("dense-sign", 64, 16, seed=5)
    cb_path = write_codebook(tmp_path, cb)
    bundle_path = str(tmp_path / "b.vsab")
    assert main(["encode", "--arch", "mapb", "--codebook", cb_path, "--out", bundle_path,
                 "--set", write_set(tmp_path, SymbolSet.from_ids(16, [3])), "--seed", "7"]) == 0
    query_argv = ["query", "membership", "--bundle", bundle_path, "--codebook", cb_path,
                  "--symbol", "3"]
    assert main(query_argv) == 0
    assert main(query_argv + ["--seed", "1"]) == 2


@pytest.mark.parametrize("text", [
    '[{"arch": "mapi"}]',
    '{"arch": "mapi", "task": "norm", "grid": [1], "trials": 1}',
    '{"arch": "mapi", "task": "norm", "grid": {"m": 5}, "trials": 1}',
    '{"arch": "mapi", "task": "norm", "trials": 1,'
    ' "grid": {"m": "64", "n": [1], "d": [8], "eps": [0.5]}}',
], ids=["array", "grid-list", "grid-scalar", "grid-string"])
def test_malformed_experiment_config_is_a_config_error(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["experiment", "--config", str(cfg_path)]) == 2
    assert "bad experiment config" in capsys.readouterr().err
