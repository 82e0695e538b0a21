import json
import re

import pytest

from vsakit import cbloom, cli, sizing
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
    assert main(["size", "--arch", "mapi", "--task", "norm",
                 "--param", "eps=abc", "--param", "delta=0.05"]) == 2
    assert "must be a number, got 'abc'" in capsys.readouterr().err
    norm = ["--arch", "mapi", "--task", "norm", "--param", "eps=0.5", "--param", "delta=0.05"]
    assert main(["size", *norm, "--param", "arch=1"]) == 2
    assert main(["calibrate", *norm, "--param", "task=1", "--target", "0.05"]) == 2
    assert capsys.readouterr().err.count("cannot be named 'arch' or 'task'") == 2


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
    for arch, arch_cb in (("mapi", cb),  # only MAP-B bundles draw tie coins
                          ("bloom", Codebook("sparse-binary-trials", 64, 16, k=3, seed=5)),
                          ("cbloom", Codebook("sparse-binary-exact", 64, 16, k=3, seed=5))):
        encode_argv = ["encode", "--arch", arch, "--codebook",
                       write_codebook(tmp_path, arch_cb, f"{arch}.json"),
                       "--set", write_set(tmp_path, SymbolSet.from_ids(16, [3])),
                       "--out", str(tmp_path / f"{arch}.vsab")]
        assert main(encode_argv) == 0
        assert main(encode_argv + ["--seed", "7"]) == 2
        assert f"--seed sets MAP-B tie coins; '{arch}' bundles have none" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '[{"arch": "mapi"}]',
    '{"arch": "mapi", "task": "norm", "grid": [1], "trials": 1}',
    '{"arch": "mapi", "task": "norm", "grid": {"m": 5}, "trials": 1}',
    '{"arch": "mapi", "task": "norm", "trials": 1,'
    ' "grid": {"m": "64", "n": [1], "d": [8], "eps": [0.5]}}',
    '{"arch": "mapi", "task": "norm", "trials": null,'
    ' "grid": {"m": [64], "n": [1], "d": [8], "eps": [0.5]}}',
    '{"arch": "mapi", "task": "norm", "trials": 1, "seed": [3],'
    ' "grid": {"m": [64], "n": [1], "d": [8], "eps": [0.5]}}',
    '{"arch": ["mapi"], "task": "norm", "trials": 1,'
    ' "grid": {"m": [64], "n": [1], "d": [8], "eps": [0.5]}}',
    '{"arch": "mapi", "task": "norm", "trials": 1, "out": 5,'
    ' "grid": {"m": [64], "n": [1], "d": [8], "eps": [0.5]}}',
], ids=["array", "grid-list", "grid-scalar", "grid-string", "trials-null", "seed-list",
        "arch-list", "out-number"])
def test_malformed_experiment_config_is_a_config_error(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["experiment", "--config", str(cfg_path)]) == 2
    assert "bad experiment config" in capsys.readouterr().err


def test_uncastable_grid_value_is_an_error_row(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"arch": "mapi", "task": "norm", "trials": 1,'
                        ' "grid": {"m": [[64]], "n": [1], "d": [8], "eps": [0.5]}}')
    out = tmp_path / "out.csv"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "parameter 'm' must be a number" in out.read_text().splitlines()[1]


def test_zero_cbloom_peak_is_an_error_row(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"arch": "cbloom", "task": "intersection", "trials": 1,'
                        ' "grid": {"m": [64], "k": [3], "d": [32], "n_v": [2], "n_w": [3],'
                        ' "K_b": [0], "eps": [0.5]}}')
    out = tmp_path / "out.csv"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].endswith(',"K_b must be >= 1, got 0"')


_CBLOOM_CB = {"kind": "sparse-binary-exact", "m": 64, "d": 8, "k": 3, "seed": 1,
              "scaled": False}
_DENSE_CB = {"kind": "dense-sign", "m": 64, "d": 8, "k": None, "seed": 1, "scaled": False}
_ONE = {"d": 8, "entries": [[1, 1]]}


@pytest.mark.parametrize("arch, codebook, symbols", [
    ("cbloom", {**_CBLOOM_CB, "m": 64.5}, _ONE),
    ("mapi", {**_DENSE_CB, "m": True}, _ONE),
    ("cbloom", {**_CBLOOM_CB, "k": 2.5}, _ONE),
    ("cbloom", {**_CBLOOM_CB, "seed": 1.5}, _ONE),
    ("mapi", 5, _ONE),
    ("cbloom", _CBLOOM_CB, {"d": 8, "entries": 5}),
    ("cbloom", _CBLOOM_CB, {"d": "8", "entries": [[1, 1]]}),
    ("cbloom", _CBLOOM_CB, [[1, 1]]),
    ("cbloom", _CBLOOM_CB, {"d": 8, "entries": [[1.5, 1]]}),
    ("cbloom", _CBLOOM_CB, {"d": 8, "entries": [[None, 1]]}),
    ("cbloom", _CBLOOM_CB, {"d": 8, "entries": [5]}),
    ("cbloom", _CBLOOM_CB, {"d": 8, "entries": [[[1], 1]]}),
    ("mapi", _DENSE_CB, {"d": 8, "entries": [[1, 2**63]]}),
    ("cbloom", _CBLOOM_CB, {"d": 8, "entries": [[1, 2**63]]}),
], ids=["m-fraction", "m-bool", "k-fraction", "seed-fraction", "codebook-number",
        "entries-number", "d-string", "set-array", "id-fraction", "id-null", "entry-number",
        "id-array", "mapi-weight-2**63", "cbloom-weight-2**63"])
def test_malformed_encode_input_exits_2(tmp_path, capsys, arch, codebook, symbols):
    (tmp_path / "cb.json").write_text(json.dumps(codebook))
    (tmp_path / "set.json").write_text(json.dumps(symbols))
    assert main(["encode", "--arch", arch, "--codebook", str(tmp_path / "cb.json"),
                 "--set", str(tmp_path / "set.json"), "--out", str(tmp_path / "b.vsab")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "b.vsab").exists()


def test_integral_float_codebook_fields_are_integers(tmp_path):
    (tmp_path / "set.json").write_text(json.dumps(_ONE))
    out = []
    for m in (64, 64.0):
        (tmp_path / "cb.json").write_text(json.dumps({**_CBLOOM_CB, "m": m, "seed": 1.0}))
        assert main(["encode", "--arch", "cbloom", "--codebook", str(tmp_path / "cb.json"),
                     "--set", str(tmp_path / "set.json"), "--out", str(tmp_path / "b.vsab")]) == 0
        out.append((tmp_path / "b.vsab").read_bytes())
    assert out[0] == out[1]  # same bundle, same codebook hash
    cb = Codebook.from_json(json.dumps({**_CBLOOM_CB, "m": 64.0}))
    assert type(cb.m) is int and cb.to_json() == Codebook(**_CBLOOM_CB).to_json()


def test_one_parser_serves_every_call_with_nothing_carried_over(tmp_path):
    """Back-to-back calls on the process's one parser give what each call gives
    alone (on a parser of its own): no appended --param or --bundle list and no
    --seed value survives into the next call."""
    cb_path = write_codebook(tmp_path, Codebook("dense-sign", 512, 32, seed=5))
    scaled_path = write_codebook(tmp_path, Codebook("dense-sign", 512, 32, seed=5, scaled=True),
                                 "scaled.json")
    bundles = []
    for ids in ([3, 9], [9, 20]):
        bundles.append(str(tmp_path / f"b{len(bundles)}.vsab"))
        assert main(["encode", "--arch", "mapi", "--codebook", scaled_path, "--out", bundles[-1],
                     "--set", write_set(tmp_path, SymbolSet.from_ids(32, ids))]) == 0
    mapb_bundle = str(tmp_path / "mapb.vsab")
    assert main(["encode", "--arch", "mapb", "--codebook", cb_path, "--out", mapb_bundle,
                 "--set", write_set(tmp_path, SymbolSet.from_ids(32, [3, 9])), "--seed", "7"]) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"arch": "mapi", "task": "norm", "trials": 10, "seed": 3,
                                    "grid": {"m": [64], "n": [2], "d": [16], "eps": [0.5]}}))
    calibrate = ["calibrate", "--arch", "mapi", "--task", "norm", "--target", "0.1",
                 "--trials", "100"]
    calls = [
        [*calibrate, "--param", "eps=0.5", "--param", "delta=0.05", "--param", "n=4",
         "--param", "d=16", "--seed", "2"],
        [*calibrate, "--param", "d=8", "--param", "n=2", "--param", "eps=0.7071",
         "--param", "delta=0.1"],
        [*calibrate, "--param", "eps=0.5", "--param", "delta=0.05", "--param", "n=4"],  # no d
        ["experiment", "--config", str(cfg_path), "--seed", "9"],
        ["experiment", "--config", str(cfg_path)],
        ["query", "intersection", "--bundle", bundles[0], "--bundle", bundles[1],
         "--codebook", scaled_path],
        ["query", "membership", "--bundle", mapb_bundle, "--codebook", cb_path,
         "--symbol", "3"],
        ["query", "membership", "--codebook", cb_path, "--symbol", "3"],  # no --bundle
    ]

    def run(i: int, argv: list[str], tag: str) -> tuple:
        out = tmp_path / f"{tag}{i}.out"
        code = main([*argv, "--out", str(out)])
        data = out.read_bytes() if out.exists() else None
        meta = tmp_path / f"{tag}{i}.out.meta.json"
        if meta.exists():  # the sidecar echoes the output path
            data += meta.read_bytes().replace(f"{tag}{i}".encode(), b"OUT")
        return code, data

    alone = []
    for i, argv in enumerate(calls):
        cli._parser.cache_clear()
        alone.append(run(i, argv, "alone"))
    cli._parser.cache_clear()
    together = [run(i, argv, "together") for i, argv in enumerate(calls)]
    assert cli._parser.cache_info().misses == 1
    assert together == alone
    assert [code for code, _ in alone] == [0, 0, 2, 0, 0, 0, 0, 2]
    assert alone[0][1] != alone[1][1] and alone[3][1] != alone[4][1]


#: Every sizing formula with a valid value of each input it requires.
_REQUIRED = {
    "mapi.norm": dict(eps=0.5, delta=0.05),
    "mapi.pairs": dict(N=8, M=8, delta=0.05),
    "mapi.sequence": dict(eps=0.5, delta=0.05, L=2),
    "mapi.sequence-symbols": dict(eps=0.5, delta=0.05, K=2),
    "mapi.binding2": dict(eps=0.5, delta=0.05, v_l1=4),
    "mapi.bindingK": dict(eps=0.5, delta=0.05, v_l1=4, k=3),
    "mapb.member": dict(n=4, d=64, delta=0.05),
    "mapb.sequence-member": dict(n=4, d=64, L=2, delta=0.05),
    "mapb.kv-member": dict(n=4, d=64, delta=0.05),
    "mapb.empty-intersection": dict(nx=4, ny=4, delta=0.05),
    "bloom.intersection": dict(eps=0.5, delta=0.05, n=5, n_v=10, n_w=10),
    "cbloom.intersection": dict(eps=0.5, delta=0.05, K_b=2, n_v=4, n_w=4),
    "hopfield.store": dict(n=8, delta=0.05),
    "hopfield.hpm-norm": dict(eps=0.5, delta=0.05, d=64),
    "hopfield.hpm-dot": dict(eps=0.5, delta=0.05, d=64),
}


def _sizing_argv(command: str, formula: str, params: dict) -> list[str]:
    arch, task = formula.split(".")
    argv = [command, "--arch", arch, "--task", task]
    for name, value in params.items():
        argv += ["--param", f"{name}={value}"]
    return argv + (["--target", "0.1", "--trials", "100"] if command == "calibrate" else [])


def test_required_inputs_cover_every_formula(capsys):
    assert set(_REQUIRED) == set(sizing.CONSTANTS)
    for formula, params in _REQUIRED.items():
        assert main(_sizing_argv("size", formula, params)) == 0
        assert json.loads(capsys.readouterr().out)["formula"] == formula


@pytest.mark.parametrize("command", ["size", "calibrate"])
@pytest.mark.parametrize("formula, missing", [
    (formula, name) for formula, params in _REQUIRED.items() for name in params])
def test_missing_sizing_input_exits_2_naming_it(capsys, command, formula, missing):
    params = {name: value for name, value in _REQUIRED[formula].items() if name != missing}
    assert main(_sizing_argv(command, formula, params)) == 2
    assert f"missing required sizing parameter {missing!r}" in capsys.readouterr().err


_NON_FINITE = [
    ("mapb.member", dict(n="inf", d=256, delta=0.05), "sizing parameter 'n' must be finite, got inf"),
    ("mapb.member", dict(n="nan", d=256, delta=0.05), "sizing parameter 'n' must be finite, got nan"),
    ("mapb.member", dict(n=4, d="-inf", delta=0.05), "sizing parameter 'd' must be finite, got -inf"),
    ("cbloom.intersection", dict(eps=0.5, delta=0.05, K_b=1, n_v="inf", n_w=1),
     "sizing parameter 'n_v' must be finite, got inf"),
    ("hopfield.store", dict(n="inf", delta=0.05), "sizing parameter 'n' must be finite, got inf"),
    ("hopfield.store", dict(n=8, delta=0.05, C="inf"), "sizing parameter 'C' must be finite, got inf"),
    ("mapi.pairs", dict(N=8, M=8, delta=0.05, eps="nan"),
     "sizing parameter 'eps' must be finite, got nan"),  # echoed, though pairs reads no eps
    ("mapi.norm", dict(eps="inf", delta=0.05), "eps must be positive and finite, got inf"),
    ("mapi.norm", dict(eps="nan", delta=0.05), "eps must be positive and finite, got nan"),
    ("mapi.norm", dict(eps=0.5, delta="nan"), "delta must be in (0, 1), got nan"),
    ("mapi.pairs", dict(N=1e308, M=1e308, delta=0.05),
     "sizing formula 'mapi.pairs' gives no finite dimension, got m = inf"),
    ("mapi.norm", dict(eps=1e-200, delta=0.05),
     "sizing formula 'mapi.norm' gives no finite dimension, got m = inf"),
    ("hopfield.store", dict(n=1e307, delta=0.05),
     "sizing formula 'hopfield.store' gives no finite dimension, got m = inf"),
    ("bloom.intersection", dict(eps=1e-310, delta=0.05, n=1, n_v=1, n_w=1),
     "sizing formula 'bloom.intersection' gives no finite dimension, got m = inf"),
    ("mapb.member", dict(n=10**400, d=256, delta=0.05),
     "sizing formula 'mapb.member' gives no finite dimension, got m = inf"),
]


@pytest.mark.parametrize("formula, params, message", _NON_FINITE,
                         ids=[f"{formula}-{i}" for i, (formula, _, _) in enumerate(_NON_FINITE)])
def test_non_finite_sizing_exits_2(capsys, formula, params, message):
    assert main(_sizing_argv("size", formula, params)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["size", "calibrate"])
@pytest.mark.parametrize("formula, params, name", [
    ("mapi.norm", dict(eps=0.5, delta=0.05, n=16, d=256, C=10**400), "C"),
    ("cbloom.intersection", dict(eps=0.5, delta=0.05, K_b=1, n_v=1, n_w=1, kc=-10**400), "kc"),
])
def test_huge_constant_override_exits_2(capsys, command, formula, params, name):
    assert main(_sizing_argv(command, formula, params)) == 2
    message = f"sizing parameter {name!r} must be finite, got {params[name]}"
    assert message in capsys.readouterr().err


#: The least value of each count input; rates have their own ranges.
_LEAST = {
    "mapi.norm": {},
    "mapi.pairs": dict(N=1, M=1),
    "mapi.sequence": dict(L=1),
    "mapi.sequence-symbols": dict(K=1),
    "mapi.binding2": dict(v_l1=1),
    "mapi.bindingK": dict(k=2, v_l1=1),
    "mapb.member": dict(n=0, d=1),
    "mapb.sequence-member": dict(n=0, d=1, L=1),
    "mapb.kv-member": dict(n=0, d=1),
    "mapb.empty-intersection": dict(nx=0, ny=0),
    "bloom.intersection": dict(n=0, n_v=0, n_w=0),
    "cbloom.intersection": dict(K_b=1, n_v=0, n_w=0),
    "hopfield.store": dict(n=1),
    "hopfield.hpm-norm": dict(d=1),
    "hopfield.hpm-dot": dict(d=1),
}


def test_every_count_input_has_its_least_value():
    assert set(_REQUIRED) == set(_LEAST) == set(sizing.CONSTANTS)
    for formula, bound in sizing._BOUNDS.items():
        assert bound.least == _LEAST[formula]
        rates = {"eps", "delta"} & set(bound.inputs)
        assert set(bound.inputs) == set(_REQUIRED[formula]) == rates | set(_LEAST[formula])


@pytest.mark.parametrize("formula, name, least", [
    (formula, name, least) for formula, least_of in _LEAST.items()
    for name, least in least_of.items()])
def test_size_refuses_a_count_below_its_least_value(capsys, formula, name, least):
    arch, task = formula.split(".")
    assert sizing.size(arch, task, **{**_REQUIRED[formula], name: least}).m >= 1
    assert main(_sizing_argv("size", formula, {**_REQUIRED[formula], name: least})) == 0
    capsys.readouterr()
    for below in (least - 1, least - 0.5):
        params = {**_REQUIRED[formula], name: below}
        message = f"sizing parameter {name!r} must be at least {least}, got {below}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sizing.size(arch, task, **params)
        assert main(_sizing_argv("size", formula, params)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("formula, name", [
    (formula, name) for formula, constants in sizing.CONSTANTS.items() for name in constants])
def test_size_refuses_a_constant_that_is_not_positive(capsys, formula, name):
    arch, task = formula.split(".")
    for value in (0, -0.5, -8):
        params = {**_REQUIRED[formula], name: value}
        message = f"sizing parameter {name!r} must be positive, got {float(value)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sizing.size(arch, task, **params)
        assert main(_sizing_argv("size", formula, params)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.fixture
def query_files(tmp_path):
    """Codebook and bundle paths: MAP-I and MAP-B bundles under one dense-sign codebook,
    and two Counting Bloom bundles under a sparse-binary-exact one."""
    dense = Codebook("dense-sign", 256, 16, seed=5)
    exact = Codebook("sparse-binary-exact", 256, 16, k=4, seed=5)
    files = {"dense": write_codebook(tmp_path, dense), "exact": write_codebook(tmp_path, exact,
                                                                              "exact.json")}
    for name, arch, codebook, ids in (("mapi", "mapi", "dense", [1, 2]),
                                      ("mapb", "mapb", "dense", [1, 2]),
                                      ("cbloom-a", "cbloom", "exact", [1, 2, 5]),
                                      ("cbloom-b", "cbloom", "exact", [2, 5, 9])):
        files[name] = str(tmp_path / f"{name}.vsab")
        assert main(["encode", "--arch", arch, "--codebook", files[codebook], "--out",
                     files[name], "--set", write_set(tmp_path, SymbolSet.from_ids(16, ids),
                                                     f"{name}.json")]) == 0
    return files


@pytest.mark.parametrize("op, bundles, flags, message", [
    ("membership", ["mapb", "mapb"], ["--symbol", "1"],
     "membership queries take exactly one bundle"),
    ("membership", ["mapb"], [], "membership queries need --symbol"),
    ("membership", ["mapi"], ["--symbol", "1"], "membership queries run on MAP-B bundles"),
    ("intersection", ["mapi"], [], "intersection queries take exactly two bundles"),
    ("intersection", ["mapi", "mapb"], [], "intersection bundles must share an architecture"),
    ("intersection", ["mapb", "mapb"], [], "intersection is not defined for 'mapb' bundles"),
    ("intersection", ["mapi", "mapi"], ["--symbol", "1"],
     "intersection queries read no --symbol or --delta"),
    ("intersection", ["mapi", "mapi"], ["--delta", "0.05"],
     "intersection queries read no --symbol or --delta"),
], ids=["membership-two-bundles", "membership-no-symbol", "membership-mapi",
        "intersection-one-bundle", "intersection-mixed", "intersection-mapb",
        "intersection-symbol", "intersection-delta"])
def test_bad_query_exits_2_naming_the_fault(query_files, capsys, op, bundles, flags, message):
    argv = ["query", op, "--codebook", query_files["dense"], *flags]
    for name in bundles:
        argv += ["--bundle", query_files[name]]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_membership_query_reads_delta_0_05_when_not_given(query_files, capsys):
    argv = ["query", "membership", "--bundle", query_files["mapb"],
            "--codebook", query_files["dense"], "--symbol", "2"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(argv + ["--delta", "0.05"]) == 0
    assert capsys.readouterr().out == default
    assert main(argv + ["--delta", "0.3"]) == 0
    assert capsys.readouterr().out != default  # a looser rate lowers the threshold


def test_counting_bloom_intersection_query(query_files, capsys):
    assert main(["query", "intersection", "--bundle", query_files["cbloom-a"],
                 "--bundle", query_files["cbloom-b"], "--codebook", query_files["exact"]]) == 0
    report = json.loads(capsys.readouterr().out)
    cb = Codebook("sparse-binary-exact", 256, 16, k=4, seed=5)
    a, b = (cbloom.bundle_count(cb, SymbolSet.from_ids(16, ids)) for ids in ([1, 2, 5], [2, 5, 9]))
    assert report == {"op": "intersection", "arch": "cbloom",
                      "estimate": cbloom.generalized_intersection_estimate(a, b)}
    assert report["estimate"] >= 2  # one-sided: never below v wedgedot w


def test_experiment_refuses_zero_threads(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"arch": "mapi", "task": "norm", "trials": 2,
                                    "grid": {"m": [64], "n": [1], "d": [8], "eps": [0.5]}}))
    out = tmp_path / "out.csv"
    assert main(["experiment", "--config", str(cfg_path), "--threads", "0",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: threads must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("params, k", [
    (dict(eps=1.0, delta=0.5, n=1, n_v=1, n_w=1), 91),
    (dict(eps=1.0, delta=0.3, n=0, n_v=1, n_w=1), 124),
    (dict(eps=2.0, delta=0.5, n=1, n_v=2, n_w=2), 46),
], ids=["eps-1-delta-0.5", "eps-1-delta-0.3-n-0", "eps-2"])
def test_calibrate_never_probes_m_below_the_sized_k(capsys, params, k):
    """Once every rate passes, the search stops at k: no codebook holds k rows in fewer."""
    assert sizing.size("bloom", "intersection", **params).k == k
    argv = _sizing_argv("calibrate", "bloom.intersection", {**params, "d": 16})
    assert main([*argv, "--target", "0.2"]) == 0  # the last --target given counts
    result = json.loads(capsys.readouterr().out)
    assert result["m_star"] == k and min(map(int, result["rates"])) == k
