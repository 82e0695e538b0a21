"""Command line front end: size, encode, query, experiment, calibrate.

Exit codes: 0 success, 2 configuration error (bad arguments, unknown task,
malformed JSON), 3 I/O error.

:func:`main` builds its argparse parser on its first call and reuses it for
every later call in the process, because building one takes more than ten
times as long as a parse. Each call parses into a fresh namespace, so no
appended list or default carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import bloom, cbloom, harness, mapb, mapi, serialize, sizing
from .codebook import Codebook
from .setalg import SymbolSet


class ConfigError(Exception):
    pass


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    raise ConfigError(f"--param value must be a number, got {text!r}")


def _params_dict(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--param expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        params[name] = _parse_value(value)
    return params


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_output(data, out: str | None) -> None:
    if out is None or out == "-":
        (sys.stdout.buffer if isinstance(data, bytes) else sys.stdout).write(data)
    elif isinstance(data, bytes):
        Path(out).write_bytes(data)
    else:
        Path(out).write_text(data, encoding="utf-8")


def _load_codebook(path: str) -> Codebook:
    try:
        return Codebook.from_json(_read_text(path))
    except (json.JSONDecodeError, TypeError, ValueError) as bad:
        raise ConfigError(f"bad codebook file {path}: {bad}") from bad


def _cmd_size(args) -> int:
    params = _params_dict(args.param)
    result = sizing.size(args.arch, args.task, **params)
    _write_output(result.to_json() + "\n", args.out)
    return 0


def _cmd_encode(args) -> int:
    if args.seed is not None and args.arch != "mapb":  # only MAP-B bundles draw tie coins
        raise ConfigError(f"--seed sets MAP-B tie coins; {args.arch!r} bundles have none")
    cb = _load_codebook(args.codebook)
    try:
        symbols = SymbolSet.from_json_obj(json.loads(_read_text(args.set)))
    except (json.JSONDecodeError, KeyError, ValueError) as bad:
        raise ConfigError(f"bad symbol set file {args.set}: {bad}") from bad
    ties = {"tie_seed": args.seed} if args.arch == "mapb" else {}
    bundle = serialize.ARCHS[args.arch].encode(cb, symbols, **ties)
    _write_output(serialize.bundle_to_bytes(bundle), args.out)
    return 0


def _cmd_query(args) -> int:
    cb = _load_codebook(args.codebook)
    blobs = [Path(p).read_bytes() for p in args.bundle]
    bundles = [serialize.bundle_from_bytes(blob, cb) for blob in blobs]
    if args.op == "membership":
        if len(bundles) != 1:
            raise ConfigError("membership queries take exactly one bundle")
        if args.symbol is None:
            raise ConfigError("membership queries need --symbol")
        if serialize.arch_of(blobs[0]) != "mapb":
            raise ConfigError("membership queries run on MAP-B bundles")
        result = mapb.membership_test(bundles[0], args.symbol,
                                      0.05 if args.delta is None else args.delta)
        report = {
            "op": "membership",
            "symbol": args.symbol,
            "contained": result.contained,
            "score": result.score,
            "threshold": result.threshold,
        }
    else:
        if args.symbol is not None or args.delta is not None:
            raise ConfigError("intersection queries read no --symbol or --delta")
        if len(bundles) != 2:
            raise ConfigError("intersection queries take exactly two bundles")
        arch = serialize.arch_of(blobs[0])
        if arch != serialize.arch_of(blobs[1]):
            raise ConfigError("intersection bundles must share an architecture")
        if arch == "mapi":
            value = mapi.intersection_estimate(bundles[0], bundles[1])
            report = {"op": "intersection", "arch": arch, "estimate": value,
                      "dot": mapi.dot_estimate(bundles[0], bundles[1])}
        elif arch == "bloom":
            value = bloom.intersection_estimate(bundles[0], bundles[1])
            report = {"op": "intersection", "arch": arch, "estimate": value,
                      "saturated": bloom.saturated(value)}
        elif arch == "cbloom":
            value = cbloom.generalized_intersection_estimate(bundles[0], bundles[1])
            report = {"op": "intersection", "arch": arch, "estimate": value}
        else:
            raise ConfigError(f"intersection is not defined for {arch!r} bundles")
    _write_output(json.dumps(report, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_experiment(args) -> int:
    try:
        config = harness.ExperimentConfig.from_json(_read_text(args.config))
    except (json.JSONDecodeError, ValueError) as bad:
        raise ConfigError(f"bad experiment config: {bad}") from bad
    if args.seed is not None:
        config = harness.ExperimentConfig(
            config.arch, config.task, config.grid, config.trials, args.seed, config.out
        )
    out = args.out or config.out
    csv_text, sidecar = harness.run(config, threads=args.threads)
    _write_output(csv_text, out)
    if out and out != "-":
        Path(out + ".meta.json").write_text(
            json.dumps(sidecar, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    return 0


def _cmd_calibrate(args) -> int:
    params = _params_dict(args.param)
    result = sizing.calibrate(
        args.arch, args.task, params, target=args.target, trials=args.trials,
        seed=args.seed or 0,
    )
    _write_output(result.to_json() + "\n", args.out)
    return 0


def _add_common(parser: argparse.ArgumentParser, seed: bool = False,
                threads: bool = False) -> None:
    """Add --out, plus --seed and --threads where the subcommand reads them."""
    if seed:
        parser.add_argument("--seed", type=int, default=None, help="64-bit master seed")
    if threads:
        parser.add_argument("--threads", type=int, default=1,
                            help="accepted for compatibility (must be >= 1); cells run "
                            "once each, in order, whatever the value")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsakit",
        description="Vector-symbolic architectures with capacity sizing and "
        "a Monte Carlo validation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_size = sub.add_parser("size", help="print a SizingResult as JSON")
    p_size.add_argument("--arch", required=True)
    p_size.add_argument("--task", required=True)
    p_size.add_argument("--param", action="append", metavar="NAME=VALUE")
    _add_common(p_size)
    p_size.set_defaults(fn=_cmd_size)

    p_enc = sub.add_parser("encode", help="encode a SymbolSet JSON into a bundle binary")
    p_enc.add_argument("--arch", required=True, choices=sorted(serialize.ARCHS))
    p_enc.add_argument("--codebook", required=True, help="codebook JSON file")
    p_enc.add_argument("--set", required=True, help="SymbolSet JSON file")
    _add_common(p_enc, seed=True)
    p_enc.set_defaults(fn=_cmd_encode)

    p_query = sub.add_parser("query", help="membership/intersection on bundle files")
    p_query.add_argument("op", choices=("membership", "intersection"))
    p_query.add_argument("--bundle", action="append", required=True)
    p_query.add_argument("--codebook", required=True)
    p_query.add_argument("--symbol", type=int, default=None)
    p_query.add_argument("--delta", type=float, default=None,
                         help="membership failure rate (default 0.05)")
    _add_common(p_query)
    p_query.set_defaults(fn=_cmd_query)

    p_exp = sub.add_parser("experiment", help="run a config JSON, emit aggregated CSV")
    p_exp.add_argument("--config", required=True)
    _add_common(p_exp, seed=True, threads=True)
    p_exp.set_defaults(fn=_cmd_experiment)

    p_cal = sub.add_parser("calibrate", help="find the empirically minimal dimension")
    p_cal.add_argument("--arch", required=True)
    p_cal.add_argument("--task", required=True)
    p_cal.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_cal.add_argument("--target", type=float, required=True, help="target failure rate")
    p_cal.add_argument("--trials", type=int, default=200)
    _add_common(p_cal, seed=True)
    p_cal.set_defaults(fn=_cmd_calibrate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use rather than at import."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exit_:
        return 2 if exit_.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ConfigError, ValueError, IndexError, KeyError, RuntimeError) as bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    except OSError as bad:
        print(f"i/o error: {bad}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
