"""Experiment runner.

``bpve run config.json [--threads N] [--out DIR]`` executes one named
experiment from a JSON config and writes three artifacts to the output
directory: ``results.json`` (machine-readable results, stamped with the
config digest), ``series.csv`` (plot-ready rows, when the experiment
produces a series), and ``resolved_config.json`` (the config with every
default made explicit; re-running it reproduces the outputs bitwise).

``bpve list-presets`` prints the named environment presets.

Exit codes: 0 success, 2 config/schema error, 3 resource or digest-mismatch
error, 4 not-applicable (the requested quantity is undefined for the given
environment).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
from dataclasses import astuple, fields, is_dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import conditions, estimators, simulate
from .distributions import NotApplicableError, PhiFunction, check_keys
from .environment import (EnvironmentSpec, PRESET_CONFIGS,
                          ResourceWarningError, quench)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_RESOURCE = 3
EXIT_NOT_APPLICABLE = 4


class SchemaError(ValueError):
    pass


_JSON_TYPES = {int: "integer", float: "number", str: "string", list: "array",
               dict: "object"}


def _check_type(value, default, field: str):
    """``value`` must have the JSON type of ``default``: an integer (not a
    boolean) for an int, an integer or float for a float, and the same
    container for a list or an object.  Elements of a nonempty list default
    are checked against its first element."""
    want = type(default)
    ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
          if want is float else type(value) is want)
    if not ok:
        raise TypeError(f"{field}: expected {_JSON_TYPES[want]}, got "
                        f"{type(value).__name__} {value!r}")
    if want is list and default:
        for i, item in enumerate(value):
            _check_type(item, default[0], f"{field}[{i}]")


def _require(cfg, allowed: dict, context: str, parsers=None) -> dict:
    """Reject unknown keys; fill defaults; None default means required.
    A value given for a key with a default must have the default's JSON
    type, unless ``parsers`` names a parser for that key, which must accept
    it instead."""
    if not isinstance(cfg, dict):
        raise SchemaError(f"{context}: expected an object")
    parsers = parsers or {}
    try:
        check_keys(cfg, allowed, context,
                   optional={k for k, v in allowed.items() if v is not None})
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    for key, value in cfg.items():
        try:
            if key in parsers:
                parsers[key](value)
            elif allowed[key] is not None:
                _check_type(value, allowed[key], key)
        except (ValueError, TypeError) as exc:
            where = f"{context}: {key}" if key in parsers else context
            raise SchemaError(f"{where}: {exc}") from exc
    return {key: cfg.get(key, default) for key, default in allowed.items()}


def jsonable(obj):
    """``obj`` ready for strict JSON, recursively.  A dataclass becomes the
    object of its fields, each under its ``metadata["key"]`` when that is
    given (``None`` leaves the field out); float dict keys become their
    ``repr``, so that they are strings before ``sort_keys`` orders them;
    lists, tuples and arrays become lists; non-finite floats become
    ``"inf"``, ``"-inf"`` or ``"nan"`` and numpy scalars Python values."""
    if is_dataclass(obj):
        return {key: jsonable(getattr(obj, f.name)) for f in fields(obj)
                if (key := f.metadata.get("key", f.name)) is not None}
    if isinstance(obj, dict):
        return {repr(k) if isinstance(k, float) else k: jsonable(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    if isinstance(obj, np.generic):
        return jsonable(obj.item())
    return obj


def csv_text(header: str, rows) -> str:
    """CSV text; floats as ``%.10g``, integers and booleans as integers."""
    def cell(v):
        return f"{v:.10g}" if isinstance(v, float) else str(int(v))
    return "\n".join([header] + [",".join(map(cell, row))
                                 for row in rows]) + "\n"


def _records_csv(records) -> str:
    """One CSV row per summary record, one column per field."""
    return csv_text(",".join(f.name for f in fields(records[0])),
                    map(astuple, records))


# Checker functions are looked up at call time, as are the estimators in
# _estimator, so wrappers installed on their modules take effect.
_CONDITION_SERIES = {
    "variance": lambda env, p: conditions.variance_series(
        env, p["start"], p["horizon"]),
    "fractional_variance": lambda env, p: conditions.fractional_variance_series(
        env, p["start"], p["delta"], p["horizon"], p["tol"]),
    "psi": lambda env, p: conditions.psi_series(
        env, p["start"], PhiFunction.from_config(p["phi"]), p["horizon"],
        p["tol"]),
    "jagers": lambda env, p: conditions.jagers_sum(env, p["horizon"]),
    "moment_ratio": lambda env, p: conditions.moment_ratio_sup(env,
                                                               p["horizon"]),
}


def _tightness(spec, p, cfg, threads):
    return conditions.tightness_diagnostic(
        spec, p["l_grid"], p["env_replicas"], cfg["master_seed"], p["series"],
        p["delta"], PhiFunction.from_config(p["phi"]), p["blowup_factor"])


def _estimator(name: str, **from_config):
    """Runner of ``estimators.<name>``, whose argument names are the
    experiment's param keys."""
    def run(target, p, cfg, threads):
        return getattr(estimators, name)(
            target, **p, seed=cfg["master_seed"], threads=threads,
            **{arg: cfg[key] for arg, key in from_config.items()})
    return run


class Experiment(NamedTuple):
    """One row of the experiment table.  ``run(target, params, resolved,
    threads)`` gets the environment quenched to ``horizon(params)``
    generations, or the spec itself when ``horizon`` is None; its result
    goes to results.json under ``key`` and, through ``csv``, to
    series.csv.  ``check(params)``, when given, raises ValueError for
    values the experiment refuses, before anything runs."""
    params: dict     # defaults; None marks a required key
    horizon: object
    key: str
    run: object
    csv: object = None
    check: object = None


EXPERIMENTS = {
    "conditions": Experiment(
        {"series": "variance", "start": 1, "horizon": 200, "tol": 1e-9,
         "delta": 1.0, "phi": {"power": 1.0, "log_power": 0.0}},
        lambda p: p["start"] + p["horizon"] + 1, "report",
        lambda env, p, cfg, threads: _CONDITION_SERIES[p["series"]](env, p),
        check=lambda p: conditions.check_tol(p["tol"])),
    "survival": Experiment(
        {"z0": 1, "n": 200, "replicas": 100000}, lambda p: p["n"],
        "survival", _estimator("mc_survival")),
    "w_positivity": Experiment(
        {"z0": 1, "n": 200, "replicas": 100000,
         "eps_grid": [float(x) for x in np.logspace(-3, -1, 13)]},
        lambda p: p["n"], "equality_check", _estimator("mc_w_positivity"),
        lambda chk: csv_text("eps,p_above,std_error",
                             [(eps, est.value, est.std_error)
                              for eps, est in sorted(chk.p_w_above.items())]),
        check=lambda p: estimators.check_eps_grid(p["eps_grid"])),
    "l2": Experiment(
        {"k": 1, "m": 1, "replicas": 1000000}, lambda p: max(p["m"], 1),
        "l2_increment", _estimator("mc_l2_increment"),
        check=lambda p: estimators.check_span(p["k"], p["m"] - 1, 1,
                                              p["replicas"])),
    "halving": Experiment(
        {"k": 64, "start": 0, "horizon": 400, "replicas": 100000},
        lambda p: p["start"] + p["horizon"] + 2, "halving",
        _estimator("mc_halving_bound"),
        check=lambda p: simulate.check_ancestors(p["k"], "k")),
    "flt": Experiment(
        {"n_list": [64, 256, 1024], "replicas": 25000, "grid_size": 33},
        lambda p: max(p["n_list"]), "path_spread",
        _estimator("mc_flt_discrepancy"), _records_csv,
        lambda p: estimators.check_path_grid(p["n_list"], p["grid_size"])),
    "tightness": Experiment(
        {"l_grid": [1, 50, 100], "env_replicas": 200, "series": "variance",
         "delta": 1.0, "phi": {"power": 1.0, "log_power": 0.0},
         "blowup_factor": 3.0},
        None, "tightness", _tightness,
        lambda table: csv_text(
            ",".join(["l", *(f"q{int(100 * q)}"
                             for q in conditions.QUANTILE_LEVELS), "flag"]),
            [(l, *row, table.blowup_flag)
             for l, row in zip(table.truncations, table.rows.tolist())])),
    "critical": Experiment(
        {"n_list": [32, 64, 128], "replicas": 40000, "z0": 1,
         "min_survivors": 500},
        None, "conditioned",
        _estimator("mc_conditioned_critical", env_seed="env_seed"),
        _records_csv),
}


def resolve_config(cfg: dict) -> dict:
    top = _require(cfg, {"experiment": None, "environment": None,
                         "env_seed": 1, "master_seed": 12345,
                         "params": {}, "output_dir": ""}, "config")
    exp = top["experiment"]
    if not isinstance(exp, str) or exp not in EXPERIMENTS:
        raise SchemaError(f"config: experiment must be one of "
                          f"{tuple(EXPERIMENTS)}, got {exp!r}")
    # Validate the environment spec eagerly so errors name the field.
    try:
        spec = EnvironmentSpec.from_config(top["environment"])
    except (ValueError, KeyError, TypeError) as exc:
        raise SchemaError(f"environment: {exc}") from exc
    top["params"] = _require(top["params"], EXPERIMENTS[exp].params,
                             f"params({exp})",
                             {"phi": PhiFunction.from_config})
    if EXPERIMENTS[exp].check is not None:
        try:
            EXPERIMENTS[exp].check(top["params"])
        except ValueError as exc:
            raise SchemaError(f"params({exp}): {exc}") from exc
    if exp == "conditions":
        series, start = top["params"]["series"], top["params"]["start"]
        if series not in _CONDITION_SERIES:
            raise SchemaError(f"params(conditions): series must be one of "
                              f"{tuple(_CONDITION_SERIES)}")
        if series in ("jagers", "moment_ratio") and start != 1:
            raise SchemaError(f"params(conditions): start: series {series} "
                              f"sums from generation 1, got start {start}")
    if exp == "critical" and not spec.is_random:
        raise SchemaError("params(critical): environment must be a "
                          "random kind (iid_random or cooling)")
    return top


def config_digest(resolved: dict) -> str:
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@contextlib.contextmanager
def _naming_memory(step: str):
    """Name ``step`` in a MemoryError that names no budget: one raised
    while allocating has no text, or only the size it asked for."""
    try:
        yield
    except ResourceWarningError:
        raise
    except MemoryError as exc:
        raise MemoryError(f"out of memory {step}"
                          + (f": {exc}" if str(exc) else "")) from exc


def run_experiment(resolved: dict, threads=None):
    """Execute one resolved config; returns (results, csv_text_or_None),
    where results holds the result object under the experiment's key."""
    exp = EXPERIMENTS[resolved["experiment"]]
    p = resolved["params"]
    spec = EnvironmentSpec.from_config(resolved["environment"])
    target = spec
    if "replicas" in p:  # refused before a quench it would waste
        estimators.check_replicas(p["replicas"])
    if exp.horizon is not None:
        horizon = exp.horizon(p)
        with _naming_memory(f"quenching {horizon} generations"):
            target = quench(spec, resolved["env_seed"], horizon)
    with _naming_memory(f"running {resolved['experiment']}"):
        result = exp.run(target, p, resolved, threads)
    return ({"experiment": resolved["experiment"], exp.key: result},
            exp.csv(result) if exp.csv else None)


def cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        resolved = resolve_config(cfg)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    out_dir = args.out or resolved["output_dir"] \
        or os.environ.get("BPVE_OUT_DIR", ".")
    resolved["output_dir"] = str(out_dir)
    digest = config_digest({k: v for k, v in resolved.items()
                            if k != "output_dir"})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results_path = out / "results.json"
    if results_path.exists():
        try:
            prev = json.loads(results_path.read_text())
        except json.JSONDecodeError:
            prev = {}
        if prev.get("config_digest") not in (None, digest):
            print(f"error: {results_path} carries digest "
                  f"{prev.get('config_digest')} but this config digests to "
                  f"{digest}; refusing to overwrite", file=sys.stderr)
            return EXIT_RESOURCE

    try:
        results, series = run_experiment(resolved, threads=args.threads)
    except NotApplicableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except (MemoryError, OverflowError) as exc:
        # OverflowError includes PopulationOverflowError
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        # a parameter value the library refuses, e.g. n beyond the horizon
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    results["config_digest"] = digest
    # output_dir is excluded so results files compare equal across runs
    # that only differ in where they were written
    results["resolved_config"] = {k: v for k, v in resolved.items()
                                  if k != "output_dir"}
    for name, obj in (("results.json", results),
                      ("resolved_config.json", resolved)):
        (out / name).write_text(
            json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n")
    if series is not None:
        (out / "series.csv").write_text(f"# config_digest={digest}\n"
                                        + series)
    print(f"wrote {results_path} (digest {digest})")
    return EXIT_OK


def cmd_list_presets(_args) -> int:
    for name in sorted(PRESET_CONFIGS):
        print(f"{name}: {json.dumps(PRESET_CONFIGS[name], sort_keys=True)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bpve",
        description="Branching-process environment experiments")
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment from a JSON config")
    runp.add_argument("config", help="path to the experiment config")
    runp.add_argument("--threads", type=int, default=os.cpu_count(),
                      help="worker threads (results are identical for any "
                           "value)")
    runp.add_argument("--out", default=None,
                      help="output directory (overrides config and "
                           "BPVE_OUT_DIR)")
    runp.set_defaults(func=cmd_run)
    lp = sub.add_parser("list-presets", help="print named environment presets")
    lp.set_defaults(func=cmd_list_presets)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
