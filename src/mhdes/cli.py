"""Command-line front end.

Four subcommands cover the library surface: ``profile`` samples a base
state, ``curve`` tabulates the threshold Reynolds number over wavenumber,
``neutral`` locates the minimizing wavenumber per Hartmann number, and
``verify`` reports ``verify.check_claim`` of one solve per Hartmann number.
Each takes only the flags it reads (``--a-points`` belongs to ``curve``
alone), and each flag stores its value under the ``RunConfig`` field it
sets.  A config file may hold every field; every command validates all of
them and reads the ones it uses.  All numeric output uses 17-significant-digit
scientific notation and contains no timestamps, so reruns at a fixed BLAS
thread setting are byte-identical; at another thread count the last digits
can differ, since BLAS sums in another order.  ``curve`` and ``neutral``
run the library sweeps ``reynolds_curve`` and ``neutral_sweep`` one
Hartmann number after another; a point that fails to solve is printed as
NaN and the remaining points are still computed.  Warnings of the library
(a point or a whole Hartmann number that failed) reach stderr through one
logging handler, prefixed ``mhdes: warning:`` like the command's own
messages.

Exit codes: 0 success, 2 usage or parameter problems, 3 numerical solver
failures (including any NaN row of ``curve`` or ``neutral``), 4 failed
verification.
"""

import argparse
import dataclasses
import json
import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from .baseflow import FLOWS, Params, profile_for
from .critical import geometric_mean, neutral_sweep
from .errors import (MhdesError, NumericalError, ParameterError,
                     VerificationError, integer_in, numbers, real_scalar,
                     wavenumber)
from .orr_evp import assemble_pencil, reynolds_curve, solve_max_m
from .spectral import N_MAX, N_MIN, build_operator, setup
from .verify import check_claim, make_trial_field

PROFILE_HEADER = ("z", "U", "Uprime", "Usecond", "Bbar", "Bprime", "Bsecond")
CURVE_HEADER = ("flow", "Ha", "Pm", "a", "Re")
NEUTRAL_HEADER = ("flow", "Ha", "Pm", "a_crit", "Re_E", "N", "converged")

log = logging.getLogger(__name__)


class _StderrHandler(logging.Handler):
    """Writes records to the current sys.stderr with the mhdes: prefix."""

    def emit(self, record):
        print(f"mhdes: {record.levelname.lower()}: {record.getMessage()}",
              file=sys.stderr)


@dataclass(frozen=True)
class RunConfig:
    """Serializable run parameters shared by all subcommands."""

    flow: str = "couette"
    Ha_list: tuple = (0.1, 1.0, 10.0, 50.0)
    Pm: float = 0.1
    a_min: float = 0.2
    a_max: float = 4.0
    a_points: int = 40
    N: int = 60
    seed: int = 42
    output_path: str = "-"
    format: str = "csv"

    def __post_init__(self):
        # Params checks the flow, each Ha and Pm
        points = [Params(flow=self.flow, Ha=Ha, Pm=self.Pm)
                  for Ha in numbers(self.Ha_list, "Ha_list")]
        object.__setattr__(self, "Ha_list", tuple(p.Ha for p in points))
        object.__setattr__(self, "Pm", points[0].Pm)
        for name in ("a_min", "a_max"):
            object.__setattr__(self, name,
                               wavenumber(getattr(self, name), name))
        if not self.a_min < self.a_max:
            raise ParameterError(
                f"need a_min < a_max, got [{self.a_min}, {self.a_max}]")
        for name, *bounds in (("N", N_MIN, N_MAX), ("seed", 0), ("a_points", 1)):
            object.__setattr__(self, name,
                               integer_in(getattr(self, name), name, *bounds))
        if self.format not in ("csv", "json"):
            raise ParameterError(f"format must be csv or json, got {self.format!r}")
        if not isinstance(self.output_path, str) or not self.output_path:
            raise ParameterError("output_path must be a nonempty string "
                                 "('-' for stdout)")

    def to_json(self):
        d = dataclasses.asdict(self)
        d["Ha_list"] = list(d["Ha_list"])
        return json.dumps(d, indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d):
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(d) - known
        if extra:
            raise ParameterError(f"unknown config keys: {sorted(extra)}")
        return cls(**d)

    @classmethod
    def from_json(cls, text):
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise ParameterError("config JSON must be an object")
        return cls.from_dict(d)


def _fmt(v):
    v = float(v)
    if np.isnan(v):
        return "NaN"
    return f"{v:.16e}"


def _write_text(out, text):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_table(out, fmt, header, rows):
    """rows hold already-typed cells; CSV stringifies, JSON mirrors them."""
    if fmt == "json":
        payload = {"columns": list(header), "rows": rows}
        _write_text(out, json.dumps(payload, indent=2) + "\n")
        return
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("true" if cell else "false")
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            elif isinstance(cell, float):
                cells.append(_fmt(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    _write_text(out, "\n".join(lines) + "\n")


def cmd_profile(config):
    """Sample the base state at the first Hartmann number of the config."""
    op = build_operator(config.N)
    Ha = config.Ha_list[0]
    params = Params(flow=config.flow, Ha=Ha, Pm=config.Pm)
    s = profile_for(params, op.nodes)
    rows = [[float(s.z[i]), float(s.U[i]), float(s.Uprime[i]),
             float(s.Usecond[i]), float(s.Bbar[i]), float(s.Bprime[i]),
             float(s.Bsecond[i])] for i in range(s.z.size)]
    _emit_table(config.output_path, config.format, PROFILE_HEADER, rows)
    return 0


def _sweep_status(thresholds):
    """Exit code of a sweep: 3 if any threshold is NaN (a failed point)."""
    n_failed = int(np.count_nonzero(np.isnan(thresholds)))
    if n_failed:
        print(f"mhdes: numerical failure: {n_failed} of {len(thresholds)} "
              "points failed and are reported as NaN", file=sys.stderr)
        return 3
    return 0


def cmd_curve(config):
    """Tabulate Re_a over a log-spaced wavenumber grid, one block per Ha."""
    grid = np.geomspace(config.a_min, config.a_max, config.a_points)
    rows = []
    for Ha in config.Ha_list:
        params = Params(flow=config.flow, Ha=Ha, Pm=config.Pm)
        try:
            curve = reynolds_curve(params, grid, N=config.N)
        except NumericalError as exc:
            log.warning("%s Ha=%g Pm=%g: curve failed: %s", config.flow, Ha,
                        config.Pm, exc)
            curve = [(float(a), float("nan")) for a in grid]
        rows += [[config.flow, Ha, config.Pm, a, re_a] for a, re_a in curve]
    _emit_table(config.output_path, config.format, CURVE_HEADER, rows)
    return _sweep_status([row[-1] for row in rows])


def cmd_neutral(config):
    """Locate the threshold minimum per Hartmann number by the
    frozen-eigenvector search over [a_min, a_max]."""
    points = neutral_sweep(config.flow, config.Ha_list, config.Pm,
                           a_window=(config.a_min, config.a_max), N=config.N)
    rows = [[p.flow, p.Ha, p.Pm, p.a_crit, p.Re_E, p.N_used, p.converged]
            for p in points]
    _emit_table(config.output_path, config.format, NEUTRAL_HEADER, rows)
    return _sweep_status([p.Re_E for p in points])


def _verify_point(config, Ha, perturb_m_rel):
    """Solve at one Ha, then check the offset claim: the point's report."""
    params = Params(flow=config.flow, Ha=Ha, Pm=config.Pm)
    op, maps = setup(config.N)
    sample = profile_for(params, op.nodes)
    a = 1.2 if config.a_min <= 1.2 <= config.a_max else geometric_mean(
        config.a_min, config.a_max)
    sol = solve_max_m(assemble_pencil(params, a, op, sample, maps))
    # keep m and the eigenfield, not the solution: it holds its pencil and
    # factors, which would stay resident through the checks
    m, field = sol.m, make_trial_field(a, sol.w_hat, sol.l_hat, op)
    del sol
    checks = check_claim(field, params, m, m * (1.0 + perturb_m_rel),
                         config.seed, sample, op)
    return {"Ha": float(Ha), "a": float(a), "m": m,
            "passed": all(c["passed"] for c in checks.values()),
            "checks": checks}


def cmd_verify(config, perturb_m_rel=0.0):
    """Run the independent checks at each configured Hartmann number.

    Always emits a JSON report, whatever the config's format.  The
    perturbation hook offsets the claimed ratio before checking and exists
    so the failure path itself can be exercised end to end.  It must be a
    finite number above -1, so that the claim stays positive.
    """
    perturb_m_rel = real_scalar(perturb_m_rel, "--perturb-m-rel")
    if not (math.isfinite(perturb_m_rel) and perturb_m_rel > -1.0):
        raise ParameterError(f"--perturb-m-rel must be finite and > -1, got "
                             f"{perturb_m_rel}")
    points = [_verify_point(config, Ha, perturb_m_rel)
              for Ha in config.Ha_list]
    passed = all(p["passed"] for p in points)
    report = {"flow": config.flow, "Pm": config.Pm, "N": config.N,
              "seed": config.seed, "perturb_m_rel": perturb_m_rel,
              "passed": passed, "points": points}
    _write_text(config.output_path, json.dumps(report, indent=2) + "\n")
    return 0 if passed else 4


def build_parser():
    p = argparse.ArgumentParser(
        prog="mhdes",
        description="Energy-stability thresholds for conducting channel flows")
    sub = p.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, text in (
        ("profile", "sample a base state on the collocation nodes"),
        ("curve", "tabulate the threshold Reynolds number over wavenumber"),
        ("neutral", "minimize the threshold over wavenumber per Ha"),
        ("verify", "independent checks of the spectral solver"))}

    # each command takes only the flags it reads; every dest but config
    # and perturb_m_rel is the RunConfig field that the flag sets
    def flag(name, readers, **kwargs):
        for command in readers.split():
            commands[command].add_argument(name, **kwargs)

    every, solvers = "profile curve neutral verify", "curve neutral verify"
    flag("--flow", every, choices=FLOWS, help="base state family")
    flag("--ha", "profile", dest="Ha_list", type=float, nargs=1,
         metavar="HA", help="Hartmann number")
    flag("--ha", solvers, dest="Ha_list", type=float, nargs="+", metavar="HA",
         help="one or more Hartmann numbers")
    flag("--pm", solvers, dest="Pm", type=float,
         help="magnetic Prandtl number")
    flag("--a-min", solvers, type=float, help="lower wavenumber bound")
    flag("--a-max", solvers, type=float, help="upper wavenumber bound")
    flag("--a-points", "curve", type=int, help="number of log-spaced "
         "wavenumbers in [a-min, a-max] (default 40)")
    flag("--n", every, dest="N", type=int,
         help="polynomial order of the solver")
    flag("--seed", "verify", type=int, help="seed for randomized checks")
    flag("--config", every,
         help="JSON file with a RunConfig; explicit flags override its fields")
    flag("--out", every, dest="output_path", metavar="OUT",
         help="output path ('-' for stdout)")
    flag("--format", "profile curve neutral", choices=("csv", "json"),
         help="output format (default csv)")
    flag("--perturb-m-rel", "verify", type=float, default=0.0,
         help="testing hook: offset the claimed ratio by this relative "
         "amount so the failure path can be exercised")
    return p


def _merge_config(args):
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = RunConfig.from_json(fh.read())
    else:
        cfg = RunConfig()
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    return dataclasses.replace(cfg, **{
        name: value for name, value in vars(args).items()
        if name in fields and value is not None})


def main(argv=None):
    args = build_parser().parse_args(argv)
    package_log = logging.getLogger("mhdes")
    handler = _StderrHandler(logging.WARNING)
    package_log.addHandler(handler)
    try:
        cfg = _merge_config(args)
        if args.command == "profile":
            return cmd_profile(cfg)
        if args.command == "curve":
            return cmd_curve(cfg)
        if args.command == "neutral":
            return cmd_neutral(cfg)
        return cmd_verify(cfg, perturb_m_rel=args.perturb_m_rel)
    except VerificationError as exc:
        print(f"mhdes: verification failed: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(json.dumps(exc.report, indent=2), file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"mhdes: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (MhdesError, OSError) as exc:
        print(f"mhdes: error: {exc}", file=sys.stderr)
        return 2
    finally:
        package_log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
