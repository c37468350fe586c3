"""Command-line front end.

Four subcommands cover the library surface: ``profile`` samples a base
state, ``curve`` tabulates the threshold Reynolds number over wavenumber,
``neutral`` locates the minimizing wavenumber per Hartmann number, and
``verify`` runs the independent checks against the spectral solver.
Only ``curve`` takes a wavenumber grid (``--a-points``, 40 log-spaced
points by default); ``neutral`` brackets each minimum by a slope walk
over the window and rejects the flag like the other commands.  All
numeric output uses 17-significant-digit scientific notation and contains
no timestamps, so reruns at a fixed BLAS thread setting are byte-identical;
at another thread count the last digits can differ, since BLAS sums in
another order.  ``curve`` and ``neutral`` run the library sweeps
``reynolds_curve`` and ``neutral_sweep`` one Hartmann number after another;
a point that fails to solve is printed as NaN and the remaining points are
still computed.  Warnings of the library (a point
or a whole Hartmann number that failed) reach stderr through one logging
handler, prefixed ``mhdes: warning:`` like the command's own messages.

Exit codes: 0 success, 2 usage or parameter problems, 3 numerical solver
failures (including any NaN row of ``curve`` or ``neutral``), 4 failed
verification.
"""

import argparse
import dataclasses
import json
import logging
import sys
from dataclasses import dataclass

import numpy as np

from .baseflow import FLOWS, Params, profile_for
from .critical import neutral_sweep
from .errors import (ConsistencyError, MhdesError, NumericalError,
                     ParameterError, VerificationError)
from .orr_evp import _numbers, assemble_pencil, reynolds_curve, solve_max_m
from .spectral import N_MAX, N_MIN, build_operator, clamped_restrict
from .verify import (_decay_terms, _random_clamped_fields, decay_check,
                     energy_ratio, fd_oracle, make_trial_field, poincare_check,
                     random_trial_bound)

PROFILE_HEADER = ("z", "U", "Uprime", "Usecond", "Bbar", "Bprime", "Bsecond")
CURVE_HEADER = ("flow", "Ha", "Pm", "a", "Re")
NEUTRAL_HEADER = ("flow", "Ha", "Pm", "a_crit", "Re_E", "N", "converged")

VERIFY_TRIALS = 1000
VERIFY_DECAY_FIELDS = 10
VERIFY_FD_M = 300
VERIFY_FD_RTOL = 5e-3
RATIO_IDENT_RTOL = 1e-8

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
        if self.flow not in FLOWS:
            raise ParameterError(f"flow must be one of {FLOWS}, got {self.flow!r}")
        for name in ("Pm", "a_min", "a_max"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v <= 0:
                raise ParameterError(f"{name} must be finite and > 0, got {v}")
            object.__setattr__(self, name, v)
        ha = tuple(float(v) for v in _numbers(self.Ha_list, "Ha_list"))
        for v in ha:
            Params(flow=self.flow, Ha=v, Pm=self.Pm)  # the one Ha check
        object.__setattr__(self, "Ha_list", ha)
        if not self.a_min < self.a_max:
            raise ParameterError(
                f"need a_min < a_max, got [{self.a_min}, {self.a_max}]")
        for name in ("N", "seed", "a_points"):
            v = getattr(self, name)
            # int() would truncate 20.9 to 20 and read true as 1
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ParameterError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.a_points < 1:
            raise ParameterError("a_points must be at least 1")
        if not (N_MIN <= self.N <= N_MAX):
            raise ParameterError(f"N must lie in [{N_MIN}, {N_MAX}], got {self.N}")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")
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
    """Locate the threshold minimum per Hartmann number by the slope walk
    over [a_min, a_max]; a_points plays no part."""
    points = neutral_sweep(config.flow, config.Ha_list, config.Pm,
                           a_window=(config.a_min, config.a_max), N=config.N)
    rows = [[p.flow, p.Ha, p.Pm, p.a_crit, p.Re_E, p.N_used, p.converged]
            for p in points]
    _emit_table(config.output_path, config.format, NEUTRAL_HEADER, rows)
    return _sweep_status([p.Re_E for p in points])


def _verify_point(config, Ha, perturb_m_rel, op, maps):
    """Spectral-side checks at one Ha: params, a, m and the checks dict."""
    params = Params(flow=config.flow, Ha=Ha, Pm=config.Pm)
    sample = profile_for(params, op.nodes)
    a = 1.2 if config.a_min <= 1.2 <= config.a_max else float(
        np.sqrt(config.a_min * config.a_max))
    sol = solve_max_m(assemble_pencil(params, a, op, sample, maps))
    m_claimed = sol.m * (1.0 + perturb_m_rel)
    checks = {}

    field = make_trial_field(a, sol.w_hat, sol.l_hat, op)
    br = energy_ratio(field, params, sample, op)
    dev = abs(br.ratio - m_claimed) / m_claimed
    checks["ratio_identity"] = {"passed": bool(dev <= RATIO_IDENT_RTOL),
                                "rel_dev": dev}

    # the solved eigenvector rides along as trial -1, so an understated
    # claim is falsified by the maximizer itself
    try:
        rep = random_trial_bound(params, a, m_claimed, trials=VERIFY_TRIALS,
                                 seed=config.seed, N=config.N, inject=(field,))
        checks["random_trial_bound"] = {"passed": True, **rep}
    except VerificationError as exc:
        checks["random_trial_bound"] = {"passed": False, "report": exc.report}

    Re_E_a = 1.0 / sol.m
    dc = decay_check(field, params, 0.5 * Re_E_a, Re_E_a, sample, op)
    _, _, fields = _random_clamped_fields(
        np.random.default_rng(config.seed + 1), VERIFY_DECAY_FIELDS, a, op)
    dEdt, bound = _decay_terms(fields, params, 0.5 * Re_E_a, Re_E_a, sample,
                               op)
    ok_decay = (dc.satisfied and dc.dEdt < 0
                and bool(np.all((dEdt <= bound) & (dEdt < 0))))
    checks["decay_below_threshold"] = {"passed": bool(ok_decay),
                                       "eig_margin": dc.margin}

    pc = poincare_check(field, op)
    checks["poincare"] = {"passed": bool(pc.satisfied),
                          "ratios": {k: v["ratio"] for k, v in pc.ratios.items()}}
    return params, a, sol.m, checks


def _fd_check(params, a, m):
    m_fd = fd_oracle(params, a, M=VERIFY_FD_M)
    rel = abs(m_fd - m) / m
    return {"passed": bool(rel <= VERIFY_FD_RTOL), "m_fd": m_fd,
            "m_spectral": m, "rel_dev": rel}


def cmd_verify(config, perturb_m_rel=0.0):
    """Run the independent checks at each configured Hartmann number.

    Always emits a JSON report regardless of the format flag.  The
    perturbation hook offsets the claimed ratio before checking and exists
    so the failure path itself can be exercised end to end.
    """
    # every spectral-side check first, then every FD oracle: NumPy and
    # SciPy each bundle an OpenBLAS with its own worker pool, and handing
    # the cores from one pool to the other at every point stalls both
    op = build_operator(config.N)
    maps = clamped_restrict(op)
    spectral = [_verify_point(config, Ha, perturb_m_rel, op, maps)
                for Ha in config.Ha_list]
    points = []
    for Ha, (params, a, m, checks) in zip(config.Ha_list, spectral):
        checks["fd_oracle"] = _fd_check(params, a, m)
        points.append({"Ha": float(Ha), "a": float(a), "m": m,
                       "passed": all(c["passed"] for c in checks.values()),
                       "checks": checks})
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--flow", choices=FLOWS,
                        help="base state family")
    common.add_argument("--ha", type=float, nargs="+", metavar="HA",
                        help="one or more Hartmann numbers")
    common.add_argument("--pm", type=float, help="magnetic Prandtl number")
    common.add_argument("--a-min", type=float, help="lower wavenumber bound")
    common.add_argument("--a-max", type=float, help="upper wavenumber bound")
    common.add_argument("--n", type=int, help="polynomial order of the solver")
    common.add_argument("--seed", type=int, help="seed for randomized checks")
    common.add_argument("--config", help="JSON file with a RunConfig; "
                        "explicit flags override its fields")
    common.add_argument("--out", help="output path ('-' for stdout)")
    common.add_argument("--format", choices=("csv", "json"),
                        help="output format (default csv)")
    sub.add_parser("profile", parents=[common],
                   help="sample a base state on the collocation nodes")
    pc = sub.add_parser("curve", parents=[common], help="tabulate the "
                        "threshold Reynolds number over wavenumber")
    pc.add_argument("--a-points", type=int, help="number of log-spaced "
                    "wavenumbers in [a-min, a-max] (default 40)")
    sub.add_parser("neutral", parents=[common],
                   help="minimize the threshold over wavenumber per Ha")
    pv = sub.add_parser("verify", parents=[common],
                        help="independent checks of the spectral solver")
    pv.add_argument("--perturb-m-rel", type=float, default=0.0,
                    help="testing hook: offset the claimed ratio by this "
                    "relative amount so the failure path can be exercised")
    return p


def _merge_config(args):
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = RunConfig.from_json(fh.read())
    else:
        cfg = RunConfig()
    # flag name -> RunConfig field; --a-points exists for curve alone
    fields = {"flow": "flow", "ha": "Ha_list", "pm": "Pm", "a_min": "a_min",
              "a_max": "a_max", "a_points": "a_points", "n": "N",
              "seed": "seed", "out": "output_path", "format": "format"}
    overrides = {field: getattr(args, flag)
                 for flag, field in fields.items()
                 if getattr(args, flag, None) is not None}
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


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
    except (ParameterError, ConsistencyError, OSError) as exc:
        print(f"mhdes: error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"mhdes: verification failed: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(json.dumps(exc.report, indent=2), file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"mhdes: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MhdesError as exc:
        print(f"mhdes: error: {exc}", file=sys.stderr)
        return 2
    finally:
        package_log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
