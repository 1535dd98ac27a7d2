"""Command-line interface.

Subcommands: ``verify`` (run a gate's sequence and score it against its ideal),
``budget`` (feasibility arithmetic for a parameter file), ``sweep``
(parameter scans to CSV), ``dj`` (the Deutsch-Jozsa demo) and ``squid-g``
(the SQUID coupling-constant estimate).  Structured output is JSON on
stdout, or a file via ``--output``; sweeps emit CSV.  Exit codes: 0 success,
1 verification below threshold, 2 usage, configuration or out-of-memory error.

The entrywise comparison tolerance defaults to 1e-10 and can be overridden
with the ``GATESIM_TOL`` environment variable (a finite value >= 0).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import budget as budget_mod
from .device import ConfigError, load_params
from .dj import run_dj
from .jsonio import write_csv, write_json
from .pulses import Mode
from .sequences import GateKind, build_sequence, serialize_sequence
from .verify import (
    DEFAULT_TOL,
    phase_audit,
    report,
    swap_fidelity_vs_full,
    swap_peak_level3,
)

_MODES = [m.value for m in Mode]
_GATES = [g.value for g in GateKind]
# Sweep observables of a device, and sweep parameters mapping a device and a
# scanned value to a device.  Each function is looked up when it is called, so
# a replaced module attribute (such as a timing wrapper) is the one that runs.
_OBSERVABLES = {
    "fidelity_full": lambda p: swap_fidelity_vs_full(p),
    "leakage3": lambda p: swap_peak_level3(p),
    "tau_cp3": lambda p: budget_mod.time_cp3(p),
    "tau_ntcnot": lambda p: budget_mod.time_ntcnot(p),
    "kappa_inv": lambda p: budget_mod.cavity_lifetime(p.quality_q, p.nu_c),
}
_SWEEP_PARAMS = {
    "delta_ratio": lambda p, v: replace(p, delta_c=v * p.g_at(0), delta_ck=v * p.g_at(0)),
    "omega_ratio": lambda p, v: replace(p, omega_resonant=v * p.g_at(0)),
    "q_factor": lambda p, v: replace(p, quality_q=v),
}


def _tolerance() -> float:
    raw = os.environ.get("GATESIM_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ConfigError(f"GATESIM_TOL must be a float, got {raw!r}") from exc
    if not math.isfinite(tol) or tol < 0:
        raise ConfigError(f"GATESIM_TOL must be finite and non-negative, got {raw!r}")
    return tol


def _checked(convert, accept, need: str):
    """argparse type: ``convert`` the text and reject it unless ``accept`` holds."""

    def parse(raw: str):
        try:
            value = convert(raw)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {raw!r}")
        return value

    return parse


_finite = _checked(float, math.isfinite, "a finite number")
_count = _checked(int, lambda v: v >= 0, "an integer >= 0")
# Every budget ratio is positive, so a cut at or below 0 could never pass.
_positive = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gatesim")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="compose a gate and compare it to its ideal matrix")
    p.add_argument("gate", choices=_GATES)
    p.add_argument("-n", type=int, default=3, help="qubit count (ncp, ntcnot; 3 for cp3, toffoli)")
    p.add_argument("--mode", choices=_MODES, default="analytic")
    p.add_argument("--params", default="cpw", help="parameter file or preset name")
    p.add_argument("--threshold", type=_finite, default=None, help="fidelity required for exit 0")
    p.add_argument("--cavity-dim", type=int, default=2)
    p.add_argument(
        "--samples", type=_count, default=512, help="interior level-3 samples per full-mode cavity window"
    )
    p.add_argument("--dump-sequence", action="store_true")
    p.add_argument("--audit", action="store_true", help="include the unwanted-phase audit")
    p.add_argument("--output", default=None)

    p = sub.add_parser("budget", help="feasibility report for a parameter file")
    p.add_argument("--params", default="cpw")
    p.add_argument("--threshold", type=_positive, default=budget_mod.FEASIBILITY_THRESHOLD)
    p.add_argument("--output", default=None)

    p = sub.add_parser("sweep", help="scan one parameter, tabulate one or more observables")
    p.add_argument("--param", choices=list(_SWEEP_PARAMS), required=True)
    p.add_argument("--from", dest="start", type=_finite, required=True)
    p.add_argument("--to", dest="stop", type=_finite, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--observable", choices=list(_OBSERVABLES), nargs="+", required=True)
    p.add_argument("--params", default="cpw")
    p.add_argument("--output", default=None)

    p = sub.add_parser("dj", help="run one Deutsch-Jozsa oracle variant")
    p.add_argument("--variant", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--mode", choices=_MODES, default="analytic")
    p.add_argument("--params", default="cpw")
    p.add_argument("--output", default=None)

    p = sub.add_parser("squid-g", help="SQUID-cavity coupling constant estimate")
    p.add_argument("--params", default="squid")
    p.add_argument("--output", default=None)

    return parser


def _cmd_verify(args) -> int:
    gate = GateKind.parse(args.gate)
    if gate in (GateKind.CP3, GateKind.TOFFOLI) and args.n != 3:
        raise ConfigError(f"-n must be 3 for {gate.value}, a three-qubit gate; got {args.n}")
    params, _ = load_params(args.params)
    mode = Mode.parse(args.mode)
    seq = build_sequence(gate, args.n, params, args.cavity_dim)
    tol = _tolerance()
    rep = report(seq, mode, tol=tol, samples_per_step=args.samples)
    threshold = args.threshold
    if threshold is None:
        threshold = 0.9 if mode is Mode.FULL else 1.0 - 1e-9
    passed = rep.process_fidelity >= threshold
    out = asdict(rep)
    out["threshold"] = threshold
    out["passed"] = passed
    if args.audit:
        out["phase_audit"] = asdict(phase_audit(seq))
    if args.dump_sequence:
        out["sequence"] = serialize_sequence(seq)
    write_json(out, args.output)
    return 0 if passed else 1


def _cmd_budget(args) -> int:
    params, raw = load_params(args.params)
    rep = budget_mod.feasibility(params, threshold=args.threshold)
    out = {"params": asdict(params)}
    out.update(rep.to_dict())
    if "squid" in raw:
        sq = budget_mod.squid_from_dict(raw["squid"])
        out["squid"] = budget_mod.squid_coupling_breakdown(sq)
    if "levels" in raw:
        ls = budget_mod.levels_from_dict(raw["levels"])
        ok, violations = budget_mod.validate_levels(ls)
        out["levels"] = {"qubit_type": ls.qubit_type, "passed": ok, "violations": violations}
    write_json(out, args.output)
    return 0


def _cmd_sweep(args) -> int:
    params, _ = load_params(args.params)
    if args.points < 1:
        raise ConfigError("sweep needs at least one point")
    if args.points > 1 and not args.stop > args.start:
        raise ConfigError("sweep range must be increasing")
    rows = []
    for value in np.linspace(args.start, args.stop, args.points):
        p = _SWEEP_PARAMS[args.param](params, value)
        rows.append((float(value),) + tuple(_OBSERVABLES[o](p) for o in args.observable))
    write_csv((args.param, *args.observable), rows, args.output)
    return 0


def _cmd_dj(args) -> int:
    params, _ = load_params(args.params)
    result = run_dj(args.variant, params, Mode.parse(args.mode))
    write_json(asdict(result), args.output)
    return 0


def _cmd_squid_g(args) -> int:
    _, raw = load_params(args.params)
    if "squid" not in raw:
        raise ConfigError(f"parameter file {args.params!r} has no squid section")
    sq = budget_mod.squid_from_dict(raw["squid"])
    write_json(budget_mod.squid_coupling_breakdown(sq), args.output)
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "budget": _cmd_budget,
    "sweep": _cmd_sweep,
    "dj": _cmd_dj,
    "squid-g": _cmd_squid_g,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"gatesim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
