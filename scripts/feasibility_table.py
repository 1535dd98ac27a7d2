#!/usr/bin/env python3
"""Print the feasibility figures for both shipped presets as one table."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gatesim.budget import feasibility, squid_coupling_breakdown
from gatesim.device import load_params


def main() -> int:
    print(f"{'scenario':<8} {'tau_cp3 (us)':>13} {'tau_ntcnot (us)':>16} "
          f"{'kappa^-1 (us)':>14} {'gamma2^-1 (us)':>15} {'verdict':>8}")
    for name in ("cpw", "squid"):
        params, sections = load_params(name)
        rep = feasibility(params)
        print(
            f"{name:<8} {rep.tau_cp3_s * 1e6:>13.4f} {rep.tau_ntcnot_s * 1e6:>16.4f} "
            f"{rep.kappa_inv_s * 1e6:>14.3f} {rep.gamma2_inv_s * 1e6:>15.1f} "
            f"{'pass' if rep.passed else 'FAIL':>8}"
        )
        if "squid" in sections:
            g = squid_coupling_breakdown(sections["squid"])["g_per_s"]
            print(f"{'':<8} coupling constant from device figures: g = {g:.4g} 1/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
