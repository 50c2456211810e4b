"""Scaled-down run of the headline expansion check on both built-in tables.

Fits the per-table constants, asks for a depth N that beats the complexity
growth, falls back to the smallest empirically working depth when the fitted
constants are too weak, and reports the Monte-Carlo sup of the N-step
expansion sum.  The fit runs at its fixed sample counts, the same as the
``expansion --fit`` command's; the scan draws 150 curves instead of 1000, so
the whole script stays under a minute.  The full-scale version lives in the
acceptance tests.
"""

import time

from billexp import fit_constants, load_builtin, select_N, sup_scan
from billexp.errors import NoSuchN

SAMPLES = 150
SEED = 407


def main():
    for name in ("tri", "torus2"):
        table = load_builtin(name)
        t0 = time.perf_counter()
        constants = fit_constants(table, 61)
        print(f"{name}: C={constants.c_expansion:.3f} "
              f"Lam={constants.lam_hyper:.3f} c={constants.c_hyper:.2f} "
              f"C_len={constants.c_length:.2f} "
              f"Xi={constants.xi_complexity:.2f}")
        try:
            depth = select_N(constants)
            source = "from the fitted margin inequality"
        except NoSuchN:
            depth = 6
            source = "fallback scan up to depth 6"
        report = sup_scan(table, 1e-4, SAMPLES, depth, 30, seed=SEED,
                          table_id=name)
        sups = " ".join(f"{v:.3f}" for v in report.sup_e)
        print(f"{name}: depth {depth} ({source})")
        print(f"{name}: sup E_n for n=0..{report.n_steps}: {sups}")
        best = next((n for n in range(1, report.n_steps + 1)
                     if report.sup_e[n] < 1.0), None)
        if best is None:
            print(f"{name}: no contracting depth at this sample size")
        else:
            print(f"{name}: smallest contracting depth {best} "
                  f"(sup {report.sup_e[best]:.3f} < 1), "
                  f"{time.perf_counter() - t0:.0f}s")
        print(f"{name}: verdict: {report.verdict}")


if __name__ == "__main__":
    main()
