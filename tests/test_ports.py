"""The scalar root finder and the trigamma function of ``ucurves`` against
scipy, which they port bit for bit.  scipy is a test dependency only: it is
the oracle here, and these tests are skipped without it."""

import math

import numpy as np
import pytest

from billexp import cli, ucurves as U

scipy_optimize = pytest.importorskip("scipy.optimize")
scipy_special = pytest.importorskip("scipy.special")

TOLERANCES = [(xtol, rtol) for xtol in (1e-13, 2e-12, 1e-300)
              for rtol in (8.9e-16, 4 * np.finfo(float).eps)]


def _outcome(solve, f, a, b, xtol, rtol):
    """The root as a float, or the type of the exception raised."""
    try:
        return solve(f, a, b, xtol, rtol)
    except (ValueError, RuntimeError) as err:
        return type(err)


def _scipy(f, a, b, xtol, rtol):
    return scipy_optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)


def _same(x, y):
    """Equal as bits (a root) or as an exception type."""
    if isinstance(x, float) and isinstance(y, float):
        return math.copysign(1.0, x) == math.copysign(1.0, y) and x == y
    return x is y


def _generated_brackets(n, seed):
    """n (f, a, b): monotone, odd-power, saturating and exponential f with a
    root in (-1, 1), scaled by 10^u for u in (-320, 305) so that products of
    two values underflow or overflow; some brackets start at the root or
    fail to bracket it."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        scale = float(10.0 ** rng.uniform(-320.0, 305.0))
        root = float(rng.uniform(-1.0, 1.0))
        p = int(rng.integers(1, 6))
        shape = i % 5
        if shape == 0:
            def f(x, s=scale, r=root):
                return s * (x - r)
        elif shape == 1:
            def f(x, s=scale, r=root, p=p):
                return s * math.copysign(abs(x - r) ** p, x - r)
        elif shape == 2:
            def f(x, s=scale, r=root):
                return s * math.tanh(40.0 * (x - r))
        elif shape == 3:
            def f(x, s=scale, r=root):
                return s * math.expm1(3.0 * (x - r))
        else:
            def f(x, s=scale, r=root):
                return s * (1.0 if x > r else -1.0)
        a = float(rng.uniform(-1.5, root))
        b = float(rng.uniform(root, 1.5))
        if i % 37 == 0:
            a = root
        if i % 41 == 0:
            a = float(rng.uniform(root, 1.5))
        if rng.integers(2):
            a, b = b, a
        out.append((f, a, b))
    return out


def test_brent_root_equals_brentq_on_generated_brackets():
    brackets = _generated_brackets(1000, 2027)
    mismatches = [(i, xtol, rtol) for i, (f, a, b) in enumerate(brackets)
                  for xtol, rtol in TOLERANCES
                  if not _same(_outcome(U._brent_root, f, a, b, xtol, rtol),
                               _outcome(_scipy, f, a, b, xtol, rtol))]
    assert mismatches == []


def _recorded_solves(monkeypatch, run):
    """(f, a, b, xtol, rtol, outcome) of each ``_brent_root`` call that
    run() makes."""
    solves = []
    port = U._brent_root

    def recorded(f, a, b, xtol, rtol):
        got = _outcome(port, f, a, b, xtol, rtol)
        solves.append((f, a, b, xtol, rtol, got))
        if isinstance(got, type):
            raise got("recorded")
        return got

    with monkeypatch.context() as mp:
        mp.setattr(U, "_brent_root", recorded)
        run()
    return solves


def test_brent_root_equals_brentq_on_recorded_solves(tri, monkeypatch,
                                                     tmp_path):
    """Every solve of the length constant's 300 samples and of a depth-6
    scan of 1000 curves gives scipy's root for the same f and bracket."""
    length = _recorded_solves(
        monkeypatch, lambda: U.certify_length_constant(tri, 300, 61))
    scan = _recorded_solves(monkeypatch, lambda: cli.run(
        ["expansion", "--table", "tri", "--N", "6", "--seed", "61",
         "--delta", "1e-4", "--k0", "30", "--samples", "1000",
         "--threads", "0", "--out", str(tmp_path / "scan.json")]))
    assert len(length) > 0 and len(scan) > 100
    mismatches = [(a, b, xtol, rtol) for f, a, b, xtol, rtol, got
                  in length + scan
                  if not _same(got, _outcome(_scipy, f, a, b, xtol, rtol))]
    assert mismatches == []


@pytest.mark.parametrize("f, a, b, err", [
    (lambda x: x * x + 1.0, -1.0, 2.0, ValueError),        # same sign
    (lambda x: math.nan if x == 2.0 else x, -1.0, 2.0, ValueError),
    (lambda x: x - 0.3 if x in (-1.0, 1.0) else math.nan, -1.0, 1.0,
     ValueError),                                         # NaN inside
    (lambda x: 1.0 if x > 0.0 else -1.0, -1.0, 1.0, RuntimeError),
])
def test_brent_root_error_paths_are_brentqs(f, a, b, err):
    """Same-sign ends and NaN values raise ValueError; a step function at
    xtol 1e-300 bisects through every iteration and raises RuntimeError."""
    tol = (1e-300, 4 * np.finfo(float).eps)
    assert _outcome(U._brent_root, f, a, b, *tol) is err
    assert _outcome(_scipy, f, a, b, *tol) is err


def test_trigamma_equals_polygamma():
    rng = np.random.default_rng(7)
    q = np.concatenate([np.arange(1.0, 20_001.0),
                        np.exp(rng.uniform(math.log(1e-6), math.log(1e9),
                                           20_000))])
    want = scipy_special.polygamma(1, q).tolist()
    assert [i for i, (x, y) in enumerate(zip(q.tolist(), want))
            if U._trigamma(x) != y] == []
    # _child passes an int
    assert U._trigamma(30) == float(scipy_special.polygamma(1, 30))
