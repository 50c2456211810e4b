"""Ports checked bit for bit against the code they port.

``bmap.Stream`` against numpy's ``default_rng(SeedSequence(key))``; numpy is
a runtime dependency, so these tests always run.  The scalar root finder and
the trigamma function of ``ucurves`` against scipy, a test dependency only:
it is the oracle here, and those tests are skipped without it."""

import math
import random

import numpy as np
import pytest

from billexp import bmap, cli, ucurves as U

try:
    import scipy.optimize as scipy_optimize
    import scipy.special as scipy_special
except ImportError:
    scipy_optimize = scipy_special = None
needs_scipy = pytest.mark.skipif(scipy_optimize is None,
                                 reason="scipy is the oracle")

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


@needs_scipy
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


@needs_scipy
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


@needs_scipy
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


@needs_scipy
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


def _generated_keys(n, seed):
    """n keys of 1 to 7 ints, each 0, a one-word value, a value of two or
    three words or one above 2^64, so that words pass the pool size of 4."""
    pick = random.Random(seed)
    values = (lambda: 0, lambda: pick.randrange(1, 2 ** 32),
              lambda: pick.randrange(2 ** 32, 2 ** 96),
              lambda: pick.randrange(2 ** 64, 2 ** 200))
    return [[pick.choice(values)() for _ in range(pick.randint(1, 7))]
            for _ in range(n)]


def _draws(rng, calls):
    """Each call's result as the hex strings of its floats."""
    out = []
    for call in calls:
        if call[0] == "uniform":
            out.append([float(rng.uniform(*call[1:])).hex()])
        elif len(call) == 2:
            got = rng.random(call[1])
            out.append([got.dtype.name, got.shape,
                        *(x.hex() for x in got.tolist())])
        else:
            out.append([float(rng.random()).hex()])
    return out


def _numpy(key):
    return np.random.default_rng(np.random.SeedSequence(key))


def test_stream_equals_numpy_on_generated_keys():
    """Interleaved scalar, array (of size 0 too) and uniform draws."""
    pick = random.Random(3)
    calls = [("random",), ("random", 0), ("uniform", 0.35, 0.65),
             ("random", 5), ("uniform", math.log(1e-6), math.log(1e-3)),
             ("random", 1), ("uniform", -2.5, 1e-300)]
    calls += [pick.choice(calls) for _ in range(40)]
    keys = _generated_keys(400, 29)
    assert {len(bmap._words(k)) for k in keys} >= set(range(1, 12))
    mismatches = [k for k in keys
                  if _draws(bmap.Stream(k), calls) != _draws(_numpy(k), calls)]
    assert mismatches == []


def test_streams_seeded_together_equal_streams_seeded_alone():
    """Stream.each over keys of mixed word counts in one call, with 0,
    2^32 - 1, 2^32 and keys past the pool's 4 words: each stream has the
    state and stream of Stream(key) and numpy's first draws."""
    edges = [[0], [2 ** 32 - 1], [2 ** 32], [0, 0, 0, 0, 0],
             [2 ** 32 - 1, 2 ** 32, 0, 1, 2 ** 40, 3], [2 ** 40, 3], [61]]
    keys = _generated_keys(300, 31) + edges
    assert {len(bmap._words(k)) for k in keys} >= set(range(1, 12))
    streams = bmap.Stream.each(iter(keys))
    assert [(s._state, s._inc) for s in streams] \
        == [(s._state, s._inc) for s in map(bmap.Stream, keys)]
    calls = [("random", 3), ("random",), ("uniform", 0.35, 0.65)]
    assert [k for k, s in zip(keys, streams)
            if _draws(s, calls) != _draws(_numpy(k), calls)] == []
    assert bmap.Stream.each([]) == []


@pytest.mark.parametrize("key", [[-1], [3, -1], [0, 2 ** 64, -(2 ** 40)]])
def test_stream_refuses_negative_entropy(key):
    with pytest.raises(ValueError):
        bmap.Stream(key)
    with pytest.raises(ValueError):
        bmap.Stream.each([[5], key])
    with pytest.raises(ValueError):
        np.random.SeedSequence(key)


def test_stream_equals_numpy_on_recorded_keys(monkeypatch, tmp_path):
    """The first 64 draws of every stream that a verdict-tri and a
    scan-deep-tri pipeline open at seed 61, one by one or together; a
    stream seeded together starts where the one seeded alone does."""
    keys, together = [], []

    class Recorded(bmap.Stream):
        __slots__ = ()

        def __init__(self, key):
            keys.append(tuple(key))
            super().__init__(key)

        @classmethod
        def each(cls, batch):
            batch = [tuple(key) for key in batch]
            streams = super().each(batch)
            keys.extend(batch)
            together.extend((key, s._state, s._inc)
                            for key, s in zip(batch, streams))
            return streams

    monkeypatch.setattr(bmap, "Stream", Recorded)
    monkeypatch.setattr(U, "Stream", Recorded)
    common = ["--table", "tri", "--seed", "61", "--delta", "1e-4", "--k0",
              "30", "--samples", "1000", "--threads", "0"]
    for name, args in (("verdict", ["--fit", "--N", "auto"]),
                       ("scan", ["--N", "6"])):
        assert cli.run(["expansion", *common, *args,
                        "--out", str(tmp_path / f"{name}.json")]) == 0
    assert set(keys) == ({(61, 0xC0), (61, 0xC1), (61, 0xC2)}
                         | {(61, 0xD0, i) for i in range(U.PROBE_SAMPLES)}
                         | {(61, 1, i) for i in range(1000)})
    assert {key for key, _, _ in together} \
        == {(61, 0xD0, i) for i in range(U.PROBE_SAMPLES)} \
        | {(61, 1, i) for i in range(1000)}
    monkeypatch.undo()
    alone = [bmap.Stream(list(key)) for key, _, _ in together]
    assert [(state, inc) for _, state, inc in together] \
        == [(s._state, s._inc) for s in alone]
    calls = [("random", 32), *[("random",)] * 32]
    mismatches = [k for k in set(keys) if _draws(bmap.Stream(list(k)), calls)
                  != _draws(_numpy(list(k)), calls)]
    assert mismatches == []
