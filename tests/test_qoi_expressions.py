"""Tests for QoI expression trees and interval arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.cp_update import cp_update_grid
from oracles.qoi_intervals import abs_interval, square_interval

from repro.data import generators as gen
from repro.qoi.eb_methods import cp_update
from repro.qoi.expressions import (
    QoI,
    _estimate,
    _Abs,
    _Square,
    absval,
    const,
    estimate_qoi_error,
    pointwise_qoi_error,
    sqrt,
    square,
    v_total,
    var,
)


def grids(seed=0, n=200):
    rng = np.random.default_rng(seed)
    return {
        "vx": rng.standard_normal(n),
        "vy": rng.standard_normal(n),
        "vz": rng.standard_normal(n),
    }


class TestEvaluate:
    def test_var_and_const(self):
        v = var("x")
        assert np.allclose(v.evaluate({"x": np.array([1.0, 2.0])}), [1, 2])
        assert const(3.0).evaluate({}) == 3.0

    def test_arithmetic_sugar(self):
        x, y = var("x"), var("y")
        expr = 2 * x + y - 1
        out = expr.evaluate({"x": np.array([1.0]), "y": np.array([3.0])})
        assert out[0] == 4.0

    def test_neg(self):
        out = (-var("x")).evaluate({"x": np.array([2.0])})
        assert out[0] == -2.0

    def test_v_total(self):
        vals = grids()
        vt = v_total()
        expected = np.sqrt(vals["vx"]**2 + vals["vy"]**2 + vals["vz"]**2)
        np.testing.assert_allclose(vt.evaluate(vals), expected)

    def test_missing_variable(self):
        with pytest.raises(KeyError):
            var("q").evaluate({"x": np.zeros(3)})

    def test_sqrt_rejects_negative(self):
        with pytest.raises(ValueError):
            sqrt(var("x")).evaluate({"x": np.array([-1.0])})

    def test_variables_set(self):
        assert v_total().variables() == {"vx", "vy", "vz"}
        assert (var("a") * var("b") + 1).variables() == {"a", "b"}


class TestIntervals:
    def test_var_interval(self):
        lo, hi = var("x").interval({"x": np.array([1.0])}, {"x": 0.25})
        assert lo[0] == 0.75 and hi[0] == 1.25

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            var("x").interval({"x": np.zeros(1)}, {"x": -0.1})

    def test_square_straddles_zero(self):
        lo, hi = square(var("x")).interval(
            {"x": np.array([0.1])}, {"x": 0.5}
        )
        assert lo[0] == 0.0
        assert hi[0] == pytest.approx(0.36)

    def test_mul_interval_signs(self):
        expr = var("x") * var("y")
        lo, hi = expr.interval(
            {"x": np.array([-1.0]), "y": np.array([2.0])},
            {"x": 0.5, "y": 0.5},
        )
        # x in [-1.5,-0.5], y in [1.5,2.5] -> product in [-3.75,-0.75]
        assert lo[0] == pytest.approx(-3.75)
        assert hi[0] == pytest.approx(-0.75)

    def test_abs_interval(self):
        lo, hi = absval(var("x")).interval(
            {"x": np.array([-0.2])}, {"x": 0.5}
        )
        assert lo[0] == 0.0
        assert hi[0] == pytest.approx(0.7)

    def test_sqrt_clamps_negative_lower(self):
        lo, hi = sqrt(var("x")).interval({"x": np.array([0.01])}, {"x": 0.1})
        assert lo[0] == 0.0
        assert hi[0] == pytest.approx(np.sqrt(0.11))


class _Given(QoI):
    """A leaf whose interval is fixed ``(lo, hi)`` arrays (fresh copies)."""

    def __init__(self, lo, hi):
        self.lo, self.hi = np.asarray(lo, float), np.asarray(hi, float)

    def interval(self, values, bounds):
        return self.lo.copy(), self.hi.copy()

    def evaluate(self, values):
        return (self.lo + self.hi) / 2

    def variables(self):
        return set()


def _bits(pair):
    """The arrays' bytes, every NaN made the same (a NaN's sign and
    payload carry nothing, and negating one flips its sign)."""
    return [np.where(np.isnan(x), np.nan, x).astype(np.float64).tobytes()
            for x in pair]


# Straddling, touching, negative, positive, signed-zero, subnormal,
# huge, infinite and NaN intervals (lo <= hi, as interval nodes give).
_EDGE = np.array([
    (-1.0, 2.0), (-2.0, 1.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0),
    (-0.0, 3.0), (0.0, 3.0), (-3.0, -0.0), (-3.0, 0.0), (-5.0, -2.0),
    (2.0, 5.0), (-5e-324, 5e-324), (5e-324, 1e-310), (-1e-310, -5e-324),
    (-1e200, 1e200), (1e200, 1e300), (-1e300, -1e200), (-np.inf, np.inf),
    (-np.inf, -1.0), (1.0, np.inf), (np.nan, 1.0), (-1.0, np.nan),
    (np.nan, np.nan), (-2.5, 2.5), (-7.0, 7.0 - 1e-15),
])


def _qoi_inputs():
    """The value/bound inputs of this file and of the QoI retrieval
    tests: random grids and a turbulence velocity field, at bounds from
    far below to far above the values."""
    velocity = dict(zip(("vx", "vy", "vz"), gen.turbulence_velocity(
        (12, 12, 12), seed=3, dtype=np.float64)))
    for vals in (grids(), grids(seed=5), velocity):
        for eb in (0.0, 1e-6, 1e-2, 0.05, 0.5, 10.0):
            yield vals, {k: eb for k in vals}


class TestClampFormsMatchOracle:
    """The clamp forms of ``square`` and ``abs`` give the old where/min/
    max forms' floats, bit for bit."""

    @pytest.mark.parametrize("node, oracle", [(_Square, square_interval),
                                              (_Abs, abs_interval)])
    @np.errstate(over="ignore")  # 1e200² overflows in either form
    def test_edge_intervals(self, node, oracle):
        lo, hi = _EDGE[:, 0], _EDGE[:, 1]
        assert _bits(node(_Given(lo, hi)).interval({}, {})) == _bits(
            oracle(lo.copy(), hi.copy()))
        for i in range(len(_EDGE)):  # 0-d operands, as a constant gives
            assert _bits(node(_Given(lo[i], hi[i])).interval({}, {})) == \
                _bits(oracle(lo[i], hi[i]))

    @pytest.mark.parametrize("node, oracle", [(_Square, square_interval),
                                              (_Abs, abs_interval)])
    def test_qoi_inputs(self, node, oracle):
        for vals, bounds in _qoi_inputs():
            for child in (var("vx"), var("vx") - var("vy"),
                          var("vy") * var("vz") - 0.1):
                got = node(child).interval(vals, bounds)
                assert _bits(got) == _bits(oracle(
                    *child.interval(vals, bounds)))

    def test_pointwise_error_and_estimate(self, monkeypatch):
        """V_total's pointwise error and estimate, and an ``abs`` QoI's,
        equal what the old forms give."""
        qois = [v_total(), absval(var("vx") - var("vy")) + square(var("vz"))]
        inputs = list(_qoi_inputs())
        new = [(pointwise_qoi_error(q, v, b), estimate_qoi_error(q, v, b))
               for q in qois for v, b in inputs]
        monkeypatch.setattr(_Square, "interval", lambda self, v, b:
                            square_interval(*self.a.interval(v, b)))
        monkeypatch.setattr(_Abs, "interval", lambda self, v, b:
                            abs_interval(*self.a.interval(v, b)))
        old = [(pointwise_qoi_error(q, v, b), estimate_qoi_error(q, v, b))
               for q in qois for v, b in inputs]
        for (pw, est), (pw_old, est_old) in zip(new, old):
            assert pw.tobytes() == pw_old.tobytes()
            assert np.float64(est).tobytes() == np.float64(est_old).tobytes()


class TestWorstPoint:
    """The estimate returns the argmax of the pointwise error it
    computed, and CP decaying against that point's values gives the
    grid-wide form's bounds."""

    QOIS = [v_total(), absval(var("vx") - var("vy")) + square(var("vz"))]

    def test_estimate_returns_the_argmax(self):
        for qoi in self.QOIS:
            for vals, bounds in _qoi_inputs():
                pw = pointwise_qoi_error(qoi, vals, bounds)
                estimate, _, worst = _estimate(qoi, vals, bounds)
                assert worst == int(np.argmax(pw))
                assert np.float64(estimate).tobytes() == np.max(pw).tobytes()

    def test_cp_update_at_the_worst_point(self):
        for qoi in self.QOIS:
            for vals, bounds in _qoi_inputs():
                worst = _estimate(qoi, vals, bounds)[2]
                point = {k: float(v.flat[worst]) for k, v in vals.items()}
                for tol in (1e-1, 1e-4):
                    assert cp_update(qoi, point, bounds, tol) == (
                        cp_update_grid(qoi, vals, bounds, tol))


class TestErrorEstimation:
    def test_zero_bounds_zero_error(self):
        vals = grids()
        assert estimate_qoi_error(v_total(), vals,
                                  {k: 0.0 for k in vals}) == 0.0

    def test_estimate_is_max_of_pointwise(self):
        vals = grids()
        bounds = {k: 0.01 for k in vals}
        pw = pointwise_qoi_error(v_total(), vals, bounds)
        assert estimate_qoi_error(v_total(), vals, bounds) == np.max(pw)

    def test_estimate_monotone_in_bounds(self):
        vals = grids()
        e1 = estimate_qoi_error(v_total(), vals, {k: 0.01 for k in vals})
        e2 = estimate_qoi_error(v_total(), vals, {k: 0.1 for k in vals})
        assert e1 < e2

    def test_sound_against_sampled_perturbations(self):
        """The interval bound must dominate any actual perturbation
        within the per-variable boxes."""
        rng = np.random.default_rng(5)
        vals = grids(seed=5)
        bounds = {k: 0.05 for k in vals}
        vt = v_total()
        base = vt.evaluate(vals)
        pw = pointwise_qoi_error(vt, vals, bounds)
        for _ in range(20):
            pert = {
                k: v + rng.uniform(-bounds[k], bounds[k], v.shape)
                for k, v in vals.items()
            }
            moved = np.abs(vt.evaluate(pert) - base)
            assert np.all(moved <= pw + 1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    eb=st.floats(1e-6, 1.0),
)
def test_property_interval_soundness_vtotal(seed, eb):
    """Hypothesis: worst-case corner perturbations never exceed the
    interval estimate for V_total."""
    rng = np.random.default_rng(seed)
    vals = {k: rng.standard_normal(50) for k in ("vx", "vy", "vz")}
    bounds = {k: eb for k in vals}
    vt = v_total()
    base = vt.evaluate(vals)
    pw = pointwise_qoi_error(vt, vals, bounds)
    for signs in ((1, 1, 1), (-1, -1, -1), (1, -1, 1)):
        pert = {
            k: v + s * eb
            for (k, v), s in zip(sorted(vals.items()), signs)
        }
        moved = np.abs(vt.evaluate(pert) - base)
        assert np.all(moved <= pw * (1 + 1e-9) + 1e-12)
