"""Hypothesis property suites for interpolator algebra and frame timing.

Two families of properties:

* **curve algebra** — ``curve()`` endpoints are exact (including the
  degenerate ``samples=2`` minimum), ``value`` is monotone non-decreasing
  for the paper's interpolators, and ``time_for_completeness`` is a true
  inverse-bound: ``time_for_completeness(value(x)) <= x`` and it is
  monotone in its target;
* **boundaries** — zero-duration ``first_visible_frame_time``, the
  first-visible frame against a brute-force frame search, and the
  documented ``rendered_pixels`` clamp.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.animation.animator import first_visible_frame_time, rendered_pixels
from repro.animation.interpolators import (
    AccelerateDecelerateInterpolator,
    AccelerateInterpolator,
    DecelerateInterpolator,
    FastOutSlowInInterpolator,
    LinearInterpolator,
)

#: The three interpolators the paper exploits (Fig. 2, Fig. 4).
PAPER_INTERPOLATORS = [
    FastOutSlowInInterpolator(),
    AccelerateInterpolator(),
    DecelerateInterpolator(),
]

ALL_INTERPOLATORS = PAPER_INTERPOLATORS + [
    LinearInterpolator(),
    AccelerateDecelerateInterpolator(),
]

unit_floats = st.floats(min_value=0.0, max_value=1.0,
                        allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# Curve algebra
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("interp", ALL_INTERPOLATORS,
                         ids=lambda i: i.name)
@pytest.mark.parametrize("samples", [2, 3, 17, 100])
def test_curve_endpoints_exact(interp, samples):
    curve = interp.curve(samples=samples)
    assert len(curve) == samples
    assert curve[0] == (0.0, interp.value(0.0))
    assert curve[-1] == (1.0, interp.value(1.0))
    assert curve[0][1] == 0.0
    assert curve[-1][1] == 1.0


@pytest.mark.parametrize("interp", ALL_INTERPOLATORS,
                         ids=lambda i: i.name)
def test_two_samples_are_endpoints(interp):
    assert interp.curve(samples=2) == [(0.0, 0.0), (1.0, 1.0)]


@pytest.mark.parametrize("interp", ALL_INTERPOLATORS,
                         ids=lambda i: i.name)
@pytest.mark.parametrize("samples", [1, 0, -5])
def test_curve_too_few_samples(interp, samples):
    with pytest.raises(ValueError):
        interp.curve(samples=samples)


@pytest.mark.parametrize("interp", PAPER_INTERPOLATORS,
                         ids=lambda i: i.name)
@given(x=unit_floats)
@settings(max_examples=200, deadline=None)
def test_inverse_never_overshoots_its_input(interp, x):
    """``time_for_completeness(value(x)) <= x`` (within the bisection
    tolerance): the earliest time reaching a completeness cannot come
    after a time already known to reach it."""
    target = interp.value(x)
    t = interp.time_for_completeness(target)
    assert t <= x + 1e-9


@pytest.mark.parametrize("interp", PAPER_INTERPOLATORS,
                         ids=lambda i: i.name)
@given(a=unit_floats, b=unit_floats)
@settings(max_examples=200, deadline=None)
def test_inverse_is_monotone_in_target(interp, a, b):
    lo, hi = sorted((a, b))
    assert (interp.time_for_completeness(lo)
            <= interp.time_for_completeness(hi) + 1e-9)


@pytest.mark.parametrize("interp", PAPER_INTERPOLATORS,
                         ids=lambda i: i.name)
@given(a=unit_floats, b=unit_floats)
@settings(max_examples=200, deadline=None)
def test_value_is_monotone(interp, a, b):
    lo, hi = sorted((a, b))
    assert interp.value(lo) <= interp.value(hi) + 1e-12


@pytest.mark.parametrize("interp", PAPER_INTERPOLATORS,
                         ids=lambda i: i.name)
@given(x=unit_floats)
@settings(max_examples=200, deadline=None)
def test_inverse_reaches_the_forward_value(interp, x):
    """The inverse lookup agrees with the forward curve: the time reported
    for ``value(x)`` reaches that completeness."""
    t = interp.time_for_completeness(interp.value(x))
    assert interp.value(t) >= interp.value(x) - 1e-9


# ---------------------------------------------------------------------------
# Boundaries: first visible frame, zero duration, rendered_pixels clamp
# ---------------------------------------------------------------------------

def test_first_visible_matches_brute_force_search():
    interp = FastOutSlowInInterpolator()
    # Reference: first frame k >= 1 whose rendering shows a pixel.
    k = 1
    while rendered_pixels(interp.value(min(k * 10.0, 360.0) / 360.0), 72) < 1:
        k += 1
    assert first_visible_frame_time(interp, 360.0, 10.0, 72) == k * 10.0


def test_zero_duration_first_visible_frame_time():
    assert first_visible_frame_time(LinearInterpolator(), 0.0, 10.0, 72) == 0.0
    with pytest.raises(ValueError):
        first_visible_frame_time(LinearInterpolator(), 0.0, 10.0, 0)


def test_rendered_pixels_clamps_out_of_range_completeness():
    # Documented behavior: a view never renders negative pixels, nor more
    # pixels than it has — even for an overshooting custom curve.
    assert rendered_pixels(-0.25, 72) == 0
    assert rendered_pixels(1.25, 72) == 72
    assert rendered_pixels(0.0, 72) == 0
    assert rendered_pixels(1.0, 72) == 72
    # In [0, 1] the clamp is inert: same round-half-up as always.
    assert rendered_pixels(0.0017, 72) == 0  # the paper's 0.17% example
    assert rendered_pixels(0.5, 72) == 36
    assert rendered_pixels(0.9999, 72) == int(math.floor(0.9999 * 72 + 0.5))


@given(c=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       h=st.integers(min_value=0, max_value=4096))
@settings(max_examples=200, deadline=None)
def test_rendered_pixels_clamp_is_inert_in_range(c, h):
    assert rendered_pixels(c, h) == int(math.floor(c * h + 0.5))
