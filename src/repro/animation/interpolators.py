"""Android animation interpolators.

An interpolator maps normalized input time ``x in [0, 1]`` to an animation
*completeness* fraction ``y`` ("affects the rate of change in an animation",
Android developer guides). The three interpolators the paper exploits are:

* :class:`FastOutSlowInInterpolator` — the cubic Bezier ``(0.4, 0, 0.2, 1)``
  controlling the notification-alert slide-in (paper Fig. 2). Its slow start
  is precisely the property the draw-and-destroy overlay attack abuses: the
  first animation frames render essentially none of the alert view.
* :class:`AccelerateInterpolator` — ``y = x^2``, the toast fade-out
  (paper Fig. 4). Its slow start means a disappearing toast stays almost
  fully opaque long enough for a replacement toast to fade in unnoticed.
* :class:`DecelerateInterpolator` — ``y = 1 - (1 - x)^2``, the toast
  fade-in (paper Fig. 4), fast at the beginning.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod


def _clamp01(x: float) -> float:
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x


class Interpolator(ABC):
    """Maps normalized time to normalized animation completeness."""

    name = "interpolator"

    @abstractmethod
    def value(self, x: float) -> float:
        """Completeness fraction at normalized time ``x`` (both in [0, 1])."""

    def curve(self, samples: int = 100):
        """``(x, y)`` pairs sampling the curve — used to regenerate the
        paper's Fig. 2 and Fig. 4.

        ``samples=2`` is the degenerate minimum and yields exactly the two
        endpoint pairs ``(0.0, value(0.0))`` and ``(1.0, value(1.0))``;
        fewer than two samples cannot describe a curve and raises.
        """
        if samples < 2:
            raise ValueError("need at least 2 samples")
        return [
            (i / (samples - 1), self.value(i / (samples - 1))) for i in range(samples)
        ]

    def time_for_completeness(self, target: float, tolerance: float = 1e-9) -> float:
        """Inverse lookup: earliest normalized time with ``value >= target``.

        All supplied interpolators are monotone non-decreasing, so a simple
        bisection suffices. Used to compute when an animation first renders
        a visible pixel (the attacker's deadline).
        """
        if target <= self.value(0.0):
            return 0.0
        if target > self.value(1.0) + tolerance:
            raise ValueError(f"completeness {target} is never reached")
        lo, hi = 0.0, 1.0
        while hi - lo > tolerance:
            mid = (lo + hi) / 2.0
            if self.value(mid) >= target:
                hi = mid
            else:
                lo = mid
        return hi

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class LinearInterpolator(Interpolator):
    """``y = x`` — the identity interpolator."""

    name = "linear"

    def value(self, x: float) -> float:
        return _clamp01(x)


class AccelerateInterpolator(Interpolator):
    """``y = x^(2*factor)`` — Android's AccelerateInterpolator.

    With the default ``factor = 1`` this is the ``y = x^2`` parabola the
    paper plots for the toast fade-out (Fig. 4).
    """

    name = "accelerate"

    def __init__(self, factor: float = 1.0) -> None:
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        self.factor = factor

    def value(self, x: float) -> float:
        x = _clamp01(x)
        if self.factor == 1.0:
            return x * x
        return math.pow(x, 2.0 * self.factor)


class DecelerateInterpolator(Interpolator):
    """``y = 1 - (1 - x)^(2*factor)`` — Android's DecelerateInterpolator.

    With the default ``factor = 1`` this is the upside-down parabola
    ``y = 1 - (1 - x)^2`` the paper plots for the toast fade-in (Fig. 4).
    """

    name = "decelerate"

    def __init__(self, factor: float = 1.0) -> None:
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        self.factor = factor

    def value(self, x: float) -> float:
        x = _clamp01(x)
        if self.factor == 1.0:
            return 1.0 - (1.0 - x) * (1.0 - x)
        return 1.0 - math.pow(1.0 - x, 2.0 * self.factor)


class CubicBezierInterpolator(Interpolator):
    """A CSS-style cubic Bezier timing curve through (0,0) and (1,1).

    The Bezier is parameterized by control points ``(x1, y1)`` and
    ``(x2, y2)``; evaluating ``value(x)`` requires inverting the x-component
    polynomial, done here with Newton iteration plus bisection fallback —
    the same strategy as Android's ``PathInterpolator``.
    """

    name = "cubic-bezier"

    def __init__(self, x1: float, y1: float, x2: float, y2: float) -> None:
        for label, v in (("x1", x1), ("x2", x2)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{label} must be in [0,1], got {v}")
        self.x1, self.y1, self.x2, self.y2 = x1, y1, x2, y2

    def _bezier(self, t: float, p1: float, p2: float) -> float:
        # Cubic Bezier with endpoints 0 and 1:
        # B(t) = 3(1-t)^2 t p1 + 3(1-t) t^2 p2 + t^3
        omt = 1.0 - t
        return 3.0 * omt * omt * t * p1 + 3.0 * omt * t * t * p2 + t * t * t

    def _bezier_dx(self, t: float) -> float:
        omt = 1.0 - t
        return (
            3.0 * omt * omt * self.x1
            + 6.0 * omt * t * (self.x2 - self.x1)
            + 3.0 * t * t * (1.0 - self.x2)
        )

    def _solve_t(self, x: float) -> float:
        # Newton iteration with a bisection fallback for flat derivatives.
        t = x
        for _ in range(12):
            err = self._bezier(t, self.x1, self.x2) - x
            if abs(err) < 1e-9:
                return t
            d = self._bezier_dx(t)
            if abs(d) < 1e-7:
                break
            t -= err / d
            t = _clamp01(t)
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if self._bezier(mid, self.x1, self.x2) < x:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    def value(self, x: float) -> float:
        x = _clamp01(x)
        if x == 0.0 or x == 1.0:
            return x
        t = self._solve_t(x)
        return self._bezier(t, self.y1, self.y2)


class FastOutSlowInInterpolator(CubicBezierInterpolator):
    """Android's ``FastOutSlowInInterpolator``: cubic Bezier (0.4, 0, 0.2, 1).

    This drives the notification-alert slide-in exploited by the
    draw-and-destroy overlay attack. The paper (Section III-B) observes that
    the first 10 ms frame of the 360 ms animation renders about 0.17% of the
    view — which rounds to zero pixels on a 72 px alert — and that less than
    50% of the view is shown within the first 100 ms (Fig. 2).
    """

    name = "fast-out-slow-in"

    def __init__(self) -> None:
        super().__init__(0.4, 0.0, 0.2, 1.0)


class AccelerateDecelerateInterpolator(Interpolator):
    """``y = cos((x + 1) * pi) / 2 + 0.5`` — Android's default for views."""

    name = "accelerate-decelerate"

    def value(self, x: float) -> float:
        x = _clamp01(x)
        return math.cos((x + 1.0) * math.pi) / 2.0 + 0.5
