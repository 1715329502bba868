"""Tests for the feasibility query schema: canonical JSON, content
hashing and eager validation."""

import dataclasses
import json

import pytest

from repro.serve import FeasibilityQuery


def _query(**overrides):
    return FeasibilityQuery(device="pixel 2", **overrides)


class TestCanonicalJson:
    def test_round_trips_through_dict(self):
        q = _query(d_max_ms=100.0, probe_chars=4)
        clone = FeasibilityQuery.from_dict(q.to_dict())
        assert clone == q
        assert clone.content_hash() == q.content_hash()

    def test_canonical_form_is_sorted_and_compact(self):
        text = _query().canonical_json()
        data = json.loads(text)
        assert list(data) == sorted(data)
        assert ": " not in text and ", " not in text

    def test_hash_ignores_key_order(self):
        q = _query(d_max_ms=100.0)
        shuffled = dict(reversed(list(q.to_dict().items())))
        assert FeasibilityQuery.from_dict(shuffled).content_hash() \
            == q.content_hash()

    def test_hash_ignores_how_defaults_were_spelled(self):
        implicit = _query()
        explicit = _query(faults="none", attacker="draw-and-destroy",
                          user="stochastic-human", trials_per_d=3,
                          seed=20220701)
        assert implicit == explicit
        assert implicit.content_hash() == explicit.content_hash()


class TestHashAxes:
    """Every query axis must feed the content hash."""

    AXES = {
        "device": "mi8",
        "android_version": "11",
        "faults": "mild",
        "attacker": "clickjacking",
        "user": "gui-agent",
        "d_min_ms": 60.0,
        "d_max_ms": 175.0,
        "d_step_ms": 12.5,
        "trials_per_d": 4,
        "trial_duration_ms": 1500.0,
        "probe_chars": 6,
        "probe_trials": 1,
        "seed": 7,
    }

    @pytest.mark.parametrize("field", sorted(AXES))
    def test_axis_changes_the_hash(self, field):
        base = _query()
        if field == "device":
            varied = FeasibilityQuery(device="mi8", android_version="9")
        elif field == "android_version":
            # Same model, different OS build: mi8 ships as 9 and 10.
            base = FeasibilityQuery(device="mi8", android_version="9")
            varied = FeasibilityQuery(device="mi8", android_version="10")
        else:
            varied = dataclasses.replace(base, **{field: self.AXES[field]})
        assert varied.content_hash() != base.content_hash()


class TestValidation:
    def test_unknown_device_rejected_eagerly(self):
        with pytest.raises(KeyError):
            FeasibilityQuery(device="no such phone")

    def test_unknown_fault_profile_lists_known_ones(self):
        with pytest.raises(ValueError, match="unknown fault profile.*none"):
            _query(faults="meteor-strike")

    def test_unknown_actor_labels_rejected(self):
        with pytest.raises(KeyError):
            _query(attacker="benevolent")
        with pytest.raises(KeyError):
            _query(user="speedrunner")

    @pytest.mark.parametrize("overrides", [
        {"d_min_ms": 0.0},
        {"d_min_ms": 100.0, "d_max_ms": 50.0},
        {"d_step_ms": 0.0},
        {"trials_per_d": 0},
        {"trial_duration_ms": -1.0},
        {"probe_chars": -1},
        {"probe_trials": -2},
        # Non-finite floats: an infinite bound never ends the D grid and a
        # NaN bound silently empties it.
        {"d_max_ms": float("inf")},
        {"d_min_ms": float("nan")},
        {"d_step_ms": float("nan")},
        {"trial_duration_ms": float("inf")},
    ])
    def test_bad_numerics_rejected(self, overrides):
        with pytest.raises(ValueError):
            _query(**overrides)

    def test_d_grid_includes_both_endpoints(self):
        q = _query(d_min_ms=50.0, d_max_ms=200.0, d_step_ms=25.0)
        assert q.d_values() == (50.0, 75.0, 100.0, 125.0, 150.0, 175.0, 200.0)

    def test_d_grid_single_point(self):
        q = _query(d_min_ms=80.0, d_max_ms=80.0, d_step_ms=25.0)
        assert q.d_values() == (80.0,)
