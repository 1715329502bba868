"""Registered attacker models: launch/withdraw lifecycle on a live stack."""

import pytest

import repro.attacks as attacks
from repro.actors import attacker_names, get_attacker
from repro.attacks import (
    clickjacking,
    overlay_attack,
    password_stealing,
    toast_attack,
)
from repro.attacks.flooding import NotificationFloodingAttack
from repro.attacks.overlay_attack import DrawAndDestroyOverlayAttack
from repro.stack import build_stack
from repro.systemui import NotificationOutcome


def test_registry_holds_the_five_attack_families():
    assert attacker_names() == [
        "clickjacking",
        "draw-and-destroy",
        "draw-and-destroy-toast",
        "notification-flooding",
        "password-stealing",
    ]
    # The package-level names are the concrete classes, not aliases.
    assert (attacks.DrawAndDestroyOverlayAttack
            is overlay_attack.DrawAndDestroyOverlayAttack)
    assert (attacks.DrawAndDestroyToastAttack
            is toast_attack.DrawAndDestroyToastAttack)
    assert (attacks.PasswordStealingAttack
            is password_stealing.PasswordStealingAttack)
    assert attacks.ClickjackingAttack is clickjacking.ClickjackingAttack
    assert attacks.ContentHidingAttack is clickjacking.ContentHidingAttack
    assert attacks.NotificationFloodingAttack is NotificationFloodingAttack


def test_models_carry_their_registry_label():
    for name in attacker_names():
        assert get_attacker(name).name == name


class TestDrawAndDestroy:
    def test_launch_grants_starts_and_races_the_alert(self):
        stack = build_stack(seed=101)
        model = get_attacker("draw-and-destroy")
        handle = model.launch(stack, attacking_window_ms=150.0)
        assert isinstance(handle, DrawAndDestroyOverlayAttack)
        stack.run_for(4_000)
        assert stack.system_ui.worst_outcome() is NotificationOutcome.LAMBDA1
        model.withdraw(handle)
        assert not handle.running

    def test_default_window_tracks_the_device_bound(self):
        stack = build_stack(seed=102)
        model = get_attacker("draw-and-destroy")
        handle = model.launch(stack)
        expected = stack.profile.published_upper_bound_d - 10.0
        assert handle.config.attacking_window_ms == pytest.approx(expected)
        model.withdraw(handle)

    def test_ignores_foreign_sweep_keys(self):
        """A shared attackers-axis config must not blow up other models."""
        stack = build_stack(seed=103)
        model = get_attacker("draw-and-destroy")
        handle = model.launch(stack, flood_interval_ms=80.0,
                              n_chars=4, attacking_window_ms=100.0)
        assert handle.config.attacking_window_ms == 100.0
        model.withdraw(handle)


class TestNotificationFlooding:
    def test_launch_floods_the_drawer_without_racing(self):
        stack = build_stack(seed=104)
        model = get_attacker("notification-flooding")
        handle = model.launch(stack, flood_interval_ms=100.0)
        assert isinstance(handle, NotificationFloodingAttack)
        stack.run_for(3_000)
        # The alert completes (no racing) but junk posts bury it.
        assert stack.system_ui.worst_outcome() is NotificationOutcome.LAMBDA5
        assert stack.system_ui.posted_count() >= 8
        assert stack.system_ui.alert_occluded(handle.package)
        model.withdraw(handle)
        assert not handle.running

    def test_withdraw_is_idempotent(self):
        stack = build_stack(seed=105)
        model = get_attacker("notification-flooding")
        handle = model.launch(stack)
        stack.run_for(500)
        model.withdraw(handle)
        model.withdraw(handle)
        assert not handle.running


class TestToastAndClickjacking:
    def test_toast_model_launches_and_stops(self):
        stack = build_stack(seed=106)
        model = get_attacker("draw-and-destroy-toast")
        handle = model.launch(stack)
        stack.run_for(1_000)
        model.withdraw(handle)

    def test_clickjacking_model_defaults_a_center_decoy(self):
        stack = build_stack(seed=107)
        model = get_attacker("clickjacking")
        handle = model.launch(stack)
        stack.run_for(500)
        model.withdraw(handle)


def test_model_reuse_across_stacks_is_deterministic():
    """One model instance, two identical stacks, identical outcomes —
    models hold no per-launch state."""
    model = get_attacker("notification-flooding")

    def run(seed):
        stack = build_stack(seed=seed)
        handle = model.launch(stack, flood_interval_ms=120.0)
        stack.run_for(2_500)
        posted = stack.system_ui.posted_count()
        worst = stack.system_ui.worst_outcome()
        model.withdraw(handle)
        return posted, worst

    assert run(200) == run(200)
