"""The paper's contribution: animation-exploiting UI attacks.

* :class:`DrawAndDestroyOverlayAttack` — suppresses the overlay-presence
  alert by exploiting the slow-in notification animation (Section III);
* :class:`DrawAndDestroyToastAttack` — keeps a customized toast on screen
  indefinitely by exploiting the fade-out animation (Section IV);
* :class:`PasswordStealingAttack` — composes both into a fake-keyboard
  password theft (Section V);
* :class:`NotificationFloodingAttack` — saturates the notification
  channel instead of racing its animation (Knock-Knock style);
* the analytical timing model (Eqs. 1–3) and the empirical Λ1-boundary
  finder behind Table II.

The actor registry (``repro.actors.get_attacker("draw-and-destroy")``)
adds permissioning and lifecycle on top of these classes.
"""

from .clickjacking import ClickjackingAttack, ClickjackRecord, ContentHidingAttack
from .device_probe import DeviceProber, MIN_USEFUL_WINDOW_MS, ProbeResult
from .fake_keyboard import FakeKeyboard, FakeKeyboardFrame
from .flooding import (
    FLOOD_PACKAGE,
    FloodingConfig,
    FloodingStats,
    NotificationFloodingAttack,
)
from .key_inference import InferredKey, KeyInference, infer_offline, reconstruct_text
from .overlay_attack import (
    CapturedTouch,
    DrawAndDestroyOverlayAttack,
    MALWARE_PACKAGE,
    OverlayAttackConfig,
    OverlayAttackStats,
)
from .password_stealing import (
    PASSWORD_MALWARE_PACKAGE,
    PasswordAttackResult,
    PasswordErrorType,
    PasswordStealingAttack,
    PasswordStealingConfig,
    classify_password_attempt,
)
from .timing_channels import SideChannelConfig, UiStateSideChannel
from .timing import (
    BoundarySearchResult,
    MistouchEstimate,
    UpperBoundFinder,
    estimate_attack_duration,
    expected_mistouch_for_profile,
    expected_mistouch_time,
    upper_bound_d,
    upper_bound_d_for_profile,
)
from .toast_attack import (
    DrawAndDestroyToastAttack,
    TOAST_MALWARE_PACKAGE,
    ToastAttackConfig,
)

__all__ = [
    "BoundarySearchResult",
    "CapturedTouch",
    "ClickjackRecord",
    "ClickjackingAttack",
    "ContentHidingAttack",
    "DeviceProber",
    "MIN_USEFUL_WINDOW_MS",
    "ProbeResult",
    "DrawAndDestroyOverlayAttack",
    "DrawAndDestroyToastAttack",
    "FLOOD_PACKAGE",
    "FakeKeyboard",
    "FakeKeyboardFrame",
    "FloodingConfig",
    "FloodingStats",
    "InferredKey",
    "KeyInference",
    "MALWARE_PACKAGE",
    "MistouchEstimate",
    "NotificationFloodingAttack",
    "OverlayAttackConfig",
    "OverlayAttackStats",
    "PASSWORD_MALWARE_PACKAGE",
    "PasswordAttackResult",
    "PasswordErrorType",
    "PasswordStealingAttack",
    "PasswordStealingConfig",
    "SideChannelConfig",
    "TOAST_MALWARE_PACKAGE",
    "UiStateSideChannel",
    "ToastAttackConfig",
    "UpperBoundFinder",
    "classify_password_attempt",
    "estimate_attack_duration",
    "expected_mistouch_for_profile",
    "expected_mistouch_time",
    "infer_offline",
    "reconstruct_text",
    "upper_bound_d",
    "upper_bound_d_for_profile",
]
