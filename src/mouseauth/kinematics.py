"""Velocity extraction from cursor coordinate sequences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MouseAuthError, is_positive_finite
from .ingest import Session


@dataclass(frozen=True)
class VelocitySequence:
    """Per-session scalar speed series (pixels/second)."""

    user_id: str
    session_id: str
    dt: float
    v: np.ndarray  # 1-D float array, all finite and >= 0


def displacements(session: Session) -> np.ndarray:
    """Euclidean distance between consecutive cursor positions; one event
    gives none."""
    return np.hypot(np.diff(session.x), np.diff(session.y))


def check_dt(dt: float):
    """Raise MouseAuthError unless dt is a positive finite sampling interval."""
    if not is_positive_finite(dt):
        raise MouseAuthError(f"dt must be positive and finite, got {dt!r}")


def velocity_sequence(session: Session, dt: float = 0.01) -> VelocitySequence:
    """Convert a session to a speed sequence at the fixed sampling interval dt."""
    check_dt(dt)
    v = displacements(session) / dt
    return VelocitySequence(session.user_id, session.session_id, dt, v)
