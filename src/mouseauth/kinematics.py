"""Velocity extraction from cursor coordinate sequences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDt, TooShort
from .ingest import Session


@dataclass(frozen=True)
class VelocitySequence:
    """Per-session scalar speed series (pixels/second)."""

    user_id: str
    session_id: str
    dt: float
    v: np.ndarray  # 1-D float array, all finite and >= 0


def displacements(session: Session) -> np.ndarray:
    """Euclidean distance between consecutive cursor positions."""
    if len(session.t) < 2:
        raise TooShort(f"{session.session_id}: need >= 2 events")
    return np.hypot(np.diff(session.x), np.diff(session.y))


def velocity_sequence(session: Session, dt: float = 0.01) -> VelocitySequence:
    """Convert a session to a speed sequence at the fixed sampling interval dt."""
    if dt <= 0:
        raise InvalidDt(f"dt must be positive, got {dt}")
    v = displacements(session) / dt
    return VelocitySequence(session.user_id, session.session_id, dt, v)
