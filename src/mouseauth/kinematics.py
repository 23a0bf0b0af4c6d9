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

    def __len__(self) -> int:
        return len(self.v)


def displacements(session: Session) -> np.ndarray:
    """Euclidean distance between consecutive cursor positions."""
    if len(session.t) < 2:
        raise TooShort(f"{session.session_id}: need >= 2 events")
    return np.hypot(np.diff(session.x), np.diff(session.y))


def velocity_sequence(
    session: Session,
    dt: float = 0.01,
    use_actual_dt: bool = False,
    gap_split_seconds: float | None = None,
) -> VelocitySequence | list[VelocitySequence]:
    """Convert a session to a speed sequence.

    The default assumes a fixed sampling interval dt. With use_actual_dt the
    observed timestamp gaps are used instead and zero-gap pairs are dropped.
    If gap_split_seconds is given, the sequence is severed at idle gaps longer
    than the threshold and a list of sub-sequences is returned.
    """
    if dt <= 0:
        raise InvalidDt(f"dt must be positive, got {dt}")
    d = displacements(session)
    gaps = np.diff(session.t)
    if use_actual_dt:
        keep = gaps > 0
        v = d[keep] / gaps[keep]
        gaps = gaps[keep]
    else:
        v = d / dt

    if gap_split_seconds is None:
        return VelocitySequence(session.user_id, session.session_id, dt, v)

    # a speed sample spanning an idle gap is itself an artifact: remove it
    # and sever the sequence there
    parts: list[VelocitySequence] = []
    start = 0
    for b in np.flatnonzero(gaps > gap_split_seconds):
        if b > start:
            parts.append(
                VelocitySequence(
                    session.user_id, f"{session.session_id}.{len(parts)}", dt, v[start:b]
                )
            )
        start = b + 1
    if start < len(v):
        parts.append(
            VelocitySequence(
                session.user_id, f"{session.session_id}.{len(parts)}", dt, v[start:]
            )
        )
    return parts


def export_csv(vel: VelocitySequence) -> str:
    """Single-column CSV of the speed series, for inspection/plotting."""
    lines = ["v"] + [repr(float(x)) for x in vel.v]
    return "\n".join(lines) + "\n"
