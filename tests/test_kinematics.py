import numpy as np
import pytest

from mouseauth.errors import MouseAuthError
from mouseauth.ingest import Session
from mouseauth.kinematics import displacements, velocity_sequence


def session_from_txy(t, x, y):
    t, x, y = (np.asarray(col, dtype=float) for col in (t, x, y))
    return Session(user_id="u", session_id="s", t=t, x=x, y=y)


def session_from_xy(points, dt=0.01):
    x, y = zip(*points)
    return session_from_txy([i * dt for i in range(len(points))], x, y)


def test_three_four_five():
    assert displacements(session_from_xy([(0, 0), (3, 4)])) == pytest.approx([5.0])


def test_no_motion():
    assert displacements(session_from_xy([(1, 1), (1, 1)])) == pytest.approx([0.0])


def test_unit_steps():
    d = displacements(session_from_xy([(0, 0), (1, 0), (1, 1)]))
    assert d == pytest.approx([1.0, 1.0])


def test_too_short():
    # one event has no neighbour to move from, so it gives no speeds
    assert len(displacements(session_from_xy([(0, 0)]))) == 0
    assert len(velocity_sequence(session_from_xy([(0, 0)]), dt=1.0).v) == 0


def test_velocity_dt_one():
    vel = velocity_sequence(session_from_xy([(0, 0), (3, 4)]), dt=1.0)
    assert vel.v == pytest.approx([5.0])
    assert vel.dt == 1.0


def test_velocity_scaling():
    vel = velocity_sequence(session_from_xy([(0, 0), (3, 4)]), dt=0.01)
    assert vel.v == pytest.approx([500.0])


def test_invalid_dt():
    with pytest.raises(MouseAuthError, match="dt must be positive"):
        velocity_sequence(session_from_xy([(0, 0), (1, 1)]), dt=0.0)


# NaN gave NaN speeds, inf all zeros, True a dt of 1; the others a bare TypeError
# or OverflowError
@pytest.mark.parametrize("dt", [float("nan"), float("inf"), "0.01", True, None,
                                pytest.param(10**400, id="401-digit")])
def test_dt_must_be_positive_and_finite(dt):
    with pytest.raises(MouseAuthError, match="dt must be positive and finite"):
        velocity_sequence(session_from_xy([(0, 0), (1, 1)]), dt=dt)


def test_translation_invariance():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(30, 2))
    v1 = velocity_sequence(session_from_xy(pts)).v
    v2 = velocity_sequence(session_from_xy(pts + [17.0, -4.0])).v
    assert v1 == pytest.approx(v2.tolist())


def test_coordinate_scaling():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(30, 2))
    v1 = velocity_sequence(session_from_xy(pts)).v
    v3 = velocity_sequence(session_from_xy(pts * 3.0)).v
    assert v3 == pytest.approx((3.0 * v1).tolist())


def test_dt_division_property():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(20, 2))
    unit = velocity_sequence(session_from_xy(pts), dt=1.0).v
    scaled = velocity_sequence(session_from_xy(pts), dt=0.25).v
    assert scaled == pytest.approx((unit / 0.25).tolist())

