import math

import numpy as np
import pytest

from mouseauth.errors import MouseAuthError
from mouseauth.ingest import SchemaMap, parse_session
from mouseauth.kinematics import VelocitySequence, velocity_sequence
from mouseauth.synth import (
    KINDS,
    SplitMix64,
    SynthSpec,
    generate,
    generate_user_pool,
    to_session_csv,
)


def test_splitmix64_known_stream():
    # reference values computed from the published SplitMix64 constants
    rng = SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
@pytest.mark.parametrize("n", [1, 2, 7, 1001, 14000])
def test_normals_are_box_muller_over_uniform_pairs(seed, n):
    # normals mixes its uniforms as one uint64 array: it must give the
    # stream that the scalar next_u64 gives, and end in the same state
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    z = fast.normals(n)
    want = []
    while len(want) < n:
        u1, u2 = slow.uniform(), slow.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        want += [radius * math.cos(2.0 * math.pi * u2), radius * math.sin(2.0 * math.pi * u2)]
    assert z.tolist() == want[:n]
    assert fast.state == slow.state


def test_generate_deterministic():
    spec = SynthSpec("gaussian_iid", {"mean": 10, "std": 1}, 500, seed=42)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.v, b.v)


def test_gaussian_mean_law_of_large_numbers():
    spec = SynthSpec("gaussian_iid", {"mean": 10, "std": 1}, 10000, seed=1)
    vel = generate(spec)
    assert abs(vel.v.mean() - 10) < 0.05


def test_sine_without_noise_is_periodic():
    spec = SynthSpec(
        "sine_plus_noise",
        {"amplitude": 1.0, "period": 50, "noise_std": 0.0, "mean": 2.0},
        400,
        seed=0,
    )
    v = generate(spec).v
    assert np.allclose(v[:350], v[50:], atol=1e-12)


def test_speeds_clamped_nonnegative():
    spec = SynthSpec("gaussian_iid", {"mean": 0, "std": 5}, 1000, seed=2)
    assert np.all(generate(spec).v >= 0)


def test_ar1_lag1_autocorrelation():
    phi = 0.7
    spec = SynthSpec("ar1", {"phi": phi, "sigma": 1.0, "mean": 30.0}, 10000, seed=8)
    v = generate(spec).v
    x = v - v.mean()
    rho = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
    assert abs(rho - phi) < 0.05


def test_invalid_specs():
    with pytest.raises(MouseAuthError, match=r"ar1 requires \|phi\| < 1"):
        generate(SynthSpec("ar1", {"phi": 1.2}, 100, seed=0))
    with pytest.raises(MouseAuthError, match="std must be positive"):
        generate(SynthSpec("gaussian_iid", {"std": -1}, 100, seed=0))
    with pytest.raises(MouseAuthError, match="sigma must be positive"):
        SynthSpec("ar1", {"sigma": 0}, 100)
    for params in [{"amplitude": 0}, {"period": -2.0}]:
        with pytest.raises(MouseAuthError, match="amplitude and period must be positive"):
            SynthSpec("sine_plus_noise", params, 100)
    with pytest.raises(MouseAuthError, match="noise_std must be >= 0"):
        SynthSpec("sine_plus_noise", {"noise_std": -0.1}, 100)
    with pytest.raises(MouseAuthError, match="unknown kind 'nope'"):
        generate(SynthSpec("nope", {}, 100, seed=0))
    with pytest.raises(MouseAuthError, match="length must be >= 1"):
        generate(SynthSpec("gaussian_iid", {}, 0, seed=0))
    # a misspelt parameter would otherwise fall back to its default
    for kind, params in [("ar1", {"phii": 0.99}), ("gaussian_iid", {"phi": 0.5}),
                         ("sine_plus_noise", {"std": 1.0})]:
        with pytest.raises(MouseAuthError, match=f"{kind} params are among"):
            SynthSpec(kind, params, 100)
    with pytest.raises(MouseAuthError, match="ar1 params are among"):
        SynthSpec("ar1", [("phi", 0.5)], 100)
    for value in [True, "0.5", None, float("nan"), float("inf"), 10**400]:
        with pytest.raises(MouseAuthError, match="params must be finite numbers"):
            SynthSpec("ar1", {"phi": value}, 100)
    for length, seed in [("50", 0), (True, 0), (50.0, 0), (50, 1.5), (50, False)]:
        with pytest.raises(MouseAuthError, match="length and seed must be ints"):
            SynthSpec("ar1", {}, length, seed)


# a negative dt wrote negative timestamps
@pytest.mark.parametrize("dt", [-1.0, 0.0, float("nan"), float("inf"), "0.01"])
def test_generate_rejects_bad_dt(dt):
    spec = SynthSpec("gaussian_iid", {}, 10)
    with pytest.raises(MouseAuthError, match="dt must be positive and finite"):
        generate(spec, dt=dt)
    with pytest.raises(MouseAuthError, match="dt must be positive and finite"):
        generate_user_pool({"u": [spec]}, dt=dt)


def test_user_pool_counts():
    specs = {
        f"u{i}": [
            SynthSpec("gaussian_iid", {"mean": 10, "std": 1}, 50, seed=10 * i + j)
            for j in range(2)
        ]
        for i in range(3)
    }
    pool = generate_user_pool(specs)
    assert sum(len(v) for v in pool.values()) == 6
    assert all(vel.user_id == user for user, vels in pool.items() for vel in vels)


def test_user_pool_empty_list_omitted():
    specs = {
        "a": [SynthSpec("gaussian_iid", {"mean": 5, "std": 1}, 50, seed=0)],
        "b": [],
    }
    pool = generate_user_pool(specs)
    assert set(pool) == {"a"}


def test_user_pool_disjoint_seeds_distinct():
    specs = {
        "a": [SynthSpec("gaussian_iid", {"mean": 5, "std": 1}, 50, seed=1)],
        "b": [SynthSpec("gaussian_iid", {"mean": 5, "std": 1}, 50, seed=2)],
    }
    pool = generate_user_pool(specs)
    assert not np.array_equal(pool["a"][0].v, pool["b"][0].v)


def test_user_pool_requires_users():
    with pytest.raises(MouseAuthError, match="at least one user required"):
        generate_user_pool({})


def test_csv_round_trip():
    spec = SynthSpec("gaussian_iid", {"mean": 20, "std": 2}, 100, seed=5)
    vel = generate(spec, dt=0.01)
    text = to_session_csv(vel)
    schema = SchemaMap(timestamp_col="t", x_col="x", y_col="y")
    session, report = parse_session(text.encode(), schema, "u", "s")
    assert report.dropped == 0
    recovered = velocity_sequence(session, dt=0.01)
    assert np.allclose(recovered.v, vel.v, rtol=1e-9, atol=1e-9)


def csv_row_loop(vel):
    # the scalar writer: each position is the previous one plus v * dt
    lines = ["t,x,y", "0,0,0"]
    x = 0.0
    for i, v in enumerate(vel.v):
        x += float(v) * vel.dt
        lines.append(f"{(i + 1) * vel.dt!r},{x!r},0")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("dt", [0.001, 0.37])
@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("length", [1, 1500])
def test_csv_bytes_equal_the_row_loop(kind, dt, length):
    params = {"noise_std": 0.5} if kind == "sine_plus_noise" else {}
    vel = generate(SynthSpec(kind, params, length, seed=7), dt=dt)
    assert to_session_csv(vel) == csv_row_loop(vel)


@pytest.mark.parametrize("dt", [0.001, 0.37])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_csv_bytes_equal_the_row_loop_on_zero_speeds_and_float32(dtype, dt):
    v = (np.random.default_rng(3).random(500) * 40.0).astype(dtype)
    v[::5] = 0.0
    v[1::5] = -0.0
    v[:3] = -0.0  # the first sum is 0.0 + -0.0
    vel = VelocitySequence("u", "s", dt, v)
    assert to_session_csv(vel) == csv_row_loop(vel)
