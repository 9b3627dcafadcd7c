import numpy as np
import pytest

from steinshrink import _mc


def joint_parts(coupling, n, seed):
    """The joint chunks of a coupling's stream of n rows: each draw task's
    part, in row order, as `_mc.run` draws them."""
    return _mc.draw_parts(n, seed, coupling.d, coupling._centered)


def kernel_parts(kernel, model, n, seed):
    """The identity chunks of a Stein kernel on the model's n draws: each
    draw task's part, in row order, as `_mc.run` draws them."""
    return _mc.draw_parts(n, seed, model.d, kernel.stream(model))


def assert_zero_within(report, k=3.0, floor=1e-12):
    """|mean| < k * stderr, guarding against degenerate zero stderr."""
    assert abs(report.mean) < k * max(report.stderr, floor), (
        f"{report.label}: mean {report.mean:.6g} exceeds {k} x stderr {report.stderr:.6g}"
    )


def assert_close_within(report, target, k=3.0, floor=1e-12):
    assert abs(report.mean - target) < k * max(report.stderr, floor), (
        f"{report.label}: mean {report.mean:.6g} vs target {target:.6g} "
        f"beyond {k} x stderr {report.stderr:.6g}"
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
