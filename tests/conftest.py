import numpy as np
import pytest

from swarmsync import dynamics

SIX_AGENT_THETA0_DEG = [-60.0, -45.0, -30.0, 30.0, 45.0, 60.0]
SIX_AGENT_POSITIONS = [[-1.0, -2.0], [4.0, -2.0], [-1.0, 1.0], [2.0, 3.0], [0.0, 1.0], [2.0, -6.0]]


@pytest.fixture
def six_theta0():
    """Reference six-agent initial headings, radians."""
    return np.deg2rad(SIX_AGENT_THETA0_DEG)


@pytest.fixture
def six_positions():
    return np.asarray(SIX_AGENT_POSITIONS)


@pytest.fixture
def executed_steps(monkeypatch):
    """[count] of the RK4 steps taken since the fixture was set up, counted
    by wrapping the step that dynamics._rk4_step returns."""
    count = [0]
    rk4_step = dynamics._rk4_step

    def counting_rk4_step(*args):
        step, incr = rk4_step(*args)

        def counted(y, out):
            count[0] += 1
            step(y, out)

        return counted, incr

    monkeypatch.setattr(dynamics, "_rk4_step", counting_rk4_step)
    return count
