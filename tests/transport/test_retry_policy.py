"""``RetryPolicy`` refuses a schedule that would break every exchange."""

import math

import pytest

from repro.transport.base import RetryPolicy

NAN = math.nan


def test_the_default_schedule_backs_off_to_its_ceiling():
    assert list(RetryPolicy().timeouts()) == [
        0.25, 0.5, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0
    ]


@pytest.mark.parametrize(
    "fields",
    [
        {"timeout": 0},
        {"timeout": -1.0},
        {"timeout": NAN},
        {"backoff": 0.5},
        {"backoff": NAN},
        # A zero ceiling turns every attempt into an immediate timeout.
        {"max_timeout": 0},
        {"max_timeout": -1.0},
        {"max_timeout": NAN},
        {"max_attempts": 0},
    ],
)
def test_bad_fields_are_rejected(fields):
    with pytest.raises(ValueError, match="bad retry policy"):
        RetryPolicy(**fields)


def test_every_timeout_of_a_valid_policy_is_positive():
    policy = RetryPolicy(timeout=0.1, backoff=1.0, max_timeout=0.05)
    assert list(policy.timeouts()) == [0.05] * policy.max_attempts
