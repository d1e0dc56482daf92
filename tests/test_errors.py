import pickle

import pytest

from ffo import errors


@pytest.mark.parametrize("exc", [
    errors.FfoError("base"),
    errors.SignalRangeError("t=3 is outside [0, 2]"),
    errors.IntegrationError("nonfinite nu state at t=1.5", t=1.5),
    errors.IntegrationError("nonfinite epsilon state"),
    errors.SingularReductionError("reduction needs |f| >= 1e-09; violated at t=0.0"),
    errors.ContractError("free-oscillator closed form requires f = 0"),
    errors.ConfigError("run.dt", "must be positive"),
])
def test_every_error_survives_a_pickle_round_trip(exc):
    # a sweep worker pickles a scenario's exception to the process that raises it
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc) and str(back) == str(exc)
    for attr in ("path", "t"):
        assert getattr(back, attr, None) == getattr(exc, attr, None)
