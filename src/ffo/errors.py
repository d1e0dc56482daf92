"""Exception types shared across the toolkit."""


class FfoError(Exception):
    """Base class for all toolkit errors."""


class SignalRangeError(FfoError):
    """A tabulated signal was evaluated outside its time range."""


class IntegrationError(FfoError):
    """An integrator produced a nonfinite state.

    Carries the offending time in ``t``.
    """

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class SingularReductionError(FfoError):
    """A reduction formula was evaluated where its denominator vanishes.

    The nu_plus-based reduction chain requires f(t) != 0 (and nu_plus != 0
    for the compact nu_minus form); below the floors ``F_MIN`` and ``NU_MIN``
    the formulas are declared singular instead of returning garbage.
    """


class ContractError(FfoError):
    """An operation's precondition was violated (e.g. non-unitary input)."""


class ConfigError(FfoError):
    """Scenario configuration is malformed; ``path`` locates the bad field.

    ``args`` is ``(path, message)``, so a pickle round trip rebuilds it.
    """

    def __init__(self, path: str, message: str):
        super().__init__(path, message)
        self.path = path

    def __str__(self) -> str:
        return f"{self.path}: {self.args[1]}"
