class ConfigError(Exception):
    """Invalid configuration or arguments. CLI exit code 1."""


class ChildLost(RuntimeError):
    """A stepping child or sweep worker ended without its end mark, as when
    the out-of-memory killer ends it. CLI exit code 1."""


class NumericalFailure(Exception):
    """A solver or cross-check breached its tolerance. CLI exit code 2."""
