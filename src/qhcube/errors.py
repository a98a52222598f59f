"""The error base the CLI reports as one line, ``error: <code>: <message>``."""


class QhcubeError(ValueError):
    """A failure with a stable CLI name ``code`` and process ``exit_status``."""

    code = "Error"
    exit_status = 1
