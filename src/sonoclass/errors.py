"""The two exception types the package raises on bad input, and the
warning it gives when SVM pair solves stop before they converge.

The CLI maps each to one exit code: ConfigError to 1, every other
SonoclassError to 2, and NonConvergenceWarning, when warnings are errors,
to 3. The message says which check failed.
"""


class SonoclassError(Exception):
    """Bad data: an unreadable or malformed file, or input the pipeline
    cannot process."""


class ConfigError(SonoclassError):
    """Bad configuration: an unreadable or malformed config file, an
    unknown key, or a value outside its allowed range."""


class NonConvergenceWarning(RuntimeWarning):
    """Pair solves stopped at svm.max_passes; the message gives the count."""
