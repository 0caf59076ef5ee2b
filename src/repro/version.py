"""Package version, kept in sync with ``pyproject.toml``."""

__version__ = "2.0.0"
