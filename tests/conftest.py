"""Set-up shared by every test module."""

import warnings

# When a @given test fails, hypothesis's pytest plugin imports
# hypothesis.extra._patching, and its libcst import warns that
# mypy_extensions.TypedDict is deprecated.  Under filterwarnings = ["error"] that
# warning becomes an INTERNALERROR in place of the falsifying example.  Importing
# the module once here, with only that warning ignored, leaves every other
# warning an error.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
