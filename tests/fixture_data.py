"""The tests' reader of the builtin fixture files (the package reads paths only)."""

import json

from milnor_classes.examples import fixture_path


def load_fixture(name: str) -> dict:
    """The parsed JSON of a builtin fixture; KeyError for an unknown name."""
    return json.loads(fixture_path(name).read_text())
