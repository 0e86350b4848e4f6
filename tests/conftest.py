"""Fixtures shared by the test modules."""

import os
import pathlib

import pytest

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def child_env():
    """Build the environment of a fresh interpreter that imports this checkout's qtraj.

    child_env(**overrides) copies os.environ, puts this checkout's src first
    on PYTHONPATH, with no empty entry (which would put the child's working
    directory on sys.path), and then applies the overrides: a string sets a
    variable, None drops it.
    """

    def build(**overrides):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC, *(p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p)])
        for key, value in overrides.items():
            if value is None:
                env.pop(key, None)
            else:
                env[key] = value
        return env

    return build
