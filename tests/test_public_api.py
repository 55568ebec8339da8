"""The public API: each layer's __all__ is the one list of its names."""

import inspect
import os

import pytest

import schurdirac
from schurdirac import blockop, dirac, errors, solver

LAYERS = (blockop, dirac, errors, solver)
PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


def test_root_all_is_the_version_and_the_layer_lists():
    want = ["__version__"] + [name for layer in LAYERS for name in layer.__all__]
    assert schurdirac.__all__ == want
    assert len(set(want)) == len(want)


@pytest.mark.parametrize("layer", LAYERS, ids=lambda m: m.__name__)
def test_root_binds_the_layer_objects(layer):
    for name in layer.__all__:
        assert getattr(schurdirac, name) is getattr(layer, name)


@pytest.mark.parametrize("layer", LAYERS, ids=lambda m: m.__name__)
def test_layer_all_names_every_public_definition(layer):
    defined = {
        name
        for name, value in vars(layer).items()
        if not name.startswith("_")
        and (inspect.isclass(value) or inspect.isfunction(value))
        and value.__module__ == layer.__name__
    }
    assert defined <= set(layer.__all__)
    assert len(set(layer.__all__)) == len(layer.__all__)


def test_errors_all_is_every_class_errors_defines():
    defined = {
        name
        for name, value in vars(errors).items()
        if inspect.isclass(value) and value.__module__ == errors.__name__
    }
    assert sorted(errors.__all__) == sorted(defined)
    assert len(errors.__all__) == 15


def test_cli_is_not_re_exported():
    from schurdirac import cli

    assert not set(cli.__all__) & set(schurdirac.__all__)


def test_version_is_read_from_the_package():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as handle:
        config = tomllib.load(handle)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    attr = config["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "schurdirac.__version__"
    assert schurdirac.__version__ == "0.1.0"
