"""Every exported name resolves, in each module and in the package."""

import importlib
import pkgutil

import pytest

import steklov_rect

MODULES = sorted(f"steklov_rect.{m.name}" for m in pkgutil.iter_modules(steklov_rect.__path__))


def test_modules_found():
    assert {"steklov_rect.boundary", "steklov_rect.expansion", "steklov_rect.modes", "steklov_rect.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_star_import():
    names = getattr(steklov_rect, "__all__", [n for n in vars(steklov_rect) if not n.startswith("_")])
    assert [n for n in names if not hasattr(steklov_rect, n)] == []
    namespace = {}
    exec("from steklov_rect import *", namespace)
    assert set(names) <= set(namespace)


@pytest.mark.parametrize("name", ["mean", "boundary_norm", "coefficients"])
def test_retired_quadrature_wrappers_are_gone(name):
    # project returns the mean, the norm and every coefficient from one grid
    assert not hasattr(steklov_rect, name)
    assert not hasattr(steklov_rect.boundary, name)


def test_retired_bracket_error_is_gone():
    # every root solves a pole-free equation by Newton's iteration, so no bracket can fail
    assert not hasattr(steklov_rect, "BracketError")
    assert not hasattr(steklov_rect.roots, "BracketError")
