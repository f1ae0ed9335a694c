"""Shared fixtures and helpers for the test suite."""

import json

import numpy as np
import pytest

from qstream import GridSpec, fresnel_propagate, gaussian_packet
from qstream.optics import PoyntingField


def strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity, which RFC 8259
    does not allow."""
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=reject)


@pytest.fixture(autouse=True)
def _manifests_are_strict_json(request):
    """Every manifest.json a test leaves under its tmp_path parses as
    strict JSON."""
    tmp = (request.getfixturevalue("tmp_path")
           if "tmp_path" in request.fixturenames else None)
    yield
    if tmp is not None:
        for path in tmp.rglob("manifest.json"):
            strict_json(path.read_text())


def sym_grid(half: float, n: int) -> GridSpec:
    return GridSpec(-half, half, n)


def max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def fresnel_planes(scene, source_dx=None) -> list:
    """The (i, z, psi, psi_x, psi_z) that fresnel_propagate hands a
    consumer, in the order handed."""
    planes = []
    fresnel_propagate(scene, source_dx, consumers=(
        lambda *plane: planes.append(plane),))
    return planes


def poynting_lattice(scene, source_dx=None) -> PoyntingField:
    """The PoyntingField of a scene, filled plane by plane as a run does."""
    pf = PoyntingField(scene)
    fresnel_propagate(scene, source_dx, consumers=(pf.add_plane,))
    return pf


__all__ = ["sym_grid", "max_abs", "gaussian_packet", "fresnel_planes",
           "poynting_lattice", "strict_json"]
