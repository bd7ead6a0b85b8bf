"""Shared fixtures and a cache for expensive truncation/verification runs."""

import json

import pytest

from gknichols import ScalarRing, catalog, compute_truncation, \
    verify_presentation

_REPORTS = {}
_INSTANCES = {}


def entry_instance(name, params=None):
    """Cached (spec, presentation) for a catalog entry."""
    key = (name, json.dumps(params or {}, sort_keys=True))
    if key not in _INSTANCES:
        _INSTANCES[key] = catalog.instantiate(name, params or {})
    return _INSTANCES[key]


def entry_report(name, params=None, degree=6):
    """Cached verification report for a catalog entry."""
    key = (name, json.dumps(params or {}, sort_keys=True), degree)
    if key not in _REPORTS:
        spec, pres = entry_instance(name, params)
        _REPORTS[key] = verify_presentation(
            pres, compute_truncation(spec, degree))
    return _REPORTS[key]


@pytest.fixture(scope="session")
def ring12():
    return ScalarRing(12)


@pytest.fixture(scope="session")
def ring1():
    return ScalarRing(1)
