"""Shared small algebras used across the test modules, and a constructor
counter for the cost tests."""

from contextlib import contextmanager

from albv.algebroid import lie_algebra


@contextmanager
def counting(monkeypatch, cls, method="__init__"):
    """Count the calls of ``cls.method`` inside the block; yields the list
    that collects one entry per call."""
    calls = []
    original = getattr(cls, method)

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, counted)
    try:
        yield calls
    finally:
        monkeypatch.setattr(cls, method, original)


def sl2():
    return lie_algebra(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})


def aff1():
    return lie_algebra(2, {(0, 1): {1: 1}})


def heisenberg():
    return lie_algebra(3, {(0, 1): {2: 1}})
