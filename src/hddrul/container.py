"""Model files: one versioned binary container for every model kind.

A container is an uncompressed ``.npz`` archive of named arrays, each stored
with the dtype and shape it has in memory, plus a ``kind`` and a ``version``
member. Nothing in it is pickled, a load gives back the saved arrays bit for
bit, and saving the same model twice gives the same bytes.
"""
from __future__ import annotations

import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError

VERSION = 2


def write(path: str | Path, kind: str, arrays: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, kind=np.array(kind), version=np.array(VERSION), **arrays)


@contextmanager
def _archive(path: str | Path):
    """The open archive; any failure inside the block is a DataError naming the file."""
    try:
        with open(path, "rb") as fh:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("a bare .npy array, not an .npz container")
            with archive:
                yield archive
    except (OSError, EOFError, KeyError, ValueError, NotImplementedError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path}: cannot load the model file ({type(exc).__name__}: {exc})") from exc


def read_kind(path: str | Path) -> str:
    with _archive(path) as archive:
        return str(archive["kind"])


def read(path: str | Path, kind: str, build):
    """``build(member)`` over the container at ``path``, which must be of ``kind``.

    ``member(name, dtype, ndim)`` returns the named array, or the Python value
    of a 0-d one, after checking its dtype and dimensions, and that a float64
    one holds no NaN or infinity. Every failure,
    including a ``KeyError`` or ``ValueError`` that ``build`` raises for
    content that does not fit, is a DataError naming the file.
    """
    with _archive(path) as archive:
        found = (str(archive["kind"]), str(archive["version"]))
        if found != (kind, str(VERSION)):
            raise ValueError(f"{found[0]!r} version {found[1]}, expected {kind!r} version {VERSION}")

        def member(name: str, dtype, ndim: int):
            array = archive[name]
            if array.dtype != dtype or array.ndim != ndim:
                raise ValueError(f"{name} is {array.ndim}-d {array.dtype}, "
                                 f"expected {ndim}-d {np.dtype(dtype)}")
            if array.dtype == np.float64 and not np.isfinite(array).all():
                raise ValueError(f"{name} holds a value that is not finite")
            return array.item() if ndim == 0 else array

        return build(member)
