import os

import numpy as np
import pytest

from texcurve import (
    ControlPolygon,
    SamplerConfig,
    TexelFormat,
    encode_bicubic_rgba,
    encode_bilinear_patch,
    encode_dc_cubic,
    encode_dc_quadratic,
    encode_dc_zigzag,
    encode_rational,
    encode_seiler,
)


IDEAL = SamplerConfig.ideal()
BITS8 = SamplerConfig(subtexel_bits=8)


def random_polygon(rng, degree, channels=1, lo=-1.0, hi=1.0):
    return ControlPolygon(rng.uniform(lo, hi, (degree + 1, channels)))


def random_c0_quadratics(rng, count, channels=1, lo=0.0, hi=1.0):
    """A chain of C0-joined quadratic segments with shared endpoints."""
    pts = rng.uniform(lo, hi, (2 * count + 1, channels))
    return [ControlPolygon(pts[2 * k : 2 * k + 3]) for k in range(count)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def one_curve_per_layout():
    """Layout -> one small float32 curve encoded in it, for every Layout."""
    rng = np.random.default_rng(11)
    f32 = TexelFormat.FLOAT32
    curves = (
        encode_dc_quadratic(random_polygon(rng, 2, 2), f32),
        encode_dc_cubic(random_polygon(rng, 3, 2), f32),
        encode_dc_zigzag(random_c0_quadratics(rng, 3), f32),
        encode_seiler(random_polygon(rng, 3, 2), f32),
        encode_seiler(random_polygon(rng, 5), f32),
        encode_bilinear_patch(rng.uniform(0, 1, (2, 2)), f32),
        encode_bicubic_rgba(rng.uniform(0, 1, (4, 4)), f32),
        encode_rational(random_polygon(rng, 2, 2, lo=0.0), [1.0, 0.7, 1.0], f32),
    )
    return {curve.layout: curve for curve in curves}


def check_writer(write, tmp_path, monkeypatch):
    """Check `write(folder)`, which writes one or more files into `folder`,
    against the contract of every output file:

    - a new file gets `0o666 & ~umask`, as `open()` gives it;
    - a longer old file ends holding exactly the new bytes, with no stale
      tail, and a shorter one grows to them;
    - a symlink is written through, and stays a link;
    - no `os.open` call asks for `O_TRUNC`, and each file is opened once.
    """
    def files(folder):
        return {path.name: path.read_bytes() for path in folder.iterdir()}

    def folder(name, old=None):
        path = tmp_path / name
        path.mkdir()
        for file, blob in (old or {}).items():
            (path / file).write_bytes(blob)
        return path

    fresh = folder("fresh")
    umask = os.umask(0o027)
    try:
        write(fresh)
    finally:
        os.umask(umask)
    new = files(fresh)
    assert new
    assert {path.stat().st_mode & 0o777 for path in fresh.iterdir()} == {0o640}

    longer = {name: b"#" * (len(blob) + 100) for name, blob in new.items()}
    for name, old in (("longer", longer), ("shorter", {name: b"#" for name in new})):
        write(into := folder(name, old))
        assert files(into) == new, name

    links, targets = folder("links"), folder("targets", longer)
    for name in new:
        (links / name).symlink_to(targets / name)
    write(links)
    assert all((links / name).is_symlink() for name in new)
    assert files(targets) == new

    flags, real_open = [], os.open

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(os, "open", recording_open)
        write(folder("recorded", longer))
    assert len(flags) == len(new)
    assert not any(flag & os.O_TRUNC for flag in flags)
