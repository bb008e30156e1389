"""Seeded, bounded fuzzing of the untrusted inputs: the CMV1 and CMCK binary
formats and the dataset manifest.

Every case is the valid file with some bytes flipped (half of the flips land
in the header), cut short, or with bytes appended. A case must either load
or raise a ValueError; a cut or extended binary file must always raise, a
flipped CMCK file too (its body has a CRC32), and every error of the CMV1,
CMCK and manifest readers must name the file.
"""

import json
from collections import Counter

import numpy as np

from cmssl.codec import _HEADER, RawVideo, decode_video, encode_video, read_cmv1, write_cmv1
from cmssl.networks import _CKPT_HEADER, ModelBundle, ModelConfig, TransformerConfig, load_checkpoint, save_checkpoint
from cmssl.pretext import load_videos
from cmssl.synthgen import generate_dataset, manifest_digest

CASES = 300


def mutants(data: bytes, header_bytes: int, seed: int):
    """(kind, bytes) pairs: CASES seeded variants of data, a third of each kind."""
    rng = np.random.default_rng(seed)
    for i in range(CASES):
        kind = ("flip", "truncate", "append")[i % 3]
        buf = bytearray(data)
        if kind == "flip":
            for _ in range(rng.integers(1, 4)):
                span = header_bytes if rng.random() < 0.5 else len(buf)
                buf[rng.integers(span)] ^= int(rng.integers(1, 256))
        elif kind == "truncate":
            del buf[rng.integers(len(buf)) :]
        else:
            buf += rng.integers(0, 256, size=rng.integers(1, 64), dtype=np.uint8).tobytes()
        yield kind, bytes(buf)


def fuzz(load, path, header_bytes: int, seed: int) -> Counter:
    """Run load on every mutant of the file at path; count the outcomes."""
    data = path.read_bytes()
    outcomes = Counter()
    for kind, buf in mutants(data, header_bytes, seed):
        path.write_bytes(buf)
        try:
            load(path)
        except ValueError:
            outcomes[kind, "rejected"] += 1
        else:
            assert kind == "flip", f"a {kind}d file of {len(buf)} bytes (from {len(data)}) loaded"
            outcomes[kind, "loaded"] += 1
    return outcomes


def read_and_decode(path):
    try:
        cv = read_cmv1(path)
    except ValueError as e:
        assert str(path) in str(e), f"read_cmv1 error does not name the file: {e}"
        raise
    decode_video(cv)


def load_named(path):
    try:
        load_checkpoint(path)
    except ValueError as e:
        assert str(path) in str(e), f"load_checkpoint error does not name the file: {e}"
        raise


def test_cmv1_mutants_load_or_raise_a_named_value_error(tmp_path):
    rng = np.random.default_rng(0)
    base = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    frames = np.stack([np.roll(base, (t, 2 * t), axis=(0, 1)) for t in range(13)])
    path = tmp_path / "video.cmv1"
    write_cmv1(encode_video(RawVideo(frames=frames)), path)
    outcomes = fuzz(read_and_decode, path, _HEADER.size, seed=1)
    # pixel flips decode, header and MV flips do not
    assert outcomes["flip", "loaded"] > 0 and outcomes["flip", "rejected"] > 0, outcomes


def test_cmck_mutants_load_or_raise_a_value_error(tmp_path):
    config = ModelConfig(
        input_size=8, clip_len=4, mv_len=4, v_channels=(2, 2, 2), i_channels=(2, 2, 2), m_channels=(2, 2, 2),
        embed_dim=4, head_hidden=4,
        transformer=TransformerConfig(encoder_layers=1, decoder_layers=1, width=4, heads=1, ff_width=4),
    )
    path = tmp_path / "model.cmck"
    save_checkpoint(ModelBundle(config, seed=0), path)
    (meta_bytes,) = np.frombuffer(path.read_bytes()[6:10], dtype="<u4")
    outcomes = fuzz(load_named, path, _CKPT_HEADER.size + int(meta_bytes), seed=2)
    # the body CRC32 catches every flip the structural checks let through
    assert outcomes["flip", "loaded"] == 0 and outcomes["flip", "rejected"] == CASES // 3, outcomes


def test_manifest_mutants_load_or_raise_a_named_value_error(tmp_path):
    dataset = tmp_path / "data"
    generate_dataset(dataset, n_videos=4, k_context=2, k_motion=2, frames=13, resolution=(32, 32), seed=0)
    (dataset / "sub").mkdir()
    manifest = dataset / "manifest.jsonl"
    data = manifest.read_bytes()
    # the record paths that name no file of the dataset, with the valid first
    # line kept; the two outside it name a valid video
    first, rest = data.split(b"\n", 1)
    record = json.loads(first)
    outside = tmp_path / "outside.cmv1"
    outside.write_bytes((dataset / record["path"]).read_bytes())
    bad = ("", ".", "sub", "a\0b.cmv1", "../outside.cmv1", str(outside))
    paths = [json.dumps({**record, "path": p}).encode() + b"\n" + rest for p in bad]
    cases = [(kind, buf) for kind, buf in mutants(data, len(first) + 1, seed=3)] + [("path", buf) for buf in paths]
    outcomes = Counter()
    for kind, buf in cases:
        manifest.write_bytes(buf)
        try:
            load_videos(dataset)
            manifest_digest(dataset)
        except ValueError as e:
            assert str(manifest) in str(e), f"a {kind} case raised without naming the manifest: {e}"
            outcomes[kind, "rejected"] += 1
        else:
            outcomes[kind, "loaded"] += 1
    assert outcomes["path", "rejected"] == len(paths), outcomes
    assert outcomes["flip", "rejected"] > 0 and outcomes["truncate", "rejected"] > 0, outcomes
