"""Multimodal (image/audio/video) columns as opaque binary + typed metadata.

Real-image/audio decode libraries are not available in this environment, so
the DECODE KERNEL is stubbed behind an import-try with a deterministic fake
codec ("XMG1" header: magic + width + height + channels, then payload
bytes). Everything Ray-side — schema, actor-pool stage shape, batch sizing
for large binary rows, feature output layout — is real and tested; swapping
``_decode_fake`` for PIL/libav is a one-function change.

Schema convention:
    media_id: int64, kind: string ('image'|'audio'|'video'),
    payload: binary, meta: string (JSON)

Scale notes: binary rows are wide — callers should use a small
``batch_size`` (64-256) and let block splitting handle the rest; the
feature output is narrow, so downstream stages revert to normal batches.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np
import pyarrow as pa

MAGIC = b"XMG1"

try:  # real decoder path (absent in this container)
    from PIL import Image  # noqa: F401

    _HAVE_PIL = True
except ImportError:
    _HAVE_PIL = False


def encode_fake_media(media_id: int, kind: str = "image") -> tuple[bytes, str]:
    """Deterministic fake media payload + JSON metadata for tests/benches."""
    h = int(hashlib.md5(f"media:{media_id}".encode()).hexdigest()[:8], 16)
    w, hgt, ch = 16 + h % 48, 16 + (h >> 8) % 48, 3
    rng = np.random.RandomState(h % (2**31))
    body = rng.randint(0, 256, size=w * hgt * ch, dtype=np.uint8).tobytes()
    payload = MAGIC + struct.pack("<HHB", w, hgt, ch) + body
    meta = json.dumps({"kind": kind, "width": w, "height": hgt, "channels": ch},
                      sort_keys=True)
    return payload, meta


def synth_media_table(n: int) -> pa.Table:
    payloads, metas, ids, kinds = [], [], [], []
    for i in range(n):
        kind = ("image", "audio", "video")[i % 3]
        p, m = encode_fake_media(i, kind)
        ids.append(i)
        kinds.append(kind)
        payloads.append(p)
        metas.append(m)
    return pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "kind": pa.array(kinds, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "meta": pa.array(metas, pa.string()),
    })


def _decode_fake(payload: bytes) -> np.ndarray:
    """Decode the deterministic fake codec -> HxWxC uint8 array."""
    if payload[:4] != MAGIC:
        raise ValueError("not an XMG1 payload")
    w, h, ch = struct.unpack("<HHB", payload[4:9])
    body = np.frombuffer(payload[9:9 + w * h * ch], dtype=np.uint8)
    return body.reshape(h, w, ch)


def decode_image(payload: bytes) -> np.ndarray:
    """Decode kernel: real library if present, else the deterministic fake.

    A production build would branch to PIL here; the container has no image
    libraries, so only the fake codec path is live (clearly marked stub).
    """
    if _HAVE_PIL and payload[:4] != MAGIC:
        raise NotImplementedError(
            "real image decode requires PIL at runtime; wire Image.open here"
        )
    return _decode_fake(payload)


class MediaFeatures:
    """Actor stage: binary payload -> numeric features.

    Emits (media_id, kind, width, height, channels, n_bytes, checksum,
    mean_intensity, hist16: list<int64>) — the layout any real extractor
    (CLIP embedding, mel spectrogram stats, ...) would slot into.
    """

    def __init__(self):
        self.decode = decode_image

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t.column("media_id").to_pylist()
        kinds = t.column("kind").to_pylist()
        payloads = t.column("payload").to_pylist()
        rows = {k: [] for k in ("width", "height", "channels", "n_bytes",
                                "checksum", "mean_intensity", "hist16")}
        for p in payloads:
            arr = self.decode(p)
            rows["width"].append(arr.shape[1])
            rows["height"].append(arr.shape[0])
            rows["channels"].append(arr.shape[2])
            rows["n_bytes"].append(len(p))
            rows["checksum"].append(hashlib.md5(p).hexdigest())
            rows["mean_intensity"].append(round(float(arr.mean()), 4))
            hist, _ = np.histogram(arr, bins=16, range=(0, 256))
            rows["hist16"].append(hist.astype(np.int64).tolist())
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "kind": pa.array(kinds, pa.string()),
            "width": pa.array(rows["width"], pa.int32()),
            "height": pa.array(rows["height"], pa.int32()),
            "channels": pa.array(rows["channels"], pa.int32()),
            "n_bytes": pa.array(rows["n_bytes"], pa.int64()),
            "checksum": pa.array(rows["checksum"], pa.string()),
            "mean_intensity": pa.array(rows["mean_intensity"], pa.float64()),
            "hist16": pa.array(rows["hist16"], pa.list_(pa.int64())),
        })


class MediaResize:
    """Actor stage: nearest-neighbor resize on the fake codec (the real
    kernel would be PIL/cv2; plumbing — batch shape, binary out — is real)."""

    def __init__(self, width: int = 16, height: int = 16):
        self.w, self.h = width, height

    def __call__(self, t: pa.Table) -> pa.Table:
        out = []
        for p in t.column("payload").to_pylist():
            arr = decode_image(p)
            ys = (np.arange(self.h) * arr.shape[0] // self.h)
            xs = (np.arange(self.w) * arr.shape[1] // self.w)
            small = arr[ys][:, xs]
            out.append(MAGIC + struct.pack("<HHB", self.w, self.h, arr.shape[2])
                       + small.tobytes())
        return pa.table({
            "media_id": t.column("media_id"),
            "kind": t.column("kind"),
            "payload": pa.array(out, pa.binary()),
            "meta": t.column("meta"),
        })


VMAGIC = b"XMV1"


def encode_fake_video(media_id: int, n_frames: int = 8) -> tuple[bytes, str]:
    """Deterministic fake video payload: XMV1 header (magic + w + h + ch +
    frame count) followed by ``n_frames`` contiguous raw frames."""
    h = int(hashlib.md5(f"video:{media_id}".encode()).hexdigest()[:8], 16)
    w, hgt, ch = 8 + h % 24, 8 + (h >> 8) % 24, 3
    rng = np.random.RandomState(h % (2**31))
    body = rng.randint(0, 256, size=n_frames * w * hgt * ch,
                       dtype=np.uint8).tobytes()
    payload = VMAGIC + struct.pack("<HHBB", w, hgt, ch, n_frames) + body
    meta = json.dumps({"kind": "video", "width": w, "height": hgt,
                       "channels": ch, "n_frames": n_frames}, sort_keys=True)
    return payload, meta


def synth_video_table(n: int, n_frames: int = 8) -> pa.Table:
    ids, payloads, metas = [], [], []
    for i in range(n):
        p, m = encode_fake_video(i, n_frames)
        ids.append(i)
        payloads.append(p)
        metas.append(m)
    return pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "kind": pa.array(["video"] * n, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "meta": pa.array(metas, pa.string()),
    })


def _decode_fake_video(payload: bytes) -> np.ndarray:
    """XMV1 -> FxHxWxC uint8 array (fake-codec demux; a real build swaps
    this for libav frame iteration — clearly-marked stub boundary)."""
    if payload[:4] != VMAGIC:
        raise ValueError("not an XMV1 payload")
    w, h, ch, f = struct.unpack("<HHBB", payload[4:10])
    body = np.frombuffer(payload[10:10 + f * w * h * ch], dtype=np.uint8)
    return body.reshape(f, h, w, ch)


class FrameSampler:
    """Actor stage: video payload -> uniformly sampled frames, EXPLODED one
    row per sampled frame (flat-map shape: wide binary in, several narrower
    binary rows out). Output frames use the image codec so every downstream
    image stage (features, resize) composes directly.

    Scale notes: video rows are the widest payloads in the schema — keep
    ``batch_size`` small (16-64) so batch x concurrency stays inside the
    worker heap; the explosion factor is bounded by ``n_out``.
    """

    def __init__(self, n_out: int = 4):
        self.n_out = n_out

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, fidx, frames = [], [], []
        for mid, p in zip(t.column("media_id").to_pylist(),
                          t.column("payload").to_pylist()):
            vid = _decode_fake_video(p)
            f, h, w, ch = vid.shape
            take = np.unique(np.linspace(0, f - 1, min(self.n_out, f),
                                         dtype=np.int64))
            for fi in take:
                ids.append(mid)
                fidx.append(int(fi))
                frames.append(MAGIC + struct.pack("<HHB", w, h, ch)
                              + vid[fi].tobytes())
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "frame_idx": pa.array(fidx, pa.int32()),
            "kind": pa.array(["image"] * len(ids), pa.string()),
            "payload": pa.array(frames, pa.binary()),
            "meta": pa.array([""] * len(ids), pa.string()),
        })


def _pool() -> int:
    """Actor-pool size for the media stages: half the cluster's CPUs."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    return max(1, cpus // 2)


def frame_sample(ds, n_out: int = 4, batch_size: int = 32, concurrency=None):
    return ds.map_batches(FrameSampler, fn_constructor_args=(n_out,),
                          batch_format="pyarrow", batch_size=batch_size,
                          concurrency=concurrency or _pool())


def media_features(ds, batch_size: int = 128, concurrency=None):
    return ds.map_batches(MediaFeatures, batch_format="pyarrow",
                          batch_size=batch_size,
                          concurrency=concurrency or _pool())


def media_resize(ds, width: int = 16, height: int = 16, batch_size: int = 128,
                 concurrency=None):
    return ds.map_batches(MediaResize, fn_constructor_args=(width, height),
                          batch_format="pyarrow", batch_size=batch_size,
                          concurrency=concurrency or _pool())
