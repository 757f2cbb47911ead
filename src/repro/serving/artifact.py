"""Self-describing model bundles for serving processes.

``training.persistence`` stores bare parameter arrays and leaves the
architecture to the caller; that is fine inside one script but useless
for a serving process that only receives a file.  An *artifact* bundles
everything a fresh process needs:

- the model's registry name and hyperparameters,
- the dataset encoding metadata (entity counts, attribute tables and
  their field order, so the rebuilt :class:`FeatureSpace` assigns the
  exact same global feature indices),
- the interaction log (drives seen-item masking) plus the training
  interactions graph models built their propagation graph from, and
- the parameter arrays themselves.

Two on-disk layouts share one loader:

``npz`` (legacy)
    A single ``.npz`` archive.  Written deterministically (fixed zip
    member timestamps, sorted members — see
    :func:`repro.training.persistence.write_npz_deterministic`) so
    byte-identical models produce byte-identical files.  Cannot be
    memory-mapped: ``np.load`` materializes every array into the
    loading process.

``dir`` (manifest)
    A directory of per-array ``.npy`` files plus a ``manifest.json``
    carrying the metadata and the key→file table.  Also written
    deterministically (sorted keys, canonical JSON).  Because each
    array is a bare ``.npy`` file, ``load_artifact(path, mmap=True)``
    rebuilds the model over **memory-mapped, read-only**
    (``writeable=False``) views: page-cache-backed, demand-paged, and
    shared copy-on-write by every process on the host that maps the
    same bundle — the substrate that lets N serving processes on one
    host hold ~one copy of the model instead of N.

``load_artifact`` reconstructs model + dataset without touching any
training code.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from repro.data.dataset import RecDataset
from repro.models.base import RecommenderModel
from repro.training.persistence import (normalize_npz_path,
                                        write_npz_deterministic)

#: Bumped when the archive layout changes incompatibly.  Version 2
#: added the manifest/dir layout; version-1 ``.npz`` bundles (and
#: version-2 ones, which are array-compatible) keep loading.
ARTIFACT_VERSION = 2

_LAYOUTS = ("npz", "dir")
MANIFEST_NAME = "manifest.json"
ARRAY_DIR = "arrays"

_META_KEY = "__meta__"
_PARAM_PREFIX = "param::"
_ATTR_TEMPLATE = "attr::{side}::{name}::{part}"


@dataclass
class LoadedArtifact:
    """Everything :func:`load_artifact` reconstructs from one bundle."""

    model: RecommenderModel
    dataset: RecDataset
    model_name: str
    hyperparams: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    #: Which on-disk layout the bundle used (``"npz"`` or ``"dir"``).
    layout: str = "npz"
    #: Whether the parameters are memory-mapped read-only views.
    mmap: bool = False
    #: The training interactions graph models built their propagation
    #: graph from — kept so :func:`convert_artifact` can re-save the
    #: bundle without collapsing the split back to the full log.
    train_interactions: Optional[tuple[np.ndarray, np.ndarray]] = None


def _known_model_names() -> set[str]:
    from repro.experiments.registry import (RATING_MODELS,
                                            SERVING_ONLY_MODELS, TOPN_MODELS)

    return set(RATING_MODELS) | set(TOPN_MODELS) | set(SERVING_ONLY_MODELS)


def _array_filename(key: str, taken: set[str]) -> str:
    """Deterministic filesystem-safe ``.npy`` name for an array key."""
    stem = re.sub(r"[^A-Za-z0-9._-]", "_", key) or "array"
    name, n = f"{stem}.npy", 0
    while name in taken:
        n += 1
        name = f"{stem}-{n}.npy"
    taken.add(name)
    return name


def save_artifact(
    model: RecommenderModel,
    dataset: RecDataset,
    path: str,
    model_name: str,
    hyperparams: Optional[dict] = None,
    train_interactions: Optional[tuple[np.ndarray, np.ndarray]] = None,
    layout: str = "npz",
) -> str:
    """Write a self-describing serving bundle; returns the real path.

    The rebuild recipe is validated *at save time*: a skeleton model is
    constructed from ``(model_name, hyperparams)`` and its parameter
    shapes checked against ``model``, so a bundle that cannot be loaded
    fails here — while the training run still exists — rather than in
    the serving process.

    Parameters
    ----------
    model:
        The trained model whose parameters are bundled.
    dataset:
        Supplies the encoding metadata and the interaction log.
    path:
        Target file; with ``layout="npz"`` the ``.npz`` suffix is
        appended when missing, with ``layout="dir"`` the path names a
        directory that is created (it must not already hold foreign
        files).
    model_name:
        The model's :mod:`repro.experiments.registry` name (e.g.
        ``"GML-FMmd"``) — the recipe ``load_artifact`` uses to rebuild
        the architecture.
    hyperparams:
        Keyword arguments forwarded to ``registry.build_model`` at load
        time (``k``, ``seed``); defaults to the model's own ``k`` and
        seed 0.
    train_interactions:
        ``(users, items)`` the model's propagation graph was built from
        — only meaningful for graph models (NGCF).  Defaults to the
        dataset's full interaction log; pass the actual training split
        so the rebuilt model scores identically to the evaluated one.
    layout:
        ``"npz"`` (default, the legacy single-archive format) or
        ``"dir"`` (per-array ``.npy`` files + JSON manifest — the only
        layout :func:`load_artifact` can memory-map).
    """
    if layout not in _LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}; options: {_LAYOUTS}")
    known = _known_model_names()
    if model_name not in known:
        raise KeyError(f"unknown model {model_name!r}; options: {sorted(known)}")
    if hyperparams is None:
        hyperparams = {}
    hyperparams = {"k": getattr(model, "k", 16), "seed": 0, **hyperparams}
    if train_interactions is None:
        graph_users, graph_items = dataset.users, dataset.items
    else:
        graph_users = np.asarray(train_interactions[0], dtype=np.int64)
        graph_items = np.asarray(train_interactions[1], dtype=np.int64)

    state = model.state_dict()
    if not state:
        raise ValueError("model has no parameters to save")

    # Dry-run the load-time rebuild: unknown hyperparams raise here
    # (TypeError from build_model) and architecture drift is reported
    # as a shape diff instead of a load_state_dict failure later.
    from repro.experiments.registry import build_model

    skeleton = build_model(model_name, dataset,
                           train_users=graph_users, train_items=graph_items,
                           **hyperparams)
    skeleton_state = skeleton.state_dict()
    mismatches = sorted(
        set(state) ^ set(skeleton_state)
    ) + sorted(
        name for name in set(state) & set(skeleton_state)
        if state[name].shape != skeleton_state[name].shape
    )
    if mismatches:
        raise ValueError(
            f"{model_name!r} with hyperparams {hyperparams} does not rebuild "
            f"this model's architecture; mismatched parameters: {mismatches}")

    meta = {
        "format": "repro-artifact",
        "version": ARTIFACT_VERSION,
        "model": model_name,
        "hyperparams": hyperparams,
        "dataset": {
            "name": dataset.name,
            "n_users": dataset.n_users,
            "n_items": dataset.n_items,
            "user_attrs": list(dataset.user_attrs),
            "item_attrs": list(dataset.item_attrs),
        },
        "parameters": sorted(state),
    }

    arrays: dict[str, np.ndarray] = {
        "interactions::users": dataset.users,
        "interactions::items": dataset.items,
        "interactions::timestamps": dataset.timestamps,
        "graph::users": graph_users,
        "graph::items": graph_items,
    }
    for side, attrs in (("user", dataset.user_attrs), ("item", dataset.item_attrs)):
        for name, (idx, val) in attrs.items():
            arrays[_ATTR_TEMPLATE.format(side=side, name=name, part="indices")] = idx
            arrays[_ATTR_TEMPLATE.format(side=side, name=name, part="values")] = val
    for name, value in state.items():
        arrays[_PARAM_PREFIX + name] = value

    if layout == "npz":
        path = normalize_npz_path(path)
        write_npz_deterministic(
            path, {_META_KEY: np.array(json.dumps(meta)), **arrays})
        return path
    return _write_dir(Path(path), meta, arrays)


def _write_dir(root: Path, meta: dict, arrays: dict) -> str:
    """Write the manifest layout; refuses to clobber foreign content."""
    if root.exists():
        if not root.is_dir():
            raise ValueError(f"{root} exists and is not a directory")
        if any(root.iterdir()) and not (root / MANIFEST_NAME).exists():
            raise ValueError(
                f"{root} is a non-empty directory without a {MANIFEST_NAME}; "
                f"refusing to overwrite foreign files")
    array_dir = root / ARRAY_DIR
    array_dir.mkdir(parents=True, exist_ok=True)
    taken: set[str] = set()
    table = {}
    for key in sorted(arrays):
        value = np.asarray(arrays[key])
        filename = _array_filename(key, taken)
        np.save(array_dir / filename, value, allow_pickle=False)
        table[key] = {
            "file": f"{ARRAY_DIR}/{filename}",
            "dtype": value.dtype.str,
            "shape": list(value.shape),
        }
    # Drop stale arrays a previous (differently shaped) save left over,
    # so the directory's bytes are a pure function of this bundle.
    for leftover in sorted(array_dir.iterdir()):
        if leftover.name not in taken:
            leftover.unlink()
    manifest = dict(meta)
    manifest["layout"] = "dir"
    manifest["arrays"] = table
    (root / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return str(root)


def _read_attrs(get, side: str, names: list[str]) -> dict:
    attrs = {}
    for name in names:
        idx = get(_ATTR_TEMPLATE.format(side=side, name=name, part="indices"))
        val = get(_ATTR_TEMPLATE.format(side=side, name=name, part="values"))
        attrs[name] = (idx, val)
    return attrs


def detect_layout(path: str) -> str:
    """``"dir"`` when ``path`` is a manifest bundle, else ``"npz"``."""
    p = Path(path)
    if p.is_dir():
        if (p / MANIFEST_NAME).exists():
            return "dir"
        raise ValueError(f"{path!r} is a directory without a {MANIFEST_NAME}; "
                         f"not a repro artifact")
    return "npz"


def load_artifact(path: str, mmap: bool = False) -> LoadedArtifact:
    """Rebuild model + dataset from a :func:`save_artifact` bundle.

    Parameters
    ----------
    path:
        A legacy ``.npz`` archive or a manifest directory; the layout
        is auto-detected.
    mmap:
        Load every array as a memory-mapped **read-only** view
        (``writeable=False``) instead of materializing copies.  The
        model's parameters are rebound to the views zero-copy
        (``load_state_dict(assign=True)``), so all processes mapping
        the same bundle share one page cache.  Requires the ``dir``
        layout; a read-only model serves normally but rejects in-place
        updates — fold-in needs ``mmap=False`` or
        ``OnlineConfig(on_readonly="copy")`` (see
        :mod:`repro.training.online`).
    """
    layout = detect_layout(path)
    if layout == "dir":
        return _load_dir(Path(path), mmap=mmap)
    if mmap:
        raise ValueError(
            f"legacy .npz bundles cannot be memory-mapped ({path!r}); "
            f"re-save with save_artifact(..., layout='dir') or "
            f"convert_artifact(src, dst) and load the directory bundle")
    with np.load(normalize_npz_path(path)) as archive:
        if _META_KEY not in archive.files:
            raise ValueError(f"{path!r} is not a repro artifact (no metadata); "
                             "bare parameter dumps load with training.load_model")
        meta = json.loads(str(archive[_META_KEY]))
        arrays = {name: archive[name] for name in archive.files
                  if name != _META_KEY}
    return _rebuild(meta, arrays.__getitem__, set(arrays),
                    layout="npz", mmap=False)


def _load_dir(root: Path, mmap: bool) -> LoadedArtifact:
    meta = json.loads((root / MANIFEST_NAME).read_text(encoding="utf-8"))
    if meta.get("format") != "repro-artifact":
        raise ValueError(f"{root} is not a repro artifact manifest")
    table = meta.get("arrays", {})

    def get(key: str) -> np.ndarray:
        entry = table[key]
        file = root / entry["file"]
        return np.load(file, mmap_mode="r" if mmap else None,
                       allow_pickle=False)

    return _rebuild(meta, get, set(table), layout="dir", mmap=mmap)


def _rebuild(meta: dict, get, keys: set[str], layout: str,
             mmap: bool) -> LoadedArtifact:
    """Shared rebuild over any ``key -> array`` accessor."""
    if meta.get("version", 0) > ARTIFACT_VERSION:
        raise ValueError(f"artifact version {meta['version']} is newer than "
                         f"supported version {ARTIFACT_VERSION}")
    ds_meta = meta["dataset"]
    dataset = RecDataset(
        name=ds_meta["name"],
        n_users=ds_meta["n_users"],
        n_items=ds_meta["n_items"],
        users=get("interactions::users"),
        items=get("interactions::items"),
        timestamps=get("interactions::timestamps"),
        user_attrs=_read_attrs(get, "user", ds_meta["user_attrs"]),
        item_attrs=_read_attrs(get, "item", ds_meta["item_attrs"]),
    )
    state = {key[len(_PARAM_PREFIX):]: get(key)
             for key in keys if key.startswith(_PARAM_PREFIX)}
    if "graph::users" in keys:
        graph_users = get("graph::users")
        graph_items = get("graph::items")
    else:
        graph_users, graph_items = dataset.users, dataset.items

    # Deferred import: the registry pulls in every model family.
    from repro.experiments.registry import build_model

    model = build_model(
        meta["model"], dataset,
        train_users=graph_users, train_items=graph_items,
        **meta["hyperparams"],
    )
    # Zero-copy under mmap: the freshly initialized parameter arrays
    # are dropped and the tensors rebound to the read-only mapped
    # views; the copying path preserves the skeleton's dtype (the
    # historical .npz behavior).
    model.load_state_dict(state, assign=mmap)
    return LoadedArtifact(
        model=model,
        dataset=dataset,
        model_name=meta["model"],
        hyperparams=meta["hyperparams"],
        meta=meta,
        layout=layout,
        mmap=mmap,
        train_interactions=(np.asarray(graph_users, dtype=np.int64),
                            np.asarray(graph_items, dtype=np.int64)),
    )


def convert_artifact(src: str, dst: str, layout: str = "dir") -> str:
    """Re-save a bundle under another layout; returns the real path.

    The canonical migration of a legacy ``.npz`` bundle to the
    memory-mappable manifest layout.  The propagation-graph split is
    carried over (not collapsed to the full log), so graph models
    rebuild identically from the converted bundle.
    """
    if os.path.realpath(src) == os.path.realpath(dst):
        raise ValueError("convert_artifact needs distinct src and dst paths")
    loaded = load_artifact(src)
    return save_artifact(
        loaded.model, loaded.dataset, dst, loaded.model_name,
        hyperparams=loaded.hyperparams,
        train_interactions=loaded.train_interactions,
        layout=layout)
