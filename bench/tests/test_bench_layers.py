"""The file -> layer map covers the source tree, explicitly."""

from pathlib import Path

from bench import layers

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_every_top_level_entry_of_the_package_has_a_layer():
    entries = sorted(
        path.name for path in SRC.iterdir()
        if path.name != "__pycache__" and (path.is_dir() or path.suffix == ".py")
    )
    unmapped = [name for name in entries if name not in layers.PACKAGE_LAYERS]
    # A new package must be given a layer here, not fall into "other".
    assert unmapped == []
    stale = [name for name in layers.PACKAGE_LAYERS if name not in entries]
    assert stale == []


def test_every_mapped_layer_is_a_known_layer_and_every_file_exists():
    known = set(layers.LAYERS)
    assert len(known) == 20
    assert set(layers.PACKAGE_LAYERS.values()) | set(layers.FILE_LAYERS.values()) <= known
    for relative in layers.FILE_LAYERS:
        assert (SRC / relative).is_file(), relative


def test_layer_of():
    root = layers.repro_root()
    assert root == str(SRC) + "/"
    assert layers.layer_of(root + "block/device.py", root) == "block.device"
    assert layers.layer_of(root + "block/layer.py", root) == "block.layer"
    assert layers.layer_of(root + "core/controller.py", root) == "core.controller"
    assert layers.layer_of(root + "core/qos.py", root) == "core.other"
    assert layers.layer_of(root + "testbed.py", root) == "testbed"
    assert layers.layer_of(root + "tools/engine_bench.py", root) == "other"
    assert layers.layer_of("/usr/lib/python3/heapq.py", root) == "other"
    assert layers.layer_of("~", root) == "other"
