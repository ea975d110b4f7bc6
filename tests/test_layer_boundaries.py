"""The module attributes the traced benchmark wraps (bench/layers.py) are the
ones jsonio calls through: `jsonio.loads` calls `json.loads` and then
`jsonio.decode_package`, and `jsonio.dumps` calls `jsonio.encode_package`
and then `json.dumps`, each looked up on its module at call time."""

import json

from oogen import gallery, jsonio


def _spy(monkeypatch, calls, owner, attr, name):
    original = getattr(owner, attr)

    def spy(*args, **kwargs):
        calls.append(("enter", name))
        try:
            return original(*args, **kwargs)
        finally:
            calls.append(("exit", name))

    monkeypatch.setattr(owner, attr, spy)


def _spy_all(monkeypatch) -> list:
    calls: list = []
    for owner, attr, name in ((json, "loads", "json.loads"), (json, "dumps", "json.dumps"),
                              (jsonio, "loads", "jsonio.loads"),
                              (jsonio, "dumps", "jsonio.dumps"),
                              (jsonio, "decode_package", "jsonio.decode_package"),
                              (jsonio, "encode_package", "jsonio.encode_package")):
        _spy(monkeypatch, calls, owner, attr, name)
    return calls


def test_loads_calls_json_loads_then_decode_package(monkeypatch):
    text = json.dumps(jsonio.encode_package(gallery.get("patternTest").package))
    calls = _spy_all(monkeypatch)
    pkg = jsonio.loads(text)
    assert pkg == gallery.get("patternTest").package
    assert calls == [("enter", "jsonio.loads"),
                     ("enter", "json.loads"), ("exit", "json.loads"),
                     ("enter", "jsonio.decode_package"), ("exit", "jsonio.decode_package"),
                     ("exit", "jsonio.loads")]


def test_dumps_calls_encode_package_then_json_dumps(monkeypatch):
    pkg = gallery.get("patternTest").package
    calls = _spy_all(monkeypatch)
    for indent in (None, 2):
        calls.clear()
        assert json.loads(jsonio.dumps(pkg, indent=indent)) == jsonio.encode_package(pkg)
        assert calls[:6] == [("enter", "jsonio.dumps"),
                             ("enter", "jsonio.encode_package"),
                             ("exit", "jsonio.encode_package"),
                             ("enter", "json.dumps"), ("exit", "json.dumps"),
                             ("exit", "jsonio.dumps")]
