import json
import re

import pytest

from gsetbench.cli import main
from gsetbench.codec import read_solution
from gsetbench.registry import (
    builtin_registry,
    load_registry,
    locate_instance_file,
    solution_text,
)


def test_builtin_rows():
    reg = builtin_registry()
    assert set(reg) == {"G72", "G77", "G81"}
    assert (reg["G72"].n, reg["G72"].m, reg["G72"].best_cut) == (10_000, 20_000, 7_008)
    assert (reg["G77"].n, reg["G77"].m, reg["G77"].best_cut) == (14_000, 28_000, 9_940)
    assert (reg["G81"].n, reg["G81"].m, reg["G81"].best_cut) == (20_000, 40_000, 14_060)
    assert reg["G72"].best_energy == -14_022
    assert reg["G77"].best_energy == -19_672
    assert reg["G81"].best_energy == -28_086


def test_registry_env_override(tmp_path, monkeypatch):
    payload = {
        "G81": {"n": 20_000, "m": 40_000, "best_cut": 14_061, "best_energy": -28_088},
        "custom": {"n": 9, "m": 18, "best_cut": 5, "best_energy": None},
    }
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(payload))
    monkeypatch.setenv("GSETBENCH_REGISTRY", str(path))
    reg = load_registry()
    assert reg["G81"].best_cut == 14_061  # override wins
    assert (reg["custom"].n, reg["custom"].m, reg["custom"].best_cut) == (9, 18, 5)
    assert reg["custom"].best_energy is None
    assert reg["G81"].best_energy == -28_088
    assert reg["G72"].best_cut == 7_008  # builtin rows survive


@pytest.mark.parametrize("payload, message", [
    ({"X": {"n": 16, "best_cut": 3}}, "entry 'X' has no 'm'"),
    ({"X": {"n": 16, "m": 32, "best_cut": 3, "historic_cuts": [["m", 2000, 3]]}},
     "entry 'X': historic_cuts is not a registry key (expected n, m, best_cut, best_energy)"),
    ([{"X": {"n": 16, "m": 32, "best_cut": 3}}],
     "expected an object mapping names to objects"),
    ({"X": {"n": 16.9, "m": 32, "best_cut": 3}}, "entry 'X': n must be an integer, got 16.9"),
    ({"X": {"n": 16, "m": True, "best_cut": 3}}, "entry 'X': m must be an integer, got true"),
    ({"X": {"n": 16, "m": 32, "best_cut": "3"}},
     "entry 'X': best_cut must be an integer, got \"3\""),
    ({"X": {"n": 16, "m": 32, "best_cut": 3, "best_energy": 2.0}},
     "entry 'X': best_energy must be an integer, got 2.0"),
    ({"X": {"n": 16, "m": 32, "best_cut": 3, "best_enrgy": -10}},
     "entry 'X': best_enrgy is not a registry key (expected n, m, best_cut, best_energy)"),
    ({"torus:4x5:1003": {"n": 20, "m": 40, "best_cut": 0}},
     "entry 'torus:4x5:1003': best_cut must be at least 1, got 0"),
    ({"X": {"n": 0, "m": -3, "best_cut": 5}}, "entry 'X': n must be at least 1, got 0"),
    ({"X": {"n": 16, "m": -3, "best_cut": 5}}, "entry 'X': m must be at least 0, got -3"),
    ('{"X": ', "not valid JSON: Expecting value: line 1 column 7 (char 6)"),
])
def test_a_malformed_registry_file_is_one_clean_error(tmp_path, monkeypatch, capsys,
                                                      payload, message):
    path = tmp_path / "registry.json"
    # a str payload is the file's text as it stands
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    monkeypatch.setenv("GSETBENCH_REGISTRY", str(path))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_registry()
    solution = tmp_path / "solution.txt"
    solution.write_text("0000\n")
    assert main(["validate", "torus:4x4:1", str(solution)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def test_bundled_solution_texts_are_verbatim_transcriptions():
    # the bundled copies are transcribed from a lossy source; their
    # exact lengths are pinned so any edit to the data files is caught
    expected = {"G72": (10_000, 2_498), "G77": (14_000, 3_494), "G81": (20_000, 4_989)}
    for name, (n, payload_len) in expected.items():
        header, payload = read_solution(solution_text(name))
        assert header["instance"] == name
        assert int(header["n"]) == n
        assert len(payload) == payload_len


def test_bundled_g81_contains_the_printed_stray_character():
    _, payload = read_solution(solution_text("G81"))
    assert payload[4363] == "l"
    assert set(payload) - set("0123456789abcdef") == {"l"}


def test_solution_text_env_override(tmp_path, monkeypatch):
    (tmp_path / "G72.txt").write_text("# instance=G72 n=10000\nff\n")
    monkeypatch.setenv("GSETBENCH_SOLUTIONS_DIR", str(tmp_path))
    assert solution_text("G72") == "# instance=G72 n=10000\nff\n"
    # other names still come from the bundle
    assert len(solution_text("G77")) > 1000


def test_solution_text_unknown_name():
    with pytest.raises(FileNotFoundError):
        solution_text("G999")


def test_locate_instance_file(tmp_path, monkeypatch):
    monkeypatch.delenv("GSET_DIR", raising=False)
    with pytest.raises(FileNotFoundError,
                       match="^no directory to search for instance 'G72'; set GSET_DIR$"):
        locate_instance_file("G72")
    (tmp_path / "G72").write_text("2 1\n1 2 1\n")
    monkeypatch.setenv("GSET_DIR", str(tmp_path))
    assert locate_instance_file("G72") == tmp_path / "G72"
    (tmp_path / "G77.txt").write_text("2 1\n1 2 1\n")
    assert locate_instance_file("G77") == tmp_path / "G77.txt"
    with pytest.raises(FileNotFoundError, match="not found"):
        locate_instance_file("G81")
