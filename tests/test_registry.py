import pytest

from gsetbench.codec import read_solution
from gsetbench.registry import load_registry, locate_instance_file, solution_text


def test_builtin_rows():
    reg = load_registry()
    assert set(reg) == {"G72", "G77", "G81"}
    assert (reg["G72"].n, reg["G72"].m, reg["G72"].best_cut) == (10_000, 20_000, 7_008)
    assert (reg["G77"].n, reg["G77"].m, reg["G77"].best_cut) == (14_000, 28_000, 9_940)
    assert (reg["G81"].n, reg["G81"].m, reg["G81"].best_cut) == (20_000, 40_000, 14_060)
    assert reg["G72"].best_energy == -14_022
    assert reg["G77"].best_energy == -19_672
    assert reg["G81"].best_energy == -28_086


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
