"""The fuzz digest is one sha256 over the fuzz summaries, family-major."""
import hashlib
import importlib.util
from pathlib import Path

from lcak.fuzzing import FAMILIES, fuzz, summary_to_json

PATH = Path(__file__).resolve().parents[1] / "tools" / "fuzz_digest.py"
spec = importlib.util.spec_from_file_location("fuzz_digest", PATH)
fuzz_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fuzz_digest)


def test_digest_hashes_the_summaries_in_order(capsys, monkeypatch):
    # a slice of the default grid: every family, seeds 0 and 1, 2 samples each;
    # the value itself is not pinned, since round-off can differ under another BLAS
    want = hashlib.sha256()
    for family in FAMILIES:
        for seed in (0, 1):
            want.update(summary_to_json(fuzz(seed, 2, family)).encode("utf-8"))
    got = fuzz_digest.fuzz_digest(range(2), 2)
    assert got == want.hexdigest() == fuzz_digest.fuzz_digest(range(2), 2)
    # main prints the digest over the default grid, shrunk here to the same slice
    monkeypatch.setattr(fuzz_digest.fuzz_digest, "__defaults__", (range(2), 2))
    fuzz_digest.main()
    assert capsys.readouterr().out == got + "\n"
