"""Documentation consistency: every file the docs reference must exist."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def referenced_paths(text):
    """Paths that look like repo files inside backticks."""
    candidates = re.findall(r"`([\w/\.\-]+\.(?:py|md|toml|csv))`", text)
    for c in candidates:
        # Results CSVs are generated artefacts, not tracked sources.
        if c.startswith("benchmarks/results/"):
            continue
        yield c


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
def test_referenced_files_exist(doc):
    text = (ROOT / doc).read_text()
    missing = []
    for path in referenced_paths(text):
        # Bare bench names in EXPERIMENTS.md live under benchmarks/.
        options = [ROOT / path, ROOT / "benchmarks" / path]
        if not any(p.exists() for p in options):
            missing.append(path)
    assert not missing, f"{doc} references missing files: {missing}"


def test_every_benchmark_is_documented():
    """Each bench file appears in README or EXPERIMENTS."""
    docs = (ROOT / "README.md").read_text() + (ROOT / "EXPERIMENTS.md").read_text()
    benches = sorted(
        p.name for p in (ROOT / "benchmarks").glob("test_*.py")
    )
    missing = [b for b in benches if b not in docs]
    assert not missing, f"undocumented benchmarks: {missing}"


def test_every_example_is_documented():
    docs = (ROOT / "README.md").read_text()
    examples = sorted(p.name for p in (ROOT / "examples").glob("*.py"))
    missing = [e for e in examples if e not in docs]
    assert not missing, f"undocumented examples: {missing}"


def test_every_source_module_has_docstring():
    """Every public module opens with a docstring."""
    import ast

    missing = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        if ast.get_docstring(tree) is None:
            missing.append(str(path.relative_to(ROOT)))
    assert not missing, f"modules without docstrings: {missing}"


def test_design_lists_all_subpackages():
    design = (ROOT / "DESIGN.md").read_text()
    for sub in ("acoustics", "piezo", "circuits", "dsp", "sensing", "node",
                "net", "core"):
        assert f"{sub}/" in design


def test_fig8_table_matches_the_committed_csv():
    """EXPERIMENTS.md's measured Fig. 8 SNRs are the committed CSV's means."""
    import csv

    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("## Fig. 8", 1)[1].split("\n## ", 1)[0]
    table = {
        float(rate): float(measured)
        for rate, measured in re.findall(
            r"^\| (\d+) \| [^|]+ \| (-?\d+(?:\.\d+)?) \|$", section, re.M
        )
    }
    with open(ROOT / "benchmarks" / "results" / "fig8_snr_bitrate.csv") as fh:
        means = {
            float(row["bitrate_bps"]): float(row["snr_db_mean"])
            for row in csv.DictReader(fh)
        }
    assert len(table) >= 5
    wrong = {
        rate: (snr, means.get(rate))
        for rate, snr in table.items()
        if rate not in means or abs(snr - means[rate]) > 0.1
    }
    assert not wrong, f"Fig. 8 rows disagree with the CSV: {wrong}"
