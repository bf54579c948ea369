"""Docs <-> code consistency: DESIGN.md's experiment index and
EXPERIMENTS.md's bench references must point at files that exist, and
the numbers the README prints must match the model."""

import re
from pathlib import Path


REPO = Path(__file__).resolve().parent.parent


def referenced_bench_files(text: str):
    return set(re.findall(r"`(?:benchmarks/)?(test_\w+\.py)`", text))


class TestDesignIndex:
    DESIGN = (REPO / "DESIGN.md").read_text()

    def test_identity_check_present(self):
        assert "Paper identity check" in self.DESIGN

    def test_every_indexed_bench_exists(self):
        benches = referenced_bench_files(self.DESIGN)
        assert benches, "DESIGN.md index references no benches?"
        missing = [
            b for b in benches
            if not (REPO / "benchmarks" / b).exists()
        ]
        assert not missing, missing

    def test_every_module_in_inventory_exists(self):
        # Paths like `fpga/timing.py` or ip/buswrap.py in the map.
        modules = set(re.findall(r"(\w+(?:/\w+)+\.py)", self.DESIGN))
        missing = [
            m for m in modules
            if not (REPO / "src" / "repro" / m).exists()
            and not (REPO / m).exists()
        ]
        assert not missing, missing

    def test_substitution_table_present(self):
        assert "Paper used" in self.DESIGN
        assert "ModelSim" in self.DESIGN


class TestExperimentsRecord:
    EXPERIMENTS = (REPO / "EXPERIMENTS.md").read_text()

    def test_every_referenced_bench_exists(self):
        benches = referenced_bench_files(self.EXPERIMENTS)
        missing = [
            b for b in benches
            if not (REPO / "benchmarks" / b).exists()
            and not list(REPO.glob(f"tests/**/{b}"))
        ]
        assert not missing, missing

    def test_table2_cells_match_model(self):
        """The measured numbers written in EXPERIMENTS.md must match
        what the model produces today."""
        from repro.analysis.tables import table2_comparison

        for row in table2_comparison():
            token = f"{row['model_lcs']}"
            assert token in self.EXPERIMENTS, (
                f"EXPERIMENTS.md is stale: {row['design']}/"
                f"{row['family']} now models {row['model_lcs']} LCs"
            )

    def test_lost_cells_documented(self):
        assert "corrupted" in self.EXPERIMENTS
        assert "[14]" in self.EXPERIMENTS


class TestReadme:
    README = (REPO / "README.md").read_text()

    def test_headline_table_matches_model(self):
        from repro.analysis.tables import table2_comparison

        for row in table2_comparison():
            assert str(row["model_lcs"]) in self.README, (
                f"README table stale for {row['design']}/"
                f"{row['family']}"
            )

    def test_mentions_all_deliverable_dirs(self):
        for path in ("src/repro", "tests/", "benchmarks/", "examples/",
                     "DESIGN.md", "EXPERIMENTS.md"):
            assert path in self.README

    def test_quickstart_snippet_is_valid(self):
        # Execute the README's quickstart code block.
        match = re.search(r"```python\n(.*?)```", self.README,
                          re.DOTALL)
        assert match
        exec(compile(match.group(1), "README-quickstart", "exec"), {})


class TestBenchCoverage:
    def test_every_paper_table_and_figure_has_a_bench(self):
        benches = {p.name for p in (REPO / "benchmarks").glob("*.py")}
        for table in (1, 2, 3):
            assert any(f"table{table}" in b for b in benches), table
        for figure in range(1, 10):
            assert any(f"fig{figure}" in b for b in benches), figure


class TestServingDocsPinProtocol:
    """docs/serving.md documents the wire constants; they must match
    protocol.py, and the model checker's extraction must agree —
    three-way consistency (docs = source = extracted model)."""

    SERVING = (REPO / "docs" / "serving.md").read_text()

    def test_magic_documented(self):
        from repro.serve.protocol import MAGIC
        assert MAGIC == b"RJ"
        assert '"RJ"' in self.SERVING

    def test_version_documented(self):
        from repro.serve.protocol import VERSION
        assert f"currently {VERSION}" in self.SERVING

    def test_max_payload_documented(self):
        from repro.serve.protocol import MAX_PAYLOAD_BYTES
        assert MAX_PAYLOAD_BYTES == 1 << 20
        assert "1 MiB" in self.SERVING

    def test_header_size_documented(self):
        from repro.serve.protocol import HEADER_BYTES
        assert f"{HEADER_BYTES}-byte header" in self.SERVING

    def test_gcm_cap_documented(self):
        from repro.serve.protocol import GCM_TAG_BYTES
        assert (f"MAX_PAYLOAD_BYTES − {GCM_TAG_BYTES}"
                in self.SERVING)

    def test_extracted_model_agrees_with_source(self):
        from repro.checks.proto import run_proto
        from repro.serve import protocol

        model = run_proto(str(REPO)).analysis.model
        assert model is not None
        assert model.magic == protocol.MAGIC
        assert model.version == protocol.VERSION
        assert model.header_bytes == protocol.HEADER_BYTES
        assert model.max_payload == protocol.MAX_PAYLOAD_BYTES
        assert model.max_frame == protocol.MAX_FRAME_BYTES

    def test_proven_invariants_section_present(self):
        assert "Proven protocol invariants" in self.SERVING
        assert "desync-deadlock" in self.SERVING

    def test_zero_copy_codec_documented(self):
        assert "Zero-copy codec" in self.SERVING
        for name in ("encode_frame_views", "decode_payload",
                     "write_frame", "serve.codec-copy"):
            assert name in self.SERVING, name


class TestUsageDocsPinBackends:
    """docs/usage.md's backend matrix and GHASH paragraph must track
    the one implementation per host: no registry, no selector."""

    USAGE = (REPO / "docs" / "usage.md").read_text()
    #: The "Benchmarking & backends" section, whitespace collapsed.
    SECTION = " ".join(USAGE.split("## Benchmarking & backends")[1]
                       .split("\n## ")[0].split())

    def test_backend_matrix_names_registry(self):
        # Both backends a host can run appear in the docs, whether or
        # not this host runs evp; the golden model is not a backend,
        # and nothing selects one by name.
        for name in ("sliced", "evp"):
            assert f"| `{name}`" in self.SECTION, name
        assert "default_engine()" in self.SECTION
        for gone in ("`baseline`", "`auto`", "BatchEngine(\"",
                     "get_backend", "vectorize"):
            assert gone not in self.SECTION, gone

    def test_ghash_providers_documented(self):
        for fold in ("lane fold", "byte-table fold", "512 whole blocks",
                     "default_provider()"):
            assert fold in self.SECTION, fold
        for gone in ("`table`", "`vector`", "get_provider",
                     "set_default_provider"):
            assert gone not in self.SECTION, gone
