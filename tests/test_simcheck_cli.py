"""Exit-code matrix and flag behavior of the simcheck CLI driver.

Exit contract: 0 = clean (info notes allowed), 1 = error findings
survived suppressions + baseline, 2 = usage/environment problem.  Each
cell of the matrix is pinned here under ``--json``, ``--baseline``,
and empty-scope variations, plus the v2 flags (``--prune-baseline``,
``--strict-ignores``, ``--protocol-only``).
"""

import json

import pytest

from repro.simcheck.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.simcheck.cli import main
from repro.simcheck.findings import Finding

CLEAN = "def f(a, b):\n    return a + b\n"
DIRTY = "import time\n\nt = time.time()\n"
STALE_PRAGMA = "x = 1  # simcheck: ignore[DET001]\n"


@pytest.fixture()
def repo(tmp_path, monkeypatch):
    """A scratch repo the CLI treats as its root."""
    (tmp_path / "src" / "repro").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write(repo, relpath, source):
    path = repo / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


class TestExitZero:
    def test_clean_tree(self, repo, capsys):
        _write(repo, "src/repro/ok.py", CLEAN)
        assert main(["src/repro"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_clean_tree_json(self, repo, capsys):
        _write(repo, "src/repro/ok.py", CLEAN)
        assert main(["src/repro", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert payload["files_checked"] == 1

    def test_info_notes_do_not_fail(self, repo, capsys):
        _write(repo, "src/repro/noted.py", STALE_PRAGMA)
        assert main(["src/repro"]) == 0
        out = capsys.readouterr().out
        assert "SUPP001" in out and "1 note(s)" in out

    def test_baselined_error_passes(self, repo, capsys):
        _write(repo, "src/repro/old.py", DIRTY)
        assert main(["src/repro", "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["src/repro"]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_empty_scope_checks_nothing(self, repo, capsys):
        # Default scope is src-only; a tests/ tree yields zero files
        # checked, which is clean, not an error.
        _write(repo, "tests/test_x.py", DIRTY)
        assert main(["tests", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 0
        assert payload["findings"] == []


class TestExitOne:
    def test_error_finding(self, repo, capsys):
        _write(repo, "src/repro/bad.py", DIRTY)
        assert main(["src/repro"]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_error_finding_json(self, repo, capsys):
        _write(repo, "src/repro/bad.py", DIRTY)
        assert main(["src/repro", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "DET001"

    def test_fresh_finding_beats_stale_baseline(self, repo, capsys):
        _write(repo, "src/repro/old.py", DIRTY)
        assert main(["src/repro", "--write-baseline"]) == 0
        _write(repo, "src/repro/new.py", DIRTY)
        capsys.readouterr()
        assert main(["src/repro"]) == 1
        assert "new.py" in capsys.readouterr().out

    def test_strict_ignores_escalates_stale_pragma(self, repo, capsys):
        _write(repo, "src/repro/noted.py", STALE_PRAGMA)
        assert main(["src/repro", "--strict-ignores"]) == 1
        out = capsys.readouterr().out
        assert "SUPP001 [error]" in out

    def test_scoped_opt_in_surfaces_benchmark_findings(self, repo):
        # Determinism rules skip the tests scope entirely, but the
        # benchmarks scope opts in via --scope.
        _write(repo, "benchmarks/bench_x.py", DIRTY)
        assert main(["benchmarks"]) == 0  # default scope: not checked
        assert main(["benchmarks", "--scope", "benchmarks"]) == 1


class TestExitTwo:
    def test_missing_path(self, repo, capsys):
        assert main(["no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unreadable_baseline(self, repo, capsys):
        _write(repo, "src/repro/ok.py", CLEAN)
        (repo / "corrupt.json").write_text("{not json")
        assert main(["src/repro", "--baseline", "corrupt.json"]) == 2
        assert "cannot read baseline" in capsys.readouterr().err

    def test_conflicting_protocol_flags(self, repo, capsys):
        _write(repo, "src/repro/ok.py", CLEAN)
        assert main(["src/repro", "--no-protocol", "--protocol-only"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_prune_missing_baseline(self, repo, capsys):
        assert main(["--prune-baseline", "--baseline", "gone.json"]) == 2
        assert "cannot prune baseline" in capsys.readouterr().err


class TestPruneBaseline:
    def test_drops_entries_for_deleted_files(self, repo, capsys):
        _write(repo, "src/repro/old.py", DIRTY)
        assert main(["src/repro", "--write-baseline"]) == 0
        (repo / "src/repro/old.py").unlink()
        capsys.readouterr()
        assert main(["--prune-baseline"]) == 0
        out = capsys.readouterr().out
        assert "dropped 1" in out
        assert load_baseline("simcheck-baseline.json") == {}

    def test_keeps_live_entries(self, repo, capsys):
        _write(repo, "src/repro/old.py", DIRTY)
        assert main(["src/repro", "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["--prune-baseline"]) == 0
        assert "dropped 0" in capsys.readouterr().out
        assert len(load_baseline("simcheck-baseline.json")) == 1


class TestDriftNeverBaselined:
    def test_proto007_is_ineligible(self, tmp_path):
        drift = Finding(
            rule="PROTO007", path="src/repro/coherence/base_protocol.py",
            line=1, message="drift", line_text="pipm::drift::x",
        )
        det = Finding(
            rule="DET001", path="src/repro/x.py", line=2,
            message="wall clock", line_text="t = time.time()",
        )
        baseline_path = tmp_path / "b.json"
        write_baseline(str(baseline_path), [drift, det])
        baseline = load_baseline(str(baseline_path))
        assert list(baseline) == [det.fingerprint()]

        # Even a hand-edited entry must not grandfather it.
        forced = {
            drift.fingerprint(): 1,
            det.fingerprint(): 1,
        }
        fresh, grandfathered = apply_baseline([drift, det], forced)
        assert grandfathered == 1
        assert {f.rule for f in fresh} == {"PROTO007"}
