"""CLI failure paths: nonzero exits, clear messages, never a traceback.

``repro diff`` / ``query`` / ``import`` are exercised in a subprocess
against a missing store, a corrupted derived-state database, corrupted
catalog XML, and malformed PROV documents.  The database under
``index/`` is derived data and recovers silently (documented store
behaviour); everything else must
fail with a stable nonzero exit code (1 for ReproErrors, 2 for usage
errors) and a one-line diagnostic on stderr.
"""

import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workspace import Workspace

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")
GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def assert_clean_failure(code, err):
    assert code != 0
    assert "Traceback" not in err
    assert err.strip(), "expected a diagnostic on stderr"


@pytest.fixture()
def populated_store(tmp_path, fig2_spec):
    ws = Workspace(tmp_path / "store")
    ws.register(fig2_spec)
    ws.generate_run("a", "fig2", seed=1)
    ws.generate_run("b", "fig2", seed=2)
    return ws.store


@pytest.mark.parametrize(
    "argv",
    [
        ("diff", "{store}", "fig2", "a", "b"),
        ("matrix", "{store}", "fig2"),
        ("query", "{store}", "fig2"),
        ("export", "{store}", "fig2", "a"),
    ],
)
def test_missing_store_is_a_clean_argparse_error(tmp_path, argv):
    missing = tmp_path / "does-not-exist"
    code, _, err = run_cli(
        *(arg.format(store=missing) for arg in argv)
    )
    assert_clean_failure(code, err)
    assert "does not exist" in err


def test_import_into_missing_document_is_clean(tmp_path):
    code, _, err = run_cli(
        "import", tmp_path / "fresh-store", tmp_path / "absent.json"
    )
    assert_clean_failure(code, err)
    assert "does not exist" in err


@pytest.mark.parametrize(
    "payload",
    [
        "{definitely not json",
        json.dumps({"activity": {"a": {}}, "used": {"_:u": {}}}),
        json.dumps(
            {
                "activity": {"a": {}, "b": {}},
                "wasInformedBy": {
                    "_:1": {"prov:informed": "b", "prov:informant": "a"},
                    "_:2": {"prov:informed": "a", "prov:informant": "b"},
                },
            }
        ),
        json.dumps({"agent": {"someone": {}}}),
    ],
    ids=["not-json", "missing-endpoint", "cyclic", "no-activities"],
)
def test_malformed_prov_documents_fail_cleanly(tmp_path, payload):
    document = tmp_path / "doc.json"
    document.write_text(payload, encoding="utf8")
    code, _, err = run_cli("import", tmp_path / "store", document)
    assert_clean_failure(code, err)
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "garbage",
    ["{not json at all", json.dumps({"entries": "wrong-shape"}),
     json.dumps([1, 2, 3])],
    ids=["invalid-json", "wrong-schema", "non-object"],
)
def test_corrupt_index_files_recover_without_tracebacks(
    populated_store, garbage
):
    # Derived data under index/ is rebuilt on demand: corruption must
    # neither crash nor poison the answers.
    index_dir = populated_store.root / "index"
    index_dir.mkdir(exist_ok=True)
    (index_dir / "derived.db").write_text(garbage, "utf8")

    code, out, err = run_cli(
        "diff", populated_store.root, "fig2", "a", "b"
    )
    assert (code, err) == (0, "")
    assert "delta(a, b)" in out

    code, out, err = run_cli("query", populated_store.root, "fig2")
    assert (code, err) == (0, "")
    assert "matching pair" in out

    # The garbage was replaced by a sound database holding the results.
    conn = sqlite3.connect(str(index_dir / "derived.db"))
    try:
        assert conn.execute("PRAGMA integrity_check").fetchone() == ("ok",)
        assert conn.execute("SELECT COUNT(*) FROM scripts").fetchone()[0]
    finally:
        conn.close()


def test_corrupt_run_xml_fails_cleanly(populated_store):
    run_path = populated_store.run_path("fig2", "b")
    run_path.write_text("<run name='b' spec='fig2'><nodes>", "utf8")
    code, _, err = run_cli(
        "diff", populated_store.root, "fig2", "a", "b"
    )
    assert_clean_failure(code, err)
    assert "malformed run XML" in err


def test_corrupt_spec_xml_fails_cleanly(populated_store):
    spec_path = populated_store.root / "specs" / "fig2.xml"
    spec_path.write_text("<specification", "utf8")
    code, _, err = run_cli(
        "query", populated_store.root, "fig2"
    )
    assert_clean_failure(code, err)
    assert "malformed specification XML" in err


def test_import_then_query_happy_path_in_subprocess(tmp_path):
    # The positive control for the suite: a foreign non-SP document
    # imports, a second import of its re-export lands beside it, and
    # the query engine answers over both.
    store = tmp_path / "store"
    code, out, err = run_cli(
        "import", store, GOLDEN / "non_sp_minor.json",
        "--name", "first", "--spec-name", "ext",
    )
    assert (code, err) == (0, ""), err
    assert "SP-ized" in out

    code, out, err = run_cli(
        "export", store, "ext", "first", "-o", tmp_path / "out.json"
    )
    assert code == 0
    code, out, err = run_cli(
        "import", store, tmp_path / "out.json", "--name", "second",
        "--json",
    )
    assert (code, err) == (0, ""), err
    payload = json.loads(out)
    assert payload["origin"] == "embedded-plan"
    assert payload["new_pairs"] == {"first|second": 0.0}

    code, out, err = run_cli("query", store, "ext", "--json")
    assert (code, err) == (0, ""), err
    assert json.loads(out)["total_matches"] == 1
