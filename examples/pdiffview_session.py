"""A full PDiffView session: store, generate, import/export, step (§VII).

Walks the prototype's workflow end to end: register the six real
specifications, generate runs into the file-backed store, export/import a
run as XML, diff two runs and step through the edit script operation by
operation — the text-mode equivalent of Fig. 10.

Run with:  python examples/pdiffview_session.py
"""

import tempfile

from repro import ExecutionParams, LengthCost, Workspace, all_real_workflows
from repro.io.xml_io import run_from_xml, run_to_xml


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="pdiffview-") as root:
        ws = Workspace(root)

        # Register all six Table I specifications.
        for spec in all_real_workflows().values():
            ws.register(spec)
        print("stored specifications:", ", ".join(ws.specifications()))
        print()

        # Generate a few EMBOSS runs with different behaviours.
        varied = ExecutionParams(
            prob_parallel=0.6,
            max_fork=3,
            prob_fork=0.7,
            max_loop=3,
            prob_loop=0.7,
        )
        ws.generate_run("baseline", "EMBOSS", varied, seed=100)
        ws.generate_run("rerun", "EMBOSS", varied, seed=200)
        print("stored EMBOSS runs:", ", ".join(ws.runs("EMBOSS")))
        print()

        # Export a run to XML and re-import it under a new name.
        spec = ws.specification("EMBOSS")
        baseline = ws.run("baseline", spec="EMBOSS")
        xml_text = run_to_xml(baseline)
        print(f"exported 'baseline' ({len(xml_text)} bytes of XML)")
        clone = run_from_xml(xml_text, spec)
        clone.name = "baseline-imported"
        ws.import_run(clone)
        print("after import:", ", ".join(ws.runs("EMBOSS")))
        print()

        # Diff and step through the script like the GUI's step buttons.
        view = ws.view("baseline", "rerun", spec="EMBOSS", cost=LengthCost())
        print(view.panes())
        print()
        print(view.overview(max_operations=10))
        print()
        print("stepping through the first three operations:")
        for _ in range(3):
            line = view.step_forward()
            if line is None:
                break
            state = view.state_after_cursor()
            print(line)
            print(
                f"        intermediate run now has {state.num_nodes} "
                f"nodes / {state.num_edges} edges"
            )


if __name__ == "__main__":
    main()
