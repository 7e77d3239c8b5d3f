"""PDiffView's interactive diff view (Section VII).

A :class:`DiffView` wraps one computed diff for viewing: overview
panes, run statistics side by side, and stepping through the edit
script with a graph snapshot after every operation.
:meth:`repro.Workspace.view` returns one:

>>> view = ws.view("monday", "tuesday")               # doctest: +SKIP
>>> print(view.overview())
>>> view.step_forward()
"""

from __future__ import annotations

from typing import Optional

from repro.core.api import DiffResult
from repro.errors import ReproError
from repro.pdiffview.render import (
    render_operation,
    render_script,
    render_side_by_side,
    render_statistics,
)


class DiffView:
    """An interactive view over a computed diff (step through the ops)."""

    def __init__(self, diff: DiffResult):
        self.diff = diff
        self._cursor = 0

    # -- overview --------------------------------------------------------
    def overview(self, max_operations: Optional[int] = 20) -> str:
        """The script overview pane."""
        return render_script(self.diff, max_operations=max_operations)

    def compact_overview(self) -> str:
        """Composite-operation digest (path replacements, subgraph
        growth) — the "overview" mode of Section VII."""
        compact = self.diff.compact_script()
        lines = [self.diff.summary()]
        lines.extend(f"  {line}" for line in compact.summary_lines())
        return "\n".join(lines)

    def panes(self) -> str:
        """Source and target run statistics side by side (Fig. 10)."""
        left = render_statistics(
            self.diff.run1.statistics(), title=self.diff.run1.name
        )
        right = render_statistics(
            self.diff.run2.statistics(), title=self.diff.run2.name
        )
        return render_side_by_side(left.splitlines(), right.splitlines())

    # -- stepping --------------------------------------------------------
    @property
    def position(self) -> int:
        return self._cursor

    def __len__(self) -> int:
        return len(self.diff.script) if self.diff.script else 0

    def current(self) -> Optional[str]:
        """Render the operation at the cursor (None when exhausted)."""
        script = self.diff.script
        if script is None or self._cursor >= len(script.operations):
            return None
        return render_operation(
            self._cursor + 1, script.operations[self._cursor]
        )

    def step_forward(self) -> Optional[str]:
        """Advance one operation; returns its rendering."""
        rendered = self.current()
        if rendered is not None:
            self._cursor += 1
        return rendered

    def step_back(self) -> Optional[str]:
        """Move the cursor back one operation."""
        if self._cursor == 0:
            return None
        self._cursor -= 1
        return self.current()

    def state_after_cursor(self):
        """Graph snapshot after the operation the cursor just passed."""
        script = self.diff.script
        if script is None or script.intermediate_graphs is None:
            raise ReproError(
                "snapshots require view(..., record_intermediates=True)"
            )
        if self._cursor == 0:
            return script.initial_graph
        return script.intermediate_graphs[self._cursor - 1]
