"""XML import/export of specifications and runs (Section VIII).

The paper's prototype stores specifications and runs as XML files (and
its benchmarks omit XML parse time — ours do the same).  The schema is
minimal and self-describing:

.. code-block:: xml

    <specification name="PA">
      <nodes><node id="getProteinSeq" label="getProteinSeq"/>…</nodes>
      <edges><edge source="…" target="…" key="0"/>…</edges>
      <forks><fork name="F1"><edge …/>…</fork>…</forks>
      <loops><loop name="L1"><edge …/>…</loop>…</loops>
    </specification>

    <run name="r1" spec="PA">
      <meta>{"ended": "…", "host": "…", …, "v": 1}</meta>
      <nodes><node id="FastaFormat-a" label="FastaFormat"/>…</nodes>
      <edges><edge source="…" target="…" key="0"/>…</edges>
    </run>

Each document carries its own name, and a stored run carries its
operational metadata (:class:`~repro.obs.runmeta.RunMetadata`) as the
JSON payload of a leading ``<meta>`` element, so one file is the whole
catalog entry.  :func:`document_head` reads the root and that element
from the head of a file without parsing the graph.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from typing import List, Optional, Tuple

from repro.errors import ReproError
from repro.graphs.flow_network import FlowNetwork
from repro.workflow.run import WorkflowRun
from repro.workflow.specification import WorkflowSpecification


def _graph_to_element(graph: FlowNetwork, tag: str, name: str) -> ET.Element:
    root = ET.Element(tag, {"name": name})
    nodes = ET.SubElement(root, "nodes")
    for node in graph.nodes():
        ET.SubElement(
            nodes, "node", {"id": str(node), "label": graph.label(node)}
        )
    edges = ET.SubElement(root, "edges")
    for u, v, key in graph.edges():
        ET.SubElement(
            edges,
            "edge",
            {"source": str(u), "target": str(v), "key": str(key)},
        )
    return root


def _edge_id(edge: ET.Element) -> Tuple:
    """The ``(source, target, key)`` triple of one ``<edge>`` element.

    Validates the key attribute so corrupted files surface as
    :class:`ReproError`, never as a bare :class:`ValueError`.
    """
    raw_key = edge.get("key", "0")
    try:
        key = int(raw_key)
    except ValueError:
        raise ReproError(
            f"edge key {raw_key!r} is not an integer"
        ) from None
    return (edge.get("source"), edge.get("target"), key)


def _graph_from_element(element: ET.Element) -> FlowNetwork:
    graph = FlowNetwork(name=element.get("name", ""))
    nodes = element.find("nodes")
    if nodes is None:
        raise ReproError("missing <nodes> section")
    for node in nodes.findall("node"):
        graph.add_node(node.get("id"), node.get("label"))
    edges = element.find("edges")
    if edges is None:
        raise ReproError("missing <edges> section")
    for edge in edges.findall("edge"):
        graph.add_edge(*_edge_id(edge))
    return graph


def _element_set(parent: ET.Element, tag: str, item_tag: str, elements):
    section = ET.SubElement(parent, tag)
    for index, annotation in enumerate(elements, start=1):
        item = ET.SubElement(
            section, item_tag, {"name": annotation.name or f"{item_tag}{index}"}
        )
        for u, v, key in sorted(annotation.edges, key=str):
            ET.SubElement(
                item,
                "edge",
                {"source": str(u), "target": str(v), "key": str(key)},
            )


def specification_to_xml(spec: WorkflowSpecification) -> str:
    """Serialise a specification (graph + fork/loop elements) to XML."""
    root = _graph_to_element(spec.graph, "specification", spec.name)
    _element_set(root, "forks", "fork", spec.fork_elements)
    _element_set(root, "loops", "loop", spec.loop_elements)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


def _parse_xml(text: str, what: str) -> ET.Element:
    """Parse XML, turning syntax errors into :class:`ReproError`.

    Stored catalog files can be corrupted out-of-band (truncated copies,
    editor accidents); a raw :class:`xml.etree.ElementTree.ParseError`
    would escape the library's exception hierarchy and surface as a
    traceback in the CLI.
    """
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise ReproError(f"malformed {what} XML: {exc}") from None


def specification_from_xml(text: str) -> WorkflowSpecification:
    """Parse a specification from XML (re-validating everything)."""
    root = _parse_xml(text, "specification")
    if root.tag != "specification":
        raise ReproError(f"expected <specification>, got <{root.tag}>")
    graph = _graph_from_element(root)

    def read_elements(tag: str, item_tag: str) -> List[List[Tuple]]:
        section = root.find(tag)
        result = []
        if section is None:
            return result
        for item in section.findall(item_tag):
            result.append(
                [_edge_id(edge) for edge in item.findall("edge")]
            )
        return result

    return WorkflowSpecification(
        graph,
        forks=read_elements("forks", "fork"),
        loops=read_elements("loops", "loop"),
        name=root.get("name", ""),
    )


def run_to_xml(run: WorkflowRun, meta: Optional[dict] = None) -> str:
    """Serialise a run graph to XML, with ``meta`` (a JSON-safe
    metadata payload) as its leading ``<meta>`` element when given."""
    root = _graph_to_element(run.graph, "run", run.name)
    root.set("spec", run.spec.name)
    if meta is not None:
        element = ET.Element("meta")
        element.text = json.dumps(meta, sort_keys=True)
        root.insert(0, element)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


def run_from_xml(
    text: str, spec: WorkflowSpecification
) -> WorkflowRun:
    """Parse and re-validate a run against ``spec``."""
    root = _parse_xml(text, "run")
    if root.tag != "run":
        raise ReproError(f"expected <run>, got <{root.tag}>")
    declared = root.get("spec")
    if declared and declared != spec.name:
        raise ReproError(
            f"run was stored for specification {declared!r}, "
            f"got {spec.name!r}"
        )
    graph = _graph_from_element(root)
    return WorkflowRun(spec, graph, name=root.get("name", ""))


#: Bytes :func:`document_head` reads at a time: a ``<meta>`` element and
#: the root's attributes fit in the first block.
_HEAD_BLOCK = 1024


def document_head(path) -> Tuple[ET.Element, Optional[ET.Element]]:
    """The root element of the XML file at ``path`` (its attributes,
    not its children) and its leading ``<meta>`` element, if any.

    Parses only up to the end of the root's first child, so a listing
    or a metadata read never parses a run's graph.  Raises
    :class:`ReproError` for malformed XML and :class:`OSError` for an
    unreadable file.
    """
    parser = ET.XMLPullParser(events=("start", "end"))
    opened: List[ET.Element] = []
    with open(path, "rb") as handle:
        try:
            while True:
                block = handle.read(_HEAD_BLOCK)
                if block:
                    parser.feed(block)
                else:
                    parser.close()
                for event, element in parser.read_events():
                    if event == "start":
                        opened.append(element)
                        continue
                    # The first element to end: the root's first child
                    # when it has no children of its own.
                    first_child = len(opened) == 2
                    if first_child and element.tag == "meta":
                        return opened[0], element
                    return opened[0], None
        except ET.ParseError as exc:
            raise ReproError(f"malformed XML in {path}: {exc}") from None
