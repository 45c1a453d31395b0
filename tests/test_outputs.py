"""Every field of a returned record reaches a reader.

The twin of test_inputs.py. Each field of a record the library returns must
be read by the CLI (which lays out every result file and stdout), by an
acceptance criterion, or by another module of the package; a field none of
them reads is work nobody sees. Reads are found in the source:
- an attribute load ``x.field``, matched by name. The CLI's argparse
  namespace ``args`` is left out: its flags share names with record fields
  (``args.config``);
- a read of a property or method of the same record counts as a read of each
  ``self.field`` in its body;
- the CLI's ``dataclasses.asdict(x)`` of a record reads every field.
Records and fields come from ``dataclasses.fields``, so a field added later is
audited with no edit here.
"""

import ast
import dataclasses
import inspect
import textwrap
import typing
from pathlib import Path

import pytest

from dlczsim import cli
from dlczsim.chain_sim import ChainTrace, ElementaryLinkTrace
from dlczsim.experiments import ScanPoint
from dlczsim.fitters import FitResult
from dlczsim.link_physics import LinkTally
from dlczsim.rate import ChainLaw, ChainReport

RECORDS = [ScanPoint, ChainTrace, ElementaryLinkTrace, ChainLaw, ChainReport, LinkTally,
           FitResult]

# fields no reader takes yet, each with the ROADMAP item that removes it from this list
UNREAD = {
    "LinkTally.window_counts": "E: write it to a result file or delete it",
    "ChainTrace.config": "G: only perfbench's counters read it",
}

SRC = Path(cli.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"


def attribute_reads(tree: ast.AST) -> set[str]:
    """Names of the attributes ``tree`` loads, except through ``args``."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id == "args")}


def asdict_records(module) -> set:
    """The records ``module`` passes whole to dataclasses.asdict: the return
    types of the calls (``f(...)`` or ``TABLE[key](...)``) that bind its argument."""
    found = set()
    for func in ast.walk(ast.parse(inspect.getsource(module))):
        if not isinstance(func, ast.FunctionDef):
            continue
        bound = {target.id: node.value for node in ast.walk(func) if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)}
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call) and ast.unparse(call.func) == "dataclasses.asdict"
                    and isinstance(call.args[0], ast.Name)):
                continue
            value = bound.get(call.args[0].id)
            if isinstance(value, ast.Call):
                callee = value.func
                if isinstance(callee, ast.Subscript):
                    callees = getattr(module, callee.value.id).values()
                else:
                    callees = [getattr(module, ast.unparse(callee))]
                found.update(typing.get_type_hints(f).get("return") for f in callees)
    return found


def readers_of(record) -> set[str]:
    """Attribute names loaded by the CLI, the acceptance criteria and every
    package module but the record's own."""
    own = Path(inspect.getfile(record))
    sources = [ACCEPTANCE, *(p for p in SRC.glob("*.py") if p != own)]
    return set().union(*(attribute_reads(ast.parse(p.read_text())) for p in sources))


def read_fields(record) -> set[str]:
    names = {f.name for f in dataclasses.fields(record)}
    if record in asdict_records(cli):
        return names
    reads = readers_of(record)
    for member, value in vars(record).items():
        if member in reads and not member.startswith("_") and member not in names:
            body = ast.parse(textwrap.dedent(inspect.getsource(getattr(value, "fget", value))))
            reads |= {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name) and node.value.id == "self"}
    return names & reads


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_every_field_reaches_a_reader(record):
    unread = {f.name for f in dataclasses.fields(record)} - read_fields(record)
    assert ({f"{record.__name__}.{name}" for name in unread}
            == {key for key in UNREAD if key.split(".")[0] == record.__name__})


def test_the_cli_writes_whole_fit_results():
    # fit.json is dataclasses.asdict of the FitResult
    assert asdict_records(cli) == {FitResult}
