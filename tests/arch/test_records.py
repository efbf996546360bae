"""The slotted records that travel on simulator channels keep value semantics."""

import copy
import pickle

import pytest

from repro.arch.kernel import KernelResult, TupleData
from repro.memory.dram import DRAMCommand, DRAMResponse

RECORDS = [
    DRAMCommand("read", 3, 0.0, 2),
    DRAMCommand("write", 7, data=1.5),
    DRAMResponse(1, 2.0, 3),
    TupleData(index=1, offsets=((0, 1), (1, 0)), values=(2.0, 4.0)),
    KernelResult(index=3, value=1.5),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_values(record):
    clone = pickle.loads(pickle.dumps(record))
    assert clone == record and hash(clone) == hash(record)
    assert copy.deepcopy(record) == record
    assert repr(record).startswith(type(record).__name__ + "(")


def test_equality_is_field_by_field_and_type_strict():
    assert DRAMCommand("read", 3) == DRAMCommand(kind="read", addr=3, data=0.0, tag=0)
    assert DRAMCommand("read", 3) != DRAMCommand("read", 4)
    assert DRAMResponse(3, 0.0, 0) != DRAMCommand("read", 3)
    assert KernelResult(1, 2.0) != (1, 2.0)


def test_defaults_and_validation():
    cmd = DRAMCommand("read", 5)
    assert (cmd.data, cmd.tag) == (0.0, 0)
    assert DRAMResponse(5, 1.0).tag == 0
    assert TupleData(0, (), ()).n_operands == 0
    with pytest.raises(ValueError):
        DRAMCommand("refresh", 0)
