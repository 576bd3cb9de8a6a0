"""Every entry point that takes ``tables=`` gets them through ``stream_tables``."""

import re

import numpy as np
import pytest

from mercuryflow import constellations as cons
from mercuryflow import evaluation as ev
from mercuryflow import offline as off
from mercuryflow import online as onl
from mercuryflow import scenario as scn
from mercuryflow.errors import InvalidInputError
from mercuryflow.tables import table_for


def _scenario(*names):
    k = len(names)
    return scn.Scenario(n=2, k=k, ts=1.0, gains=np.ones((k, 2)), arrivals=((1, 1.0), (2, 1.0)),
                        constellations=tuple(cons.by_name(c) for c in names))


ENTRY_POINTS = {
    "nda_solve": lambda s, t: off.nda_solve(s, tables=t),
    "fsa_solve": lambda s, t: off.fsa_solve(s, tables=t),
    "online_solve": lambda s, t: onl.online_solve(s, 2, tables=t),
    "pbp_solve": lambda s, t: ev.pbp_solve(s, "tables", tables=t),
    "run_strategy": lambda s, t: ev.run_strategy(s, "mwflow", tables=t),
    "best_window": lambda s, t: ev.best_window(s, [1, 2], tables=t),
    "evaluate_mi": lambda s, t: ev.evaluate_mi(s, off.nda_solve(s), tables=t),
    "kkt_verify": lambda s, t: off.kkt_verify(s, off.nda_solve(s), tables=t),
    "trace_csv": lambda s, t: ev.trace_csv(s, off.nda_solve(s), tables=t),
}

# a table short, a bpsk stream given a 4pam table, and a table too many
MISMATCHES = [
    (("gaussian", "gaussian"), ("gaussian",), "stream 2 (gaussian) has no table"),
    (("bpsk",), ("4pam",), "stream 1 is bpsk, but its table is for 4pam"),
    (("bpsk", "4pam"), ("bpsk", "4pam", "4pam"), "3 tables for 2 streams"),
]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("names, given, where", MISMATCHES, ids=["short", "other", "long"])
def test_entry_points_reject_mismatched_tables(entry, names, given, where):
    s = _scenario(*names)
    tables = tuple(table_for(cons.by_name(c)) for c in given)
    with pytest.raises(InvalidInputError, match=re.escape(where)):
        ENTRY_POINTS[entry](s, tables)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_accept_a_wider_table_of_the_stream(entry):
    s = _scenario("bpsk", "4pam")
    tables = (table_for(cons.bpsk(), snr_max=50.0), table_for(cons.by_name("4pam")))
    ENTRY_POINTS[entry](s, tables)


def test_stream_tables_returns_the_given_tables():
    s = _scenario("bpsk", "4pam")
    tables = [table_for(cons.bpsk(), snr_max=50.0), table_for(cons.by_name("4pam"))]
    assert off.stream_tables(s, tables) == tuple(tables)
    assert off.stream_tables(s) == (table_for(cons.bpsk()), table_for(cons.by_name("4pam")))
