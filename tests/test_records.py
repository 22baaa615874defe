"""The package's records: immutable, picklable, and plain tuples."""

import pickle
from fractions import Fraction

import pytest

from spectough.graphs import Graph, petersen
from spectough.scan import ScanConfig
from spectough.spectra import Spectrum, spectrum
from spectough.structures import Guarantee
from spectough.toughness import ToughnessCertificate, exact_toughness

# One instance of each record type, with the name of one of its fields.
RECORDS = {
    "Graph": (petersen(), "adj"),
    "Spectrum": (spectrum(petersen()), "values"),
    "ToughnessCertificate": (exact_toughness(petersen()), "c"),
    "Guarantee": (Guarantee("k-factor", {"k": 2}, "k-factor"), "params"),
    "ScanConfig": (ScanConfig(cap_toughness=8), "cap_toughness"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_frozen(name):
    record, field = RECORDS[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_pickle_round_trip(name):
    record, _ = RECORDS[name]
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


def test_records_keep_their_fields_and_defaults():
    g = petersen()
    n, adj, edge_count = g
    assert (len(g), n, edge_count) == (3, 10, 15)
    assert Graph.from_adj_masks(adj) == g
    assert ScanConfig() == (14, 16)
    assert Guarantee("k-walk", {"k": 3}).oracle is None
    assert Guarantee("2-walk", {}).tag == "2-walk"
    assert Guarantee("k-factor", {"k": 2}).tag == "k-factor[k=2]"
    assert ToughnessCertificate(s_mask=0b11, c=3).value == Fraction(2, 3)
    assert Spectrum(values=(0.0, 2.0, 5.0), tol=1e-9).ratio == 0.4
