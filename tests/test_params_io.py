"""The stacked parameter-file writer and reader.

Parameter sets are drawn as ``oracles.DictParams`` and stacked with
``oracles.stacked``.  ``params_to_json`` must write exactly the bytes of one
nested ``json.dumps(payload, sort_keys=True)`` of the dicts
(``oracles.reference_params_json``), and ``params_from_json`` must give
every table and score back bit for bit, also when it reads the stream a
character or a few characters at a time.  Ids carry quotes, backslashes,
control and non-ASCII characters, whose escaped JSON form sorts differently
from the raw string, and brackets, commas and colons; rows repeat, and some
differ only by -0.0 against 0.0.
"""

import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corpus import stamp, three_by_three_index
from oracles import DictParams, as_dicts, reference_em, reference_params_json, stacked

from matirec import mati
from matirec.config import load_config
from matirec.errors import DataError, InvariantError
from matirec.ingest import CheckIn, CheckInLog
from matirec.mati import ChainLayout, joint_from_chain, params_from_json, params_to_json, run_em
from matirec.pipeline import SlabArtifacts, train_models

# Besides escapes, ids hold the brackets, commas and colons the reader cuts
# chain texts at; some hold or end in a chain's closing text, as "]]], ".
ID_CHARS = "aZ0 \"\\\x01\x1f\x7fé \U0001f600[],:"
ids = st.text(alphabet=ID_CHARS, max_size=3) | st.sampled_from(["]]]", "a]]], ", "]], [[", "]: "])


def _row_pool(size: int, rng) -> np.ndarray:
    """Rows of one level: uniform, one-hot with 0.0 and with -0.0, random."""
    rows = [np.full(size, 1.0 / size)]
    for i in range(size):
        hot = np.zeros(size)
        hot[i] = 1.0
        rows.append(hot)
        if size > 1:
            rows.append(np.where(hot == 1.0, 1.0, -0.0))
    rows += list(rng.dirichlet(np.ones(size), size=2))
    return np.array(rows)


@st.composite
def param_sets(draw):
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pools = [_row_pool(size, rng) for size in shape]

    def chain():
        levels = []
        for k, size in enumerate(shape):
            n_rows = math.prod(shape[:k])
            picks = draw(st.lists(st.integers(0, len(pools[k]) - 1),
                                  min_size=n_rows, max_size=n_rows))
            levels.append(pools[k][picks].reshape(*shape[:k], size))
        return levels

    pairs = draw(st.lists(st.tuples(ids, ids), max_size=6, unique=True))
    pois = draw(st.lists(ids, max_size=4, unique=True))
    layout = ChainLayout(tuple(f"f{k}" for k in range(len(shape))), shape)
    return DictParams(
        layout=layout,
        pr_nu={pair: draw(st.floats(0, 1)) for pair in pairs},
        pair_tables={pair: chain() for pair in pairs},
        poi_tables={poi: chain() for poi in pois},
        global_table=chain() if draw(st.booleans()) else None,
        slab_checksum=draw(ids))


def _same_chain(mine, want):
    assert len(mine) == len(want)
    for a, b in zip(mine, want):
        assert a.dtype == np.float64 and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _assert_round_trip(params, restored):
    """``restored``, a ``MatiParams``, holds exactly the chains and scores of
    ``params``, a ``DictParams``."""
    restored = as_dicts(restored)
    assert restored.layout == params.layout
    assert restored.slab_checksum == params.slab_checksum
    assert {k: np.float64(v).tobytes() for k, v in restored.pr_nu.items()} == \
        {k: np.float64(v).tobytes() for k, v in params.pr_nu.items()}
    for mine, want in ((restored.pair_tables, params.pair_tables),
                       (restored.poi_tables, params.poi_tables)):
        assert mine.keys() == want.keys()
        for key in want:
            _same_chain(mine[key], want[key])
    if params.global_table is None:
        assert restored.global_table is None
    else:
        _same_chain(restored.global_table, params.global_table)


# Stream chunk sizes the reader must agree across: one character, a few
# (every number and escaped key is cut somewhere), and more than a small file.
CHUNKS = (1, 7, 4096)


def _same_params(mine, want):
    assert mine.layout == want.layout and mine.slab_checksum == want.slab_checksum
    assert mine.pr_nu.tobytes() == want.pr_nu.tobytes()
    for stack in ("pair_tables", "poi_tables"):
        a, b = getattr(mine, stack), getattr(want, stack)
        assert a.keys == b.keys
        assert [level.tobytes() for level in a.levels] == [level.tobytes() for level in b.levels]
        assert [level.shape for level in a.levels] == [level.shape for level in b.levels]
    if want.global_table is None:
        assert mine.global_table is None
    else:
        _same_chain(mine.global_table, want.global_table)


def _read(text: str):
    """``params_from_json`` of ``text`` as a stream, which must give the same
    stacks, bit for bit, when read at each of ``CHUNKS``."""
    restored = params_from_json(io.StringIO(text))
    for chunk in CHUNKS:
        with mock.patch.object(mati, "READ_CHUNK", chunk):
            _same_params(params_from_json(io.StringIO(text)), restored)
    return restored


@given(params=param_sets(), fingerprint=ids)
def test_writer_matches_reference_bytes_and_round_trips(params, fingerprint):
    text = params_to_json(stacked(params), fingerprint=fingerprint)
    assert text == reference_params_json(params, fingerprint=fingerprint)
    _assert_round_trip(params, _read(text))


def _unit_chain(shape):
    return [np.full(shape[:k + 1], 1.0 / size) for k, size in enumerate(shape)]


def test_keys_sort_by_raw_string_not_escaped_form():
    names = ['"', "A", "é", "z", "\x01", "\\"]
    assert sorted(names) != sorted(names, key=json.dumps)
    shape = (2, 2)
    params = DictParams(layout=ChainLayout(("day", "hour"), shape),
                        pr_nu={(u, "p"): 0.5 for u in names},
                        pair_tables={(u, "p"): _unit_chain(shape) for u in names},
                        poi_tables={u: _unit_chain(shape) for u in names},
                        global_table=_unit_chain(shape))
    text = params_to_json(stacked(params))
    assert text == reference_params_json(params)
    _assert_round_trip(params, _read(text))


def test_many_duplicate_rows_render_once_each():
    shape = (3, 4)
    rows = np.array([[0.25] * 4, [1.0, 0.0, 0.0, 0.0], [1.0, -0.0, -0.0, -0.0]])
    rng = np.random.default_rng(3)
    pairs = {(f"u{i}", f"p{i % 7}"): [np.full(3, 1 / 3), rows[rng.integers(0, 3, size=3)]]
             for i in range(200)}
    params = DictParams(layout=ChainLayout(("day", "hour"), shape),
                        pr_nu={pair: 1.0 for pair in pairs}, pair_tables=pairs)
    text = params_to_json(stacked(params))
    assert text == reference_params_json(params)
    assert "[1.0, -0.0, -0.0, -0.0]" in text and "[1.0, 0.0, 0.0, 0.0]" in text
    _assert_round_trip(params, _read(text))


def test_one_row_text_at_two_levels_reads_back_at_each():
    """With two levels of one size, one row text is at both levels, and in
    the last row, which the chain's closing brackets follow."""
    shape = (3, 3)
    rows = np.array([[0.25, 0.5, 0.25], [1.0, 0.0, -0.0], [0.5, 0.0, 0.5]])
    pairs = {(f"u{i}", "p"): [rows[i % 3], rows[[(i + j) % 3 for j in range(3)]]]
             for i in range(5)}
    params = DictParams(layout=ChainLayout(("week", "day"), shape),
                        pr_nu={pair: 1.0 for pair in pairs}, pair_tables=pairs,
                        poi_tables={"p": [rows[0], rows[[1, 2, 0]]]}, global_table=[rows[2], rows])
    text = params_to_json(stacked(params))
    assert text == reference_params_json(params)
    assert '": [[0.25, 0.5, 0.25], [[0.25, 0.5, 0.25], ' in text
    assert "[0.25, 0.5, 0.25]]]" in text
    _assert_round_trip(params, _read(text))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5, 0.7],
                         ids=["nan", "inf", "negative", "row-sum"])
def test_writer_refuses_invalid_chains(bad):
    shape = (2, 3)
    chain = _unit_chain(shape)
    chain[1] = chain[1].copy()
    chain[1][1, 0] = bad
    params = DictParams(layout=ChainLayout(("day", "hour"), shape),
                        pr_nu={("u", "p"): 1.0, ("v", "p"): 1.0},
                        pair_tables={("u", "p"): _unit_chain(shape), ("v", "p"): chain})
    with pytest.raises(InvariantError, match=r"chain level 1 of \('v', 'p'\)") as err:
        params_to_json(stacked(params))
    assert err.value.exit_code == 4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5],
                         ids=["nan", "inf", "minus-inf", "negative"])
def test_writer_refuses_invalid_pr_nu(bad):
    shape = (2, 3)
    params = DictParams(layout=ChainLayout(("day", "hour"), shape),
                        pr_nu={("u", "p"): 0.0, ("v", "p"): bad},
                        pair_tables={("u", "p"): _unit_chain(shape),
                                     ("v", "p"): _unit_chain(shape)})
    with pytest.raises(InvariantError, match=r"pr_nu of \('v', 'p'\)") as err:
        params_to_json(stacked(params))
    assert err.value.exit_code == 4


def test_writer_refuses_tables_off_the_layout():
    params = DictParams(layout=ChainLayout(("day", "hour"), (2, 3)), pr_nu={},
                        pair_tables={}, poi_tables={"p": _unit_chain((2, 2))})
    with pytest.raises(InvariantError, match="layout needs"):
        params_to_json(stacked(params))


def test_chain_stack_refuses_levels_off_its_keys():
    """The writer reads a stack a slice of keys at a time, so a level with
    more owners than keys must fail where the stack is made."""
    with pytest.raises(InvariantError, match="levels of \\[3, 2\\] owners for 2 keys"):
        mati.ChainStack(("a", "b"), (np.full((3, 2), 0.5), np.full((2, 2, 2), 0.5)))


def test_pair_keys_leave_em_in_raw_key_order():
    """User ``a`` sorts before ``a\x01b`` as an id, yet its key ``a<TAB>p``
    sorts after ``a\x01b<TAB>p``: EM trains pairs in id order and must
    write, read and serve them in key order."""
    visits = [("a", "p", 0, 3), ("a", "p", 2, 11), ("a\x01b", "p", 5, 19), ("a\x01b", "q", 0, 11),
              ("a\x01b", "q", 2, 3), ("c", "q", 5, 11), ("c", "p", 0, 19)]
    log = CheckInLog.from_checkins([CheckIn(u, l, stamp(0, day, hour), 1.0, 1.0)
                                    for u, l, day, hour in visits])
    index = three_by_three_index()
    pairs = sorted({(u, l) for u, l, _, _ in visits})
    pr_nu = {pair: 0.1 * (i + 1) for i, pair in enumerate(pairs)}
    params, _ = run_em(log, index, np.array([pr_nu[pair] for pair in pairs]))
    keys = [f"{u}\t{l}" for u, l in pairs]
    assert keys != sorted(keys) and list(params.pair_tables.keys) == sorted(keys)

    ref = as_dicts(params)
    assert ref.pr_nu == pr_nu
    joints, _ = reference_em(log, index, pr_nu)
    for pair, want in joints.items():
        assert np.abs(joint_from_chain(ref.pair_tables[pair]) - want).max() <= 1e-12
    text = params_to_json(params)
    assert text == reference_params_json(ref)
    _assert_round_trip(ref, _read(text))
    models = train_models(log, load_config(), SlabArtifacts(index, {}),
                          params_from_json(io.StringIO(text)))
    assert models.em_report is None


def _sample_text() -> str:
    """A small parameter file: escaped ids, random rows, a global chain."""
    rng = np.random.default_rng(5)
    shape = (2, 3)

    def chain():
        return [rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(3), size=2)]

    names = ['"q"', "a\\b", "é", "z\x01", "\U0001f600", "n\nl"]
    pairs = [(u, p) for u in names for p in names[:2]]
    params = DictParams(layout=ChainLayout(("day", "hour"), shape),
                        pr_nu={pair: float(rng.uniform()) for pair in pairs},
                        pair_tables={pair: chain() for pair in pairs},
                        poi_tables={poi: chain() for poi in names}, global_table=chain(),
                        slab_checksum="c" * 8)
    return params_to_json(stacked(params), fingerprint="f")


def test_reader_refuses_pr_nu_keys_off_the_pair_order():
    """``pr_nu`` holds the pair keys in ``pair_tables`` order; a repeated or
    a swapped key, which ``json.loads`` reads as the same scores, is refused."""
    text = _sample_text()
    head, _, rest = text.partition('"pr_nu": {')
    body, _, tail = rest.partition("}")
    entries = body.split(", ")
    for bad in ([entries[0], *entries], [entries[1], entries[0], *entries[2:]]):
        bad_text = f'{head}"pr_nu": {{{", ".join(bad)}}}{tail}'
        assert bad_text != text and json.loads(bad_text) == json.loads(text)
        with pytest.raises(DataError, match="pr_nu keys differ"):
            params_from_json(io.StringIO(bad_text))


def test_reader_refuses_cut_text_and_data_after_the_object():
    text = _sample_text()
    for end in range(len(text)):
        with pytest.raises(DataError, match="unreadable model parameters"):
            params_from_json(io.StringIO(text[:end]))
    with mock.patch.object(mati, "READ_CHUNK", 7):
        for end in range(0, len(text), 11):
            with pytest.raises(DataError, match="unreadable model parameters"):
                params_from_json(io.StringIO(text[:end]))
    for extra in (" {}", "x", "}", "\n[]", ", 1"):
        with pytest.raises(DataError, match="extra data"):
            params_from_json(io.StringIO(text + extra))
    _read(text + " \n\t")


@pytest.mark.parametrize("writer,respelled", [("], [", "]], ["), ("], [", "],["),
                                               ("], [", "] , ["), (", [[", ", [ ["),
                                               ('": [[', '":[[')],
                         ids=["extra-bracket", "no-blank", "extra-blank", "blank-in-nesting",
                              "no-blank-after-key"])
def test_reader_refuses_chain_text_the_writer_does_not_write(writer, respelled):
    """Around the rows of a chain only the writer's text may stand.  A row's
    numbers end at its first ``]``, so an extra ``]``, which ``json.loads``
    refuses too, must not be read past; respelled blanks, which it accepts,
    are refused as well."""
    text = _sample_text()
    for table in ("global_table", "pair_tables", "poi_tables"):
        at = text.index(writer, text.index(f'"{table}": ') + 1)
        bad = text[:at] + respelled + text[at + len(writer):]
        with pytest.raises(DataError, match="model parameters"):
            params_from_json(io.StringIO(bad))


def test_reader_refuses_text_after_the_global_chain():
    """The global chain's text runs to the layout's key, not to its first
    closing run, so what follows that run must be checked too."""
    text = _sample_text()
    for extra in ("[", " ", "[0.5]"):
        bad = text.replace(']]], "layout": ', f']]]{extra}, "layout": ', 1)
        with pytest.raises(DataError, match="model parameters: (the )?global .* as the layout"):
            params_from_json(io.StringIO(bad))
