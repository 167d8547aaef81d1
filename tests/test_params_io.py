"""The parameter-file writer and reader.

The writer takes joints: parameter sets are drawn as ``oracles.DictParams``
and multiplied into a ``MatiParams`` of joints by ``oracles.stacked``.
``params_to_json`` must write exactly the bytes of the independent
line-layout encoder (``oracles.reference_params_json``) of those joints'
chains, factored by ``oracles.as_dicts``; its ``json.loads`` equals that of
one nested ``json.dumps(payload, sort_keys=True)`` of the dicts
(``oracles.reference_params_content``).  The reader is fed the reference
encoder's text of drawn chains, whose rows include the edge rows (-0.0
beside 0.0, a subnormal, ``1 - 2**-53``): the POI and global joints it
returns must be the products of the written chains bit for bit
(``oracles.chain_product``), and its pair keys the keys written.  Ids carry
quotes, backslashes, line ends and other control and non-ASCII
characters, whose escaped JSON form sorts differently from the raw string,
and brackets, commas and colons; rows repeat.
"""

import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corpus import planted_corpus, stamp, three_by_three_index
from oracles import (DictParams, as_dicts, chain_product, reference_em, reference_params_content,
                     reference_params_json, stacked)

from matirec import mati
from matirec.config import load_config
from matirec.errors import DataError, InvariantError
from matirec.ingest import CheckIn, CheckInLog
from matirec.mati import (ChainLayout, JointStack, MatiParams, joint_from_chain,
                          params_from_json, params_to_json, run_em)
from matirec.pipeline import SlabArtifacts, train_models
from matirec.slabs import SlabIndex, day_factor, hour_factor

# Besides escapes, among them the line ends the reader splits the file at,
# ids hold the brackets, commas and colons it cuts chain texts at; some hold
# or end in a chain's closing text, as "]]], ".
ID_CHARS = "aZ0 \"\\\x01\x1f\x7f\n\r\u2028é \U0001f600[],:"
ids = st.text(alphabet=ID_CHARS, max_size=3) | st.sampled_from(["]]]", "a]]], ", "]], [[", "]: "])


# Rows that sum to 1 with floats whose text is unusual: a subnormal, the
# float just below 1, values with long ``repr``s, and -0.0 beside 0.0.
EDGE_ROWS = [[1 - 2**-53], [5e-324, 1.0], [1 - 2**-53, 2**-53], [0.1, 0.9], [1 / 3, 2 / 3],
             [0.0, -0.0, 1.0], [0.1, 0.2, 0.7], [1 / 3, 1 / 3, 1 / 3], [5e-324, 0.5, 0.5]]


def _row_pool(size: int, rng, edges: bool) -> np.ndarray:
    """Rows of one level: uniform, one-hot with 0.0 and with -0.0, with
    ``edges`` the edge rows of its size, random."""
    rows = [np.full(size, 1.0 / size)]
    rows += [np.array(row) for row in EDGE_ROWS if edges and len(row) == size]
    for i in range(size):
        hot = np.zeros(size)
        hot[i] = 1.0
        rows.append(hot)
        if size > 1:
            rows.append(np.where(hot == 1.0, 1.0, -0.0))
    rows += list(rng.dirichlet(np.ones(size), size=2))
    return np.array(rows)


@st.composite
def param_sets(draw, edges: bool):
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pools = [_row_pool(size, rng, edges) for size in shape]

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
        global_table=chain(),
        slab_checksum=draw(ids))


def _read(text: str):
    """``params_from_json`` of ``text``, read as ``recommend`` reads a file:
    no line end translated."""
    return params_from_json(io.StringIO(text, newline=""))


def _assert_read_back(params: DictParams, tables):
    """``tables``, the reader's ``MatiTables`` of the text written of
    ``params``, holds its layout, checksum and pair keys, and the product of
    each POI chain and of the global chain, bit for bit."""
    assert tables.layout == params.layout
    assert tables.slab_checksum == params.slab_checksum
    assert tables.pair_keys == tuple(sorted(f"{u}\t{l}" for u, l in params.pair_tables))
    pois = tables.poi_tables
    assert pois.keys == tuple(sorted(params.poi_tables))
    n_cells = math.prod(params.layout.shape)
    want = np.array([chain_product(params.poi_tables[key]) for key in pois.keys])
    want = want.reshape(-1, n_cells)
    assert pois.joints.dtype == np.float64 and pois.joints.shape == want.shape
    assert pois.joints.tobytes() == want.tobytes()
    assert tables.global_table.tobytes() == chain_product(params.global_table).tobytes()


def _assert_writes_reference(params: MatiParams, fingerprint: str = "") -> str:
    """``params_to_json`` of ``params`` writes the reference encoder's bytes
    of its joints' chains, which read back to their products; returns the text."""
    want = as_dicts(params)
    text = str(params_to_json(params, fingerprint=fingerprint))
    assert text == reference_params_json(want, fingerprint=fingerprint)
    _assert_read_back(want, _read(text))
    return text


@given(params=param_sets(edges=False), fingerprint=ids)
def test_writer_matches_reference_bytes_and_round_trips(params, fingerprint):
    joints = stacked(params)
    text = _assert_writes_reference(joints, fingerprint)
    assert json.loads(text) == json.loads(reference_params_content(as_dicts(joints), fingerprint))


@given(params=param_sets(edges=True))
def test_reader_gives_the_written_chains_products_bit_for_bit(params):
    _assert_read_back(params, _read(reference_params_json(params)))


def test_writer_matches_reference_on_em_output_across_slices():
    """EM output on the raw 7 × 24 grid, with more pairs than one writer
    slice, so equal floats recur across slices, within rows and among the
    ``pr_nu`` scores: the writer's bytes are the reference encoder's."""
    log = planted_corpus(n_users=60)
    index = SlabIndex([hour_factor(), day_factor()],
                      {"hour": [(h,) for h in range(24)], "day": [(d,) for d in range(7)]})
    n_pairs = len(mati.pair_keys(log))
    params, _ = run_em(log, index, np.resize([1.0, 0.1, 1 / 3], n_pairs))
    assert index.grid_shape() == (7, 24) and n_pairs > mati.PARAMS_SLICE
    _assert_writes_reference(params)


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
    assert _assert_writes_reference(stacked(params)) == reference_params_json(params)


def test_many_duplicate_rows_render_once_each():
    shape = (3, 4)
    rows = np.array([[0.25] * 4, [1.0, 0.0, 0.0, 0.0], [1.0, -0.0, -0.0, -0.0]])
    rng = np.random.default_rng(3)
    pairs = {(f"u{i}", f"p{i % 7}"): [np.full(3, 1 / 3), rows[rng.integers(0, 3, size=3)]]
             for i in range(200)}
    params = DictParams(layout=ChainLayout(("day", "hour"), shape),
                        pr_nu={pair: 1.0 for pair in pairs}, pair_tables=pairs)
    text = _assert_writes_reference(stacked(params))
    assert "[1.0, -0.0, -0.0, -0.0]" in text and "[1.0, 0.0, 0.0, 0.0]" in text


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
    text = reference_params_json(params)
    assert '": [[0.25, 0.5, 0.25], [[0.25, 0.5, 0.25], ' in text
    assert "[0.25, 0.5, 0.25]]]" in text
    _assert_read_back(params, _read(text))


def _rows_apart_or_alike(alike: bool) -> DictParams:
    """300 pairs and 40 POIs on a three-level layout whose table rows are all
    distinct, or all copies of one chain's."""
    shape = (2, 3, 4)
    rng = np.random.default_rng(8)

    def chain():
        if alike:
            return _unit_chain(shape)
        return [rng.dirichlet(np.ones(size), size=shape[:k]) for k, size in enumerate(shape)]

    pairs = [(f"u{i}", f"p{i % 40}") for i in range(300)]
    return DictParams(layout=ChainLayout(("week", "day", "hour"), shape),
                      pr_nu={pair: 1.0 for pair in pairs},
                      pair_tables={pair: chain() for pair in pairs},
                      poi_tables={f"p{i}": chain() for i in range(40)}, global_table=chain())


@pytest.mark.parametrize("alike", [False, True], ids=["all-distinct", "all-repeated"])
@pytest.mark.parametrize("rows_held", [None, 5], ids=["default-cache", "small-cache"])
def test_distinct_and_repeated_rows_round_trip_byte_for_byte(alike, rows_held, monkeypatch):
    """Read back, a file gives the products of its chains bit for bit,
    whether every table row is new or each repeats one chain's, and also
    when the row cache starts over often."""
    if rows_held is not None:
        monkeypatch.setattr(mati, "_ROWS_HELD", rows_held)
    params = _rows_apart_or_alike(alike)
    _assert_read_back(params, _read(reference_params_json(params)))


def test_reading_pois_that_share_one_chain_holds_their_joints_once():
    """3,000 POIs share one chain: the reader keeps each level's few distinct
    rows and each batch's row numbers, and builds the POI joints once, so
    the read peaks below 1.5 times their size (joining per-batch joints
    held them twice).  They read back bit for bit."""
    shape = (7, 24)
    rng = np.random.default_rng(4)
    chain = [rng.dirichlet(np.ones(size), size=shape[:k]) for k, size in enumerate(shape)]
    params = DictParams(layout=ChainLayout(("day", "hour"), shape), pr_nu={("u", "p0000"): 1.0},
                        pair_tables={("u", "p0000"): chain},
                        poi_tables={f"p{i:04d}": chain for i in range(3000)})
    stream = io.StringIO(reference_params_json(params), newline="")
    tracemalloc.start()
    try:
        tables = params_from_json(stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = tables.poi_tables.joints.nbytes
    assert peak < 1.5 * size, f"peak {peak / size:.2f} of the POI joints' size"
    _assert_read_back(params, tables)


@pytest.mark.parametrize("kind", ["negative", "row-sum"])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_reader_names_the_first_owner_of_a_shared_bad_row(level, kind):
    """One bad level row shared by several pairs and POIs, in different table
    rows of their chains, is validated once; the error names the first pair
    or POI in key order that uses it, at every level."""
    shape = (2, 2, 3)
    bad = np.full(shape[level], 1.0 / shape[level])
    bad[0] = -0.25 if kind == "negative" else 0.7
    bad[1] += 0.25 if kind == "negative" else 0.0

    def chain(slot):
        tables = _unit_chain(shape)
        if slot is not None:
            tables[level] = tables[level].copy()
            tables[level][np.unravel_index(slot % math.prod(shape[:level]), shape[:level])] = bad
        return tables

    users = [f"u{i}" for i in range(8)]
    slots = {"u2": -1, "u4": 0, "u6": -1}  # u2's and u6's last table row, u4's first
    pairs = {(u, "p"): chain(slots.get(u)) for u in users}
    pois = {f"q{i}": chain({3: 0, 5: -1}.get(i)) for i in range(6)}
    message = "has negative entries" if kind == "negative" else "rows do not sum to 1"
    for table, first in (("pair_tables", r"\('u2', 'p'\)"), ("poi_tables", "'q3'")):
        params = DictParams(layout=ChainLayout(("week", "day", "hour"), shape),
                            pr_nu={pair: 1.0 for pair in pairs},
                            pair_tables=pairs if table == "pair_tables" else
                            {pair: _unit_chain(shape) for pair in pairs},
                            poi_tables=pois if table == "poi_tables" else {})
        with pytest.raises(InvariantError, match=rf"chain level {level} of {first} {message}"):
            params_from_json(io.StringIO(reference_params_json(params)))


def _pair_joints(shape, joints) -> MatiParams:
    """Parameters holding the pair joints ``joints``, keyed ``u0<TAB>p``,
    ``u1<TAB>p``, ..., and no POI joint."""
    keys = tuple(f"u{i}\tp" for i in range(len(joints)))
    return MatiParams(layout=ChainLayout(("day", "hour"), shape), slab_checksum="",
                      pair_keys=keys, poi_tables=JointStack((), np.zeros((0, math.prod(shape)))),
                      global_table=np.full(math.prod(shape), 1 / math.prod(shape)),
                      pair_tables=JointStack(keys, np.array(joints)), pr_nu=np.ones(len(keys)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5, 0.7],
                         ids=["nan", "inf", "negative", "row-sum"])
def test_writer_refuses_invalid_chains(bad):
    """A joint with a NaN or infinite entry, a negative entry, or a sum off
    1 is refused, naming its owner; factored, a NaN would have turned into a
    uniform row that passes every row check."""
    joint = np.full(6, 1 / 6)
    joint[4] = bad
    with pytest.raises(InvariantError, match=r"the pair joint of \('u1', 'p'\) is not a "
                                             r"distribution") as err:
        params_to_json(_pair_joints((2, 3), [np.full(6, 1 / 6), joint]))
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


def test_joint_stack_refuses_joints_off_its_keys():
    """The writer reads a stack a slice of keys at a time, so a stack with
    more joints than keys must fail where it is made, not drop the rest."""
    with pytest.raises(InvariantError, match="3 joints for 2 keys"):
        JointStack(("a", "b"), np.full((3, 2), 0.5))


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
    assert keys != sorted(keys) and list(params.pair_keys) == sorted(keys)

    ref = as_dicts(params)
    assert ref.pr_nu == pr_nu
    joints, _ = reference_em(log, index, pr_nu)
    for pair, want in joints.items():
        assert np.abs(joint_from_chain(ref.pair_tables[pair]) - want).max() <= 1e-12
    text = _assert_writes_reference(params)
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
    return str(params_to_json(stacked(params), fingerprint="f"))


def test_reader_refuses_pr_nu_keys_off_the_pair_order():
    """``pr_nu`` holds the pair keys in ``pair_tables`` order; a repeated or
    a swapped key, which ``json.loads`` reads as the same scores, is refused."""
    text = _sample_text()
    head, _, rest = text.partition('"pr_nu": {\n')
    body, _, tail = rest.partition("\n}")
    entries = body.split(",\n")
    for bad in ([entries[0], *entries], [entries[1], entries[0], *entries[2:]]):
        bad_text = head + '"pr_nu": {\n' + ",\n".join(bad) + "\n}" + tail
        assert bad_text != text and json.loads(bad_text) == json.loads(text)
        with pytest.raises(DataError, match="pr_nu keys differ"):
            _read(bad_text)


def test_reader_refuses_cut_text_and_data_after_the_object():
    text = _sample_text()
    for end in range(len(text)):
        with pytest.raises(DataError, match="unreadable model parameters"):
            _read(text[:end])
    for extra in (" {}", "x", "}", "\n[]", ", 1", " \n\t", "\n"):
        with pytest.raises(DataError, match="extra data after line 43$"):
            _read(text + extra)


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
            _read(bad)


def test_reader_refuses_text_after_the_global_chain():
    """The global chain's line holds only the chain: what follows its closing
    run on the line is refused, naming the line."""
    text = _sample_text()
    for extra in ("[", " ", "[0.5]"):
        bad = text.replace(']]],\n"pair_tables": ', f']]]{extra},\n"pair_tables": ', 1)
        with pytest.raises(DataError, match="model parameters: (the )?global .* as the layout "
                                            r".* at line 6$"):
            _read(bad)


def _crlf(text):
    return text.replace("\n", "\r\n")


def _blank_line_in(member):
    def damage(text):
        return text.replace(f'"{member}": {{\n', f'"{member}": {{\n\n', 1)
    return damage


def _entry_split_in(member):
    def damage(text):
        head, _, rest = text.partition(f'"{member}": {{\n')
        return head + f'"{member}": {{\n' + rest.replace(": ", ":\n", 1)
    return damage


# Damage to the line framing, and the line the error names in ``_sample_text``.
FRAMING = {"crlf": (_crlf, 1), "cr-only": (lambda text: text.replace("\n", "\r"), 1),
           "blank-line-in-pairs": (_blank_line_in("pair_tables"), 8),
           "blank-line-in-pois": (_blank_line_in("poi_tables"), 22),
           "blank-line-in-pr-nu": (_blank_line_in("pr_nu"), 30),
           "entry-split-in-pairs": (_entry_split_in("pair_tables"), 8),
           "entry-split-in-pois": (_entry_split_in("poi_tables"), 22),
           "entry-split-in-pr-nu": (_entry_split_in("pr_nu"), 30),
           "member-split": (lambda text: text.replace('"layout": ', '"layout":\n', 1), 4),
           "two-members-on-a-line": (lambda text: text.replace(',\n"format_version"',
                                                               ', "format_version"', 1), 2)}


@pytest.mark.parametrize("name", FRAMING)
def test_reader_refuses_lines_the_writer_does_not_write(name):
    """One member or entry a line, each line ending in ``\\n`` alone: CRLF
    or CR line ends, a blank line inside an object, and an entry or member
    split over two lines, or two members on one, raise ``DataError`` naming
    the line, although ``json.loads`` reads each as the same content."""
    damage, line = FRAMING[name]
    text = _sample_text()
    bad = damage(text)
    assert bad != text and json.loads(bad) == json.loads(text)
    with pytest.raises(DataError, match=rf"unreadable model parameters: .* at line {line}$"):
        _read(bad)


def test_ids_with_line_ends_round_trip_on_one_line_each():
    """JSON escapes every control character in a key, and ``json.dumps``
    escapes U+2028 and U+2029 as well, so ids holding them keep one entry a
    line."""
    shape = (2, 2)
    names = ["a\nb", "c\rd", "e\r\nf", "g\u2028h", "i\u2029j", "\x85"]
    params = DictParams(layout=ChainLayout(("day", "hour"), shape),
                        pr_nu={(u, "p\n"): 0.5 for u in names},
                        pair_tables={(u, "p\n"): _unit_chain(shape) for u in names},
                        poi_tables={u: _unit_chain(shape) for u in names},
                        slab_checksum="s\r\n")
    text = _assert_writes_reference(stacked(params), fingerprint="f\n")
    assert text == reference_params_json(params, fingerprint="f\n")
    assert len(text.splitlines()) == len(io.StringIO(text, newline="").readlines()) == 31
