import io

import pytest

from repro.errors import GraphFormatError
from repro.graph.builder import from_edges
from repro.graph.generators import random_bipartite
from repro.graph.io import read_matrix_market, write_matrix_market


# The body goes through np.loadtxt, which warns on empty bodies and on
# comment lines under max_rows; the reader must keep those to itself.
pytestmark = pytest.mark.filterwarnings("error::UserWarning")


def read_str(text: str):
    return read_matrix_market(io.StringIO(text))


class TestRead:
    def test_pattern_general(self):
        g = read_str(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "% comment\n"
            "3 4 2\n"
            "1 2\n"
            "3 4\n"
        )
        assert g.n_x == 3 and g.n_y == 4
        assert sorted(g.edges()) == [(0, 1), (2, 3)]

    def test_real_values_ignored(self):
        g = read_str(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 3.5\n"
            "2 2 -1.0e3\n"
        )
        assert sorted(g.edges()) == [(0, 0), (1, 1)]

    def test_symmetric_expansion(self):
        g = read_str(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 2\n"
            "2 1\n"
            "3 3\n"
        )
        assert sorted(g.edges()) == [(0, 1), (1, 0), (2, 2)]

    def test_symmetric_must_be_square(self):
        with pytest.raises(GraphFormatError):
            read_str(
                "%%MatrixMarket matrix coordinate pattern symmetric\n"
                "2 3 1\n1 1\n"
            )

    def test_blank_and_comment_lines_skipped(self):
        g = read_str(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "%a\n\n%b\n"
            "1 1 1\n"
            "\n"
            "1 1\n"
        )
        assert g.nnz == 1

    def test_bad_header(self):
        with pytest.raises(GraphFormatError):
            read_str("not a matrix market file\n1 1 0\n")

    def test_unsupported_format(self):
        with pytest.raises(GraphFormatError):
            read_str("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")

    def test_missing_entries(self):
        with pytest.raises(GraphFormatError):
            read_str("%%MatrixMarket matrix coordinate pattern general\n2 2 3\n1 1\n")

    def test_too_many_entries(self):
        with pytest.raises(GraphFormatError):
            read_str(
                "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n1 1\n"
            )

    def test_out_of_range_entry(self):
        with pytest.raises(GraphFormatError):
            read_str("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n")

    def test_missing_size_line(self):
        with pytest.raises(GraphFormatError):
            read_str("%%MatrixMarket matrix coordinate pattern general\n% only comments\n")


GENERAL = "%%MatrixMarket matrix coordinate pattern general\n"


class TestBodyParity:
    """The bulk body parser accepts and rejects exactly what the former
    line-by-line parser did (same graph, or a GraphFormatError)."""

    @pytest.mark.parametrize(
        ("text", "edges"),
        [
            pytest.param(
                GENERAL + "3 3 3\n1 1\n% mid-body comment\n\n  \n2 2\n%\n3 3\n\n",
                [(0, 0), (1, 1), (2, 2)],
                id="comments-and-blank-lines-in-body",
            ),
            pytest.param(
                "%%MatrixMarket matrix coordinate real general\n2 3 2\n1 3 2.5e-3\n2 1 -7\n",
                [(0, 2), (1, 0)],
                id="real-value-column",
            ),
            pytest.param(
                "%%MatrixMarket matrix coordinate complex general\n2 2 2\n"
                "1 2 1.5 -0.5\n2 1 0 1e9\n",
                [(0, 1), (1, 0)],
                id="complex-value-columns",
            ),
            pytest.param(
                GENERAL + "2 2 2\n1 2 % inline note\n2\t1\t%tabbed\n",
                [(0, 1), (1, 0)],
                id="inline-percent-after-indices",
            ),
            pytest.param(GENERAL + "4 5 0\n", [], id="nnz-zero-empty-body"),
            pytest.param(GENERAL + "4 5 0\n% nothing here\n\n", [], id="nnz-zero-comments"),
            pytest.param(
                "%%MatrixMarket matrix coordinate integer symmetric\n3 3 3\n"
                "1 1 4\n% c\n3 1 5\n3 2 6\n",
                [(0, 0), (0, 2), (1, 2), (2, 0), (2, 1)],
                id="symmetric-with-values-and-comments",
            ),
            pytest.param(GENERAL + "2 2 2\n1 1\n1 1\n", [(0, 0)], id="duplicate-entries"),
        ],
    )
    def test_accepted(self, text, edges):
        g = read_str(text)
        assert sorted(g.edges()) == edges

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            pytest.param(GENERAL + "2 2 2\n1 1\n2\n", "malformed entry line", id="one-token"),
            pytest.param(GENERAL + "2 2 1\n1.5 1\n", "malformed entry line", id="float-index"),
            pytest.param(GENERAL + "2 2 1\n1.0 1\n", "malformed entry line", id="float-integral"),
            pytest.param(GENERAL + "2 2 1\n1 x\n", "malformed entry line", id="non-integer"),
            pytest.param(
                GENERAL + "2 2 1\n99999999999999999999 1\n", "malformed entry line",
                id="index-overflow",
            ),
            pytest.param(
                GENERAL + "2 2 1\n1 1\n% c\n2 2\n", "more than the declared 1 entries",
                id="too-many",
            ),
            pytest.param(
                GENERAL + "2 2 0\n1 1\n", "more than the declared 0 entries",
                id="too-many-nnz-zero",
            ),
            pytest.param(
                GENERAL + "3 3 3\n1 1\n\n% c\n2 2\n", "declared 3 entries but found 2",
                id="too-few",
            ),
            pytest.param(
                GENERAL + "3 3 2\n% only comments\n", "declared 2 entries but found 0",
                id="too-few-empty-body",
            ),
            pytest.param(
                GENERAL + "2 2 1\n0 1\n", "entry indices out of declared range",
                id="zero-index",
            ),
            pytest.param(
                GENERAL + "2 2 1\n1 3\n", "entry indices out of declared range",
                id="column-past-end",
            ),
        ],
    )
    def test_rejected(self, text, message):
        with pytest.raises(GraphFormatError, match=message):
            read_str(text)

    def test_file_and_stream_agree(self, tmp_path):
        text = GENERAL + "3 4 3\n% c\n1 4\n\n2 1 % x\n3 2\n"
        path = tmp_path / "g.mtx"
        path.write_text(text, encoding="utf-8")
        assert read_matrix_market(path) == read_str(text)


class TestWriteRoundtrip:
    def test_roundtrip_small(self):
        g = from_edges(3, 5, [(0, 4), (1, 0), (2, 2)])
        buf = io.StringIO()
        write_matrix_market(g, buf)
        g2 = read_str(buf.getvalue())
        assert g == g2

    def test_roundtrip_random(self):
        g = random_bipartite(20, 17, 80, seed=3)
        buf = io.StringIO()
        write_matrix_market(g, buf)
        assert read_str(buf.getvalue()) == g

    def test_roundtrip_via_file(self, tmp_path):
        g = random_bipartite(10, 10, 25, seed=4)
        path = tmp_path / "g.mtx"
        write_matrix_market(g, path)
        assert read_matrix_market(path) == g

    def test_header_written(self):
        buf = io.StringIO()
        write_matrix_market(from_edges(1, 1, [(0, 0)]), buf)
        assert buf.getvalue().startswith("%%MatrixMarket matrix coordinate pattern general")


class TestStreamingWriter:
    """Regression: the writer used to buffer the whole edge list in one
    StringIO (a second in-memory copy of the file) before a single write."""

    class _CountingTarget:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    def test_edge_body_written_in_chunks(self):
        g = random_bipartite(30, 30, 120, seed=7)
        target = self._CountingTarget()
        write_matrix_market(g, target, chunk_edges=16)
        # 3 header writes + ceil(nnz / 16) body chunks, never one big blob.
        body_writes = target.writes[3:]
        assert len(body_writes) == -(-g.nnz // 16)
        assert all(len(w.splitlines()) <= 16 for w in body_writes)
        assert read_str("".join(target.writes)) == g

    def test_chunk_size_does_not_change_output(self):
        g = random_bipartite(12, 9, 40, seed=8)
        small, large = io.StringIO(), io.StringIO()
        write_matrix_market(g, small, chunk_edges=1)
        write_matrix_market(g, large, chunk_edges=10_000)
        assert small.getvalue() == large.getvalue()

    def test_rejects_nonpositive_chunk(self):
        g = random_bipartite(3, 3, 4, seed=9)
        with pytest.raises(GraphFormatError):
            write_matrix_market(g, io.StringIO(), chunk_edges=0)
