"""Tests for the SVG figure writer."""

from repro.analysis import Series, render_svg, write_svg


def sample_series():
    return [Series("hybrid", [8, 64, 512, 4096],
                   [1e-4, 2e-4, 8e-4, 5e-3]),
            Series("NX", [8, 64, 512, 4096],
                   [9e-5, 3e-4, 2e-3, 2e-2])]


class TestRenderSvg:
    def test_is_valid_xmlish_document(self):
        svg = render_svg(sample_series(), title="demo")
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert svg.count("<polyline") == 2

    def test_contains_labels_and_legend(self):
        svg = render_svg(sample_series(), title="T & Co",
                         xlabel="bytes", ylabel="secs")
        assert "T &amp; Co" in svg     # escaped
        assert ">hybrid</text>" in svg
        assert ">NX</text>" in svg
        assert "bytes" in svg and "secs" in svg

    def test_decade_gridlines(self):
        svg = render_svg(sample_series())
        # x decades 10,100,1000 at least
        assert ">10<" in svg and ">100<" in svg and ">1K<" in svg

    def test_empty(self):
        assert "no data" in render_svg([])

    def test_markers_differ_per_series(self):
        svg = render_svg(sample_series())
        assert "<circle" in svg and "<rect" in svg

    def test_parses_as_xml(self):
        import xml.etree.ElementTree as ET
        root = ET.fromstring(render_svg(sample_series(), title="x"))
        assert root.tag.endswith("svg")


class TestWriteSvg:
    def test_writes_file(self, tmp_path):
        path = str(tmp_path / "figs" / "out.svg")
        write_svg(path, sample_series(), title="t")
        content = open(path).read()
        assert content.startswith("<svg")
