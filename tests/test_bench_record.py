import json
import math

import pytest

from projtune.bench.record import RunRecord, emit_metrics, read_record_json, write_summary
from projtune.errors import ConfigError, DomainError


def sample_record():
    rec = RunRecord(gamma_names=("layer0.weight", "layer0.bias"))
    rec.add_row(1, 1.25, 0.001, 1, 1, {"layer0.weight": 1e-8, "layer0.bias": 1e-8})
    rec.add_row(2, 1.10, 0.002, 2, 2, {"layer0.weight": 0.01, "layer0.bias": 0.02})
    rec.summary = {"id": 0.9, "ood_average": 0.8}
    return rec


class TestCsv:
    def test_header_and_column_order(self, tmp_path):
        rec = sample_record()
        path = tmp_path / "metrics.csv"
        emit_metrics(rec, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,loss,secs_per_iter,fwd_count,bwd_count,gamma.layer0.weight,gamma.layer0.bias"
        assert lines[1].startswith("1,1.25,")
        assert len(lines) == 3

    def test_empty_record_header_only(self, tmp_path):
        path = tmp_path / "metrics.csv"
        emit_metrics(RunRecord(), "csv", path)
        assert path.read_text() == "iter,loss,secs_per_iter,fwd_count,bwd_count\n"

    def test_float_cells_roundtrip_exactly(self, tmp_path):
        rec = RunRecord()
        value = 0.1 + 0.2  # not representable prettily
        rec.add_row(1, value, 0.0, 1, 1)
        path = tmp_path / "m.csv"
        emit_metrics(rec, "csv", path)
        cell = path.read_text().splitlines()[1].split(",")[1]
        assert float(cell) == value

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_metrics(RunRecord(), "yaml", tmp_path / "x")

    def test_unwritable_path_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            emit_metrics(RunRecord(), "csv", tmp_path / "no" / "such" / "dir" / "m.csv")


class TestJson:
    def test_roundtrip_reproduces_record(self, tmp_path):
        rec = sample_record()
        path = tmp_path / "metrics.json"
        emit_metrics(rec, "json", path)
        back = read_record_json(path)
        assert back.gamma_names == rec.gamma_names
        assert back.rows == rec.rows
        assert back.summary == rec.summary

    def test_json_mirrors_csv_columns(self, tmp_path):
        rec = sample_record()
        emit_metrics(rec, "json", tmp_path / "m.json")
        obj = json.loads((tmp_path / "m.json").read_text())
        assert obj["columns"] == list(rec.columns())

    def test_summary_file(self, tmp_path):
        rec = sample_record()
        write_summary(rec, tmp_path / "summary.json")
        obj = json.loads((tmp_path / "summary.json").read_text())
        assert obj == {"id": 0.9, "ood_average": 0.8}


class TestRowValidation:
    def test_missing_gamma_rejected(self):
        rec = RunRecord(gamma_names=("a",))
        with pytest.raises(DomainError):
            rec.add_row(1, 0.5, 0.0, 1, 1, {})

    def test_column_accessor(self):
        rec = sample_record()
        assert rec.column("loss") == [1.25, 1.10]
        assert rec.column("gamma.layer0.bias") == [1e-8, 0.02]
        with pytest.raises(DomainError):
            rec.column("nope")

    def test_gamma_matrix_shape(self):
        rec = sample_record()
        mat = rec.gamma_matrix()
        assert mat == [[1e-8, 1e-8], [0.01, 0.02]]


def old_csv(record):
    """metrics.csv as the format was first written: each cell formatted on its own."""
    def cell(value):
        if isinstance(value, bool):
            raise DomainError("boolean cells are not part of the record format")
        return str(value) if isinstance(value, int) else repr(float(value))

    lines = [",".join(record.columns())]
    lines += [",".join(cell(v) for v in row) for row in record.rows]
    return "\n".join(lines) + "\n"


def old_json(record):
    """metrics.json as the format was first written: json.dumps of the whole record."""
    return json.dumps({"columns": list(record.columns()), "rows": [list(r) for r in record.rows],
                       "summary": dict(record.summary)}, indent=2, sort_keys=True) + "\n"


def odd_record():
    rec = RunRecord(gamma_names=("a", "b.c"))
    cells = [0.1 + 0.2, -0.0, 0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324, -2.5e-8]
    for t in range(1, 40):
        rec.add_row(t, cells[t % 9], cells[(t + 3) % 9], t, 2 * t,
                    {"a": cells[(t + 5) % 9], "b.c": cells[t * 7 % 9]})
    rec.summary = {"id": 0.5, "nested": {"z": [1, math.nan]}, "final_loss": None, "s": "x"}
    return rec


class TestSameBytesAsTheFirstFormat:
    @pytest.mark.parametrize("make", [odd_record, sample_record, RunRecord,
                                      lambda: RunRecord(gamma_names=("g",), summary={"k": 1})])
    def test_csv_and_json_bytes(self, tmp_path, make):
        rec = make()
        emit_metrics(rec, "csv", tmp_path / "m.csv")
        emit_metrics(rec, "json", tmp_path / "m.json")
        assert (tmp_path / "m.csv").read_bytes() == old_csv(rec).encode("utf-8")
        assert (tmp_path / "m.json").read_bytes() == old_json(rec).encode("utf-8")

    def test_rows_added_or_replaced_after_an_emit_are_written(self, tmp_path):
        rec = odd_record()
        emit_metrics(rec, "csv", tmp_path / "m.csv")
        rec.add_row(99, 1.5, 0.0, 1, 1, {"a": 2.0, "b.c": math.nan})
        rec.rows[3] = (4, -1.0, 0.0, 4, 8, 0.25, math.inf)
        emit_metrics(rec, "csv", tmp_path / "m.csv")
        emit_metrics(rec, "json", tmp_path / "m.json")
        assert (tmp_path / "m.csv").read_text() == old_csv(rec)
        assert (tmp_path / "m.json").read_text() == old_json(rec)
        del rec.rows[5:]
        emit_metrics(rec, "json", tmp_path / "m.json")
        assert (tmp_path / "m.json").read_text() == old_json(rec)

    def test_cells_are_coerced_to_float_and_booleans_rejected(self, tmp_path):
        rec = RunRecord(rows=[(1, 2, 0.5, 1, 1)])
        rec.rows.append((2, "0.25", 0.5, 2, 2))
        emit_metrics(rec, "csv", tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_text().splitlines()[2] == "2,0.25,0.5,2,2"
        rec.rows.append((3, True, 0.5, 3, 3))
        for fmt in ("csv", "json"):
            with pytest.raises(DomainError):
                emit_metrics(rec, fmt, tmp_path / f"m.{fmt}")
