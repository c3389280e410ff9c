// Minimal CSV reading/writing used by the dataloaders and output recorders.
//
// The paper's artifacts consume parquet; offline we standardise on CSV with
// identical column names so every dataloader exercises the same parsing,
// validation, and unit-handling logic the real loaders need.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sraps {

/// Streaming CSV tokenizer: reads its input through a fixed buffer and
/// yields one row at a time into reused field strings, so a file of any size
/// is parsed in constant memory.  Grammar: fields are comma-separated; a
/// double quote opens a quoted section in which commas, line breaks and
/// carriage returns are literal and a doubled quote is one quote (text after
/// the closing quote keeps appending to the same field); outside quotes a
/// carriage return is dropped and a newline ends the row; lines with no
/// field content are skipped.
class CsvReader {
 public:
  static constexpr std::size_t kBufferSize = std::size_t{1} << 16;

  /// Reads the file at `path`.  Throws std::runtime_error if unreadable.
  explicit CsvReader(const std::string& path);
  /// Reads CSV text held in memory, named "text" in error messages.  A
  /// small `buffer_size` lets tests put any byte on a buffer boundary.
  static CsvReader FromText(std::string text, std::size_t buffer_size = kBufferSize);

  /// Reads the next row into `fields` (resized to the row's width; the
  /// strings' storage is reused).  Returns false at end of input.  Throws
  /// std::runtime_error when the input ends inside a quoted field.
  bool Next(std::vector<std::string>& fields);

  /// 1-based line the row Next last returned starts on (newlines inside
  /// quoted fields count).
  std::size_t line() const { return row_line_; }
  /// "source:line" of that row (source: the file path, or "text"): the
  /// prefix of every loader error.
  std::string Where() const;

 private:
  CsvReader(std::unique_ptr<std::istream> in, std::string name, std::size_t buffer_size);
  bool Refill();

  std::unique_ptr<std::istream> in_;
  std::string name_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  std::size_t line_ = 1;      ///< line of the next unread byte
  std::size_t row_line_ = 0;  ///< line the last returned row started on
};

/// Parses a whole cell as a number, exactly as strtod / strtoll(.., 10)
/// would: the value of every accepted cell and the set of rejected cells are
/// theirs.  std::from_chars reads the common case; the C parser takes every
/// cell from_chars rejects, does not consume, reads as out of range, or (for
/// doubles) reads as a NaN, whose payload from_chars drops.  Returns nullopt
/// when the cell is empty or not entirely a number.
std::optional<double> ParseCsvDouble(std::string_view cell);
std::optional<std::int64_t> ParseCsvInt(std::string_view cell);

/// One column a streaming loader reads, resolved once against the header.
struct CsvColumn {
  std::string name;
  std::optional<std::size_t> index;  ///< nullopt when the header lacks it
};

/// A CSV file with a header row, read one row at a time: the streaming
/// loaders' typed view.  Every error names the file and the line.
class CsvRowStream {
 public:
  /// Opens `path` and reads its header row.  Throws std::runtime_error if
  /// the file is unreadable or has no rows.
  explicit CsvRowStream(const std::string& path);

  /// Resolves a column by header name: the last one when the name repeats,
  /// as CsvTable::ColumnIndex resolves it.
  CsvColumn Column(std::string name) const;

  /// Advances to the next row; false at end of input.  Throws
  /// std::runtime_error when the row's width differs from the header's.
  bool Next();

  /// The current row's cell.  Throws std::out_of_range when the header
  /// lacks the column.
  const std::string& Cell(const CsvColumn& col) const;
  /// Typed cells: nullopt when empty, std::runtime_error when malformed.
  std::optional<std::int64_t> Int(const CsvColumn& col) const;
  std::optional<double> Double(const CsvColumn& col) const;

  std::size_t line() const { return reader_.line(); }
  std::string Where() const { return reader_.Where(); }

 private:
  CsvReader reader_;
  std::vector<std::string> header_;
  std::vector<std::string> row_;
};

/// One parsed CSV table: a header and row-major cells.
class CsvTable {
 public:
  CsvTable() = default;
  CsvTable(std::vector<std::string> header, std::vector<std::vector<std::string>> rows);

  /// Parses CSV text with CsvReader's grammar.  Throws std::runtime_error on
  /// ragged rows, an unterminated quote, or input without a header row.
  static CsvTable Parse(const std::string& text);

  /// Reads and parses a CSV file.  Throws std::runtime_error if unreadable.
  static CsvTable Load(const std::string& path);

  const std::vector<std::string>& header() const { return header_; }
  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_cols() const { return header_.size(); }

  /// Column index for a header name; nullopt if absent.
  std::optional<std::size_t> ColumnIndex(const std::string& name) const;

  /// Raw cell access (bounds-checked).
  const std::string& Cell(std::size_t row, std::size_t col) const;
  const std::string& Cell(std::size_t row, const std::string& column) const;

  /// Typed accessors.  Empty cells yield nullopt; malformed cells throw.
  std::optional<double> GetDouble(std::size_t row, const std::string& column) const;
  std::optional<std::int64_t> GetInt(std::size_t row, const std::string& column) const;

 private:
  std::vector<std::string> header_;
  std::map<std::string, std::size_t> index_;
  std::vector<std::vector<std::string>> rows_;
};

/// Streaming CSV writer with RFC-4180 quoting.
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  void AddRow(std::vector<std::string> cells);

  /// Serialises the table (header + rows) to a string.
  std::string ToString() const;

  /// Writes to a file, creating parent directories if needed.
  void Save(const std::string& path) const;

  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Quotes a single CSV field if it contains a comma, quote, or newline.
std::string CsvQuote(const std::string& field);

/// Formats a number for a CSV cell: 10 significant digits, printf's %g
/// shape ("0.1", "1e-07", "1.23456789e+11", "-0").  Every generated dataset
/// writes its numbers through this, so their bytes depend on it.
std::string CsvNumber(double v);

}  // namespace sraps
