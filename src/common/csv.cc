#include "common/csv.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace sraps {

CsvReader::CsvReader(std::unique_ptr<std::istream> in, std::string name,
                     std::size_t buffer_size)
    : in_(std::move(in)),
      name_(std::move(name)),
      buf_(std::max<std::size_t>(1, buffer_size)) {}

CsvReader::CsvReader(const std::string& path)
    : CsvReader(std::make_unique<std::ifstream>(path, std::ios::binary), path,
                kBufferSize) {
  if (!*in_) throw std::runtime_error("CSV: cannot open " + path);
}

CsvReader CsvReader::FromText(std::string text, std::size_t buffer_size) {
  return CsvReader(std::make_unique<std::istringstream>(std::move(text)), "text",
                   buffer_size);
}

bool CsvReader::Refill() {
  in_->read(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  pos_ = 0;
  end_ = static_cast<std::size_t>(in_->gcount());
  return end_ > 0;
}

bool CsvReader::Next(std::vector<std::string>& fields) {
  std::size_t width = 1;  // fields begun in this row; the last is being filled
  if (fields.empty()) fields.emplace_back();
  fields[0].clear();
  bool started = false;  // the row has a field: a comma, quote or field byte
  enum { kPlain, kQuoted, kQuoteInQuoted } state = kPlain;
  row_line_ = line_;
  for (;;) {
    if (pos_ == end_ && !Refill()) break;
    const char* const buf = buf_.data();
    std::string& field = fields[width - 1];
    if (state == kQuoted) {
      // Copy up to the next quote in one go; newlines here are literal.
      std::size_t stop = pos_;
      while (stop < end_ && buf[stop] != '"') line_ += buf[stop++] == '\n';
      field.append(buf + pos_, stop - pos_);
      pos_ = stop;
      if (pos_ < end_) {
        ++pos_;
        state = kQuoteInQuoted;
      }
      continue;
    }
    if (state == kQuoteInQuoted) {
      if (buf[pos_] == '"') {  // "" inside quotes: one literal quote
        field += '"';
        ++pos_;
        state = kQuoted;
        continue;
      }
      state = kPlain;  // the quote closed the quoted section
    }
    std::size_t stop = pos_;
    while (stop < end_ && buf[stop] != ',' && buf[stop] != '"' && buf[stop] != '\r' &&
           buf[stop] != '\n') {
      ++stop;
    }
    if (stop > pos_) {
      field.append(buf + pos_, stop - pos_);
      started = true;
      pos_ = stop;
    }
    if (pos_ == end_) continue;
    const char c = buf[pos_++];
    switch (c) {
      case '"':
        state = kQuoted;
        started = true;
        break;
      case ',':
        if (width == fields.size()) fields.emplace_back();
        fields[width++].clear();
        started = true;
        break;
      case '\r':
        break;  // swallow; \n ends the row
      default:  // '\n'
        ++line_;
        if (started) {
          fields.resize(width);
          return true;
        }
        row_line_ = line_;  // a blank line: the row starts on the next one
        break;
    }
  }
  if (state == kQuoted) {
    throw std::runtime_error("CSV " + Where() + ": unterminated quoted field");
  }
  if (!started) return false;
  fields.resize(width);
  return true;
}

std::string CsvReader::Where() const {
  return name_ + ":" + std::to_string(line());
}

std::optional<double> ParseCsvDouble(std::string_view cell) {
  if (cell.empty()) return std::nullopt;
  double v = 0.0;
  const char* const end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, v);
  if (ec == std::errc() && ptr == end && !std::isnan(v)) return v;
  const std::string copy(cell);  // strtod needs a terminated string
  char* stop = nullptr;
  v = std::strtod(copy.c_str(), &stop);
  if (stop != copy.c_str() + copy.size()) return std::nullopt;
  return v;
}

std::optional<std::int64_t> ParseCsvInt(std::string_view cell) {
  if (cell.empty()) return std::nullopt;
  std::int64_t v = 0;
  const char* const end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, v);
  if (ec == std::errc() && ptr == end) return v;
  const std::string copy(cell);
  char* stop = nullptr;
  const long long parsed = std::strtoll(copy.c_str(), &stop, 10);
  if (stop != copy.c_str() + copy.size()) return std::nullopt;
  return parsed;
}

CsvRowStream::CsvRowStream(const std::string& path) : reader_(path) {
  if (!reader_.Next(header_)) {
    throw std::runtime_error("CSV " + reader_.Where() + ": empty input");
  }
}

CsvColumn CsvRowStream::Column(std::string name) const {
  CsvColumn col{std::move(name), std::nullopt};
  for (std::size_t i = header_.size(); i-- > 0;) {
    if (header_[i] == col.name) {
      col.index = i;
      break;
    }
  }
  return col;
}

bool CsvRowStream::Next() {
  if (!reader_.Next(row_)) return false;
  if (row_.size() != header_.size()) {
    throw std::runtime_error(Where() + ": " + std::to_string(row_.size()) +
                             " cells, header has " + std::to_string(header_.size()));
  }
  return true;
}

const std::string& CsvRowStream::Cell(const CsvColumn& col) const {
  if (!col.index) throw std::out_of_range(Where() + ": no column '" + col.name + "'");
  return row_[*col.index];
}

std::optional<std::int64_t> CsvRowStream::Int(const CsvColumn& col) const {
  const std::string& cell = Cell(col);
  if (cell.empty()) return std::nullopt;
  if (auto v = ParseCsvInt(cell)) return v;
  throw std::runtime_error(Where() + ": '" + cell + "' is not an integer in column " +
                           col.name);
}

std::optional<double> CsvRowStream::Double(const CsvColumn& col) const {
  const std::string& cell = Cell(col);
  if (cell.empty()) return std::nullopt;
  if (auto v = ParseCsvDouble(cell)) return v;
  throw std::runtime_error(Where() + ": '" + cell + "' is not a number in column " +
                           col.name);
}

CsvTable::CsvTable(std::vector<std::string> header,
                   std::vector<std::vector<std::string>> rows)
    : header_(std::move(header)), rows_(std::move(rows)) {
  for (std::size_t i = 0; i < header_.size(); ++i) index_[header_[i]] = i;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (rows_[r].size() != header_.size()) {
      throw std::runtime_error("CSV: row " + std::to_string(r) + " has " +
                               std::to_string(rows_[r].size()) + " cells, header has " +
                               std::to_string(header_.size()));
    }
  }
}

namespace {

CsvTable ReadTable(CsvReader& reader) {
  std::vector<std::string> header;
  if (!reader.Next(header)) throw std::runtime_error("CSV: empty input");
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> fields;
  while (reader.Next(fields)) rows.push_back(std::move(fields));
  return CsvTable(std::move(header), std::move(rows));
}

}  // namespace

CsvTable CsvTable::Parse(const std::string& text) {
  CsvReader reader = CsvReader::FromText(text);
  return ReadTable(reader);
}

CsvTable CsvTable::Load(const std::string& path) {
  CsvReader reader(path);
  return ReadTable(reader);
}

std::optional<std::size_t> CsvTable::ColumnIndex(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

const std::string& CsvTable::Cell(std::size_t row, std::size_t col) const {
  if (row >= rows_.size() || col >= header_.size()) {
    throw std::out_of_range("CSV: cell out of range");
  }
  return rows_[row][col];
}

const std::string& CsvTable::Cell(std::size_t row, const std::string& column) const {
  auto col = ColumnIndex(column);
  if (!col) throw std::out_of_range("CSV: no column '" + column + "'");
  return Cell(row, *col);
}

std::optional<double> CsvTable::GetDouble(std::size_t row,
                                          const std::string& column) const {
  const std::string& cell = Cell(row, column);
  if (cell.empty()) return std::nullopt;
  if (auto v = ParseCsvDouble(cell)) return v;
  throw std::runtime_error("CSV: '" + cell + "' is not a number in column " + column);
}

std::optional<std::int64_t> CsvTable::GetInt(std::size_t row,
                                             const std::string& column) const {
  const std::string& cell = Cell(row, column);
  if (cell.empty()) return std::nullopt;
  if (auto v = ParseCsvInt(cell)) return v;
  throw std::runtime_error("CSV: '" + cell + "' is not an integer in column " + column);
}

std::string CsvQuote(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::string CsvNumber(double v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.10g", v);
  return std::string(buf, static_cast<std::size_t>(n));
}

CsvWriter::CsvWriter(std::vector<std::string> header) : header_(std::move(header)) {}

void CsvWriter::AddRow(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    throw std::invalid_argument("CsvWriter: row width mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string CsvWriter::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (i) out += ',';
    out += CsvQuote(header_[i]);
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out += ',';
      out += CsvQuote(row[i]);
    }
    out += '\n';
  }
  return out;
}

void CsvWriter::Save(const std::string& path) const {
  std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("CsvWriter: cannot write " + path);
  out << ToString();
}

}  // namespace sraps
