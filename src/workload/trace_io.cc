#include "workload/trace_io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/string_util.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace cdpd {

std::string WriteTrace(const Schema& schema, const Workload& workload) {
  std::string out;
  out += "-- cdpd workload trace: " + std::to_string(workload.size()) +
         " statements over " + schema.ToString() + "\n";
  const bool blocked =
      workload.block_size > 0 && !workload.block_mix_names.empty();
  size_t block = static_cast<size_t>(-1);
  for (size_t i = 0; i < workload.statements.size(); ++i) {
    if (blocked && i / workload.block_size != block) {
      block = i / workload.block_size;
      out += "-- block " + std::to_string(block);
      if (block < workload.block_mix_names.size()) {
        out += " mix " + workload.block_mix_names[block];
      }
      out += "\n";
    }
    out += workload.statements[i].ToString(schema);
    out += ";\n";
  }
  return out;
}

Status WriteTraceFile(const std::string& path, const Schema& schema,
                      const Workload& workload) {
  std::ofstream file(path, std::ios::out | std::ios::trunc);
  if (!file) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  file << WriteTrace(schema, workload);
  file.close();
  if (!file) {
    return Status::Internal("error writing '" + path + "'");
  }
  return Status::OK();
}

namespace {

/// Splits the first ' '-separated word off `*rest`.
std::string_view NextWord(std::string_view* rest) {
  const size_t space = std::min(rest->find(' '), rest->size());
  const std::string_view word = rest->substr(0, space);
  rest->remove_prefix(std::min(space + 1, rest->size()));
  return word;
}

std::string LinePrefix(size_t line_number) {
  return "line " + std::to_string(line_number) + ": ";
}

/// The number of '\n' in `text`, found by stepping memchr from one to
/// the next.
size_t CountNewlines(std::string_view text) {
  size_t count = 0;
  const char* const end = text.data() + text.size();
  for (const char* p = text.data(); p != end; ++p, ++count) {
    p = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<size_t>(end - p)));
    if (p == nullptr) break;
  }
  return count;
}

}  // namespace

Result<Workload> ReadTrace(const Schema& schema, std::string_view text) {
  Workload workload;
  // One statement per line at most, and no statement is shorter than
  // "INSERT INTO t VALUES(1)" plus its newline: the bound keeps a run
  // of blank lines from reserving more than a few bytes per input byte.
  constexpr size_t kShortestStatementLine = 24;
  workload.statements.reserve(
      std::min(CountNewlines(text), text.size() / kShortestStatementLine) +
      1);
  size_t current_block = 0;
  bool saw_block_comments = false;
  size_t line_number = 0;
  size_t block_begin_statement = 0;
  StatementView view;  // Reused by every line.

  size_t line_begin = 0;
  while (line_begin < text.size()) {
    const size_t line_end = std::min(text.find('\n', line_begin), text.size());
    const std::string_view line =
        Trim(text.substr(line_begin, line_end - line_begin));
    line_begin = line_end + 1;
    ++line_number;
    if (line.empty()) continue;
    if (line.substr(0, 2) == "--") {
      // Block marker comments carry the mix labels; other comments are
      // ignored.
      std::string_view rest = Trim(line.substr(2));
      if (NextWord(&rest) != "block") continue;
      const std::string_view number = NextWord(&rest);
      int64_t block = 0;
      const auto [number_end, error] = std::from_chars(
          number.data(), number.data() + number.size(), block);
      if (error == std::errc::invalid_argument ||
          number_end != number.data() + number.size()) {
        continue;  // Not a decimal: an ordinary comment.
      }
      const size_t next_block = workload.block_mix_names.size();
      if (error == std::errc::result_out_of_range || block < 0 ||
          static_cast<uint64_t>(block) > next_block) {
        return Status::ParseError(
            LinePrefix(line_number) + "block marker " + std::string(number) +
            " is out of order (the next block is " +
            std::to_string(next_block) + ")");
      }
      saw_block_comments = true;
      current_block = static_cast<size_t>(block);
      if (current_block == next_block) workload.block_mix_names.emplace_back();
      if (NextWord(&rest) == "mix" && !rest.empty()) {
        workload.block_mix_names[current_block] = NextWord(&rest);
      }
      if (current_block == 1 && workload.block_size == 0) {
        workload.block_size = workload.size() - block_begin_statement;
      }
      block_begin_statement = workload.size();
      continue;
    }
    // Straight from the line's tokens to its BoundStatement: the view
    // points into `text`, and nothing is allocated on success but an
    // INSERT's values.
    if (Status parsed = ParseStatement(line, &view); !parsed.ok()) {
      return Status::ParseError(LinePrefix(line_number) + parsed.message());
    }
    if (view.is_ddl()) {
      return Status::InvalidArgument(
          LinePrefix(line_number) +
          "index DDL is not allowed in a workload trace");
    }
    BoundStatement& bound = workload.statements.emplace_back();
    if (Status status = BindStatement(schema, view, &bound); !status.ok()) {
      workload.statements.pop_back();
      return Status(status.code(),
                    LinePrefix(line_number) + status.message());
    }
  }
  if (!saw_block_comments) {
    workload.block_mix_names.clear();
    workload.block_size = 0;
  }
  return workload;
}

Result<Workload> ReadTraceFile(const std::string& path,
                               const Schema& schema) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::NotFound("cannot open trace file '" + path + "'");
  }
  // Read straight into one string. The file size is only a first guess:
  // a pipe has none and a growing file may hold more.
  std::error_code size_error;
  const uintmax_t size = std::filesystem::file_size(path, size_error);
  std::string text(size_error ? size_t{1} << 16 : size + 1, '\0');
  size_t used = 0;
  while (file.read(text.data() + used,
                   static_cast<std::streamsize>(text.size() - used)),
         file.gcount() > 0) {
    used += static_cast<size_t>(file.gcount());
    if (used == text.size()) text.resize(2 * text.size());
  }
  text.resize(used);
  return ReadTrace(schema, text);
}

}  // namespace cdpd
