#ifndef CDPD_WORKLOAD_TRACE_IO_H_
#define CDPD_WORKLOAD_TRACE_IO_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "workload/workload.h"

namespace cdpd {

/// Serializes a workload trace as a SQL script: one statement per
/// line, terminated with ';'. Block structure (when present) is
/// preserved as comment lines of the form
///
///   -- block 7 mix B
///
/// so a captured trace round-trips through ReadTrace() losslessly,
/// including the Table 2 mix labels.
std::string WriteTrace(const Schema& schema, const Workload& workload);

/// Writes WriteTrace() output to `path`. Fails with Internal on I/O
/// errors.
Status WriteTraceFile(const std::string& path, const Schema& schema,
                      const Workload& workload);

/// Parses a trace produced by WriteTrace() — or any ';'-terminated,
/// one-statement-per-line SQL script with optional '--' comments —
/// into a bound workload, in one pass over `text`. Lines end at '\n'
/// (a trailing '\r' is whitespace). Statement kinds are restricted to
/// the DML dialect (index DDL in a trace is rejected: physical design
/// is the advisor's output, not its input).
///
/// Errors name the line ("line N: ...") and, per line, come in the
/// order ParseStatement() + the DDL rejection + BindStatement() give
/// them (sql/parser.h, sql/binder.h): lexical, grammar, DDL, binding.
///
/// Block markers. A comment whose words, split at single spaces, are
///
///   -- block <n> [mix <name>]
///
/// with <n> a decimal integer starts block n, labelled <name>. Blocks
/// are numbered in order: n may restate an earlier block (relabelling
/// it) or open the next one, n == block_mix_names.size(); a negative n,
/// or one beyond the next block, is a ParseError that names the line.
/// When `block` is followed by anything other than a decimal integer
/// ("-- block party", "-- block 1x", "-- block +1") the line is an
/// ordinary comment. block_size is the statement count of block 0.
Result<Workload> ReadTrace(const Schema& schema, std::string_view text);

/// Reads a trace file into one string and parses it with ReadTrace().
Result<Workload> ReadTraceFile(const std::string& path, const Schema& schema);

}  // namespace cdpd

#endif  // CDPD_WORKLOAD_TRACE_IO_H_
