// SHA-256 of a file, streamed — the digest the output checks compare (the
// same digest the sweep shard diffs use), without holding the file in
// memory, so the checks do not raise the run's peak RSS.
#pragma once

#include <string>

namespace perfbench {

/// Lower-case hex SHA-256 of the file's bytes.  Throws std::runtime_error
/// when the file cannot be read.
std::string Sha256File(const std::string& path);

/// Lower-case hex SHA-256 of `data`.
std::string Sha256(const std::string& data);

}  // namespace perfbench
