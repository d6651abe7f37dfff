// Checked-in golden files (tests/golden/): a test renders one line per case,
// and the file pins those lines. A change that is meant to move them
// regenerates the file and shows the diff in review:
//
//   AIQL_UPDATE_GOLDEN=1 ./build/<test>
#ifndef AIQL_TESTS_GOLDEN_FILE_H_
#define AIQL_TESTS_GOLDEN_FILE_H_

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace aiql::golden {

// Compares `got` with the non-comment lines of the golden file at `path`.
// Returns one "golden:/now:" pair per differing line, each followed by
// `note(i)` when given (e.g. the input the line was rendered from); "" when
// they match. Under AIQL_UPDATE_GOLDEN=1 it rewrites the file instead — the
// `header` lines as '#' comments, then `got` — and returns nullopt, so the
// caller can skip. A missing or unwritable file is reported as a difference.
inline std::optional<std::string> CompareOrUpdate(
    const std::string& path, const std::vector<std::string>& header,
    const std::vector<std::string>& got,
    const std::function<std::string(size_t)>& note = nullptr) {
  if (std::getenv("AIQL_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    for (const std::string& line : header) {
      out << "# " << line << "\n";
    }
    for (const std::string& line : got) {
      out << line << "\n";
    }
    if (!out.good()) {
      return "cannot write " + path + "\n";
    }
    return std::nullopt;
  }
  std::ifstream in(path);
  if (!in.good()) {
    return "missing " + path + "\n";
  }
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') {
      want.push_back(line);
    }
  }
  std::string diff;
  for (size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string w = i < want.size() ? want[i] : "(none)";
    const std::string g = i < got.size() ? got[i] : "(none)";
    if (w != g) {
      diff += "  golden: " + w + "\n  now:    " + g + "\n";
      if (note) {
        diff += note(i);
      }
    }
  }
  return diff;
}

}  // namespace aiql::golden

#endif  // AIQL_TESTS_GOLDEN_FILE_H_
