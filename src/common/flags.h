// Minimal command-line flag parsing for the CLI tools.
//
// Supports `--name value` and `--name=value` forms plus boolean switches
// (`--verbose`). Unknown flags are an error (catches typos), and so are
// single-dash flag spellings like `-seed 7` — silently treating those as
// positionals would turn the flag into a no-op. Other positional arguments
// (including negative numbers) are collected in order.
//
// Numeric values parse as whole tokens with an inclusive range: "4x", " 4"
// and out-of-range values are errors, never silently truncated or narrowed.

#ifndef PRONGHORN_SRC_COMMON_FLAGS_H_
#define PRONGHORN_SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace pronghorn {

// Parses all of `text` as a base-10 integer in [min, max].
Result<int64_t> ParseInt(std::string_view text, int64_t min, int64_t max);
// Parses all of `text` as a finite decimal number in [min, max].
Result<double> ParseNumber(std::string_view text, double min, double max);
// Splits `text` at every `separator`, keeping empty fields: "a,,b" gives
// {"a", "", "b"} and "" gives {""}.
std::vector<std::string_view> Split(std::string_view text, char separator);

class FlagParser {
 public:
  FlagParser() = default;

  // Declares a flag. `description` feeds the usage text. Every flag has a
  // string default; typed getters parse on access.
  void AddFlag(std::string name, std::string default_value, std::string description);
  // Declares a boolean switch (present => true).
  void AddSwitch(std::string name, std::string description);

  // Parses argv (excluding argv[0]). Fails on unknown or malformed flags.
  Status Parse(int argc, const char* const* argv);

  // Typed access; kInvalidArgument naming the flag when the value does not
  // parse or falls outside [min, max].
  Result<std::string> GetString(std::string_view name) const;
  Result<int64_t> GetInt(std::string_view name,
                         int64_t min = std::numeric_limits<int64_t>::min(),
                         int64_t max = std::numeric_limits<int64_t>::max()) const;
  Result<double> GetDouble(std::string_view name,
                           double min = -std::numeric_limits<double>::max(),
                           double max = std::numeric_limits<double>::max()) const;
  Result<bool> GetBool(std::string_view name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Formats the flag table for --help output.
  std::string UsageText(std::string_view program_name) const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string description;
    bool is_switch = false;
  };

  std::map<std::string, Flag, std::less<>> flags_;
  std::vector<std::string> positional_;
};

}  // namespace pronghorn

#endif  // PRONGHORN_SRC_COMMON_FLAGS_H_
