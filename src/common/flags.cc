#include "src/common/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace pronghorn {

Result<int64_t> ParseInt(std::string_view text, int64_t min, int64_t max) {
  int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return InvalidArgumentError("expects an integer, got '" + std::string(text) + "'");
  }
  if (value < min || value > max) {
    return InvalidArgumentError("must be in [" + std::to_string(min) + ", " +
                                std::to_string(max) + "], got " + std::string(text));
  }
  return value;
}

Result<double> ParseNumber(std::string_view text, double min, double max) {
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size() || !std::isfinite(value)) {
    return InvalidArgumentError("expects a number, got '" + std::string(text) + "'");
  }
  if (value < min || value > max) {
    char range[64];
    std::snprintf(range, sizeof(range), "[%g, %g]", min, max);
    return InvalidArgumentError("must be in " + std::string(range) + ", got " +
                                std::string(text));
  }
  return value;
}

std::vector<std::string_view> Split(std::string_view text, char separator) {
  std::vector<std::string_view> fields;
  size_t start = 0;
  for (size_t end = text.find(separator); end != std::string_view::npos;
       end = text.find(separator, start)) {
    fields.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  fields.push_back(text.substr(start));
  return fields;
}

void FlagParser::AddFlag(std::string name, std::string default_value,
                         std::string description) {
  Flag flag;
  flag.value = default_value;
  flag.default_value = std::move(default_value);
  flag.description = std::move(description);
  flags_.insert_or_assign(std::move(name), std::move(flag));
}

void FlagParser::AddSwitch(std::string name, std::string description) {
  Flag flag;
  flag.value = "false";
  flag.default_value = "false";
  flag.description = std::move(description);
  flag.is_switch = true;
  flags_.insert_or_assign(std::move(name), std::move(flag));
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.size() < 2 || arg.substr(0, 2) != "--") {
      // A dash followed by a non-digit is a misspelled flag (`-seed 7`,
      // `-fault-rate`), not a positional; silently collecting it would make
      // the flag a no-op. Lone dashes and negative numbers stay positional.
      if (arg.size() >= 2 && arg[0] == '-' &&
          (arg[1] < '0' || arg[1] > '9') && arg[1] != '.') {
        return InvalidArgumentError("unrecognized argument '" + std::string(arg) +
                                    "' (flags are spelled --" +
                                    std::string(arg.substr(1)) + ")");
      }
      positional_.emplace_back(arg);
      continue;
    }
    std::string_view body = arg.substr(2);
    std::string_view value;
    bool has_inline_value = false;
    if (const size_t eq = body.find('='); eq != std::string_view::npos) {
      value = body.substr(eq + 1);
      body = body.substr(0, eq);
      has_inline_value = true;
    }
    auto it = flags_.find(body);
    if (it == flags_.end()) {
      return InvalidArgumentError("unknown flag --" + std::string(body));
    }
    Flag& flag = it->second;
    if (flag.is_switch) {
      if (has_inline_value) {
        if (value != "true" && value != "false") {
          return InvalidArgumentError("switch --" + std::string(body) +
                                      " takes true/false, got '" + std::string(value) +
                                      "'");
        }
        flag.value = std::string(value);
      } else {
        flag.value = "true";
      }
      continue;
    }
    if (!has_inline_value) {
      if (i + 1 >= argc) {
        return InvalidArgumentError("flag --" + std::string(body) + " needs a value");
      }
      value = argv[++i];
    }
    flag.value = std::string(value);
  }
  return OkStatus();
}

Result<std::string> FlagParser::GetString(std::string_view name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return InvalidArgumentError("undeclared flag --" + std::string(name));
  }
  return it->second.value;
}

namespace {

// Prefixes a value error with the flag it came from.
template <typename T>
Result<T> NameFlag(std::string_view name, Result<T> value) {
  if (value.ok()) {
    return value;
  }
  return InvalidArgumentError("flag --" + std::string(name) + " " + value.status().message());
}

}  // namespace

Result<int64_t> FlagParser::GetInt(std::string_view name, int64_t min,
                                   int64_t max) const {
  PRONGHORN_ASSIGN_OR_RETURN(const std::string text, GetString(name));
  return NameFlag(name, ParseInt(text, min, max));
}

Result<double> FlagParser::GetDouble(std::string_view name, double min,
                                     double max) const {
  PRONGHORN_ASSIGN_OR_RETURN(const std::string text, GetString(name));
  return NameFlag(name, ParseNumber(text, min, max));
}

Result<bool> FlagParser::GetBool(std::string_view name) const {
  const Result<std::string> text = GetString(name);
  if (!text.ok()) {
    return text.status();
  }
  if (*text == "true" || *text == "1") {
    return true;
  }
  if (*text == "false" || *text == "0") {
    return false;
  }
  return InvalidArgumentError("flag --" + std::string(name) +
                              " expects true/false, got '" + *text + "'");
}

std::string FlagParser::UsageText(std::string_view program_name) const {
  std::string out = "usage: " + std::string(program_name) + " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    out += "  --" + name;
    if (!flag.is_switch) {
      out += "=<value>";
    }
    out += "  " + flag.description;
    if (!flag.is_switch && !flag.default_value.empty()) {
      out += " (default: " + flag.default_value + ")";
    }
    out += "\n";
  }
  return out;
}

}  // namespace pronghorn
