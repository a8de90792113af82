#ifndef EPFIS_UTIL_ARG_PARSER_H_
#define EPFIS_UTIL_ARG_PARSER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace epfis {

/// Tiny `--flag=value` / `--flag` command-line parser for the bench
/// binaries. It records which flags the binary read and which values did
/// not parse, so that Check, called once every flag is read, can reject
/// a mistyped flag, a stray argument or a malformed number instead of
/// running with defaults.
class ArgParser {
 public:
  ArgParser(int argc, char** argv);

  /// True if `--name` was present (with or without a value).
  bool Has(const std::string& name);

  /// Value of `--name=value`, or `def` if absent. A value that does not
  /// parse as the asked-for type (`--refs=12x`, `--refs` with no value,
  /// `--gate=yes`) returns `def` and fails Check.
  std::string GetString(const std::string& name, const std::string& def);
  int64_t GetInt(const std::string& name, int64_t def);
  double GetDouble(const std::string& name, double def);
  /// `--name`, `--name=true` and `--name=1` are true; `--name=false` and
  /// `--name=0` are false.
  bool GetBool(const std::string& name, bool def);
  /// Comma-separated numbers (`--rates=1,0.1`); empty items are skipped,
  /// and at least one number must remain.
  std::vector<double> GetDoubleList(const std::string& name,
                                    std::vector<double> def);

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// InvalidArgument naming the first bad argument: a value that did not
  /// parse, a flag nothing read, or a positional argument (which is also
  /// what a space-separated value such as `--scale 1` leaves behind).
  Status Check() const;

 private:
  struct Flag {
    std::string value;
    bool read = false;
  };

  // The flag's entry, marked read, or null if it was not given.
  Flag* Read(const std::string& name);

  // Parses all of `text` as a double into `out`.
  static bool ParseDouble(const std::string& text, double* out);

  // Records that `--name=value` is not `expected`.
  void Malformed(const std::string& name, const std::string& value,
                 const std::string& expected);

  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
  std::vector<std::string> malformed_;
};

}  // namespace epfis

#endif  // EPFIS_UTIL_ARG_PARSER_H_
