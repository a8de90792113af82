#include "util/arg_parser.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace epfis {

ArgParser::ArgParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags_[arg] = Flag{};
    } else {
      flags_[arg.substr(0, eq)] = Flag{arg.substr(eq + 1)};
    }
  }
}

ArgParser::Flag* ArgParser::Read(const std::string& name) {
  auto it = flags_.find(name);
  if (it == flags_.end()) return nullptr;
  it->second.read = true;
  return &it->second;
}

void ArgParser::Malformed(const std::string& name, const std::string& value,
                          const std::string& expected) {
  if (value.empty()) {
    malformed_.push_back("--" + name + " needs a value: --" + name +
                         "=VALUE");
  } else {
    malformed_.push_back("--" + name + "=" + value + ": expected " +
                         expected);
  }
}

bool ArgParser::Has(const std::string& name) { return Read(name) != nullptr; }

std::string ArgParser::GetString(const std::string& name,
                                 const std::string& def) {
  Flag* flag = Read(name);
  return flag == nullptr ? def : flag->value;
}

int64_t ArgParser::GetInt(const std::string& name, int64_t def) {
  Flag* flag = Read(name);
  if (flag == nullptr) return def;
  const char* begin = flag->value.c_str();
  char* end = nullptr;
  errno = 0;
  long long value = std::strtoll(begin, &end, 10);
  if (flag->value.empty() || *end != '\0' || errno == ERANGE) {
    Malformed(name, flag->value, "an integer");
    return def;
  }
  return value;
}

bool ArgParser::ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0' && errno != ERANGE;
}

double ArgParser::GetDouble(const std::string& name, double def) {
  Flag* flag = Read(name);
  if (flag == nullptr) return def;
  double value;
  if (!ParseDouble(flag->value, &value)) {
    Malformed(name, flag->value, "a number");
    return def;
  }
  return value;
}

bool ArgParser::GetBool(const std::string& name, bool def) {
  Flag* flag = Read(name);
  if (flag == nullptr) return def;
  const std::string& v = flag->value;
  if (v.empty() || v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  Malformed(name, v, "true, false, 1 or 0");
  return def;
}

std::vector<double> ArgParser::GetDoubleList(const std::string& name,
                                             std::vector<double> def) {
  Flag* flag = Read(name);
  if (flag == nullptr) return def;
  std::vector<double> values;
  std::istringstream in(flag->value);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    double value;
    if (!ParseDouble(item, &value)) {
      values.clear();
      break;
    }
    values.push_back(value);
  }
  if (values.empty()) {
    Malformed(name, flag->value, "a list of numbers");
    return def;
  }
  return values;
}

Status ArgParser::Check() const {
  if (!malformed_.empty()) return Status::InvalidArgument(malformed_.front());
  for (const auto& [name, flag] : flags_) {
    if (!flag.read) return Status::InvalidArgument("unknown flag --" + name);
  }
  if (!positional_.empty()) {
    return Status::InvalidArgument("unexpected argument '" +
                                   positional_.front() +
                                   "' (flags take the form --name=value)");
  }
  return Status::Ok();
}

}  // namespace epfis
