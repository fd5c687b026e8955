#include "util/check.hpp"

namespace dqn::util {

void handle_contract_failure(const char* file, int line, const char* kind,
                             const char* expression, std::string message) {
  std::string report;
  report += file;
  report += ':';
  report += std::to_string(line);
  report += ": ";
  report += kind;
  report += " failed: ";
  report += expression;
  if (!message.empty()) {
    report += " (";
    report += message;
    report += ')';
  }
  throw contract_violation{report};
}

}  // namespace dqn::util
