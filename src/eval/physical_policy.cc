#include "eval/physical_policy.h"

namespace hql {

const char* IndexModeName(IndexMode mode) {
  switch (mode) {
    case IndexMode::kOff:
      return "off";
    case IndexMode::kManual:
      return "manual";
    case IndexMode::kAdvisor:
      return "advisor";
  }
  return "?";
}

const char* ColumnarModeName(ColumnarMode mode) {
  switch (mode) {
    case ColumnarMode::kOff:
      return "off";
    case ColumnarMode::kAuto:
      return "auto";
  }
  return "?";
}

const char* IncrementalModeName(IncrementalMode mode) {
  switch (mode) {
    case IncrementalMode::kOff:
      return "off";
    case IncrementalMode::kAuto:
      return "auto";
  }
  return "?";
}

}  // namespace hql
