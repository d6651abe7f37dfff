#include "src/storage/event.h"

#include "src/util/string_utils.h"

namespace aiql {

const char* OperationName(Operation op) {
  switch (op) {
    case Operation::kRead:
      return "read";
    case Operation::kWrite:
      return "write";
    case Operation::kExecute:
      return "execute";
    case Operation::kStart:
      return "start";
    case Operation::kEnd:
      return "end";
    case Operation::kRename:
      return "rename";
    case Operation::kDelete:
      return "delete";
    case Operation::kConnect:
      return "connect";
    case Operation::kAccept:
      return "accept";
  }
  return "?";
}

std::optional<Operation> ParseOperation(std::string_view name) {
  for (int i = 0; i < kNumOperations; ++i) {
    Operation op = static_cast<Operation>(i);
    if (EqualsIgnoreCase(name, OperationName(op))) {
      return op;
    }
  }
  return std::nullopt;
}

}  // namespace aiql
