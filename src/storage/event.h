// System events of the AIQL data model (paper §3.1, Table 2).
//
// An event is the triple <subject, operation, object>: the subject is always
// a process; the object is a file, a process, or a network connection. Events
// carry spatial (agent_id) and temporal (start/end) attributes plus
// security-relevant extras (amount transferred, failure code, sequence).
#ifndef AIQL_SRC_STORAGE_EVENT_H_
#define AIQL_SRC_STORAGE_EVENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/storage/entity.h"
#include "src/util/time_utils.h"
#include "src/util/value.h"

namespace aiql {

enum class Operation : uint8_t {
  kRead = 0,
  kWrite = 1,
  kExecute = 2,
  kStart = 3,
  kEnd = 4,
  kRename = 5,
  kDelete = 6,
  kConnect = 7,
  kAccept = 8,
};

inline constexpr int kNumOperations = 9;

using OpMask = uint16_t;

constexpr OpMask OpBit(Operation op) { return static_cast<OpMask>(1u << static_cast<int>(op)); }
inline constexpr OpMask kAllOps = (1u << kNumOperations) - 1;

const char* OperationName(Operation op);
// Parses "read", "write", ... (case-insensitive). Returns nullopt if unknown.
std::optional<Operation> ParseOperation(std::string_view name);

struct Event {
  int64_t id = 0;            // globally unique event id
  int64_t seq = 0;           // per-agent monotonically increasing sequence
  AgentId agent_id = 0;
  Operation op = Operation::kRead;
  EntityType object_type = EntityType::kFile;
  uint32_t subject_idx = 0;  // index into EntityCatalog::processes()
  uint32_t object_idx = 0;   // index into the object_type vector of the catalog
  TimestampMs start_time = 0;
  TimestampMs end_time = 0;
  int64_t amount = 0;        // bytes read/written/transferred
  int32_t failure_code = 0;  // 0 = success
};

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_EVENT_H_
