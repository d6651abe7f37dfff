// System entities of the AIQL data model (paper §3.1, Table 1).
//
// Entities are files, processes, and network connections. Every entity has a
// globally unique int64 id plus type-specific security attributes. Entities
// are interned once in an EntityCatalog and referenced from events by dense
// per-type indices, which keeps the 10^6..10^9 event rows narrow while the
// 10^4..10^5 entity rows carry the strings. The catalog also keeps every
// string attribute dictionary-coded (StringColumn), so entity resolution
// matches each distinct string once rather than once per entity.
#ifndef AIQL_SRC_STORAGE_ENTITY_H_
#define AIQL_SRC_STORAGE_ENTITY_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/value.h"

namespace aiql {

struct AttrDef;  // schema.h

using AgentId = uint32_t;

enum class EntityType : uint8_t {
  kFile = 0,
  kProcess = 1,
  kNetwork = 2,
};

constexpr const char* EntityTypeName(EntityType t) {
  switch (t) {
    case EntityType::kFile:
      return "file";
    case EntityType::kProcess:
      return "proc";
    case EntityType::kNetwork:
      return "ip";
  }
  return "?";
}

struct FileEntity {
  int64_t id = 0;
  AgentId agent_id = 0;
  std::string name;   // full path
  std::string owner;
  std::string group;
  int64_t vol_id = 0;
  int64_t data_id = 0;
};

struct ProcessEntity {
  int64_t id = 0;
  AgentId agent_id = 0;
  int64_t pid = 0;
  std::string exe_name;  // full executable path
  std::string user;
  std::string cmd;       // command line
  std::string signature; // binary signature ("verified", "unsigned", ...)
};

struct NetworkEntity {
  int64_t id = 0;
  AgentId agent_id = 0;
  std::string src_ip;
  std::string dst_ip;
  int32_t src_port = 0;
  int32_t dst_port = 0;
  std::string protocol;  // "tcp" / "udp"
};

// How many stored events reference each entity: as the subject (processes
// only) and as the object, per object type. Indexed by catalog index.
struct EntityEventCounts {
  std::vector<uint32_t> subject;
  std::array<std::vector<uint32_t>, 3> object;  // by EntityType
};

// One string attribute of one entity type, dictionary-coded (the layout of
// EventQL's cstable string columns): a code per entity, and each distinct
// value once, as interned and ASCII-lowered (the form LIKE matches).
struct StringColumn {
  std::vector<uint32_t> codes;      // by catalog index
  std::vector<Value> values;        // by code
  std::vector<std::string> lower;   // by code
  std::unordered_map<std::string, uint32_t> code_of;  // value -> code
};

// Interning catalog. Indices returned by the Intern* calls are dense per-type
// and stable for the lifetime of the catalog.
//
// Interning also codes the entity's string attributes (one StringColumn per
// string row of the schema, kAttrs) and files it under its default
// attribute's lowered value for exact lookups, so every entity is in both
// the moment it exists. What the executor's cost estimate reads, the
// per-entity event counts, is written by the Database that owns the catalog
// at Finalize (Publish); a database sharing another's catalog (an MPP
// segment) leaves it alone, so it always describes the whole store.
// Everything is read-only while queries run.
class EntityCatalog {
 public:
  EntityCatalog();

  // Interns by identity key (agent + name/pid/5-tuple); returns the dense
  // index of the (possibly pre-existing) entity.
  uint32_t InternFile(AgentId agent, const std::string& name, const std::string& owner = "root",
                      const std::string& group = "root");
  uint32_t InternProcess(AgentId agent, int64_t pid, const std::string& exe_name,
                         const std::string& user = "system", const std::string& cmd = "",
                         const std::string& signature = "unsigned");
  uint32_t InternNetwork(AgentId agent, const std::string& src_ip, const std::string& dst_ip,
                         int32_t src_port, int32_t dst_port, const std::string& protocol = "tcp");

  const std::vector<FileEntity>& files() const { return files_; }
  const std::vector<ProcessEntity>& processes() const { return processes_; }
  const std::vector<NetworkEntity>& networks() const { return networks_; }

  size_t CountOf(EntityType t) const;
  int64_t IdOf(EntityType t, uint32_t idx) const;
  AgentId AgentOf(EntityType t, uint32_t idx) const;

  size_t total_entities() const { return files_.size() + processes_.size() + networks_.size(); }

  // Zeroed counts sized to the current entities, for Publish.
  EntityEventCounts ZeroEventCounts() const;
  // Replaces the finalization state: the event counts, whether exact lookups
  // are served (`build_indexes`), and the stamp of the Finalize that wrote
  // them (Database::generation).
  void Publish(EntityEventCounts counts, bool build_indexes, uint64_t generation);
  // The last Publish's stamp; 0 before any. Entity resolution memos key on
  // it, so a resolution made before a re-finalize is never reused.
  uint64_t generation() const { return generation_; }

  // Events with process `idx` as subject, and with entity (t, idx) as object;
  // 0 for an entity interned after the last Publish.
  uint64_t SubjectEvents(uint32_t idx) const { return CountAt(counts_.subject, idx); }
  uint64_t ObjectEvents(EntityType t, uint32_t idx) const {
    return CountAt(counts_.object[static_cast<size_t>(t)], idx);
  }
  // Events recorded by `agents` (every event when disengaged), counted by
  // their subject process's host.
  uint64_t AgentEvents(const std::optional<std::vector<AgentId>>& agents) const;

  // The dictionary-coded column of entity string attribute `a` (a schema row
  // with an entity_string reader).
  const StringColumn& column(const AttrDef& a) const;

  // True when the last Publish asked for indexes: entity resolution may then
  // serve exact values of a default attribute by IndexLookup.
  bool indexed() const { return indexed_; }
  // The entities of type `t` whose default attribute (file name, process
  // exe_name, network dst_ip) lowercases to `lower`, ascending; null when
  // none does.
  const std::vector<uint32_t>* IndexLookup(EntityType t, const std::string& lower) const;

 private:
  static uint64_t CountAt(const std::vector<uint32_t>& counts, uint32_t idx) {
    return idx < counts.size() ? counts[idx] : 0;
  }
  // Codes the string attributes of the just-interned entity (t, idx).
  void CodeStrings(EntityType t, uint32_t idx);

  int64_t next_id_ = 1;
  std::vector<FileEntity> files_;
  std::vector<ProcessEntity> processes_;
  std::vector<NetworkEntity> networks_;
  std::unordered_map<std::string, uint32_t> file_key_;
  std::unordered_map<std::string, uint32_t> proc_key_;
  std::unordered_map<std::string, uint32_t> net_key_;
  std::vector<StringColumn> columns_;  // by schema row; empty for other rows
  // By type: the default attribute's lowered values -> entities, ascending.
  std::array<std::unordered_map<std::string, std::vector<uint32_t>>, 3> by_default_;

  // Finalization state (Publish).
  uint64_t generation_ = 0;
  EntityEventCounts counts_;
  std::unordered_map<AgentId, uint64_t> agent_events_;
  uint64_t total_events_ = 0;
  bool indexed_ = false;
};

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_ENTITY_H_
