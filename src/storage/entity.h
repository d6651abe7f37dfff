// System entities of the AIQL data model (paper §3.1, Table 1).
//
// Entities are files, processes, and network connections. Every entity has a
// globally unique int64 id plus type-specific security attributes. Entities
// are interned once in an EntityCatalog and referenced from events by dense
// per-type indices, which keeps the 10^6..10^9 event rows narrow while the
// 10^4..10^5 entity rows carry the strings.
#ifndef AIQL_SRC_STORAGE_ENTITY_H_
#define AIQL_SRC_STORAGE_ENTITY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace aiql {

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

// Interning catalog. Indices returned by the Intern* calls are dense per-type
// and stable for the lifetime of the catalog.
class EntityCatalog {
 public:
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

 private:
  int64_t next_id_ = 1;
  std::vector<FileEntity> files_;
  std::vector<ProcessEntity> processes_;
  std::vector<NetworkEntity> networks_;
  std::unordered_map<std::string, uint32_t> file_key_;
  std::unordered_map<std::string, uint32_t> proc_key_;
  std::unordered_map<std::string, uint32_t> net_key_;
};

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_ENTITY_H_
