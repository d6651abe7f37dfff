#include "src/storage/entity.h"

#include "src/storage/schema.h"
#include "src/util/string_utils.h"

namespace aiql {
namespace {

std::string FileKey(AgentId agent, const std::string& name) {
  return std::to_string(agent) + "|" + name;
}

std::string ProcKey(AgentId agent, int64_t pid, const std::string& exe) {
  return std::to_string(agent) + "|" + std::to_string(pid) + "|" + exe;
}

std::string NetKey(AgentId agent, const std::string& src_ip, const std::string& dst_ip,
                   int32_t src_port, int32_t dst_port, const std::string& protocol) {
  return std::to_string(agent) + "|" + src_ip + ":" + std::to_string(src_port) + ">" + dst_ip +
         ":" + std::to_string(dst_port) + "/" + protocol;
}

}  // namespace

EntityCatalog::EntityCatalog() : columns_(AttrTable().size()) {}

uint32_t EntityCatalog::InternFile(AgentId agent, const std::string& name,
                                   const std::string& owner, const std::string& group) {
  std::string key = FileKey(agent, name);
  auto it = file_key_.find(key);
  if (it != file_key_.end()) {
    return it->second;
  }
  FileEntity e;
  e.id = next_id_++;
  e.agent_id = agent;
  e.name = name;
  e.owner = owner;
  e.group = group;
  e.vol_id = static_cast<int64_t>(agent % 4);
  e.data_id = e.id;
  uint32_t idx = static_cast<uint32_t>(files_.size());
  files_.push_back(std::move(e));
  file_key_.emplace(std::move(key), idx);
  CodeStrings(EntityType::kFile, idx);
  return idx;
}

uint32_t EntityCatalog::InternProcess(AgentId agent, int64_t pid, const std::string& exe_name,
                                      const std::string& user, const std::string& cmd,
                                      const std::string& signature) {
  std::string key = ProcKey(agent, pid, exe_name);
  auto it = proc_key_.find(key);
  if (it != proc_key_.end()) {
    return it->second;
  }
  ProcessEntity e;
  e.id = next_id_++;
  e.agent_id = agent;
  e.pid = pid;
  e.exe_name = exe_name;
  e.user = user;
  e.cmd = cmd.empty() ? exe_name : cmd;
  e.signature = signature;
  uint32_t idx = static_cast<uint32_t>(processes_.size());
  processes_.push_back(std::move(e));
  proc_key_.emplace(std::move(key), idx);
  CodeStrings(EntityType::kProcess, idx);
  return idx;
}

uint32_t EntityCatalog::InternNetwork(AgentId agent, const std::string& src_ip,
                                      const std::string& dst_ip, int32_t src_port,
                                      int32_t dst_port, const std::string& protocol) {
  std::string key = NetKey(agent, src_ip, dst_ip, src_port, dst_port, protocol);
  auto it = net_key_.find(key);
  if (it != net_key_.end()) {
    return it->second;
  }
  NetworkEntity e;
  e.id = next_id_++;
  e.agent_id = agent;
  e.src_ip = src_ip;
  e.dst_ip = dst_ip;
  e.src_port = src_port;
  e.dst_port = dst_port;
  e.protocol = protocol;
  uint32_t idx = static_cast<uint32_t>(networks_.size());
  networks_.push_back(std::move(e));
  net_key_.emplace(std::move(key), idx);
  CodeStrings(EntityType::kNetwork, idx);
  return idx;
}

size_t EntityCatalog::CountOf(EntityType t) const {
  switch (t) {
    case EntityType::kFile:
      return files_.size();
    case EntityType::kProcess:
      return processes_.size();
    case EntityType::kNetwork:
      return networks_.size();
  }
  return 0;
}

int64_t EntityCatalog::IdOf(EntityType t, uint32_t idx) const {
  switch (t) {
    case EntityType::kFile:
      return files_[idx].id;
    case EntityType::kProcess:
      return processes_[idx].id;
    case EntityType::kNetwork:
      return networks_[idx].id;
  }
  return 0;
}

AgentId EntityCatalog::AgentOf(EntityType t, uint32_t idx) const {
  switch (t) {
    case EntityType::kFile:
      return files_[idx].agent_id;
    case EntityType::kProcess:
      return processes_[idx].agent_id;
    case EntityType::kNetwork:
      return networks_[idx].agent_id;
  }
  return 0;
}

EntityEventCounts EntityCatalog::ZeroEventCounts() const {
  EntityEventCounts c;
  c.subject.assign(processes_.size(), 0);
  for (EntityType t : {EntityType::kFile, EntityType::kProcess, EntityType::kNetwork}) {
    c.object[static_cast<size_t>(t)].assign(CountOf(t), 0);
  }
  return c;
}

void EntityCatalog::Publish(EntityEventCounts counts, bool build_indexes, uint64_t generation) {
  counts_ = std::move(counts);
  agent_events_.clear();
  total_events_ = 0;
  for (uint32_t i = 0; i < counts_.subject.size(); ++i) {
    agent_events_[processes_[i].agent_id] += counts_.subject[i];
    total_events_ += counts_.subject[i];
  }
  generation_ = generation;
  indexed_ = build_indexes;
}

void EntityCatalog::CodeStrings(EntityType t, uint32_t idx) {
  const AttrDef& default_attr = DefaultAttr(t);
  for (const AttrDef& a : AttrTable()) {
    if (a.owner != OwnerOf(t) || a.entity_string == nullptr) {
      continue;
    }
    StringColumn& col = columns_[AttrIndex(a)];
    const std::string& value = a.entity_string(*this, idx);
    auto [it, fresh] = col.code_of.try_emplace(value, static_cast<uint32_t>(col.values.size()));
    if (fresh) {
      col.values.emplace_back(value);
      col.lower.push_back(ToLower(value));
    }
    col.codes.push_back(it->second);
    if (&a == &default_attr) {
      by_default_[static_cast<size_t>(t)][col.lower[it->second]].push_back(idx);
    }
  }
}

const StringColumn& EntityCatalog::column(const AttrDef& a) const {
  return columns_[AttrIndex(a)];
}

uint64_t EntityCatalog::AgentEvents(const std::optional<std::vector<AgentId>>& agents) const {
  if (!agents.has_value()) {
    return total_events_;
  }
  uint64_t n = 0;
  for (AgentId a : *agents) {
    auto it = agent_events_.find(a);
    n += it != agent_events_.end() ? it->second : 0;
  }
  return n;
}

const std::vector<uint32_t>* EntityCatalog::IndexLookup(EntityType t,
                                                        const std::string& lower) const {
  const auto& index = by_default_[static_cast<size_t>(t)];
  auto it = index.find(lower);
  return it != index.end() ? &it->second : nullptr;
}

}  // namespace aiql
