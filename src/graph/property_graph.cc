#include "src/graph/property_graph.h"

#include "src/util/string_utils.h"

namespace aiql {
namespace {

uint64_t EntityKey(EntityType t, uint32_t idx) {
  return (static_cast<uint64_t>(t) << 32) | idx;
}

// One property per schema attribute of the owner, keyed by canonical name.
std::unordered_map<std::string, Value> EntityProps(const EntityCatalog& catalog, EntityType t,
                                                   uint32_t idx) {
  std::unordered_map<std::string, Value> props;
  for (const AttrDef& a : AttrTable()) {
    if (a.owner == OwnerOf(t)) {
      props.emplace(a.name, a.entity(catalog, idx));
    }
  }
  return props;
}

}  // namespace

void PropertyGraph::BuildFrom(const Database& db) {
  catalog_ = db.shared_catalog();
  const EntityCatalog& catalog = *catalog_;

  auto import_entities = [&](EntityType t) {
    size_t n = catalog.CountOf(t);
    for (uint32_t i = 0; i < n; ++i) {
      Node node;
      node.label = t;
      node.catalog_idx = i;
      node.props = EntityProps(catalog, t, i);
      uint32_t id = static_cast<uint32_t>(nodes_.size());
      node_of_entity_[EntityKey(t, i)] = id;
      auto dv = node.props.find(std::string(DefaultAttr(t).name));
      if (dv != node.props.end()) {
        property_index_[static_cast<int>(t)][ToLower(dv->second.ToString())].push_back(id);
      }
      nodes_.push_back(std::move(node));
    }
  };
  import_entities(EntityType::kFile);
  import_entities(EntityType::kProcess);
  import_entities(EntityType::kNetwork);

  db.ForEachEvent([&](const Event& e) {
    Rel rel;
    rel.op = e.op;
    rel.src = node_of_entity_.at(EntityKey(EntityType::kProcess, e.subject_idx));
    rel.dst = node_of_entity_.at(EntityKey(e.object_type, e.object_idx));
    rel.origin = e;
    for (const AttrDef& a : AttrTable()) {
      if (a.owner == AttrOwner::kEvent) {
        rel.props.emplace(a.name, a.event(EventView(&e), catalog));
      }
    }
    uint32_t rid = static_cast<uint32_t>(rels_.size());
    nodes_[rel.src].out_rels.push_back(rid);
    nodes_[rel.dst].in_rels.push_back(rid);
    rels_by_op_[static_cast<int>(e.op)].push_back(rid);
    rels_.push_back(std::move(rel));
  });
}

std::vector<uint32_t> PropertyGraph::NodesByProperty(EntityType label,
                                                     const std::string& value) const {
  auto it = property_index_[static_cast<int>(label)].find(ToLower(value));
  if (it == property_index_[static_cast<int>(label)].end()) {
    return {};
  }
  return it->second;
}

const std::vector<uint32_t>& PropertyGraph::RelsByOp(Operation op) const {
  return rels_by_op_[static_cast<int>(op)];
}

uint32_t PropertyGraph::NodeOf(EntityType type, uint32_t catalog_idx) const {
  auto it = node_of_entity_.find(EntityKey(type, catalog_idx));
  return it == node_of_entity_.end() ? UINT32_MAX : it->second;
}

}  // namespace aiql
