// Property-graph store: the Neo4j-model baseline of the paper's evaluation
// (§6.1: "Neo4j databases are configured by importing system entities as
// nodes and system events as relationships").
//
// Nodes carry a label (entity type) and a string->Value property map;
// relationships are typed edges with their own property maps, kept in
// per-node adjacency lists. Label+property indexes on the default attributes
// mirror the schema indexes the paper grants the baseline. The imported
// events themselves are one EventColumns table whose row r is relationship
// r, so the engine hands matched relationships to the shared projector as
// EventViews. Per-edge property
// maps and adjacency expansion are exactly what makes multi-pattern joins
// expensive in a graph store ("Neo4j generally runs slower than PostgreSQL,
// due to the lack of support for efficient joins", §6.2.2).
#ifndef AIQL_SRC_GRAPH_PROPERTY_GRAPH_H_
#define AIQL_SRC_GRAPH_PROPERTY_GRAPH_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/storage/database.h"

namespace aiql {

class PropertyGraph {
 public:
  struct Node {
    EntityType label = EntityType::kFile;
    uint32_t catalog_idx = 0;  // back-reference into the shared catalog
    std::unordered_map<std::string, Value> props;
    std::vector<uint32_t> out_rels;  // this node is the subject
    std::vector<uint32_t> in_rels;   // this node is the object
  };

  struct Rel {
    Operation op = Operation::kRead;
    uint32_t src = 0;  // subject node
    uint32_t dst = 0;  // object node
    std::unordered_map<std::string, Value> props;
  };

  // Imports all entities and events of a finalized database.
  void BuildFrom(const Database& db);

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_rels() const { return rels_.size(); }
  const Node& node(uint32_t i) const { return nodes_[i]; }
  const Rel& rel(uint32_t i) const { return rels_[i]; }
  // The source event of relationship i (row i of the imported events).
  EventView event(uint32_t i) const { return EventView(&events_, i); }
  const EntityCatalog& catalog() const { return *catalog_; }

  // Label+property exact index (default attribute), as a Neo4j schema index.
  std::vector<uint32_t> NodesByProperty(EntityType label, const std::string& value) const;

  // All relationship ids of one operation type (relationship-type index).
  const std::vector<uint32_t>& RelsByOp(Operation op) const;

  // Node id of an entity; UINT32_MAX if the entity was never imported.
  uint32_t NodeOf(EntityType type, uint32_t catalog_idx) const;

 private:
  std::shared_ptr<EntityCatalog> catalog_;
  std::vector<Node> nodes_;
  std::vector<Rel> rels_;
  EventColumns events_;  // row r is the source event of rels_[r]
  std::unordered_map<uint64_t, uint32_t> node_of_entity_;
  std::unordered_map<std::string, std::vector<uint32_t>> property_index_[3];
  std::vector<uint32_t> rels_by_op_[kNumOperations];
};

}  // namespace aiql

#endif  // AIQL_SRC_GRAPH_PROPERTY_GRAPH_H_
