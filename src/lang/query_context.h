// QueryContext: the engine-ready object abstraction of a parsed AIQL query
// (paper §2: "the language parser analyzes input queries and generates query
// contexts ... that contain all the required information for the query
// execution").
//
// All context-aware shortcuts are resolved: default attributes filled in,
// anonymous IDs synthesized, entity-ID reuse lowered to explicit attribute
// relationships, and dependency paths rewritten into multievent patterns.
#ifndef AIQL_SRC_LANG_QUERY_CONTEXT_H_
#define AIQL_SRC_LANG_QUERY_CONTEXT_H_

#include <optional>
#include <string>
#include <vector>

#include "src/lang/ast.h"
#include "src/storage/data_query.h"
#include "src/storage/schema.h"

namespace aiql {

// One resolved event pattern plus the data query synthesized from its static
// constraints (paper Fig 3: "for every event pattern, the engine synthesizes
// a data query").
struct PatternContext {
  DataQuery query;
  std::string evt_id;       // never empty after resolution
  std::string subject_var;  // never empty after resolution
  std::string object_var;
  int source_line = 0;

  // Pruning score = number of constraints (paper §5.2, Algorithm 1 step 1).
  size_t PruningScore() const { return query.CountConstraints(); }
};

// A resolved attribute relationship between two pattern endpoints; each
// endpoint's attribute is its schema row.
struct AttrRelation {
  size_t left_pattern = 0;
  RefSide left_side = RefSide::kSubject;
  const AttrDef* left_attr = nullptr;
  CmpOp op = CmpOp::kEq;
  size_t right_pattern = 0;
  RefSide right_side = RefSide::kSubject;
  const AttrDef* right_attr = nullptr;
  bool implicit = false;  // lowered from entity-ID reuse

  bool IsIntraPattern() const { return left_pattern == right_pattern; }
  bool IsEquiJoin() const { return op == CmpOp::kEq; }
};

// A resolved temporal relationship between two patterns.
struct TempRelation {
  size_t left_pattern = 0;
  size_t right_pattern = 0;
  ast::TempOrder order = ast::TempOrder::kBefore;
  std::optional<DurationMs> lo;  // distance window, e.g. before[1-2 min]
  std::optional<DurationMs> hi;
};

// A resolved output column.
struct OutputItem {
  Expr expr;         // refs carry ResolvedRef annotations
  std::string name;  // alias or derived name
};

struct QueryContext {
  ast::QueryKind kind = ast::QueryKind::kMultievent;

  std::vector<PatternContext> patterns;
  std::vector<AttrRelation> attr_rels;
  std::vector<TempRelation> temp_rels;

  // Return clause and filters.
  bool count_all = false;
  bool distinct = false;
  std::vector<OutputItem> items;
  std::vector<OutputItem> group_by;
  std::optional<Expr> having;
  std::vector<ast::SortKey> sort_by;
  std::optional<int64_t> top;

  // Sliding window (anomaly queries only).
  std::optional<DurationMs> window;
  std::optional<DurationMs> step;

  // Global constraints, also baked into each pattern's data query.
  TimeRange global_time;
  std::optional<std::vector<AgentId>> global_agents;

  std::string text;  // original AIQL source
  ast::Query ast;    // original AST (translators introspect it)

  // True if any relationship (or having/return) references this pattern.
  bool HasRelationships() const { return !attr_rels.empty() || !temp_rels.empty(); }
};

// Resolves an AST into a QueryContext, applying the context-aware inference
// rules of paper §4.1 and the dependency rewriting of §5.1.
Result<QueryContext> ResolveQuery(const ast::Query& query);

// Convenience: parse + resolve.
Result<QueryContext> CompileQuery(const std::string& text);

// Rewrites a dependency query into the equivalent multievent query (exposed
// separately so tests and translators can inspect the rewriting).
Result<ast::MultieventQuery> RewriteDependency(const ast::DependencyQuery& dep);

}  // namespace aiql

#endif  // AIQL_SRC_LANG_QUERY_CONTEXT_H_
