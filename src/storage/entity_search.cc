#include "src/storage/entity_search.h"

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>

#include "src/storage/schema.h"
#include "src/util/string_utils.h"

namespace aiql {
namespace {

// LIKE / NOT LIKE with its pattern lowered and compiled once into the
// literal segments between its runs of '%', the first and last anchored
// unless a '%' precedes or follows them. '_' matches any one byte, so each
// segment has a fixed length, and placing every floating segment at its
// leftmost fit finds a match whenever one exists. Exact, prefix, suffix and
// substring patterns are the one-segment cases; a segment without '_' is
// found with string_view::find. It matches ASCII-lowered text and answers
// as LikeMatch, which folds both sides the same way.
class LikePattern {
 public:
  explicit LikePattern(const Value& pattern) {
    const std::string p = ToLower(pattern.ToString());
    anchored_front_ = p.empty() || p.front() != '%';
    anchored_back_ = p.empty() || p.back() != '%';
    for (size_t begin = 0; begin < p.size();) {
      const size_t end = std::min(p.find('%', begin), p.size());
      if (end > begin) {
        std::string text = p.substr(begin, end - begin);
        const bool wild = text.find('_') != std::string::npos;
        segments_.push_back({std::move(text), wild});
      }
      begin = end + 1;
    }
  }

  bool Match(std::string_view text) const {
    size_t first = 0;
    size_t last = segments_.size();
    if (anchored_front_ && first < last) {
      if (!FitsAt(text, 0, segments_[first])) {
        return false;
      }
      text.remove_prefix(segments_[first++].text.size());
    }
    if (anchored_back_) {
      if (first == last) {
        return text.empty();
      }
      const Segment& back = segments_[--last];
      if (text.size() < back.text.size() ||
          !FitsAt(text, text.size() - back.text.size(), back)) {
        return false;
      }
      text.remove_suffix(back.text.size());
    }
    for (size_t i = first; i < last; ++i) {
      const size_t at = Find(text, segments_[i]);
      if (at == std::string_view::npos) {
        return false;
      }
      text.remove_prefix(at + segments_[i].text.size());
    }
    return true;
  }

 private:
  struct Segment {
    std::string text;
    bool wild = false;  // holds a '_'
  };

  static bool FitsAt(std::string_view text, size_t at, const Segment& s) {
    if (at + s.text.size() > text.size()) {
      return false;
    }
    if (!s.wild) {
      return text.compare(at, s.text.size(), s.text) == 0;
    }
    for (size_t k = 0; k < s.text.size(); ++k) {
      if (s.text[k] != '_' && s.text[k] != text[at + k]) {
        return false;
      }
    }
    return true;
  }

  static size_t Find(std::string_view text, const Segment& s) {
    if (!s.wild) {
      return text.find(s.text);
    }
    for (size_t at = 0; at + s.text.size() <= text.size(); ++at) {
      if (FitsAt(text, at, s)) {
        return at;
      }
    }
    return std::string_view::npos;
  }

  bool anchored_front_ = true;
  bool anchored_back_ = true;
  std::vector<Segment> segments_;
};

// An entity predicate compiled against one type's catalog columns. Each leaf
// is a term bound to its attribute's row: a string attribute is tested at
// most once per distinct value of its column, an integer attribute is read
// as an int64 per entity. A string term's answers are kept by code: all of
// them up front (TestEveryValue) when the pass visits every entity of the
// type, otherwise as entities reach their codes. The tree keeps the
// predicate's shape and short-circuits as PredExpr::Eval does.
class EntityMatcher {
 public:
  EntityMatcher(const EntityCatalog& catalog, EntityType t, const PredExpr& pred)
      : catalog_(catalog), owner_(OwnerOf(t)), root_(Compile(pred)) {}

  // Tests every string term against every value of its column, checking
  // `ctx` every kResolveStopStride values; false when it stopped.
  bool TestEveryValue(const ScanContext* ctx) {
    for (Term& t : terms_) {
      for (uint32_t code = 0; code < t.known.size(); ++code) {
        if (code % kResolveStopStride == 0 && ctx != nullptr && ctx->ShouldStop()) {
          return false;
        }
        t.known[code] = TestValue(t, code);
      }
    }
    return true;
  }

  bool Matches(uint32_t idx) { return Eval(root_, idx); }

  // Term tests against dictionary values so far.
  uint64_t value_tests() const { return value_tests_; }

 private:
  struct Term {
    const AttrPredicate* leaf = nullptr;
    const AttrDef* attr = nullptr;         // null: the type lacks it, the leaf is false
    const StringColumn* column = nullptr;  // string attributes
    std::optional<LikePattern> like;       // LIKE / NOT LIKE on a column
    std::vector<uint8_t> known;            // by code: 0 untested, 1 false, 2 true
  };
  struct Node {
    PredExpr::Kind kind = PredExpr::Kind::kTrue;
    uint32_t term = 0;  // kLeaf
    std::vector<Node> children;
  };

  Node Compile(const PredExpr& pred) {
    Node n;
    n.kind = pred.kind();
    if (n.kind == PredExpr::Kind::kLeaf) {
      Term t;
      t.leaf = &pred.leaf();
      t.attr = FindAttr(owner_, t.leaf->attr);
      if (t.attr != nullptr && t.attr->entity_string != nullptr) {
        t.column = &catalog_.column(*t.attr);
        t.known.assign(t.column->values.size(), 0);
        const CmpOp op = t.leaf->op;
        if ((op == CmpOp::kLike || op == CmpOp::kNotLike) && !t.leaf->values.empty()) {
          t.like.emplace(t.leaf->values[0]);
        }
      }
      n.term = static_cast<uint32_t>(terms_.size());
      terms_.push_back(std::move(t));
      return n;
    }
    for (const PredExpr& c : pred.children()) {
      n.children.push_back(Compile(c));
    }
    return n;
  }

  // Term `t` on value `code` of its column: 2 when it holds, else 1.
  uint8_t TestValue(const Term& t, uint32_t code) {
    ++value_tests_;
    const bool hit = t.like.has_value()
                         ? t.like->Match(t.column->lower[code]) != (t.leaf->op == CmpOp::kNotLike)
                         : t.leaf->Eval(t.column->values[code]);
    return hit ? 2 : 1;
  }

  bool Test(Term& t, uint32_t idx) {
    if (t.column == nullptr) {
      return t.attr != nullptr && t.leaf->Eval(t.attr->entity(catalog_, idx));
    }
    uint8_t& known = t.known[t.column->codes[idx]];
    if (known == 0) {
      known = TestValue(t, t.column->codes[idx]);
    }
    return known == 2;
  }

  bool Eval(const Node& n, uint32_t idx) {
    switch (n.kind) {
      case PredExpr::Kind::kTrue:
        return true;
      case PredExpr::Kind::kLeaf:
        return Test(terms_[n.term], idx);
      case PredExpr::Kind::kAnd:
        for (const Node& c : n.children) {
          if (!Eval(c, idx)) {
            return false;
          }
        }
        return true;
      case PredExpr::Kind::kOr:
        for (const Node& c : n.children) {
          if (Eval(c, idx)) {
            return true;
          }
        }
        return false;
      case PredExpr::Kind::kNot:
        return !Eval(n.children[0], idx);
    }
    return false;
  }

  const EntityCatalog& catalog_;
  const AttrOwner owner_;
  uint64_t value_tests_ = 0;
  std::vector<Term> terms_;  // one per leaf, in tree order
  const Node root_;          // after terms_: compiling fills it
};

}  // namespace

std::vector<uint32_t> ResolveEntities(const EntityCatalog& catalog, EntityType t,
                                      const PredExpr& pred,
                                      const std::optional<std::vector<AgentId>>& agents,
                                      ScanStats* stats, const ScanContext* ctx) {
  ScanStats local;
  ScanStats* st = stats != nullptr ? stats : &local;
  std::vector<AgentId> sorted_agents;
  if (agents.has_value()) {
    sorted_agents = *agents;
    std::sort(sorted_agents.begin(), sorted_agents.end());
  }
  EntityMatcher matcher(catalog, t, pred);

  // The entities to test: when the catalog serves lookups and `pred` pins
  // the default attribute to exact values, those values' entities (one
  // lookup per value, of its lowered form); otherwise every entity.
  std::vector<uint32_t> looked_up;
  bool every_entity = true;
  if (catalog.indexed()) {
    const std::vector<Value> values = pred.EqualityValuesFor(DefaultAttr(t).name);
    every_entity = values.empty();
    std::string key;
    for (const Value& v : values) {
      ++st->index_lookups;
      if (v.is_string()) {
        ToLowerInto(v.as_string(), &key);
      } else {
        ToLowerInto(v.ToString(), &key);
      }
      if (const std::vector<uint32_t>* hits = catalog.IndexLookup(t, key); hits != nullptr) {
        looked_up.insert(looked_up.end(), hits->begin(), hits->end());
      }
    }
    std::sort(looked_up.begin(), looked_up.end());
    looked_up.erase(std::unique(looked_up.begin(), looked_up.end()), looked_up.end());
  }

  // A pass over every entity reaches about every value: test them all in
  // one sweep of each column first. A narrowed pass tests what it reaches.
  std::vector<uint32_t> out;
  uint64_t visited = 0;
  if (!every_entity || agents.has_value() || matcher.TestEveryValue(ctx)) {
    const size_t n = every_entity ? catalog.CountOf(t) : looked_up.size();
    for (size_t i = 0; i < n; ++i) {
      if (i % kResolveStopStride == 0 && ctx != nullptr && ctx->ShouldStop()) {
        break;
      }
      const uint32_t idx = every_entity ? static_cast<uint32_t>(i) : looked_up[i];
      if (agents.has_value() &&
          !std::binary_search(sorted_agents.begin(), sorted_agents.end(),
                              catalog.AgentOf(t, idx))) {
        continue;
      }
      ++visited;
      if (matcher.Matches(idx)) {
        out.push_back(idx);
      }
    }
  }
  st->entity_evals += visited + matcher.value_tests();
  return out;
}

const std::optional<std::vector<AgentId>>& ObjectSideAgents(const DataQuery& q) {
  static const std::optional<std::vector<AgentId>> kAnyAgent;
  return q.object_type == EntityType::kProcess ? kAnyAgent : q.agent_ids;
}

EntityCandidates MakeCandidates(const EntityCatalog& catalog, const DataQuery& q,
                                EntitySide side, std::vector<uint32_t> ids, bool narrowed) {
  EntityCandidates c;
  for (uint32_t idx : ids) {
    c.events += side == EntitySide::kSubject ? catalog.SubjectEvents(idx)
                                             : catalog.ObjectEvents(q.object_type, idx);
  }
  c.ids = std::move(ids);
  c.narrowed = narrowed;
  return c;
}

}  // namespace aiql
