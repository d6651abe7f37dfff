// The attribute schema of the AIQL data model (paper §3.1, Tables 1-2, and
// the §4.1 alias shortcuts): every queryable attribute of an event and of
// each entity type, declared once with its canonical name, the other
// spellings a query may use, and, for event attributes, the column that
// stores it.
//
// Every layer asks this table. The inference pass rewrites each attribute
// name to its canonical spelling and resolves relationship endpoints and
// return references to their rows; the storage compile steps
// (CompileEventPred, Database::FindEntities) resolve predicate leaves into a
// ResolvedPred. Per-row and per-entity code (residual filters, entity scans,
// joins, pushdown, projection) then reads values through a row's reader and
// never compares attribute names.
#ifndef AIQL_SRC_STORAGE_SCHEMA_H_
#define AIQL_SRC_STORAGE_SCHEMA_H_

#include <array>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/storage/entity.h"
#include "src/storage/event_view.h"
#include "src/storage/predicate.h"

namespace aiql {

// Who carries an attribute: an entity type (same numbering as EntityType) or
// the event itself.
enum class AttrOwner : uint8_t { kFile = 0, kProcess = 1, kNetwork = 2, kEvent = 3 };

constexpr AttrOwner OwnerOf(EntityType t) { return static_cast<AttrOwner>(t); }

// One row of the schema.
struct AttrDef {
  AttrOwner owner = AttrOwner::kEvent;
  std::string_view name;                    // canonical spelling
  std::array<std::string_view, 2> aliases;  // other accepted spellings ("" = unused)
  // Event attributes: the column that stores the attribute. subject_id and
  // object_id are read through the catalog and have none.
  std::optional<EventColumnId> column;
  // The value reader matching `owner`; the other one is null. An entity
  // reader takes the entity's catalog index within the owner's type; the
  // event reader uses the catalog only to map entity indexes to ids.
  Value (*entity)(const EntityCatalog& catalog, uint32_t idx) = nullptr;
  Value (*event)(const EventView& e, const EntityCatalog& catalog) = nullptr;
};

// Every row, grouped by owner.
std::span<const AttrDef> AttrTable();

// The attribute of `owner` spelled `spelling` (its canonical name or an
// alias), or nullptr when `owner` has none.
const AttrDef* FindAttr(AttrOwner owner, std::string_view spelling);

// The default attribute of entity type `t`: the one a bare value constrains
// (file["x"] -> name, proc["x"] -> exe_name, ip["x"] -> dst_ip; paper §4.1
// "Context-Aware Syntax Shortcuts").
const AttrDef& DefaultAttr(EntityType t);

// The event attribute stored in column `c`, or nullptr for the columns that
// hold entity references (object_type, subject_idx, object_idx).
const AttrDef* ColumnAttr(EventColumnId c);

// Attribute values of one entity or event. A null `a`, or one of another
// owner, reads Value(), the value a missing attribute projects.
inline Value ReadAttr(const AttrDef* a, const EntityCatalog& catalog, EntityType t,
                      uint32_t idx) {
  return a != nullptr && a->owner == OwnerOf(t) ? a->entity(catalog, idx) : Value();
}
inline Value ReadAttr(const AttrDef* a, const EventView& e, const EntityCatalog& catalog) {
  return a != nullptr && a->owner == AttrOwner::kEvent ? a->event(e, catalog) : Value();
}

// A PredExpr resolved against one owner's schema rows: evaluation reads each
// leaf's attribute through its row, never by name. Borrows the leaves of the
// PredExpr it was resolved from, which must outlive it.
class ResolvedPred {
 public:
  ResolvedPred() = default;  // always true
  ResolvedPred(const PredExpr& pred, AttrOwner owner);

  // Conjoins `pred`, resolved against `owner`.
  void And(const PredExpr& pred, AttrOwner owner);

  bool is_true() const { return kind_ == PredExpr::Kind::kTrue; }

  // `read(const AttrDef&)` returns the attribute's Value for the tested row.
  // A leaf whose attribute the owner lacks is false.
  template <typename Read>
  bool Eval(const Read& read) const {
    switch (kind_) {
      case PredExpr::Kind::kTrue:
        return true;
      case PredExpr::Kind::kLeaf:
        return attr_ != nullptr && leaf_->Eval(read(*attr_));
      case PredExpr::Kind::kAnd:
        for (const ResolvedPred& c : children_) {
          if (!c.Eval(read)) {
            return false;
          }
        }
        return true;
      case PredExpr::Kind::kOr:
        for (const ResolvedPred& c : children_) {
          if (c.Eval(read)) {
            return true;
          }
        }
        return false;
      case PredExpr::Kind::kNot:
        return !children_[0].Eval(read);
    }
    return false;
  }

 private:
  PredExpr::Kind kind_ = PredExpr::Kind::kTrue;
  const AttrPredicate* leaf_ = nullptr;
  const AttrDef* attr_ = nullptr;
  std::vector<ResolvedPred> children_;
};

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_SCHEMA_H_
