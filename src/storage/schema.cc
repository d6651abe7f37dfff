#include "src/storage/schema.h"

#include <type_traits>

namespace aiql {
namespace {

template <typename T>
Value ToValue(const T& v) {
  if constexpr (std::is_integral_v<T>) {
    return Value(static_cast<int64_t>(v));
  } else {
    return Value(v);
  }
}

// Each entity struct's owner and its catalog row.
template <typename Entity>
struct EntityTraits;
template <>
struct EntityTraits<FileEntity> {
  static constexpr AttrOwner owner = AttrOwner::kFile;
  static const FileEntity& Of(const EntityCatalog& c, uint32_t idx) { return c.files()[idx]; }
};
template <>
struct EntityTraits<ProcessEntity> {
  static constexpr AttrOwner owner = AttrOwner::kProcess;
  static const ProcessEntity& Of(const EntityCatalog& c, uint32_t idx) {
    return c.processes()[idx];
  }
};
template <>
struct EntityTraits<NetworkEntity> {
  static constexpr AttrOwner owner = AttrOwner::kNetwork;
  static const NetworkEntity& Of(const EntityCatalog& c, uint32_t idx) {
    return c.networks()[idx];
  }
};

// The entity struct and field type of a data member pointer.
template <typename Member>
struct MemberOf;
template <typename Entity, typename Field>
struct MemberOf<Field Entity::*> {
  using entity = Entity;
  using type = Field;
};

template <auto Field>
const auto& EntityField(const EntityCatalog& c, uint32_t idx) {
  return EntityTraits<typename MemberOf<decltype(Field)>::entity>::Of(c, idx).*Field;
}
template <auto Field>
Value EntityValue(const EntityCatalog& c, uint32_t idx) {
  return ToValue(EntityField<Field>(c, idx));
}
template <auto Field>
const std::string& EntityString(const EntityCatalog& c, uint32_t idx) {
  return EntityField<Field>(c, idx);
}

// The row of entity attribute `Field`; its owner follows from the struct.
template <auto Field>
constexpr AttrDef EntityAttr(std::string_view name,
                             std::array<std::string_view, 2> aliases = {}) {
  using M = MemberOf<decltype(Field)>;
  AttrDef a;
  a.owner = EntityTraits<typename M::entity>::owner;
  a.name = name;
  a.aliases = aliases;
  a.entity = &EntityValue<Field>;
  if constexpr (std::is_same_v<typename M::type, std::string>) {
    a.entity_string = &EntityString<Field>;
  }
  return a;
}

template <auto Getter>
Value EventField(const EventView& e, const EntityCatalog&) {
  return ToValue((e.*Getter)());
}
Value EventOp(const EventView& e, const EntityCatalog&) { return Value(OperationName(e.op())); }
Value EventSubjectId(const EventView& e, const EntityCatalog& c) {
  return Value(c.IdOf(EntityType::kProcess, e.subject_idx()));
}
Value EventObjectId(const EventView& e, const EntityCatalog& c) {
  return Value(c.IdOf(e.object_type(), e.object_idx()));
}

using enum AttrOwner;
using Col = EventColumnId;

// The schema. The first row of each entity owner is its default attribute.
constexpr AttrDef kAttrs[] = {
    EntityAttr<&FileEntity::name>("name"),
    EntityAttr<&FileEntity::id>("id"),
    EntityAttr<&FileEntity::agent_id>("agentid", {"agent_id"}),
    EntityAttr<&FileEntity::owner>("owner"),
    EntityAttr<&FileEntity::group>("group"),
    EntityAttr<&FileEntity::vol_id>("vol_id", {"volid"}),
    EntityAttr<&FileEntity::data_id>("data_id", {"dataid"}),

    EntityAttr<&ProcessEntity::exe_name>("exe_name", {"exename", "name"}),
    EntityAttr<&ProcessEntity::id>("id"),
    EntityAttr<&ProcessEntity::agent_id>("agentid", {"agent_id"}),
    EntityAttr<&ProcessEntity::pid>("pid"),
    EntityAttr<&ProcessEntity::user>("user"),
    EntityAttr<&ProcessEntity::cmd>("cmd"),
    EntityAttr<&ProcessEntity::signature>("signature", {"sig"}),

    EntityAttr<&NetworkEntity::dst_ip>("dst_ip", {"dstip"}),
    EntityAttr<&NetworkEntity::id>("id"),
    EntityAttr<&NetworkEntity::agent_id>("agentid", {"agent_id"}),
    EntityAttr<&NetworkEntity::src_ip>("src_ip", {"srcip"}),
    EntityAttr<&NetworkEntity::src_port>("src_port", {"srcport"}),
    EntityAttr<&NetworkEntity::dst_port>("dst_port", {"dstport"}),
    EntityAttr<&NetworkEntity::protocol>("protocol"),

    // owner, canonical name, aliases, column, entity reader (none), event reader
    {kEvent, "id", {}, Col::kId, nullptr, &EventField<&EventView::id>},
    {kEvent, "seq", {"sequence"}, Col::kSeq, nullptr, &EventField<&EventView::seq>},
    {kEvent, "agentid", {"agent_id"}, Col::kAgentId, nullptr, &EventField<&EventView::agent_id>},
    {kEvent, "optype", {"op", "operation"}, Col::kOp, nullptr, &EventOp},
    {kEvent, "start_time", {"starttime"}, Col::kStartTime, nullptr,
     &EventField<&EventView::start_time>},
    {kEvent, "end_time", {"endtime"}, Col::kEndTime, nullptr, &EventField<&EventView::end_time>},
    {kEvent, "amount", {}, Col::kAmount, nullptr, &EventField<&EventView::amount>},
    {kEvent, "failure_code", {"failurecode", "access"}, Col::kFailureCode, nullptr,
     &EventField<&EventView::failure_code>},
    {kEvent, "subject_id", {"subjectid"}, {}, nullptr, &EventSubjectId},
    {kEvent, "object_id", {"objectid"}, {}, nullptr, &EventObjectId},
};

}  // namespace

std::span<const AttrDef> AttrTable() { return kAttrs; }

const AttrDef* FindAttr(AttrOwner owner, std::string_view spelling) {
  if (spelling.empty()) {
    return nullptr;  // unused alias slots are empty and must not match
  }
  for (const AttrDef& a : kAttrs) {
    if (a.owner == owner &&
        (a.name == spelling || a.aliases[0] == spelling || a.aliases[1] == spelling)) {
      return &a;
    }
  }
  return nullptr;
}

const AttrDef& DefaultAttr(EntityType t) {
  for (const AttrDef& a : kAttrs) {
    if (a.owner == OwnerOf(t)) {
      return a;
    }
  }
  return kAttrs[0];  // unreachable: every entity owner has rows
}

const AttrDef* ColumnAttr(EventColumnId c) {
  for (const AttrDef& a : kAttrs) {
    if (a.column == c) {
      return &a;
    }
  }
  return nullptr;
}

ResolvedPred::ResolvedPred(const PredExpr& pred, AttrOwner owner) : kind_(pred.kind()) {
  if (kind_ == PredExpr::Kind::kLeaf) {
    leaf_ = &pred.leaf();
    attr_ = FindAttr(owner, leaf_->attr);
    return;
  }
  children_.reserve(pred.children().size());
  for (const PredExpr& c : pred.children()) {
    children_.emplace_back(c, owner);
  }
}

void ResolvedPred::And(const PredExpr& pred, AttrOwner owner) {
  ResolvedPred next(pred, owner);
  if (next.is_true()) {
    return;
  }
  if (is_true()) {
    *this = std::move(next);
    return;
  }
  if (kind_ != PredExpr::Kind::kAnd) {
    ResolvedPred lhs = std::move(*this);
    *this = ResolvedPred();
    kind_ = PredExpr::Kind::kAnd;
    children_.push_back(std::move(lhs));
  }
  children_.push_back(std::move(next));
}

}  // namespace aiql
