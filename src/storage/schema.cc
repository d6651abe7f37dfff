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

template <auto Field>
Value FileField(const EntityCatalog& c, uint32_t idx) {
  return ToValue(c.files()[idx].*Field);
}
template <auto Field>
Value ProcField(const EntityCatalog& c, uint32_t idx) {
  return ToValue(c.processes()[idx].*Field);
}
template <auto Field>
Value NetField(const EntityCatalog& c, uint32_t idx) {
  return ToValue(c.networks()[idx].*Field);
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
    // owner, canonical name, aliases, column, entity reader, event reader
    {kFile, "name", {}, {}, &FileField<&FileEntity::name>},
    {kFile, "id", {}, {}, &FileField<&FileEntity::id>},
    {kFile, "agentid", {"agent_id"}, {}, &FileField<&FileEntity::agent_id>},
    {kFile, "owner", {}, {}, &FileField<&FileEntity::owner>},
    {kFile, "group", {}, {}, &FileField<&FileEntity::group>},
    {kFile, "vol_id", {"volid"}, {}, &FileField<&FileEntity::vol_id>},
    {kFile, "data_id", {"dataid"}, {}, &FileField<&FileEntity::data_id>},

    {kProcess, "exe_name", {"exename", "name"}, {}, &ProcField<&ProcessEntity::exe_name>},
    {kProcess, "id", {}, {}, &ProcField<&ProcessEntity::id>},
    {kProcess, "agentid", {"agent_id"}, {}, &ProcField<&ProcessEntity::agent_id>},
    {kProcess, "pid", {}, {}, &ProcField<&ProcessEntity::pid>},
    {kProcess, "user", {}, {}, &ProcField<&ProcessEntity::user>},
    {kProcess, "cmd", {}, {}, &ProcField<&ProcessEntity::cmd>},
    {kProcess, "signature", {"sig"}, {}, &ProcField<&ProcessEntity::signature>},

    {kNetwork, "dst_ip", {"dstip"}, {}, &NetField<&NetworkEntity::dst_ip>},
    {kNetwork, "id", {}, {}, &NetField<&NetworkEntity::id>},
    {kNetwork, "agentid", {"agent_id"}, {}, &NetField<&NetworkEntity::agent_id>},
    {kNetwork, "src_ip", {"srcip"}, {}, &NetField<&NetworkEntity::src_ip>},
    {kNetwork, "src_port", {"srcport"}, {}, &NetField<&NetworkEntity::src_port>},
    {kNetwork, "dst_port", {"dstport"}, {}, &NetField<&NetworkEntity::dst_port>},
    {kNetwork, "protocol", {}, {}, &NetField<&NetworkEntity::protocol>},

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
