#include "src/translate/translators.h"

#include <set>

#include "src/util/string_utils.h"

namespace aiql {
namespace {

const char* EntityTable(EntityType t) {
  switch (t) {
    case EntityType::kFile:
      return "files";
    case EntityType::kProcess:
      return "processes";
    case EntityType::kNetwork:
      return "network_connections";
  }
  return "?";
}

const char* CypherLabel(EntityType t) {
  switch (t) {
    case EntityType::kFile:
      return "File";
    case EntityType::kProcess:
      return "Process";
    case EntityType::kNetwork:
      return "Connection";
  }
  return "?";
}

std::string SqlValue(const Value& v) {
  if (v.is_string()) {
    return "'" + v.ToString() + "'";
  }
  return v.ToString();
}

// Renders a predicate tree against a table alias; counts atomic conjuncts.
std::string PredToSql(const PredExpr& pred, const std::string& alias, size_t* constraints) {
  switch (pred.kind()) {
    case PredExpr::Kind::kTrue:
      return "";
    case PredExpr::Kind::kLeaf: {
      ++*constraints;
      const AttrPredicate& leaf = pred.leaf();
      std::string lhs = alias + "." + leaf.attr;
      switch (leaf.op) {
        case CmpOp::kLike:
          return lhs + " LIKE " + SqlValue(leaf.values[0]);
        case CmpOp::kNotLike:
          return lhs + " NOT LIKE " + SqlValue(leaf.values[0]);
        case CmpOp::kIn:
        case CmpOp::kNotIn: {
          std::string out = lhs + (leaf.op == CmpOp::kIn ? " IN (" : " NOT IN (");
          for (size_t i = 0; i < leaf.values.size(); ++i) {
            out += (i != 0 ? ", " : "") + SqlValue(leaf.values[i]);
          }
          return out + ")";
        }
        default:
          return lhs + " " + CmpOpName(leaf.op) + " " + SqlValue(leaf.values[0]);
      }
    }
    case PredExpr::Kind::kAnd:
    case PredExpr::Kind::kOr: {
      std::string sep = pred.kind() == PredExpr::Kind::kAnd ? " AND " : " OR ";
      std::string out = "(";
      for (size_t i = 0; i < pred.children().size(); ++i) {
        out += (i != 0 ? sep : "") + PredToSql(pred.children()[i], alias, constraints);
      }
      return out + ")";
    }
    case PredExpr::Kind::kNot:
      return "NOT (" + PredToSql(pred.children()[0], alias, constraints) + ")";
  }
  return "";
}

std::string OpListSql(OpMask mask) {
  std::vector<std::string> ops;
  for (int i = 0; i < kNumOperations; ++i) {
    if ((mask & (1u << i)) != 0) {
      ops.push_back(std::string("'") + OperationName(static_cast<Operation>(i)) + "'");
    }
  }
  if (ops.size() == 1) {
    return "= " + ops[0];
  }
  return "IN (" + Join(ops, ", ") + ")";
}

std::string SideAlias(RefSide side, size_t pattern) {
  switch (side) {
    case RefSide::kSubject:
      return "s" + std::to_string(pattern);
    case RefSide::kObject:
      return "o" + std::to_string(pattern);
    default:
      return "e" + std::to_string(pattern);
  }
}

std::string ExprToSql(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kNumber:
      return Expr(e).ToString();
    case Expr::Kind::kString:
      return "'" + e.str + "'";
    case Expr::Kind::kParam:
      // Translators only see resolved contexts, which carry no unbound
      // parameters; render SQL's positional-placeholder spelling regardless.
      return ":" + e.name;
    case Expr::Kind::kVarRef: {
      if (e.resolved.has_value() && e.resolved->side != RefSide::kAlias) {
        return SideAlias(e.resolved->side, e.resolved->pattern) + "." +
               std::string(e.resolved->attr->name);
      }
      return e.name;  // alias reference
    }
    case Expr::Kind::kHistRef:
      return e.name + "[" + std::to_string(e.hist_offset) + "]";
    case Expr::Kind::kCall: {
      std::string inner = e.children.empty() ? "*" : ExprToSql(e.children[0]);
      if (e.func == "count_distinct") {
        return "COUNT(DISTINCT " + inner + ")";
      }
      std::string f = ToLower(e.func);
      for (auto& c : f) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
      return f + "(" + inner + ")";
    }
    case Expr::Kind::kBinary:
      return "(" + ExprToSql(e.children[0]) + " " + BinOpName(e.bop) + " " +
             ExprToSql(e.children[1]) + ")";
    case Expr::Kind::kUnary:
      return std::string(1, e.uop) + ExprToSql(e.children[0]);
  }
  return "";
}

bool UsesWindow(const QueryContext& ctx) { return ctx.window.has_value(); }

}  // namespace

TranslatedQuery ToSql(const QueryContext& ctx) {
  TranslatedQuery out;
  if (UsesWindow(ctx)) {
    out.supported = false;
    out.text = "-- sliding windows / history states are not expressible in SQL";
    return out;
  }
  std::string select = "SELECT ";
  if (ctx.count_all) {
    select += "COUNT(";
  }
  if (ctx.distinct) {
    select += "DISTINCT ";
  }
  for (size_t i = 0; i < ctx.items.size(); ++i) {
    select += (i != 0 ? ", " : "") + ExprToSql(ctx.items[i].expr);
  }
  if (ctx.count_all) {
    select += ")";
  }

  std::string from;
  std::vector<std::string> where;
  size_t n = ctx.patterns.size();
  for (size_t i = 0; i < n; ++i) {
    const PatternContext& pc = ctx.patterns[i];
    const DataQuery& q = pc.query;
    std::string ei = "e" + std::to_string(i);
    std::string si = "s" + std::to_string(i);
    std::string oi = "o" + std::to_string(i);
    from += (i != 0 ? "\n  CROSS JOIN " : "FROM ") + std::string("events ") + ei;
    // Entity joins: two ON conditions per pattern (paper: SQL queries employ
    // lots of joins on tables).
    from += "\n  JOIN processes " + si + " ON " + ei + ".subject_id = " + si + ".id";
    ++out.constraints;
    from += "\n  JOIN " + std::string(EntityTable(q.object_type)) + " " + oi + " ON " + ei +
            ".object_id = " + oi + ".id";
    ++out.constraints;

    where.push_back(ei + ".operation " + OpListSql(q.op_mask));
    ++out.constraints;
    where.push_back(ei + ".object_type = '" + EntityTypeName(q.object_type) + "'");
    ++out.constraints;
    if (q.agent_ids.has_value() && !q.agent_ids->empty()) {
      std::string agents;
      for (size_t k = 0; k < q.agent_ids->size(); ++k) {
        agents += (k != 0 ? ", " : "") + std::to_string((*q.agent_ids)[k]);
      }
      where.push_back(ei + ".agent_id IN (" + agents + ")");
      ++out.constraints;
    }
    if (q.time.bounded()) {
      where.push_back(ei + ".start_time >= " + std::to_string(q.time.begin));
      where.push_back(ei + ".start_time < " + std::to_string(q.time.end));
      out.constraints += 2;
    }
    std::string sp = PredToSql(q.subject_pred, si, &out.constraints);
    if (!sp.empty()) {
      where.push_back(sp);
    }
    std::string op = PredToSql(q.object_pred, oi, &out.constraints);
    if (!op.empty()) {
      where.push_back(op);
    }
    std::string ep = PredToSql(q.event_pred, ei, &out.constraints);
    if (!ep.empty()) {
      where.push_back(ep);
    }
  }
  for (const AttrRelation& rel : ctx.attr_rels) {
    where.push_back(SideAlias(rel.left_side, rel.left_pattern) + "." +
                    std::string(rel.left_attr->name) + " " + CmpOpName(rel.op) + " " +
                    SideAlias(rel.right_side, rel.right_pattern) + "." +
                    std::string(rel.right_attr->name));
    ++out.constraints;
  }
  for (const TempRelation& rel : ctx.temp_rels) {
    std::string l = "e" + std::to_string(rel.left_pattern) + ".start_time";
    std::string r = "e" + std::to_string(rel.right_pattern) + ".start_time";
    switch (rel.order) {
      case ast::TempOrder::kBefore:
        where.push_back(l + " < " + r);
        ++out.constraints;
        break;
      case ast::TempOrder::kAfter:
        where.push_back(l + " > " + r);
        ++out.constraints;
        break;
      case ast::TempOrder::kWithin:
        where.push_back("ABS(" + l + " - " + r + ") <= " +
                        std::to_string(rel.hi.value_or(0)));
        ++out.constraints;
        break;
    }
    if (rel.lo.has_value() && rel.order != ast::TempOrder::kWithin) {
      where.push_back("ABS(" + l + " - " + r + ") >= " + std::to_string(*rel.lo));
      ++out.constraints;
    }
    if (rel.hi.has_value() && rel.order != ast::TempOrder::kWithin) {
      where.push_back("ABS(" + l + " - " + r + ") <= " + std::to_string(*rel.hi));
      ++out.constraints;
    }
  }

  out.text = select + "\n" + from;
  if (!where.empty()) {
    out.text += "\nWHERE " + Join(where, "\n  AND ");
  }
  if (!ctx.group_by.empty()) {
    out.text += "\nGROUP BY ";
    for (size_t i = 0; i < ctx.group_by.size(); ++i) {
      out.text += (i != 0 ? ", " : "") + ExprToSql(ctx.group_by[i].expr);
    }
  }
  if (ctx.having.has_value()) {
    out.text += "\nHAVING " + ExprToSql(*ctx.having);
    ++out.constraints;
  }
  if (!ctx.sort_by.empty()) {
    out.text += "\nORDER BY ";
    for (size_t i = 0; i < ctx.sort_by.size(); ++i) {
      out.text += (i != 0 ? ", " : "") + ExprToSql(ctx.sort_by[i].expr) +
                  (ctx.sort_by[i].ascending ? " ASC" : " DESC");
    }
  }
  if (ctx.top.has_value()) {
    out.text += "\nLIMIT " + std::to_string(*ctx.top);
  }
  out.text += ";";
  return out;
}

TranslatedQuery ToCypher(const QueryContext& ctx) {
  TranslatedQuery out;
  if (UsesWindow(ctx)) {
    out.supported = false;
    out.text = "// sliding windows / history states are not expressible in Cypher";
    return out;
  }
  std::string match = "MATCH ";
  std::vector<std::string> where;
  size_t n = ctx.patterns.size();
  for (size_t i = 0; i < n; ++i) {
    const PatternContext& pc = ctx.patterns[i];
    const DataQuery& q = pc.query;
    std::string ei = "e" + std::to_string(i);
    // Shared entities reuse node variables; that is the graph model's one
    // conciseness advantage, mirrored here.
    std::string sv = pc.subject_var;
    std::string ov = pc.object_var;
    std::string ops;
    for (int op = 0; op < kNumOperations; ++op) {
      if ((q.op_mask & (1u << op)) != 0) {
        std::string name = OperationName(static_cast<Operation>(op));
        for (auto& c : name) {
          c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        }
        ops += (ops.empty() ? "" : "|") + name;
      }
    }
    match += (i != 0 ? ",\n      " : "") + std::string("(") + sv + ":Process)-[" + ei + ":" +
             ops + "]->(" + ov + ":" + CypherLabel(q.object_type) + ")";
    out.constraints += 2;  // node labels are type constraints
    if (q.agent_ids.has_value() && !q.agent_ids->empty()) {
      std::string agents;
      for (size_t k = 0; k < q.agent_ids->size(); ++k) {
        agents += (k != 0 ? ", " : "") + std::to_string((*q.agent_ids)[k]);
      }
      where.push_back(ei + ".agentid IN [" + agents + "]");
      ++out.constraints;
    }
    if (q.time.bounded()) {
      where.push_back(ei + ".start_time >= " + std::to_string(q.time.begin));
      where.push_back(ei + ".start_time < " + std::to_string(q.time.end));
      out.constraints += 2;
    }
    auto pred_to_cypher = [&](const PredExpr& pred, const std::string& alias) {
      std::string text = PredToSql(pred, alias, &out.constraints);
      // Cypher spells LIKE as regex matching.
      size_t pos;
      while ((pos = text.find(" LIKE ")) != std::string::npos) {
        text.replace(pos, 6, " =~ ");
      }
      while ((pos = text.find(" NOT =~ ")) != std::string::npos) {
        text.replace(pos, 8, " <> ");
      }
      return text;
    };
    std::string sp = pred_to_cypher(q.subject_pred, sv);
    if (!sp.empty()) {
      where.push_back(sp);
    }
    std::string op2 = pred_to_cypher(q.object_pred, ov);
    if (!op2.empty()) {
      where.push_back(op2);
    }
    std::string ep = pred_to_cypher(q.event_pred, ei);
    if (!ep.empty()) {
      where.push_back(ep);
    }
  }
  for (const AttrRelation& rel : ctx.attr_rels) {
    if (rel.implicit) {
      continue;  // expressed by node-variable reuse
    }
    const PatternContext& lp = ctx.patterns[rel.left_pattern];
    const PatternContext& rp = ctx.patterns[rel.right_pattern];
    auto side_name = [&](const PatternContext& pc, RefSide side, size_t pattern) {
      if (side == RefSide::kSubject) {
        return pc.subject_var;
      }
      if (side == RefSide::kObject) {
        return pc.object_var;
      }
      return "e" + std::to_string(pattern);
    };
    where.push_back(side_name(lp, rel.left_side, rel.left_pattern) + "." +
                    std::string(rel.left_attr->name) + " " + CmpOpName(rel.op) + " " +
                    side_name(rp, rel.right_side, rel.right_pattern) + "." +
                    std::string(rel.right_attr->name));
    ++out.constraints;
  }
  for (const TempRelation& rel : ctx.temp_rels) {
    std::string l = "e" + std::to_string(rel.left_pattern) + ".start_time";
    std::string r = "e" + std::to_string(rel.right_pattern) + ".start_time";
    switch (rel.order) {
      case ast::TempOrder::kBefore:
        where.push_back(l + " < " + r);
        break;
      case ast::TempOrder::kAfter:
        where.push_back(l + " > " + r);
        break;
      case ast::TempOrder::kWithin:
        where.push_back("abs(" + l + " - " + r + ") <= " + std::to_string(rel.hi.value_or(0)));
        break;
    }
    ++out.constraints;
  }
  out.text = match;
  if (!where.empty()) {
    out.text += "\nWHERE " + Join(where, "\n  AND ");
  }
  out.text += "\nRETURN ";
  if (ctx.count_all) {
    out.text += "COUNT(";
  }
  if (ctx.distinct) {
    out.text += "DISTINCT ";
  }
  for (size_t i = 0; i < ctx.items.size(); ++i) {
    out.text += (i != 0 ? ", " : "") + ExprToSql(ctx.items[i].expr);
  }
  if (ctx.count_all) {
    out.text += ")";
  }
  if (!ctx.sort_by.empty()) {
    out.text += "\nORDER BY ";
    for (size_t i = 0; i < ctx.sort_by.size(); ++i) {
      out.text += (i != 0 ? ", " : "") + ExprToSql(ctx.sort_by[i].expr) +
                  (ctx.sort_by[i].ascending ? "" : " DESC");
    }
  }
  if (ctx.top.has_value()) {
    out.text += "\nLIMIT " + std::to_string(*ctx.top);
  }
  out.text += ";";
  return out;
}

TranslatedQuery ToSpl(const QueryContext& ctx) {
  TranslatedQuery out;
  if (UsesWindow(ctx)) {
    out.supported = false;
    out.text = "# sliding windows / history-state comparisons are not expressible in SPL";
    return out;
  }
  // Splunk's limited join support forces one subsearch per extra pattern
  // (paper §6.1 cites SPL's join limitations).
  std::vector<std::string> stages;
  size_t n = ctx.patterns.size();
  auto pattern_terms = [&](size_t i) {
    const DataQuery& q = ctx.patterns[i].query;
    std::vector<std::string> terms;
    terms.push_back("index=sysevents");
    std::string ops;
    for (int op = 0; op < kNumOperations; ++op) {
      if ((q.op_mask & (1u << op)) != 0) {
        ops += (ops.empty() ? "" : " OR optype=") + std::string(OperationName(
                                                         static_cast<Operation>(op)));
      }
    }
    terms.push_back("optype=" + ops);
    ++out.constraints;
    terms.push_back("object_type=" + std::string(EntityTypeName(q.object_type)));
    ++out.constraints;
    if (q.agent_ids.has_value() && !q.agent_ids->empty()) {
      terms.push_back("agentid=" + std::to_string((*q.agent_ids)[0]));
      ++out.constraints;
    }
    if (q.time.bounded()) {
      terms.push_back("earliest=" + std::to_string(q.time.begin / 1000));
      terms.push_back("latest=" + std::to_string(q.time.end / 1000));
      out.constraints += 2;
    }
    // Flatten predicates into search terms (wildcard syntax).
    size_t before = out.constraints;
    std::string sp = PredToSql(q.subject_pred, "subject", &out.constraints);
    std::string op2 = PredToSql(q.object_pred, "object", &out.constraints);
    std::string ep = PredToSql(q.event_pred, "evt", &out.constraints);
    (void)before;
    for (std::string* s : {&sp, &op2, &ep}) {
      if (s->empty()) {
        continue;
      }
      std::string term = *s;
      size_t pos;
      while ((pos = term.find(" LIKE ")) != std::string::npos) {
        term.replace(pos, 6, "=");
      }
      while ((pos = term.find('%')) != std::string::npos) {
        term.replace(pos, 1, "*");
      }
      terms.push_back(term);
    }
    return Join(terms, " ");
  };

  std::string text = "search " + pattern_terms(0);
  for (size_t i = 1; i < n; ++i) {
    // Join key: the first attribute relationship connecting pattern i to an
    // earlier pattern, if any; SPL needs a common field.
    std::string key = "host";
    for (const AttrRelation& rel : ctx.attr_rels) {
      if ((rel.right_pattern == i && rel.left_pattern < i) ||
          (rel.left_pattern == i && rel.right_pattern < i)) {
        key = rel.left_attr->name;
        break;
      }
    }
    text += "\n| join " + key + " [ search " + pattern_terms(i) + " ]";
    ++out.constraints;
  }
  for (const TempRelation& rel : ctx.temp_rels) {
    text += "\n| where start_time_" + std::to_string(rel.left_pattern) +
            (rel.order == ast::TempOrder::kAfter ? " > " : " < ") + "start_time_" +
            std::to_string(rel.right_pattern);
    ++out.constraints;
  }
  if (!ctx.group_by.empty()) {
    text += "\n| stats ";
    for (size_t i = 0; i < ctx.items.size(); ++i) {
      text += (i != 0 ? ", " : "") + ExprToSql(ctx.items[i].expr);
    }
    text += " by ";
    for (size_t i = 0; i < ctx.group_by.size(); ++i) {
      text += (i != 0 ? ", " : "") + ExprToSql(ctx.group_by[i].expr);
    }
  } else {
    if (ctx.distinct) {
      text += "\n| dedup ";
      for (size_t i = 0; i < ctx.items.size(); ++i) {
        text += (i != 0 ? ", " : "") + ExprToSql(ctx.items[i].expr);
      }
    }
    text += "\n| table ";
    for (size_t i = 0; i < ctx.items.size(); ++i) {
      text += (i != 0 ? ", " : "") + ExprToSql(ctx.items[i].expr);
    }
  }
  if (ctx.having.has_value()) {
    text += "\n| where " + ExprToSql(*ctx.having);
    ++out.constraints;
  }
  if (!ctx.sort_by.empty()) {
    text += "\n| sort ";
    for (size_t i = 0; i < ctx.sort_by.size(); ++i) {
      text += (i != 0 ? ", " : "") + std::string(ctx.sort_by[i].ascending ? "" : "-") +
              ExprToSql(ctx.sort_by[i].expr);
    }
  }
  if (ctx.top.has_value()) {
    text += "\n| head " + std::to_string(*ctx.top);
  }
  out.text = text;
  return out;
}

ConcisenessMetrics MeasureAiql(const QueryContext& ctx) {
  ConcisenessMetrics m;
  // AIQL constraints: atomic attribute predicates, global spatial/temporal
  // constraints, and relationship clauses. Operations, entity types, and
  // entity-ID reuse are syntax, not constraints.
  for (const PatternContext& pc : ctx.patterns) {
    m.constraints += pc.query.subject_pred.CountConstraints();
    m.constraints += pc.query.object_pred.CountConstraints();
    m.constraints += pc.query.event_pred.CountConstraints();
  }
  if (ctx.global_agents.has_value()) {
    ++m.constraints;
  }
  if (ctx.global_time.bounded()) {
    ++m.constraints;
  }
  for (const AttrRelation& rel : ctx.attr_rels) {
    if (!rel.implicit) {
      ++m.constraints;
    }
  }
  m.constraints += ctx.temp_rels.size();
  if (ctx.having.has_value()) {
    ++m.constraints;
  }
  m.words = CountWords(ctx.text);
  m.characters = CountNonSpaceChars(ctx.text);
  return m;
}

ConcisenessMetrics Measure(const TranslatedQuery& q) {
  ConcisenessMetrics m;
  m.supported = q.supported;
  m.constraints = q.constraints;
  m.words = CountWords(q.text);
  m.characters = CountNonSpaceChars(q.text);
  return m;
}

}  // namespace aiql
