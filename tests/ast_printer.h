// Canonical rendering of a parsed AIQL query (ast::Query), for golden tests
// of the parser: every field the parser sets is printed, with values tagged
// by type (i:1 vs d:1 vs s:"1"), so two parses render alike only when they
// built the same tree. The source text itself is not printed.
#ifndef AIQL_TESTS_AST_PRINTER_H_
#define AIQL_TESTS_AST_PRINTER_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/lang/ast.h"

namespace aiql::astprint {

inline std::string RenderDouble(double d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

inline std::string RenderValue(const Value& v) {
  if (v.is_param()) {
    return "$" + v.param().name + "@" + std::to_string(v.param().line);
  }
  if (v.is_int()) {
    return "i:" + std::to_string(v.as_int());
  }
  if (v.is_double()) {
    return "d:" + RenderDouble(v.as_double());
  }
  return "s:\"" + v.as_string() + "\"";
}

inline std::string RenderPred(const PredExpr& p) {
  switch (p.kind()) {
    case PredExpr::Kind::kTrue:
      return "true";
    case PredExpr::Kind::kLeaf: {
      std::string out = "(" + p.leaf().attr + " " + CmpOpName(p.leaf().op);
      for (const Value& v : p.leaf().values) {
        out += " " + RenderValue(v);
      }
      return out + ")";
    }
    case PredExpr::Kind::kAnd:
    case PredExpr::Kind::kOr:
    case PredExpr::Kind::kNot: {
      std::string out = p.kind() == PredExpr::Kind::kAnd  ? "(and"
                        : p.kind() == PredExpr::Kind::kOr ? "(or"
                                                          : "(not";
      for (const PredExpr& c : p.children()) {
        out += " " + RenderPred(c);
      }
      return out + ")";
    }
  }
  return "?";
}

inline std::string RenderExpr(const Expr& e) {
  std::string args;
  for (const Expr& c : e.children) {
    args += " " + RenderExpr(c);
  }
  switch (e.kind) {
    case Expr::Kind::kNumber:
      return "n:" + RenderDouble(e.number);
    case Expr::Kind::kString:
      return "s:\"" + e.str + "\"";
    case Expr::Kind::kParam:
      return "$" + e.name + "@" + std::to_string(e.line);
    case Expr::Kind::kVarRef:
      return "var:" + e.name + (e.attr.empty() ? "" : "." + e.attr);
    case Expr::Kind::kHistRef:
      return "hist:" + e.name + "[" + std::to_string(e.hist_offset) + "]";
    case Expr::Kind::kCall:
      return "(call " + e.func + args + ")";
    case Expr::Kind::kBinary:
      return "(" + std::string(BinOpName(e.bop)) + args + ")";
    case Expr::Kind::kUnary:
      return "(unary" + std::string(1, e.uop) + args + ")";
  }
  return "?";
}

inline std::string RenderWindow(const ast::TimeWindowSpec& w) {
  auto opt = [](const std::optional<TimestampMs>& t) {
    return t.has_value() ? std::to_string(*t) : std::string("-");
  };
  std::string out = "(window line=" + std::to_string(w.line);
  if (w.fixed.has_value()) {
    out += " fixed=" + std::to_string(w.fixed->begin) + ".." + std::to_string(w.fixed->end);
  }
  return out + " at=$" + w.at_param + " from=" + opt(w.from_fixed) + "/$" + w.from_param +
         " to=" + opt(w.to_fixed) + "/$" + w.to_param + ")";
}

inline std::string RenderEntity(const ast::EntityRef& e) {
  return "(entity " + std::to_string(static_cast<int>(e.type)) + " id=" + e.id +
         " line=" + std::to_string(e.line) + " " + RenderPred(e.constraint) + ")";
}

inline std::string RenderItems(const char* tag, const std::vector<ast::ReturnItem>& items) {
  std::string out = std::string("(") + tag;
  for (const ast::ReturnItem& item : items) {
    out += " (" + RenderExpr(item.expr) + " as=" + item.rename + ")";
  }
  return out + ")";
}

inline std::string RenderTail(const ast::ReturnClause& ret, const ast::Filters& f) {
  std::string out = "(return count=" + std::to_string(ret.count_all) +
                    " distinct=" + std::to_string(ret.distinct) + " " +
                    RenderItems("items", ret.items) + ") " + RenderItems("group", f.group_by);
  out += " (having " + (f.having.has_value() ? RenderExpr(*f.having) : std::string("-")) + ")";
  out += " (sort";
  for (const ast::SortKey& k : f.sort_by) {
    out += " (" + RenderExpr(k.expr) + (k.ascending ? " asc)" : " desc)");
  }
  out += ") (top " + (f.top.has_value() ? std::to_string(*f.top) : std::string("-")) + ")";
  return out;
}

inline std::string RenderDuration(const std::optional<DurationMs>& d) {
  return d.has_value() ? std::to_string(*d) : std::string("-");
}

inline std::string RenderAst(const ast::Query& q) {
  std::string out = "(query kind=" + std::to_string(static_cast<int>(q.kind)) + " (global " +
                    RenderPred(q.global.constraint);
  for (const ast::TimeWindowSpec& w : q.global.time_windows) {
    out += " " + RenderWindow(w);
  }
  out += " window=" + RenderDuration(q.global.window) + " step=" +
         RenderDuration(q.global.step) + ")";
  if (q.kind == ast::QueryKind::kDependency) {
    const ast::DependencyQuery& d = q.dependency;
    out += " (dependency forward=" + std::to_string(d.forward);
    for (const ast::EntityRef& n : d.nodes) {
      out += " " + RenderEntity(n);
    }
    for (const ast::DependencyEdge& e : d.edges) {
      out += " (edge right=" + std::to_string(e.points_right) +
             " ops=" + std::to_string(e.ops) + ")";
    }
    return out + " " + RenderTail(d.ret, d.filters) + "))";
  }
  const ast::MultieventQuery& m = q.multievent;
  out += " (multievent";
  for (const ast::EventPattern& p : m.patterns) {
    out += " (pattern line=" + std::to_string(p.line) + " " + RenderEntity(p.subject) +
           " ops=" + std::to_string(p.ops) + " " + RenderEntity(p.object) + " evt=" + p.evt_id +
           " " + RenderPred(p.evt_constraint) +
           (p.time_window.has_value() ? " " + RenderWindow(*p.time_window) : "") + ")";
  }
  for (const ast::AttrRel& r : m.attr_rels) {
    out += " (attr-rel line=" + std::to_string(r.line) + " " + r.left_id + "." + r.left_attr +
           " " + CmpOpName(r.op) + " " + r.right_id + "." + r.right_attr + ")";
  }
  for (const ast::TempRel& r : m.temp_rels) {
    out += " (temp-rel line=" + std::to_string(r.line) + " " + r.left_evt + " " +
           std::to_string(static_cast<int>(r.order)) + " [" + RenderDuration(r.lo) + " " +
           RenderDuration(r.hi) + "] " + r.right_evt + ")";
  }
  return out + " " + RenderTail(m.ret, m.filters) + "))";
}

}  // namespace aiql::astprint

#endif  // AIQL_TESTS_AST_PRINTER_H_
