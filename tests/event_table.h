// Test helper: plain Event rows as the one form an EventView reads, an
// EventColumns table. Tests and oracles that hold their own std::vector<Event>
// read attributes through views of the table's rows.
#ifndef AIQL_TESTS_EVENT_TABLE_H_
#define AIQL_TESTS_EVENT_TABLE_H_

#include <cstdint>
#include <vector>

#include "src/storage/event_view.h"

namespace aiql {

// `events` as one table; row i is events[i].
inline EventColumns EventTable(const std::vector<Event>& events) {
  EventColumns table;
  table.Reserve(events.size());
  for (const Event& e : events) {
    table.Append(e);
  }
  return table;
}

// A view of every row of `table`, in row order.
inline std::vector<EventView> ViewsOf(const EventColumns& table) {
  std::vector<EventView> views;
  views.reserve(table.size());
  for (uint32_t r = 0; r < table.size(); ++r) {
    views.emplace_back(&table, r);
  }
  return views;
}

}  // namespace aiql

#endif  // AIQL_TESTS_EVENT_TABLE_H_
