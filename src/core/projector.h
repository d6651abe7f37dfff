// Result projection: the return clause, grouping, aggregation, having,
// distinct, count, sorting and top-k over joined tuple rows. The items, keys,
// aggregates and having clause run on the compiled projector
// (src/core/compiled_projector.h), the evaluator anomaly queries use too.
#ifndef AIQL_SRC_CORE_PROJECTOR_H_
#define AIQL_SRC_CORE_PROJECTOR_H_

#include "src/core/result_table.h"
#include "src/core/tuple_set.h"
#include "src/lang/query_context.h"

namespace aiql {

struct ExecutionSession;

// Projects the final tuple set of a multievent query into a result table.
// Without aggregates or group-by, every row yields one output row; otherwise
// rows group by the group-by key (groups visited in key-string order, each
// reading plain references from its first row) and a query with aggregates
// but no group-by forms one global group, even over no rows. When a session
// is supplied, its cancellation flag is checked before each row or group.
Result<ResultTable> ProjectResults(const QueryContext& ctx, const TupleSet& tuples,
                                   const EntityCatalog& catalog,
                                   const ExecutionSession* session = nullptr);

}  // namespace aiql

#endif  // AIQL_SRC_CORE_PROJECTOR_H_
