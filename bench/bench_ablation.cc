// Ablation bench for the design choices DESIGN.md calls out (paper §5.2, §7):
//   - constrained execution (pushdown) on/off,
//   - pruning-score relationship ordering on/off,
//   - time/space storage partitioning on/off,
//   - secondary indexes on/off,
//   - parallel data-query execution: auto-sized morsel-driven partition
//     scans vs a single worker vs the legacy coarse day-split fan-out,
//   - the compressed archive partition tier on/off
//     (AIQL_ARCHIVE_AFTER_DAYS knob; see below).
// Measured over the 26 case-study queries (total investigation time), plus a
// focused cold-scan section: full-table scan latency and resident column
// bytes, hot vs archived (decode cache dropped before every cold rep).
// AIQL_BENCH_JSON=path writes the archive metrics as JSON (BENCH_pr5.json).
// Exits 1 when the hot and archived scans disagree on rows (count or a digest
// of every attribute) or the archive is less than 3x smaller than the hot
// columns; timings never fail the run.
#include "bench/bench_common.h"

#include <cinttypes>

using namespace aiql;
using namespace aiql::bench;

namespace {

double TotalMs(AiqlEngine& engine, const std::vector<QuerySpec>& queries) {
  double total = 0;
  for (const QuerySpec& spec : queries) {
    Timing t = RunQuery(engine, spec.text);
    total += t.ms;
  }
  return total;
}

}  // namespace

int main() {
  double scale = ScaleFromEnv();
  // AIQL_MORSEL_ROWS overrides the parallel-scan work-unit size everywhere
  // (0 = whole-partition work units, the pre-morsel scheduler).
  DatabaseOptions tuned;
  tuned.morsel_rows = MorselRowsFromEnv(tuned.morsel_rows);
  std::printf("=== Ablation: AIQL optimizations (26 case-study queries) ===\n");
  World world = BuildWorld(scale, /*with_baseline=*/false, tuned);
  std::vector<QuerySpec> queries = world.workload->CaseStudyQueries();
  std::printf("events: %zu  morsel_rows: %u\n\n", world.optimized->num_events(),
              tuned.morsel_rows);

  // Alternative storage configurations over the identical event stream. Every
  // config inherits `tuned` (the AIQL_MORSEL_ROWS override) and ablates one
  // knob, so the rows differ in exactly one dimension.
  DatabaseOptions no_part_opts = tuned;
  no_part_opts.scheme = PartitionScheme::kNone;
  Database no_partitions{no_part_opts};
  {
    Workload w(world.config, &no_partitions);
    w.Build();
    no_partitions.Finalize();
  }
  DatabaseOptions no_index_opts = tuned;
  no_index_opts.build_indexes = false;
  Database no_indexes{no_index_opts};
  {
    Workload w(world.config, &no_indexes);
    w.Build();
    no_indexes.Finalize();
  }
  DatabaseOptions whole_opts = tuned;
  whole_opts.morsel_rows = 0;
  Database whole_partition_morsels{whole_opts};
  {
    Workload w(world.config, &whole_partition_morsels);
    w.Build();
    whole_partition_morsels.Finalize();
  }
  // Archive tier: partitions older than AIQL_ARCHIVE_AFTER_DAYS (default 1:
  // only the newest day stays hot) hold delta/FOR-encoded columns and decode
  // on demand through the LRU decode cache.
  DatabaseOptions archive_opts = tuned;
  archive_opts.archive_after_days = ArchiveAfterDaysFromEnv(1);
  Database archive_tier{archive_opts};
  {
    Workload w(world.config, &archive_tier);
    w.Build();
    archive_tier.Finalize();
  }

  struct Config {
    const char* name;
    const Database* db;
    EngineOptions options;
  };
  // Parallelism is left at its default (0 = auto-sized from
  // hardware_concurrency) everywhere except the explicit worker-count rows,
  // so small machines are no longer oversubscribed by a hard-coded 2.
  int64_t budget = BaselineBudgetMs();
  std::vector<Config> configs = {
      {"full (pushdown+ordering+partitions+indexes, auto workers)", world.optimized.get(),
       {.time_budget_ms = budget}},
      {"single worker", world.optimized.get(), {.parallelism = 1, .time_budget_ms = budget}},
      {"day-split fan-out (no storage-level morsel scan)", world.optimized.get(),
       {.storage_parallel = false, .time_budget_ms = budget}},
      {"no pushdown", world.optimized.get(),
       {.pushdown = false, .time_budget_ms = budget}},
      {"no relationship ordering", world.optimized.get(),
       {.ordering = false, .time_budget_ms = budget}},
      {"no pushdown + no ordering", world.optimized.get(),
       {.pushdown = false, .ordering = false, .time_budget_ms = budget}},
      {"no storage partitioning", &no_partitions, {.time_budget_ms = budget}},
      {"no secondary indexes", &no_indexes, {.time_budget_ms = budget}},
      {"whole-partition work units (no row morsels)", &whole_partition_morsels,
       {.time_budget_ms = budget}},
      {"archive tier (cold partitions delta/FOR-encoded)", &archive_tier,
       {.time_budget_ms = budget}},
  };

  std::printf("%-55s %12s %9s\n", "configuration", "total (ms)", "vs full");
  double full_ms = 0;
  for (const Config& config : configs) {
    AiqlEngine engine(config.db, config.options);
    double ms = TotalMs(engine, queries);
    if (full_ms == 0) {
      full_ms = ms;
    }
    std::printf("%-55s %12.1f %8.2fx\n", config.name, ms, ms / std::max(full_ms, 0.01));
  }
  std::printf("\n(shape target: every ablated configuration is slower than full;\n"
              " pushdown and partitioning carry the largest shares)\n");

  // --- archive tier: cold-scan latency + resident column bytes --------------
  // A full-table scan (no pruning survivors skipped) of an all-archived
  // database, against the identical hot database. "cold" drops the decode
  // cache before every rep, so every partition pays its on-demand decode;
  // "warm" re-scans with the cache resident.
  DatabaseOptions all_archived_opts = tuned;
  all_archived_opts.archive_after_days = 0;
  all_archived_opts.decode_cache_partitions = 1 << 20;  // warm reps keep all
  Database all_archived{all_archived_opts};
  {
    Workload w(world.config, &all_archived);
    w.Build();
    all_archived.Finalize();
  }
  DataQuery full_scan;
  full_scan.object_type = EntityType::kFile;  // the dominant object type

  // Order-sensitive digest of every attribute of the matched rows: a decode
  // bug that keeps the row count still changes it.
  auto digest = [](const std::vector<EventView>& rows) {
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](int64_t v) { h = (h ^ static_cast<uint64_t>(v)) * 1099511628211ull; };
    for (const EventView& e : rows) {
      for (int64_t v : {e.id(), e.seq(), static_cast<int64_t>(e.agent_id()),
                        static_cast<int64_t>(e.op()), static_cast<int64_t>(e.object_type()),
                        static_cast<int64_t>(e.subject_idx()),
                        static_cast<int64_t>(e.object_idx()), e.start_time(), e.end_time(),
                        e.amount(), static_cast<int64_t>(e.failure_code())}) {
        mix(v);
      }
    }
    return h;
  };
  struct ScanResult {
    double best_ms = 1e300;
    size_t rows = 0;
    uint64_t digest = 0;
  };
  auto scan_ms = [&](const Database& db, bool drop_cache) {
    const int reps = 5;
    ScanResult res;
    for (int r = 0; r < reps; ++r) {
      if (drop_cache) {
        db.decode_cache().Clear();
      }
      ColumnPins pins;
      ScanContext ctx;
      ctx.pins = &pins;
      std::vector<EventView> out;
      double ms = TimeMs([&] { out = db.ExecuteQuery(full_scan, nullptr, &ctx); });
      res.best_ms = std::min(res.best_ms, ms);
      res.rows = out.size();
      res.digest = digest(out);  // while `pins` keeps archived columns alive
    }
    return res;
  };
  const ScanResult hot = scan_ms(*world.optimized, /*drop_cache=*/false);
  const ScanResult cold = scan_ms(all_archived, /*drop_cache=*/true);
  const ScanResult warm = scan_ms(all_archived, /*drop_cache=*/false);
  const double hot_ms = hot.best_ms, cold_ms = cold.best_ms, warm_ms = warm.best_ms;
  const size_t hot_rows = hot.rows, cold_rows = cold.rows;
  StorageFootprint hot_fp = world.optimized->Footprint();
  StorageFootprint arc_fp = all_archived.Footprint();
  double ratio = arc_fp.archived_bytes > 0
                     ? static_cast<double>(hot_fp.hot_column_bytes) /
                           static_cast<double>(arc_fp.archived_bytes)
                     : 0;

  const bool rows_agree = hot.rows == cold.rows && cold.rows == warm.rows &&
                          hot.digest == cold.digest && cold.digest == warm.digest;
  std::printf("\n=== Archive tier: cold full scan + resident column bytes ===\n");
  std::printf("rows matched: hot %zu  archived %zu, digests %016" PRIx64 " / %016" PRIx64
              " (must agree: %s)\n",
              hot_rows, cold_rows, hot.digest, cold.digest, rows_agree ? "ok" : "MISMATCH");
  std::printf("full scan (best of 5): hot %.1f ms  archived-cold %.1f ms (%.2fx)  "
              "archived-warm %.1f ms\n",
              hot_ms, cold_ms, cold_ms / std::max(hot_ms, 0.01), warm_ms);
  std::printf("resident column bytes: hot %zu  archived %zu  (%.1fx smaller)\n",
              hot_fp.hot_column_bytes, arc_fp.archived_bytes, ratio);
  std::printf("(targets: archived-cold within 2x of hot, reported only; >= 3x smaller resident "
              "bytes, enforced)\n");

  if (const char* json_path = std::getenv("AIQL_BENCH_JSON"); json_path != nullptr) {
    if (std::FILE* f = std::fopen(json_path, "w"); f != nullptr) {
      std::fprintf(f,
                   "{\n"
                   "  \"bench\": \"bench_ablation/archive_tier\",\n"
                   "  \"events\": %zu,\n"
                   "  \"archived_partitions\": %zu,\n"
                   "  \"full_scan_rows\": %zu,\n"
                   "  \"hot_scan_ms\": %.3f,\n"
                   "  \"archived_cold_scan_ms\": %.3f,\n"
                   "  \"archived_warm_scan_ms\": %.3f,\n"
                   "  \"cold_vs_hot\": %.3f,\n"
                   "  \"hot_column_bytes\": %zu,\n"
                   "  \"archived_bytes\": %zu,\n"
                   "  \"resident_ratio\": %.3f\n"
                   "}\n",
                   all_archived.num_events(), all_archived.num_archived_partitions(), cold_rows,
                   hot_ms, cold_ms, warm_ms, cold_ms / std::max(hot_ms, 0.01),
                   hot_fp.hot_column_bytes, arc_fp.archived_bytes, ratio);
      std::fclose(f);
      std::printf("wrote %s\n", json_path);
    }
  }
  // The deterministic checks fail the run (and CI's smoke run): a row count
  // or digest mismatch means an archive decode bug; a ratio below 3x means the codecs
  // regressed. The timing target stays informational.
  if (!rows_agree) {
    std::fprintf(stderr, "bench_ablation: archived rows (count or digest) disagree with hot rows\n");
    return 1;
  }
  if (ratio < 3.0) {
    std::fprintf(stderr, "bench_ablation: resident bytes only %.2fx smaller (< 3x)\n", ratio);
    return 1;
  }
  return 0;
}
