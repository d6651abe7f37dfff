// Multi-pattern differential test: random 2-3-pattern queries over a small
// two-host trace must bind exactly the brute-force reference's tuples
// (tests/reference_multievent.h) under every scheduler, relationship
// ordering (cost, paper, none), pushdown on/off, parallelism 1/8 and
// hot/archived storage, and over both MPP distribution policies
// (parallelism 1).
// The query shapes cover chains, relationship cycles (the connect step's
// filter path), patterns no relationship touches (steps 4-5 cross joins) and
// entity-ID reuse (implicit attribute relationships).
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/executor.h"
#include "src/mpp/mpp_cluster.h"
#include "src/storage/database.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/reference_multievent.h"

namespace aiql {
namespace {

// Builds the same trace into `db`: two hosts, four processes, four files and
// two connections each, 300 events over two days.
void BuildTrace(Database* db) {
  EntityCatalog& catalog = db->catalog();
  const char* exes[] = {"/bin/sh", "/bin/cat", "/usr/bin/curl", "/usr/sbin/sshd"};
  const char* users[] = {"root", "alice", "bob"};
  const char* files[] = {"/etc/passwd", "/tmp/a", "/tmp/b", "/home/alice/doc"};
  std::vector<std::vector<uint32_t>> procs(2), fs(2), ips(2);
  for (AgentId agent = 1; agent <= 2; ++agent) {
    for (int i = 0; i < 4; ++i) {
      procs[agent - 1].push_back(
          catalog.InternProcess(agent, 100 * agent + i, exes[i], users[(i + agent) % 3]));
      fs[agent - 1].push_back(catalog.InternFile(agent, files[i], users[i % 3]));
    }
    for (int i = 0; i < 2; ++i) {
      ips[agent - 1].push_back(catalog.InternNetwork(agent, "10.0.0." + std::to_string(agent),
                                                     "93.184.216." + std::to_string(i), 40000 + i,
                                                     i == 0 ? 443 : 22));
    }
  }
  Rng rng(2017);
  const TimestampMs base = MakeTimestamp(2017, 1, 1);
  for (int i = 0; i < 300; ++i) {
    const size_t host = rng.Below(2);
    const uint32_t subject = procs[host][rng.Below(4)];
    const TimestampMs t = base + static_cast<TimestampMs>(rng.Below(2 * kDayMs / kMinuteMs)) *
                                     kMinuteMs;
    const int64_t amount = rng.Range(0, 1000);
    switch (rng.Below(5)) {
      case 0:
      case 1:
        db->RecordEvent(static_cast<AgentId>(host + 1), subject,
                        rng.Chance(0.5) ? Operation::kRead : Operation::kWrite, EntityType::kFile,
                        fs[host][rng.Below(4)], t, amount);
        break;
      case 2:
      case 3:
        db->RecordEvent(static_cast<AgentId>(host + 1), subject,
                        rng.Chance(0.5) ? Operation::kConnect : Operation::kWrite,
                        EntityType::kNetwork, ips[host][rng.Below(2)], t, amount);
        break;
      default:
        db->RecordEvent(static_cast<AgentId>(host + 1), subject, Operation::kStart,
                        EntityType::kProcess, procs[host][rng.Below(4)], t, amount);
        break;
    }
  }
  db->Finalize();
}

enum class Shape { kPair, kLonePair, kChain, kCycle, kLoneThird };

// One random query of `shape`. Patterns may reuse an earlier process or
// file variable (an implicit id relationship); the `with` clause relates
// the shape's pattern pairs by a random temporal or attribute relationship.
std::string RandomQuery(Rng* rng, Shape shape) {
  const size_t n = shape == Shape::kPair || shape == Shape::kLonePair ? 2 : 3;
  std::vector<std::pair<size_t, size_t>> pairs;
  switch (shape) {
    case Shape::kPair:
      pairs = {{0, 1}};
      break;
    case Shape::kLonePair:
      break;
    case Shape::kChain:
      pairs = {{0, 1}, {1, 2}};
      break;
    case Shape::kCycle:
      pairs = {{0, 1}, {1, 2}, {0, 2}};
      break;
    case Shape::kLoneThird:
      pairs = {{0, 1}};
      break;
  }
  const char* exe_likes[] = {"%sh", "/bin/%", "%curl", "%cat"};
  const char* file_likes[] = {"/tmp/%", "%passwd", "%doc", "/%"};
  std::vector<std::string> procs, files;  // variables bound so far
  std::vector<std::string> subject(n), object(n), object_type(n);
  std::string text = rng->Chance(0.3) ? "agentid = 1\n" : "";
  for (size_t k = 0; k < n; ++k) {
    if (!procs.empty() && rng->Chance(0.3)) {
      subject[k] = procs[rng->Below(procs.size())];
    } else {
      subject[k] = "p" + std::to_string(k);
      if (rng->Chance(0.7)) {
        subject[k] += std::string("[\"") + exe_likes[rng->Below(4)] + "\"]";
      }
    }
    std::string op;
    switch (rng->Below(3)) {
      case 0:
        object_type[k] = "file";
        op = rng->Chance(0.5) ? "read" : "write";
        if (!files.empty() && rng->Chance(0.3)) {
          object[k] = files[rng->Below(files.size())];
        } else {
          object[k] = "f" + std::to_string(k);
          if (rng->Chance(0.6)) {
            object[k] += std::string("[\"") + file_likes[rng->Below(4)] + "\"]";
          }
        }
        break;
      case 1:
        object_type[k] = "ip";
        op = rng->Chance(0.5) ? "connect" : "write";
        object[k] = "i" + std::to_string(k);
        if (rng->Chance(0.5)) {
          object[k] += rng->Chance(0.5) ? "[dstport = 443]" : "[dstport = 22]";
        }
        break;
      default:
        object_type[k] = "proc";
        op = "start";
        object[k] = "c" + std::to_string(k);
        break;
    }
    text += "proc " + subject[k] + " " + op + " " + object_type[k] + " " + object[k] +
            " as evt" + std::to_string(k) + "\n";
    // Later patterns refer to the variables by name, without constraints.
    subject[k] = subject[k].substr(0, subject[k].find('['));
    object[k] = object[k].substr(0, object[k].find('['));
    procs.push_back(subject[k]);
    if (object_type[k] == "proc") {
      procs.push_back(object[k]);
    } else if (object_type[k] == "file") {
      files.push_back(object[k]);
    }
  }

  std::vector<std::string> rels;
  for (auto [x, y] : pairs) {
    if (rng->Chance(0.5)) {
      std::swap(x, y);  // either orientation
    }
    const std::string ex = "evt" + std::to_string(x);
    const std::string ey = "evt" + std::to_string(y);
    const char* temporal[] = {" before ",
                              " after ",
                              " within [0-30 minutes] ",
                              " before[1-180 minutes] ",
                              " after[10-600 minutes] ",
                              " within[5-240 minutes] "};
    std::vector<std::string> options;
    for (const char* op : temporal) {
      options.push_back(ex + op + ey);
    }
    options.push_back(subject[x] + ".user = " + subject[y] + ".user");
    options.push_back(subject[x] + ".exe_name = " + subject[y] + ".exe_name");
    options.push_back(subject[x] + ".pid < " + subject[y] + ".pid");
    options.push_back(ex + ".amount > " + ey + ".amount");
    if (object_type[y] == "file") {
      options.push_back(subject[x] + ".user = " + object[y] + ".owner");
    }
    if (object_type[x] == "file" && object_type[y] == "file") {
      options.push_back(object[x] + " = " + object[y]);
    }
    rels.push_back(options[rng->Below(options.size())]);
  }
  if (!rels.empty()) {
    text += "with ";
    for (size_t i = 0; i < rels.size(); ++i) {
      text += (i > 0 ? ", " : "") + rels[i];
    }
    text += "\n";
  }
  return text + "return " + subject[0];
}

// The tuples of `set`: one event id per pattern, in pattern order, sorted.
std::vector<std::vector<int64_t>> IdTuples(const TupleSet& set, size_t num_patterns) {
  std::vector<int> columns(num_patterns);
  for (size_t p = 0; p < num_patterns; ++p) {
    columns[p] = set.ColumnOf(p);
  }
  std::vector<std::vector<int64_t>> out;
  out.reserve(set.num_rows());
  for (size_t r = 0; r < set.num_rows(); ++r) {
    const std::span<const EventView> row = set.Row(r);
    std::vector<int64_t>& ids = out.emplace_back();
    for (int c : columns) {
      ids.push_back(c >= 0 ? row[static_cast<size_t>(c)].id() : -1);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(MultieventOracleTest, EveryConfigurationBindsTheReferenceTuples) {
  // A two-partition decode cache so the archived tier evicts and re-decodes
  // mid-run.
  Database hot;
  Database archived{DatabaseOptions{.archive_after_days = 0, .decode_cache_partitions = 2}};
  BuildTrace(&hot);
  BuildTrace(&archived);
  ASSERT_GT(archived.Footprint().archived_partitions, 1u);
  // The same events sharded over three segments by each distribution policy;
  // a cluster scans on its own pool, so it runs at parallelism 1 only.
  MppCluster round_robin(3, DistributionPolicy::kArrivalRoundRobin);
  MppCluster semantics(3, DistributionPolicy::kSemanticsAware);
  round_robin.BuildFrom(hot);
  semantics.BuildFrom(hot);
  ThreadPool pool(7);

  Rng rng(42);
  const Shape shapes[] = {Shape::kPair, Shape::kLonePair, Shape::kChain, Shape::kCycle,
                          Shape::kLoneThird};
  size_t nonempty = 0, queries = 0;
  uint64_t pooled_partitions = 0;
  for (int round = 0; round < 8; ++round) {
    for (Shape shape : shapes) {
      const std::string text = RandomQuery(&rng, shape);
      SCOPED_TRACE(text);
      Result<QueryContext> ctx = CompileQuery(text);
      ASSERT_TRUE(ctx.ok()) << ctx.error();
      const size_t n = ctx.value().patterns.size();
      ++queries;
      const std::vector<std::vector<int64_t>> want_hot = ReferenceMultievent(hot, ctx.value());
      const std::vector<std::vector<int64_t>> want_archived =
          ReferenceMultievent(archived, ctx.value());
      nonempty += !want_hot.empty();
      struct Target {
        std::string name;
        const EventStore* store;
        const std::vector<std::vector<int64_t>>* want;
        size_t max_parallelism;
      };
      const Target targets[] = {
          {"hot", &hot, &want_hot, 8},
          {"archived", &archived, &want_archived, 8},
          {DistributionPolicyName(round_robin.policy()), &round_robin, &want_hot, 1},
          {DistributionPolicyName(semantics.policy()), &semantics, &want_hot, 1},
      };
      for (const Target& target : targets) {
        for (SchedulerKind scheduler : {SchedulerKind::kRelationship,
                                        SchedulerKind::kFetchFilter, SchedulerKind::kBigJoin}) {
          for (RelationshipOrdering ordering :
               {RelationshipOrdering::kCost, RelationshipOrdering::kPaper,
                RelationshipOrdering::kNone}) {
            for (bool pushdown : {true, false}) {
              for (size_t parallelism : {size_t{1}, size_t{8}}) {
                if (parallelism > target.max_parallelism) {
                  continue;
                }
                SCOPED_TRACE(std::string(SchedulerKindName(scheduler)) + " " + target.name +
                             " ordering=" + RelationshipOrderingName(ordering) +
                             (pushdown ? " pushdown" : " no-pushdown") +
                             " parallelism=" + std::to_string(parallelism));
                const ExecOptions options{.scheduler = scheduler,
                                          .pushdown = pushdown,
                                          .ordering = ordering,
                                          .parallelism = parallelism};
                ExecutionSession session;
                Result<TupleSet> got =
                    ExecuteMultievent(*target.store, ctx.value(), options,
                                      parallelism > 1 ? &pool : nullptr, &session);
                ASSERT_TRUE(got.ok()) << got.error();
                EXPECT_EQ(got.value().patterns().size(), n);
                EXPECT_EQ(IdTuples(got.value(), n), *target.want);
                pooled_partitions += session.stats.scan.parallel_morsels;
              }
            }
          }
        }
      }
    }
  }
  // The generator must not degenerate into queries that match nothing.
  EXPECT_GE(nonempty * 2, queries);
  // Pooled scans ran: some fetch queued two or more partitions on a pool.
  EXPECT_GT(pooled_partitions, 0u);
}

}  // namespace
}  // namespace aiql
