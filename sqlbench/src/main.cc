// sqlbench: gpudb's end-to-end SQL benchmark.
//
// One client thread drives a seeded statement cycle through
// sql::Session::Execute in a closed loop over db/datagen tables, checks every
// answer against a CPU oracle, and prints its metrics as one JSON line.
//
//   sqlbench --workload select_hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports per-layer
// metrics from spans the benchmark records around its own calls into each
// module's public functions (on a private Tracer; nothing inside src/ is
// instrumented): a traced first cycle, the same cycle untraced for the
// tracing overhead, then timed re-executions through the executors.
// See README.md for the workloads and the metric table.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "probe.h"
#include "src/common/metrics.h"
#include "src/common/query_log.h"
#include "src/common/trace.h"
#include "src/db/catalog.h"
#include "src/db/datagen.h"
#include "src/db/sharding.h"
#include "src/gpu/device_pool.h"
#include "src/gpu/perf_model.h"
#include "src/sql/admission.h"
#include "src/sql/session.h"
#include "workload.h"

namespace sqlbench {
namespace {

using gpudb::Result;
using gpudb::Status;
using Clock = std::chrono::steady_clock;
namespace gpu = gpudb::gpu;
namespace sql = gpudb::sql;

/// Pixel engines per device. With one engine a device runs every pass
/// inline on the calling thread, so each workload keeps one core busy
/// (pool shards run one after another). On a shared host, a pass split
/// over several engine threads waits for whichever of them another tenant
/// has preempted. In interleaved runs under the same contention, the
/// seed-to-seed spread of select_hot's qps, p50 and p95 was 4-5% with 1
/// engine against 30-54% with 2.
constexpr int kEngineThreads = 1;
/// Threads of the host probe's parallel scalar loop: the reference host's
/// core count.
constexpr int kHostCores = 4;
/// select_churn's video memory per million flows rows: 16 MiB at full size,
/// below the ~44 MB of textures the cycle touches (scaled down with the
/// tables so the smoke check's small tables thrash too).
constexpr uint64_t kChurnVramBytes = uint64_t{16} << 20;
/// select_churn reloads flows (a catalog version bump) this often.
constexpr size_t kChurnBumpEvery = 8;
/// Cycles a timed run completes at least, whatever --seconds says: at least
/// 216 statements, so at least 10 samples lie above the run's p95.
constexpr size_t kMinCycles = 3;
/// materialize_pool: 2 devices, 4 shards with R=2 replicas.
constexpr int kPoolDevices = 2;
constexpr int kPoolShards = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 7;

struct Options {
  std::string workload_name;
  WorkloadKind workload = WorkloadKind::kSelectHot;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t flows_rows = 1000000;
  size_t census_rows = 360000;
  std::string trace_out;
};

size_t CycleLength(WorkloadKind w) {
  switch (w) {
    case WorkloadKind::kAggregateScan: return 72;
    case WorkloadKind::kMaterializePool: return 128;
    default: return 192;
  }
}

/// Length of the workload's template rotation. Timed loops stop only at a
/// rotation boundary, so every run measures the same statement mix.
size_t RotationLength(WorkloadKind w) {
  switch (w) {
    case WorkloadKind::kAggregateScan: return 8;
    case WorkloadKind::kMaterializePool: return 16;
    default: return 24;
  }
}

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of `sorted`.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

// --- The system under test -------------------------------------------------

/// One complete set-up: tables, catalog, session device, optional pool and
/// admission controller, and the session. Member order is destruction order
/// in reverse: the session goes first, the tables last.
struct World {
  gpudb::db::Table flows;
  gpudb::db::Table census;
  std::unique_ptr<gpu::Device> device;
  std::unique_ptr<gpu::DevicePool> pool;
  std::unique_ptr<sql::AdmissionController> admission;
  gpudb::db::Catalog catalog;
  std::unique_ptr<sql::Session> session;

  std::vector<const gpudb::db::Table*> tables() const {
    return {&flows, &census};
  }
  /// The session device, then every pool device.
  std::vector<gpu::Device*> devices() {
    std::vector<gpu::Device*> out = {device.get()};
    for (int i = 0; pool != nullptr && i < pool->size(); ++i) {
      out.push_back(&pool->device(i));
    }
    return out;
  }
};

uint32_t Rows(size_t n, uint32_t width) {
  return static_cast<uint32_t>((n + width - 1) / width);
}

Status BuildWorld(const Options& o, World* w, double* datagen_s) {
  const auto t0 = Clock::now();
  GPUDB_ASSIGN_OR_RETURN(
      w->flows, gpudb::db::MakeTcpIpTable(o.flows_rows, 20040613 + o.seed));
  GPUDB_ASSIGN_OR_RETURN(
      w->census, gpudb::db::MakeCensusTable(o.census_rows, 19940301 + o.seed));
  *datagen_s = NsSince(t0) / 1e9;

  constexpr uint32_t kWidth = 1000;
  w->device = std::make_unique<gpu::Device>(
      kWidth, Rows(std::max(o.flows_rows, o.census_rows), kWidth));
  GPUDB_RETURN_NOT_OK(w->device->SetWorkerThreads(kEngineThreads));
  if (o.workload == WorkloadKind::kSelectChurn) {
    GPUDB_RETURN_NOT_OK(w->device->SetVideoMemoryBudget(
        kChurnVramBytes * o.flows_rows / 1000000));
  }
  GPUDB_RETURN_NOT_OK(w->catalog.Register(kTableNames[kFlows], &w->flows));
  GPUDB_RETURN_NOT_OK(w->catalog.Register(kTableNames[kCensus], &w->census));
  w->session = std::make_unique<sql::Session>(w->device.get(), &w->catalog);
  gpudb::core::PlanOptions plan;
  plan.plane_cache = o.workload == WorkloadKind::kSelectHot ||
                     o.workload == WorkloadKind::kSelectChurn;
  w->session->set_plan_options(plan);

  if (o.workload == WorkloadKind::kMaterializePool) {
    gpu::DevicePoolOptions po;
    po.devices = kPoolDevices;
    po.width = kWidth;
    po.height = Rows((o.flows_rows + kPoolShards - 1) / kPoolShards, kWidth);
    po.worker_threads = kEngineThreads;
    GPUDB_ASSIGN_OR_RETURN(w->pool, gpu::DevicePool::Make(po));
    // Sized so one client is never queued or shed.
    sql::AdmissionOptions ao;
    ao.max_concurrent = kPoolDevices;
    ao.queue_capacity = 16;
    w->admission = std::make_unique<sql::AdmissionController>(ao);
    w->session->SetDevicePool(w->pool.get(), kPoolShards);
    w->session->set_admission(w->admission.get());
  }
  return Status::OK();
}

/// Makes every texture and depth plane the cycle touches resident with cheap
/// COUNT(*) statements: one per column of each table the cycle reads, one
/// per attribute pair it compares. Set-up therefore does the same work for
/// every seed.
Status WarmUp(World& w, const std::vector<Statement>& stmts) {
  std::set<std::string> warm_up;
  for (const Statement& s : stmts) {
    const gpudb::db::Table& t = *w.tables()[s.table];
    const auto name = [&t](int c) {
      return t.column(static_cast<size_t>(c)).name();
    };
    const std::string prefix =
        std::string("SELECT COUNT(*) FROM ") + kTableNames[s.table] + " WHERE ";
    for (size_t c = 0; c < t.num_columns(); ++c) {
      warm_up.insert(prefix + name(static_cast<int>(c)) + " >= 0");
    }
    for (const Leaf& l : s.where.leaves) {
      if (l.kind == Leaf::Kind::kAttr) {
        warm_up.insert(prefix + name(l.col) + " < " + name(l.col2));
      }
    }
  }
  for (const std::string& sql : warm_up) {
    GPUDB_RETURN_NOT_OK(w.session->Execute(sql).status());
  }
  return Status::OK();
}

// --- Device-counter accounting ---------------------------------------------

constexpr uint64_t gpu::DeviceCounters::*kScalarCounters[] = {
    &gpu::DeviceCounters::passes,
    &gpu::DeviceCounters::fragments_generated,
    &gpu::DeviceCounters::fragments_passed,
    &gpu::DeviceCounters::fp_instructions_executed,
    &gpu::DeviceCounters::depth_writes,
    &gpu::DeviceCounters::stencil_updates,
    &gpu::DeviceCounters::occlusion_readbacks,
    &gpu::DeviceCounters::bytes_uploaded,
    &gpu::DeviceCounters::bytes_read_back,
    &gpu::DeviceCounters::texture_swap_ins,
    &gpu::DeviceCounters::bytes_swapped,
    &gpu::DeviceCounters::fused_passes,
    &gpu::DeviceCounters::plane_cache_hits,
    &gpu::DeviceCounters::plane_cache_misses,
};

/// A device's counters at one instant, without copying its pass log (which
/// grows with every pass the device has ever run).
struct Mark {
  gpu::DeviceCounters head;
  size_t log_size = 0;
};

std::vector<Mark> MarkAll(World& w) {
  std::vector<Mark> marks;
  for (gpu::Device* d : w.devices()) {
    Mark m;
    for (auto f : kScalarCounters) m.head.*f = d->counters().*f;
    m.log_size = d->counters().pass_log.size();
    marks.push_back(std::move(m));
  }
  return marks;
}

/// Work done across the session device and every pool device.
struct Work {
  gpu::DeviceCounters sum;    ///< scalar counters summed over devices
  double model_ms = 0.0;      ///< PerfModel ms summed over devices
  double pool_model_ms = 0.0; ///< the pool devices' share of model_ms

  void Add(const Work& o) {
    for (auto f : kScalarCounters) sum.*f += o.sum.*f;
    model_ms += o.model_ms;
    pool_model_ms += o.pool_model_ms;
  }
};

Work Since(World& w, const std::vector<Mark>& marks) {
  Work work;
  const std::vector<gpu::Device*> devs = w.devices();
  const gpu::PerfModel model;
  for (size_t i = 0; i < devs.size(); ++i) {
    const gpu::DeviceCounters& now = devs[i]->counters();
    gpu::DeviceCounters d;
    for (auto f : kScalarCounters) {
      d.*f = now.*f - marks[i].head.*f;
      work.sum.*f += d.*f;
    }
    d.pass_log.assign(
        now.pass_log.begin() + static_cast<std::ptrdiff_t>(marks[i].log_size),
        now.pass_log.end());
    const double ms = model.Estimate(d).TotalMs();
    work.model_ms += ms;
    if (i > 0) work.pool_model_ms += ms;
  }
  return work;
}

// --- Measurement -----------------------------------------------------------

struct Tally {
  size_t attempted = 0;
  size_t failed = 0;
  std::string first_error;

  void Check(const Statement& s, const Answer& want,
             const Result<Answer>& got) {
    ++attempted;
    if (!got.ok()) {
      Fail(s, got.status().ToString());
    } else if (!SameAnswer(s, want, got.ValueOrDie())) {
      Fail(s, "answer differs from the CPU oracle");
    }
  }
  void Fail(const Statement& s, const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = s.sql + ": " + why;
  }
};

Result<Answer> ToAnswer(const Result<sql::QueryResult>& r) {
  if (!r.ok()) return r.status();
  return FromResult(r.ValueOrDie());
}

/// Before statement `n` of a run: select_churn models a reload of flows.
Status BeforeStatement(const Options& o, World& w, size_t n) {
  if (o.workload == WorkloadKind::kSelectChurn &&
      n % kChurnBumpEvery == kChurnBumpEvery - 1) {
    return w.catalog.BumpTableVersion(kTableNames[kFlows]);
  }
  return Status::OK();
}

struct LoopResult {
  Tally tally;
  double wall_s = 0.0;
  std::vector<double> latency_ms;
  Work first_cycle;  ///< work of statements [0, cycle length)
};

/// The untraced closed loop: Session::Execute only, timed per statement.
Result<LoopResult> RunLoop(const Options& o, World& w,
                           const std::vector<Statement>& stmts,
                           const std::vector<Answer>& answers, double seconds,
                           size_t min_statements) {
  LoopResult out;
  const std::vector<Mark> marks = MarkAll(w);
  const auto start = Clock::now();
  for (size_t n = 0;; ++n) {
    if (n >= min_statements && n % RotationLength(o.workload) == 0 &&
        NsSince(start) >= seconds * 1e9) {
      break;
    }
    const size_t i = n % stmts.size();
    GPUDB_RETURN_NOT_OK(BeforeStatement(o, w, n));
    const auto t0 = Clock::now();
    Result<sql::QueryResult> r = w.session->Execute(stmts[i].sql);
    out.latency_ms.push_back(NsSince(t0) / 1e6);
    out.tally.Check(stmts[i], answers[i], ToAnswer(r));
    if (n + 1 == stmts.size()) out.first_cycle = Since(w, marks);
  }
  out.wall_s = NsSince(start) / 1e9;
  return out;
}

/// Per-layer samples gathered by the traced loop.
struct Layers {
  std::vector<double> parse_ns, overhead_ns, queue_ms, readback_ns,
      pool_ratio;
  std::map<OpClass, std::vector<double>> exec_ns;
  // Over the first cycle only, so they repeat per seed.
  Work work;
  uint64_t shards = 0;  ///< shards of the statements the pool served
  uint64_t fell_back = 0, evictions = 0, failovers = 0;
};

/// Mirrors Session::RunPooled: the pooled statement's direct executor call.
Result<sql::QueryResult> RunPooledDirect(gpudb::core::PoolExecutor* pe,
                                         const sql::Query& q) {
  sql::QueryResult r;
  r.kind = q.kind;
  switch (q.kind) {
    case sql::Query::Kind::kCount: {
      GPUDB_ASSIGN_OR_RETURN(r.count, pe->Count(q.where));
      return r;
    }
    case sql::Query::Kind::kAggregate: {
      GPUDB_ASSIGN_OR_RETURN(r.scalar,
                             pe->Aggregate(q.aggregate, q.column, q.where));
      return r;
    }
    case sql::Query::Kind::kSelectRows: {
      GPUDB_ASSIGN_OR_RETURN(r.row_ids, pe->SelectRowIds(q.where));
      if (q.limit > 0 && r.row_ids.size() > q.limit) r.row_ids.resize(q.limit);
      return r;
    }
    default:
      return Status::InvalidArgument("statement is not poolable");
  }
}

Result<sql::QueryResult> RunClassicDirect(gpudb::core::Executor* exec,
                                          const sql::Query& q) {
  sql::QueryResult r;
  GPUDB_RETURN_NOT_OK(sql::ExecuteParsed(exec, q, &r));
  return r;
}

/// Times `fn` inside a span named `name` on the benchmark's tracer.
template <typename F>
double Timed(gpudb::Tracer* tracer, const char* name, F&& fn) {
  gpudb::TraceSpan span(name, tracer);
  const auto t0 = Clock::now();
  fn();
  const double ns = NsSince(t0);
  span.AddTag("ns", ns);
  return ns;
}

/// The traced loop. Per statement it times a parse and the
/// Session::Execute call. Without `reexecute` it runs exactly one cycle,
/// the run's first, and takes device-counter deltas around each Execute:
/// its counters and its texture and plane-cache state are those of the
/// untraced run's first cycle. With `reexecute` it runs whole rotations
/// for `seconds` (at least one rotation), and after each Execute times a
/// direct call into the executor the session would use; on the pool
/// workload also the same statement on a classic single-device executor
/// and a stencil readback. Those re-executions change texture residency
/// and cache contents, hence the two phases.
Result<LoopResult> RunTracedLoop(const Options& o, World& w,
                                 const std::vector<Statement>& stmts,
                                 const std::vector<Answer>& answers,
                                 bool reexecute, double seconds,
                                 gpudb::Tracer* tracer, Layers* layers) {
  LoopResult out;
  gpudb::MetricsRegistry& registry = gpudb::MetricsRegistry::Global();
  const uint64_t fell_back0 = registry.counter("queries.fell_back").value();
  const uint64_t evictions0 = registry.counter("plancache.evictions").value();
  const uint64_t failovers0 = w.pool != nullptr ? w.pool->failovers() : 0;
  const std::vector<const gpudb::db::Table*> tables = w.tables();
  const size_t rotation = RotationLength(o.workload);
  const auto start = Clock::now();
  for (size_t n = 0;; ++n) {
    if (reexecute ? n >= rotation && n % rotation == 0 &&
                        NsSince(start) >= seconds * 1e9
                  : n == stmts.size()) {
      break;
    }
    const size_t i = n % stmts.size();
    const Statement& s = stmts[i];
    GPUDB_RETURN_NOT_OK(BeforeStatement(o, w, n));
    gpudb::TraceSpan root("statement", tracer);
    root.AddTag("class", std::string(OpClassName(s.op_class)));
    root.AddTag("index", static_cast<uint64_t>(i));

    Result<sql::Query> query = Status::Internal("unparsed");
    const double parse_ns = Timed(tracer, "sql.parse", [&] {
      query = sql::ParseQuery(s.sql, *tables[s.table]);
    });
    layers->parse_ns.push_back(parse_ns);

    const std::vector<Mark> marks = MarkAll(w);
    gpudb::QueryLog::Global().Clear();
    Result<sql::QueryResult> r = Status::Internal("not run");
    const double exec_ns = Timed(tracer, "sql.session_execute",
                                 [&] { r = w.session->Execute(s.sql); });
    out.latency_ms.push_back(exec_ns / 1e6);
    out.tally.Check(s, answers[i], ToAnswer(r));
    const std::vector<gpudb::QueryLogEntry> log =
        gpudb::QueryLog::Global().Entries();
    if (!log.empty()) layers->queue_ms.push_back(log.back().queue_ms);
    if (!query.ok()) {
      out.tally.Fail(s, query.status().ToString());
      continue;
    }
    const sql::Query& q = query.ValueOrDie();
    if (!reexecute) {
      layers->work.Add(Since(w, marks));
      // The session logs a pool device for a statement the pool served,
      // and -1 for one it ran on the session device.
      if (!log.empty() && log.back().device_id >= 0) {
        GPUDB_ASSIGN_OR_RETURN(
            gpudb::core::PoolExecutor * pe,
            w.session->PoolExecutorFor(kTableNames[s.table]));
        layers->shards += pe->sharded().num_shards();
      }
      continue;
    }

    GPUDB_ASSIGN_OR_RETURN(gpudb::core::Executor * classic,
                           w.session->ExecutorFor(kTableNames[s.table]));
    Result<sql::QueryResult> direct = Status::Internal("not run");
    double direct_ns = 0.0;
    if (w.pool != nullptr) {
      GPUDB_ASSIGN_OR_RETURN(gpudb::core::PoolExecutor * pe,
                             w.session->PoolExecutorFor(kTableNames[s.table]));
      direct_ns = Timed(tracer, "core.pool_exec",
                        [&] { direct = RunPooledDirect(pe, q); });
      Result<sql::QueryResult> single = Status::Internal("not run");
      const double classic_ns = Timed(tracer, "core.classic_exec", [&] {
        single = RunClassicDirect(classic, q);
      });
      out.tally.Check(s, answers[i], ToAnswer(single));
      layers->pool_ratio.push_back(direct_ns / classic_ns);
      if (q.kind == sql::Query::Kind::kSelectRows) {
        GPUDB_ASSIGN_OR_RETURN(gpudb::core::StencilSelection sel,
                               classic->Where(q.where));
        (void)sel;
        Result<std::vector<uint8_t>> stencil = Status::Internal("not run");
        layers->readback_ns.push_back(Timed(tracer, "gpu.read_stencil", [&] {
          stencil = classic->device().ReadStencil();
        }));
        GPUDB_RETURN_NOT_OK(stencil.status());
      }
    } else {
      direct_ns = Timed(tracer, "core.exec",
                        [&] { direct = RunClassicDirect(classic, q); });
    }
    out.tally.Check(s, answers[i], ToAnswer(direct));
    layers->exec_ns[s.op_class].push_back(direct_ns);
    layers->overhead_ns.push_back(exec_ns - parse_ns - direct_ns);
  }
  out.wall_s = NsSince(start) / 1e9;
  if (!reexecute) {
    layers->fell_back =
        registry.counter("queries.fell_back").value() - fell_back0;
    layers->evictions =
        registry.counter("plancache.evictions").value() - evictions0;
    layers->failovers =
        w.pool != nullptr ? w.pool->failovers() - failovers0 : 0;
  }
  return out;
}

// --- Output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}";
}

double RssPeakMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool ParseArgs(int argc, char** argv, Options* o, std::string* err) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *err = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o->workload_name = value;
      have_workload = ParseWorkload(value, &o->workload);
      if (!have_workload) {
        *err = "unknown workload '" + value + "'";
        return false;
      }
      continue;
    }
    if (flag == "--trace-out") {
      o->trace_out = value;
      continue;
    }
    const double x = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || x < 0) {
      *err = "bad value for " + flag + ": '" + value + "'";
      return false;
    }
    if (flag == "--seed") {
      o->seed = static_cast<uint64_t>(x);
    } else if (flag == "--seconds") {
      o->seconds = x;
    } else if (flag == "--trace") {
      o->trace = x != 0;
    } else if (flag == "--flows-rows") {
      o->flows_rows = static_cast<size_t>(x);
    } else if (flag == "--census-rows") {
      o->census_rows = static_cast<size_t>(x);
    } else {
      *err = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload) *err = "--workload is required";
  return have_workload;
}

int Fail(const Status& st) {
  std::fprintf(stderr, "sqlbench: %s\n", st.ToString().c_str());
  return 1;
}

int Run(const Options& o) {
  const size_t cycle = CycleLength(o.workload);

  // Set-up, several times; the last world is the one measured.
  std::unique_ptr<World> world;
  std::vector<Statement> stmts;
  std::vector<double> setup_s, datagen_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    world.reset();
    world = std::make_unique<World>();
    const auto t0 = Clock::now();
    double gen_s = 0.0;
    Status st = BuildWorld(o, world.get(), &gen_s);
    double client_ns = 0.0;
    if (st.ok() && stmts.empty()) {
      const auto g0 = Clock::now();
      stmts = MakeStatements(o.workload, world->tables(), o.seed ^ 0x5bd1e995u,
                             cycle);
      client_ns = NsSince(g0);
    }
    if (st.ok()) st = WarmUp(*world, stmts);
    if (!st.ok()) {
      std::fprintf(stderr, "sqlbench: set-up failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    setup_s.push_back((NsSince(t0) - client_ns) / 1e9);
    datagen_s.push_back(gen_s);
  }
  World& w = *world;

  // The oracle's answers, computed once per statement of the cycle.
  std::vector<Answer> answers;
  std::map<OpClass, std::vector<double>> cpu_ns;
  for (const Statement& s : stmts) {
    const auto t0 = Clock::now();
    Result<Answer> a = Oracle(w.tables(), s);
    cpu_ns[s.op_class].push_back(NsSince(t0));
    if (!a.ok()) {
      std::fprintf(stderr, "sqlbench: oracle failed on '%s': %s\n",
                   s.sql.c_str(), a.status().ToString().c_str());
      return 1;
    }
    answers.push_back(a.ValueOrDie());
  }

  std::vector<Metric> metrics;
  HostProbe host;
  Tally tally;
  double pool_model_ms = 0.0;
  size_t samples = 0;
  if (!o.trace) {
    Result<LoopResult> run =
        RunLoop(o, w, stmts, answers, o.seconds, kMinCycles * cycle);
    if (!run.ok()) return Fail(run.status());
    LoopResult& r = run.ValueOrDie();
    // Read before the host probe, whose buffers would otherwise set the peak.
    const double rss_peak_mb = RssPeakMb();
    host = MeasureHost(kHostCores);
    tally = r.tally;
    samples = r.latency_ms.size();
    // Whole-run figures: the host has slow and fast periods of seconds to
    // minutes, and a long run averages over those it spans.
    std::vector<double>& lat = r.latency_ms;
    std::sort(lat.begin(), lat.end());
    pool_model_ms = r.first_cycle.pool_model_ms / static_cast<double>(cycle);
    const double n = static_cast<double>(r.tally.attempted);
    metrics = {
        {"qps", static_cast<double>(samples) / r.wall_s, "1/s"},
        {"latency_p50_ms", Percentile(lat, 0.50), "ms"},
        {"latency_p95_ms", Percentile(lat, 0.95), "ms"},
        {"model_ms_per_query",
         r.first_cycle.model_ms / static_cast<double>(cycle), "ms"},
        {"ok_frac", 1.0 - r.tally.failed / n, "fraction"},
        {"setup_s", Median(setup_s), "s"},
        {"rss_peak_mb", rss_peak_mb, "MB"},
    };
  } else {
    gpudb::Tracer tracer;
    tracer.set_enabled(true);
    Layers layers;
    // The traced first cycle, then the same cycle untraced for the tracing
    // overhead, then the re-executions for the rest of the run.
    Result<LoopResult> first = RunTracedLoop(o, w, stmts, answers, false, 0.0,
                                             &tracer, &layers);
    if (!first.ok()) return Fail(first.status());
    Result<LoopResult> plain = RunLoop(o, w, stmts, answers, 0.0, cycle);
    if (!plain.ok()) return Fail(plain.status());
    const LoopResult& f = first.ValueOrDie();
    const LoopResult& p = plain.ValueOrDie();
    // The classic executor the pool workload compares against.
    if (w.pool != nullptr) {
      Result<gpudb::core::Executor*> e = w.session->ExecutorFor("flows");
      if (!e.ok()) return Fail(e.status());
      for (size_t c = 0; c < w.flows.num_columns(); ++c) {
        const Status st = e.ValueOrDie()->BindingFor(c).status();
        if (!st.ok()) return Fail(st);
      }
    }
    Result<LoopResult> traced =
        RunTracedLoop(o, w, stmts, answers, true,
                      o.seconds - f.wall_s - p.wall_s, &tracer, &layers);
    if (!traced.ok()) return Fail(traced.status());
    const LoopResult& t = traced.ValueOrDie();

    Result<gpudb::core::Executor*> flows_exec = w.session->ExecutorFor("flows");
    if (!flows_exec.ok()) return Fail(flows_exec.status());
    Result<KernelProbe> kernels = MeasureKernels(flows_exec.ValueOrDie());
    if (!kernels.ok()) return Fail(kernels.status());
    const KernelProbe& k = kernels.ValueOrDie();
    std::vector<double> shard_ms;
    for (int r = 0; r < 3; ++r) {
      const auto t0 = Clock::now();
      Result<gpudb::db::ShardedTable> sharded =
          gpudb::db::ShardedTable::Make(w.flows, kPoolShards, kPoolDevices);
      shard_ms.push_back(NsSince(t0) / 1e6);
      if (!sharded.ok()) return Fail(sharded.status());
    }
    double vram_bytes = 0.0;
    for (gpu::Device* d : w.devices()) {
      vram_bytes += static_cast<double>(d->video_memory_used());
    }
    // Last, because it leaves fresh textures on the session device.
    Result<double> upload_ms_per_mb = MeasureUpload(w.device.get(), w.flows);
    if (!upload_ms_per_mb.ok()) return Fail(upload_ms_per_mb.status());
    host = MeasureHost(kHostCores);
    for (const LoopResult* l : {&f, &p, &t}) {
      tally.attempted += l->tally.attempted;
      tally.failed += l->tally.failed;
      if (tally.first_error.empty()) tally.first_error = l->tally.first_error;
    }
    samples = f.latency_ms.size() + t.latency_ms.size();
    const Work& work = layers.work;
    const gpu::DeviceCounters& c = work.sum;
    const double q = static_cast<double>(cycle);
    pool_model_ms = work.pool_model_ms / q;
    const auto exec_ms = [&](OpClass cls) {
      return Median(layers.exec_ns[cls]) / 1e6;
    };
    const auto cpu_ratio = [&](OpClass cls) {
      return Ratio(Median(layers.exec_ns[cls]), Median(cpu_ns[cls]));
    };
    const double lookups =
        static_cast<double>(c.plane_cache_hits + c.plane_cache_misses);
    metrics = {
        {"sql.parse_us", Median(layers.parse_ns) / 1e3, "us"},
        {"sql.session_overhead_us", Median(layers.overhead_ns) / 1e3, "us"},
        {"admission.queue_ms", Median(layers.queue_ms), "ms"},
    };
    for (int cls = 0; cls < kNumOpClasses; ++cls) {
      const auto oc = static_cast<OpClass>(cls);
      metrics.push_back({"core.exec_ms." + std::string(OpClassName(oc)),
                         exec_ms(oc), "ms"});
    }
    const std::vector<Metric> rest = {
        {"core.passes_per_query", c.passes / q, "count"},
        {"core.fused_pass_frac", Ratio(c.fused_passes, c.passes), "fraction"},
        {"core.cpu_fallbacks", static_cast<double>(layers.fell_back), "count"},
        {"gpu.fragments_per_query", c.fragments_generated / q, "count"},
        {"gpu.fp_instructions_per_query", c.fp_instructions_executed / q,
         "count"},
        {"gpu.ns_per_fragment.fixed", k.ns_per_fragment_fixed, "ns"},
        {"gpu.ns_per_fragment.program", k.ns_per_fragment_program, "ns"},
        {"gpu.plane_gbps", k.plane_gbps, "GB/s"},
        {"gpu.roofline_frac", Ratio(k.plane_gbps, host.copy_gbps),
         "fraction"},
        {"gpu.band_imbalance", k.band_imbalance, "ratio"},
        {"gpu.occlusion_readbacks_per_query", c.occlusion_readbacks / q,
         "count"},
        {"gpu.readback_ms", Median(layers.readback_ns) / 1e6, "ms"},
        {"gpu.bytes_read_back_per_query", c.bytes_read_back / q, "B"},
        {"gpu.upload_ms_per_mb", *upload_ms_per_mb, "ms/MB"},
        {"gpu.swap_ins_per_query", c.texture_swap_ins / q, "count"},
        {"gpu.vram_resident_mb", vram_bytes / 1e6, "MB"},
        {"plancache.hit_rate", Ratio(c.plane_cache_hits, lookups), "fraction"},
        {"plancache.lookups", lookups, "count"},
        {"plancache.evictions", static_cast<double>(layers.evictions),
         "count"},
        {"pool.shards_per_query", layers.shards / q, "count"},
        {"pool.failovers", static_cast<double>(layers.failovers), "count"},
        {"pool.overhead_ratio", Median(layers.pool_ratio), "ratio"},
        {"db.datagen_s", Median(datagen_s), "s"},
        {"db.shard_build_ms", Median(shard_ms), "ms"},
        {"cpu.wall_ratio.count", cpu_ratio(OpClass::kCount), "ratio"},
        {"cpu.wall_ratio.kth", cpu_ratio(OpClass::kKth), "ratio"},
        {"cpu.wall_ratio.sum", cpu_ratio(OpClass::kSum), "ratio"},
        {"host.copy_gbps", host.copy_gbps, "GB/s"},
        {"host.scalar_ns_per_op", host.scalar_ns_per_op, "ns"},
        {"host.cores_available", host.cores_available, "count"},
        {"trace.overhead_frac", 1.0 - Ratio(p.wall_s, f.wall_s), "fraction"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
    if (!o.trace_out.empty()) {
      std::ofstream(o.trace_out)
          << gpudb::Tracer::ToChromeTrace(tracer.Finished());
    }
  }

  std::string setup_list;
  for (double x : setup_s) {
    setup_list += (setup_list.empty() ? "" : ", ") + Num(x);
  }
  const bool correct = tally.failed == 0;
  const double failed_frac =
      tally.attempted > 0 ? static_cast<double>(tally.failed) / tally.attempted
                          : 1.0;
  std::printf(
      "detail {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"result\": \"%s\", \"statements\": %zu, \"cycle\": %zu, "
      "\"latency_samples\": %zu, \"failed_frac\": %s, "
      "\"pool_model_ms_per_query\": %s, \"host.copy_gbps\": %s, "
      "\"host.scalar_ns_per_op\": %s, \"host.cores_available\": %s, "
      "\"setup_s\": [%s], "
      "\"first_error\": \"%s\"}\n",
      o.workload_name.c_str(), static_cast<unsigned long long>(o.seed),
      o.trace ? 1 : 0, correct ? "PASS" : "FAIL", tally.attempted, cycle,
      samples, Num(failed_frac).c_str(), Num(pool_model_ms).c_str(),
      Num(host.copy_gbps).c_str(), Num(host.scalar_ns_per_op).c_str(),
      Num(host.cores_available).c_str(), setup_list.c_str(),
      Escape(tally.first_error).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", tally.attempted, tally.failed,
      MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace sqlbench

int main(int argc, char** argv) {
  sqlbench::Options options;
  std::string err;
  if (!sqlbench::ParseArgs(argc, argv, &options, &err)) {
    std::fprintf(stderr, "sqlbench: %s\n", err.c_str());
    return 2;
  }
  return sqlbench::Run(options);
}
