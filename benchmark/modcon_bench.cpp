// modcon_bench — the measuring program behind the repository benchmark
// (benchmark/run.py, declared by BENCHMARK.json at the repository root).
//
// It runs one named workload through the public analysis API and prints
// one JSON line of raw measurements as the last line of stdout; run.py
// derives the declared metrics from it.  Modes:
//
//   timed  (default) one untimed warm-up launch, then launches of a fixed
//          size until --seconds have passed and at least --launches ran,
//          on --threads workers.  A launch goes from building the grid to
//          its timing-cleared artifact on disk.  Every trial is checked
//          against the §3 predicates its cell guarantees, and the artifact
//          bytes of the warm-up and the first --launches launches are
//          hash-chained into the result digest.
//   setup  the warm-up launch only; run.py times whole processes of it.
//   trace  launch 0 of the workload, single-threaded, through a pipeline
//          that calls each layer's public functions under spans recorded
//          here; prints the per-layer table and the cost model, and writes
//          a Chrome trace_event file.
//
// usage: modcon_bench --workload W [--mode timed|setup|trace] [--seed S]
//                     [--seconds T] [--threads N] [--launches K]
//                     [--scale D] [--out DIR]
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/batch_engine.h"
#include "analysis/experiment.h"
#include "analysis/multi.h"
#include "analysis/shard.h"
#include "check/auditor.h"
#include "core/conciliator/impatient.h"
#include "core/consensus/stack_spec.h"
#include "sim/adversaries/adversaries.h"
#include "util/bits.h"

namespace {

using namespace modcon;
using analysis::json;
using analysis::summary_stats;
using analysis::trial_grid;
using analysis::trial_record;
using sim::sim_env;

std::uint64_t now_ns() { return analysis::perf_now_ns(); }

constexpr std::size_t kShards = 2;  // sharded_merge: in-process shards

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

// What the model guarantees every trial of a cell, and so what is checked.
enum class promise : std::uint8_t {
  terminates,   // register faults void §3: termination and audit only
  conciliator,  // + validity and coherence
  consensus,    // + agreement and every escaped output decided
};

// Which public driver a launch goes through.
enum class driver : std::uint8_t { grid, multi, sharded };

struct workload {
  std::string name;
  driver how = driver::grid;
  std::vector<trial_grid> cells;
  std::vector<promise> promises;  // parallel to cells
  std::vector<analysis::multi_grid> multi_cells;
};

// The cells of one launch of `name`, every cell seeded with `base_seed`,
// trial counts divided by `scale` (the smoke run uses 1/50).
workload make_workload(std::string_view name, std::uint64_t base_seed,
                       std::size_t scale) {
  auto sized = [scale](std::size_t trials) {
    return std::max<std::size_t>(1, trials / scale);
  };
  auto conciliator = [&](std::size_t n, std::size_t trials) {
    return trial_grid{
        .label = "conciliator/n=" + std::to_string(n),
        .build =
            [](address_space& mem, std::size_t) {
              return std::make_unique<impatient_conciliator<sim_env>>(mem);
            },
        .n = n,
        .trials = sized(trials),
        .base_seed = base_seed,
        .keep_records = true,
        .batch_hint = analysis::batch_impatient(),
    };
  };
  auto stack = [&](const char* stack_name, std::size_t n, std::size_t trials) {
    const stack_spec spec = stack_for(stack_name);
    return trial_grid{
        .label = std::string(stack_name) + "/n=" + std::to_string(n),
        .build = stack_builder<sim_env>(spec),
        .n = n,
        .trials = sized(trials),
        .base_seed = base_seed,
        .keep_records = true,
        .batch_hint = analysis::batch_for(spec),
    };
  };

  workload w{.name = std::string(name)};
  auto add = [&w](trial_grid cell, promise p) {
    w.cells.push_back(std::move(cell));
    w.promises.push_back(p);
  };
  if (name == "conciliator_short") {
    add(conciliator(16, 56'000), promise::conciliator);
    add(conciliator(64, 14'000), promise::conciliator);
    add(conciliator(256, 3'500), promise::conciliator);
  } else if (name == "consensus_stack") {
    add(stack("impatient", 16, 24'000), promise::consensus);
    add(stack("impatient", 64, 6'000), promise::consensus);
    add(stack("impatient", 256, 1'500), promise::consensus);
  } else if (name == "scalar_faulted_audited") {
    const analysis::audit_plan audit{.mode = analysis::audit_mode::sample,
                                     .sample_every = 8};
    trial_grid faulted = stack("impatient", 64, 3'600);
    faulted.label = "impatient_faulted/n=64";
    faulted.faults =
        analysis::fault_plan{}.crash(1, 12).restart(0, 8).regular_registers(8);
    faulted.audit = audit;
    add(std::move(faulted), promise::terminates);
    trial_grid bounded = stack("bounded", 64, 3'600);
    bounded.audit = audit;
    add(std::move(bounded), promise::consensus);
  } else if (name == "multishot_slotlog") {
    w.how = driver::multi;
    const std::pair<std::size_t, std::size_t> sizes[] = {{4, 400}, {16, 100}};
    for (const char* s : {"impatient", "bounded"}) {
      for (const auto& [n, trials] : sizes) {
        w.multi_cells.push_back({
            .label = std::string("multi_") + s + "/n=" + std::to_string(n),
            .spec = stack_for(s),
            .n = n,
            .shards = 4,
            .slots = 16,
            .trials = sized(trials),
            .base_seed = base_seed,
        });
      }
    }
  } else if (name == "sharded_merge") {
    w.how = driver::sharded;
    add(conciliator(64, 2'400), promise::conciliator);
    add(stack("impatient", 64, 600), promise::consensus);
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) +
                                "'");
  }
  return w;
}

// ---------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------

// Trials checked, trials that failed a check, and the first few failures.
struct tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void fail(std::string what, std::uint64_t trials = 1) {
    failed += trials;
    if (failures.size() < 8) failures.push_back(std::move(what));
  }
};

// Work a launch completed, for the rates.
struct work {
  std::uint64_t trials = 0;
  std::uint64_t decisions = 0;  // invocations that returned a value
  std::uint64_t steps = 0;      // simulated shared-memory operations
};

// Checks every retained record of a one-shot cell against what the model
// guarantees it, and counts the cell's work.
void check_oneshot(const summary_stats& s, promise p, tally& t, work& w) {
  const bool safety = p != promise::terminates;
  for (const trial_record& r : s.records) {
    ++t.attempted;
    ++w.trials;
    w.steps += r.result.steps;
    w.decisions += r.result.outputs.size() + r.result.crashed_outputs.size();
    const char* why = nullptr;
    if (r.result.status == sim::run_status::step_limit || r.result.timed_out())
      why = "did not terminate";
    else if (safety && !r.valid)
      why = "validity";
    else if (safety && !r.coherent)
      why = "coherence";
    else if (p == promise::consensus && !r.agreement)
      why = "agreement";
    else if (p == promise::consensus && !r.decided_all)
      why = "decision";
    else if (r.result.audit &&
             r.result.audit->status != check::audit_status::clean)
      why = r.result.audit->status == check::audit_status::violated
                ? "audit violated"
                : "audit inconclusive";
    if (why != nullptr)
      t.fail(s.label + " trial " + std::to_string(r.trial_index) + ": " + why);
  }
  if (s.records.size() != s.trials)
    t.fail(s.label + ": records missing", s.trials - s.records.size());
}

// Multi-shot summaries keep counts, not records, so the largest single
// shortfall is what counts as failed: a lower bound when checks overlap.
void check_multi(const summary_stats& s, tally& t, work& w) {
  t.attempted += s.trials;
  w.trials += s.trials;
  w.decisions += s.multi.proposals;
  w.steps += static_cast<std::uint64_t>(
      std::llround(s.steps.mean * static_cast<double>(s.steps.count)));
  const std::size_t shortfall =
      std::max({s.trials - s.completed, s.completed - s.agreed,
                s.completed - s.all_decided, s.trials - s.multi.slots_agreed,
                s.trials - s.multi.slots_valid,
                s.audit_violated + s.audit_inconclusive});
  if (shortfall != 0)
    t.fail(s.label + ": termination, log agreement or per-slot " +
               "agreement/validity failed",
           shortfall);
}

// Deterministic trial_record fields (everything but wall_ms and perf).
bool same_record(const trial_record& a, const trial_record& b,
                 bool with_audit = true) {
  const analysis::trial_result& x = a.result;
  const analysis::trial_result& y = b.result;
  const bool same =
      a.trial_index == b.trial_index && a.seed == b.seed &&
      x.status == y.status && x.outputs == y.outputs &&
      x.halted_pids == y.halted_pids && x.crashed_pids == y.crashed_pids &&
      x.crashed_outputs == y.crashed_outputs &&
      x.restarted_pids == y.restarted_pids &&
      x.recovered_pids == y.recovered_pids && x.restarts == y.restarts &&
      x.recoveries == y.recoveries && x.stale_reads == y.stale_reads &&
      x.omitted_writes == y.omitted_writes &&
      x.overlap_reads == y.overlap_reads &&
      x.volatile_wipes == y.volatile_wipes && x.races == y.races &&
      x.total_ops == y.total_ops &&
      x.max_individual_ops == y.max_individual_ops && x.steps == y.steps &&
      x.registers == y.registers && a.valid == b.valid &&
      a.agreement == b.agreement && a.coherent == b.coherent &&
      a.decided_all == b.decided_all;
  if (!same || !with_audit) return same;
  if (x.audit.has_value() != y.audit.has_value()) return false;
  return !x.audit || (x.audit->status == y.audit->status &&
                      x.audit->events_checked == y.audit->events_checked &&
                      x.audit->violations.size() == y.audit->violations.size());
}

// ---------------------------------------------------------------------
// One launch: grid in, artifact bytes out
// ---------------------------------------------------------------------

struct launch_out {
  std::string artifact;  // timing-cleared JSON, as written to disk
  // One-shot: per cell (shard-major when sharded); multi: per cell.
  std::vector<summary_stats> summaries;
};

analysis::experiment_options engine_options(std::size_t threads) {
  analysis::experiment_options o;
  o.threads = threads;
  o.engine = analysis::engine_kind::auto_select;
  return o;
}

json report_skeleton(const workload& w) {
  return analysis::make_report_skeleton("modcon-benchmark/" + w.name);
}

using shard_out = std::pair<std::vector<summary_stats>, json>;

// One shard of the grid_runner.py + modcon-merge path, in process: run the
// slice, serialize it with its records, and parse it back as the merge
// would read it from disk.
shard_out run_shard(const workload& w, std::size_t index, std::size_t threads) {
  analysis::experiment_options o = engine_options(threads);
  o.shard_index = index;
  o.shard_count = kShards;
  std::vector<summary_stats> sums = analysis::run_experiment_grid(w.cells, o);
  json doc = report_skeleton(w);
  json header = json::object();
  header["index"] = json(index);
  header["count"] = json(kShards);
  doc["shard"] = std::move(header);
  for (std::size_t c = 0; c < sums.size(); ++c) {
    analysis::clear_timing_measurements(sums[c]);
    doc["experiments"].push_back(
        analysis::shard_cell_to_json(sums[c], analysis::meta_of(w.cells[c])));
  }
  return {std::move(sums), json::parse(doc.dump(2))};
}

launch_out run_launch(const workload& w, std::size_t threads) {
  launch_out out;
  json doc = report_skeleton(w);
  switch (w.how) {
    case driver::grid:
      out.summaries =
          analysis::run_experiment_grid(w.cells, engine_options(threads));
      break;
    case driver::multi:
      out.summaries =
          analysis::run_multi_grid(w.multi_cells, engine_options(threads));
      break;
    case driver::sharded: {
      // The shards run at once, as grid_runner.py's processes would, each
      // on its share of the workers.
      const std::size_t per = std::max<std::size_t>(1, threads / kShards);
      std::future<shard_out> second;
      if (threads >= kShards)
        second = std::async(std::launch::async, run_shard, std::cref(w),
                            std::size_t{1}, per);
      shard_out first = run_shard(w, 0, per);
      shard_out other = second.valid() ? second.get() : run_shard(w, 1, per);
      std::vector<json> docs;
      docs.push_back(std::move(first.second));
      docs.push_back(std::move(other.second));
      out.artifact = analysis::merge_shard_reports(docs).dump(2);
      out.summaries = std::move(first.first);
      for (summary_stats& s : other.first) out.summaries.push_back(std::move(s));
      return out;
    }
  }
  for (summary_stats& s : out.summaries) {
    analysis::clear_timing_measurements(s);
    doc["experiments"].push_back(analysis::to_json(s));
  }
  out.artifact = doc.dump(2);
  return out;
}

void verify(const workload& w, const launch_out& out, tally& t, work& wk) {
  for (std::size_t i = 0; i < out.summaries.size(); ++i) {
    if (w.how == driver::multi)
      check_multi(out.summaries[i], t, wk);
    else
      check_oneshot(out.summaries[i], w.promises[i % w.cells.size()], t, wk);
  }
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  f.close();
  if (!f) throw std::runtime_error("cannot write " + path);
}

// FNV-1a over the artifact bytes, chained launch to launch.
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

json failures_json(const tally& t) {
  json arr = json::array();
  for (const std::string& f : t.failures) arr.push_back(json(f));
  return arr;
}

// ---------------------------------------------------------------------
// timed and setup modes
// ---------------------------------------------------------------------

struct options {
  std::string workload;
  std::string mode = "timed";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t threads = 2;
  std::uint64_t launches = 50;
  std::size_t scale = 1;
  std::string out = "build-bench/out";
};

// A run stops launching after this long even if fewer than --launches ran,
// so that a badly regressed build still finishes in bounded time.
constexpr double kMaxTimedSeconds = 120.0;

// The machine-speed reference.  On a shared machine the cores run 20-30%
// slower for minutes at a time, which no statistic over one run's launches
// removes; a fixed kernel timed after every launch slows with them (run.py
// scales the walls by it).  Integer mixing with data-dependent branches
// over an L1-resident table, then a chase through a 256 KiB permutation:
// compute- and cache-bound like the simulator, and built from nothing in
// src/, so no change to modcon can move it.
class speed_reference {
 public:
  speed_reference() : ring_(1U << 16) {
    std::iota(ring_.begin(), ring_.end(), 0U);
    std::uint64_t x = 1;
    for (std::size_t i = ring_.size() - 1; i > 0; --i)
      std::swap(ring_[i], ring_[splitmix64(x) % (i + 1)]);
  }

  // Wall time of the kernel on `threads` threads at once, in ms.
  double time_ms(std::size_t threads) {
    const std::uint64_t t0 = now_ns();
    {
      std::vector<std::jthread> pool;
      for (std::size_t k = 0; k < threads; ++k)
        pool.emplace_back([this, k] { sink_ += kernel(k + 1); });
    }
    return static_cast<double>(now_ns() - t0) / 1e6;
  }

 private:
  std::uint64_t kernel(std::uint64_t seed) const {
    std::uint32_t table[256];
    for (std::uint32_t i = 0; i < 256; ++i) table[i] = i * 2654435761U;
    std::uint64_t h = seed, acc = 0;
    for (int i = 0; i < 800'000; ++i) {
      h ^= h << 13;
      h ^= h >> 7;
      h ^= h << 17;
      if (h & 4)
        acc += table[h & 255];
      else
        acc ^= table[(h >> 8) & 255] * 3;
      if ((h & 0x30) == 0x10) table[h & 255] += static_cast<std::uint32_t>(acc);
    }
    std::uint32_t p = static_cast<std::uint32_t>(seed);
    for (int i = 0; i < 400'000; ++i) {
      p = ring_[p];
      acc += p;
    }
    return acc;
  }

  std::vector<std::uint32_t> ring_;
  std::atomic<std::uint64_t> sink_{0};  // keeps the kernels' work observable
};

int run_timed(const options& o) {
  const std::string path = o.out + "/artifact_" + o.workload + ".json";
  tally t;
  work timed;
  std::uint64_t digest = kFnvBasis;
  // Launch L seeds every cell with derive_trial_seed(seed, L).  Returns its
  // wall time from building the grid to the artifact on disk; the checks
  // run after the clock stops.
  auto launch = [&](std::uint64_t index, work& into) {
    const std::uint64_t t0 = now_ns();
    const workload w = make_workload(
        o.workload, analysis::derive_trial_seed(o.seed, index), o.scale);
    const launch_out out = run_launch(w, o.threads);
    write_file(path, out.artifact);
    const std::uint64_t dt = now_ns() - t0;
    verify(w, out, t, into);
    if (index <= o.launches) digest = fnv1a(digest, out.artifact);
    return dt;
  };

  work warmup;
  launch(0, warmup);
  if (o.mode == "setup") {
    json r = json::object();
    r["mode"] = json("setup");
    r["attempted"] = json(t.attempted);
    r["failed"] = json(t.failed);
    r["failures"] = failures_json(t);
    std::cout << r.dump(-1) << "\n";
    return 0;
  }

  speed_reference reference;
  json launch_ms = json::array(), reference_ms = json::array();
  std::uint64_t done = 0, wall_ns = 0;
  const std::uint64_t start = now_ns();
  for (std::uint64_t index = 1;; ++index) {
    const std::uint64_t dt = launch(index, timed);
    wall_ns += dt;
    launch_ms.push_back(json(static_cast<double>(dt) / 1e6));
    reference_ms.push_back(json(reference.time_ms(o.threads)));
    ++done;
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    if (done >= o.launches && elapsed >= o.seconds) break;
    if (elapsed >= kMaxTimedSeconds) break;
  }
  if (done < o.launches)
    t.fail("only " + std::to_string(done) + " of " +
               std::to_string(o.launches) + " launches finished in " +
               std::to_string(static_cast<int>(kMaxTimedSeconds)) + " s",
           0);

  json r = json::object();
  r["mode"] = json("timed");
  r["workload"] = json(o.workload);
  r["seed"] = json(o.seed);
  r["threads"] = json(o.threads);
  r["scale"] = json(o.scale);
  r["launches"] = json(done);
  r["trials"] = json(timed.trials);
  r["decisions"] = json(timed.decisions);
  r["steps"] = json(timed.steps);
  r["wall_s"] = json(static_cast<double>(wall_ns) / 1e9);
  r["launch_ms"] = std::move(launch_ms);
  r["reference_ms"] = std::move(reference_ms);
  r["peak_rss_mb"] = json(peak_rss_mb());
  r["attempted"] = json(t.attempted);
  r["failed"] = json(t.failed);
  r["failures"] = failures_json(t);
  r["digest"] = json(done >= o.launches ? hex64(digest) : std::string());
  std::cout << r.dump(-1) << "\n";
  return 0;
}

// ---------------------------------------------------------------------
// trace mode: benchmark-side spans
// ---------------------------------------------------------------------

enum class layer : std::uint8_t {
  workload,
  phase,
  launch,
  engine,
  cell,
  trial,
  probe_trial,
  world_ctor,
  build,
  spawn,
  run,
  run_traced,
  extract,
  audit,
  teardown,
  predicates,
  trial_setup,
  reduce,
  batch64,
  batch1,
  multi_trial,
  shard_serialize,
  json_parse,
  shard_merge,
  traced_trial,
  count,
};

struct layer_info {
  const char* name;
  const char* unit;      // what ns/unit divides by
  double unit_scale;     // units per reported unit (bytes per KB)
  bool in_scalar_trial;  // a layer call inside one scalar-engine trial
};

constexpr layer_info kLayers[] = {
    {"bench.workload", "run", 1, false},
    {"bench.phase", "phase", 1, false},
    {"analysis.launch", "launch", 1, false},
    {"analysis.engine", "run", 1, false},
    {"bench.cell", "cell", 1, false},
    {"bench.trial", "trial", 1, false},
    {"bench.probe_trial", "trial", 1, false},
    {"sim.world_ctor", "trial", 1, true},
    {"core.build", "trial", 1, true},
    {"exec.spawn", "trial", 1, true},
    {"sim.run", "step", 1, true},
    {"sim.run_traced", "step", 1, true},
    {"analysis.extract", "trial", 1, true},
    {"check.audit", "event", 1, true},
    {"sim.teardown", "trial", 1, true},
    {"analysis.predicates", "trial", 1, true},
    {"sim.trial_setup", "trial", 1, false},
    {"analysis.reduce", "record", 1, false},
    {"analysis.batch.b64", "trial", 1, false},
    {"analysis.batch.b1", "trial", 1, false},
    {"analysis.multi.trial", "trial", 1, false},
    {"analysis.shard.serialize", "record", 1, false},
    {"analysis.json.parse", "KB", 1024, false},
    {"analysis.shard.merge", "record", 1, false},
    {"obs.traced_trial", "trial", 1, false},
};
constexpr std::size_t kLayerCount = static_cast<std::size_t>(layer::count);
static_assert(std::size(kLayers) == kLayerCount);

const layer_info& info(layer l) { return kLayers[static_cast<std::size_t>(l)]; }

struct layer_stat {
  std::uint64_t self_ns = 0;   // duration minus time covered by child spans
  std::uint64_t total_ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t units = 0;
  bool derived = false;  // from the library's own perf timers, not a span
};
using layer_totals = std::array<layer_stat, kLayerCount>;

// Spans recorded around calls into the libraries (choosing-metrics §4):
// name, start, end, the span that caused it, and the trace id of the
// request it belongs to ("workload/launch/cell/trial").  Self time and
// counts accumulate per layer for every span; span records are kept only
// under spans opened with keep, so the written trace stays small while the
// per-layer table covers every trial.
class tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffU;

  explicit tracer(std::string root_trace) : origin_(now_ns()) {
    traces_.push_back(std::move(root_trace));
  }

  // `label` names the span in the trace file instead of the layer; it is
  // kept by pointer, so it must outlive the tracer (a literal, or a label
  // owned by the workload being traced).
  void open(layer l, const char* label, bool keep, std::string trace_id) {
    frame f;
    f.id = next_id_++;
    f.parent = stack_.empty() ? kNoParent : stack_.back().id;
    f.l = l;
    f.label = label;
    f.keep = keep && (stack_.empty() || stack_.back().keep);
    f.trace = stack_.empty() ? 0 : stack_.back().trace;
    if (f.keep && !trace_id.empty()) {
      f.trace = static_cast<std::uint32_t>(traces_.size());
      traces_.push_back(std::move(trace_id));
    }
    stack_.push_back(f);
    stack_.back().t0 = now_ns();
  }

  void close(std::uint64_t units) {
    const std::uint64_t t1 = now_ns();
    const frame f = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = t1 - f.t0;
    layer_stat& s = totals_[static_cast<std::size_t>(f.l)];
    s.self_ns += dur - std::min(dur, f.child_ns);
    s.total_ns += dur;
    ++s.calls;
    s.units += units;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (f.keep) kept_.push_back({f.id, f.parent, f.trace, f.l, f.label, f.t0, t1});
  }

  // A layer timed by the library's own perf counters rather than a span
  // here (the phases inside run_multi_trial): table only, no span.
  void add(layer l, std::uint64_t ns, std::uint64_t units) {
    layer_stat& s = totals_[static_cast<std::size_t>(l)];
    s.self_ns += ns;
    s.total_ns += ns;
    ++s.calls;
    s.units += units;
    s.derived = true;
  }

  const layer_totals& totals() const { return totals_; }

  // Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev).
  json chrome_trace() const {
    json events = json::array();
    for (const record& r : kept_) {
      const std::string name = info(r.l).name;
      json args = json::object();
      args["layer"] = json(name);
      args["id"] = json(r.id);
      args["parent"] = r.parent == kNoParent ? json() : json(r.parent);
      args["trace_id"] = json(traces_[r.trace]);
      json e = json::object();
      e["name"] = json(r.label != nullptr ? std::string(r.label) : name);
      e["cat"] = json(name.substr(0, name.find('.')));
      e["ph"] = json("X");
      e["ts"] = json(static_cast<double>(r.t0 - origin_) / 1e3);
      e["dur"] = json(static_cast<double>(r.t1 - r.t0) / 1e3);
      e["pid"] = json(1);
      e["tid"] = json(1);
      e["args"] = std::move(args);
      events.push_back(std::move(e));
    }
    json doc = json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = json("ns");
    return doc;
  }

 private:
  struct frame {
    std::uint32_t id = 0;
    std::uint32_t parent = kNoParent;
    std::uint32_t trace = 0;
    layer l = layer::workload;
    const char* label = nullptr;
    bool keep = true;
    std::uint64_t t0 = 0;
    std::uint64_t child_ns = 0;
  };
  struct record {
    std::uint32_t id, parent, trace;
    layer l;
    const char* label;
    std::uint64_t t0, t1;
  };

  std::uint64_t origin_;
  std::uint32_t next_id_ = 0;
  std::vector<frame> stack_;
  std::vector<record> kept_;
  std::vector<std::string> traces_;
  layer_totals totals_{};
};

class scope {
 public:
  scope(tracer& t, layer l, const char* label = nullptr, bool keep = true,
        std::string trace_id = {})
      : t_(t) {
    t_.open(l, label, keep, std::move(trace_id));
  }
  ~scope() { t_.close(units_); }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

  void units(std::uint64_t u) { units_ = u; }

 private:
  tracer& t_;
  std::uint64_t units_ = 1;
};

// ---------------------------------------------------------------------
// trace mode: the scalar pipeline, one layer call per span
// ---------------------------------------------------------------------

// How one pipeline trial runs: whether the execution trace and the audit
// are on (the engine turns both on exactly when the cell audits the
// index), and whether it is a trace-cost probe run, which records spans
// only around the run and the audit.
struct trial_mode {
  bool trace = false;
  bool audit = false;
  bool probe = false;
};

struct trial_timing {
  std::uint64_t run_ns = 0;
  std::uint64_t trace_events = 0;
};

// What the auditor may assume, derived from the trial configuration as
// the runner derives it (analysis/runner.cpp).
check::audit_spec audit_spec_for(const std::vector<value_t>& inputs,
                                 const analysis::fault_plan& faults,
                                 const analysis::audit_plan& plan) {
  check::audit_spec spec;
  spec.n = inputs.size();
  spec.inputs = inputs;
  spec.ratifier = plan.ratifier;
  spec.check_properties = plan.deciding && !faults.registers.enabled();
  spec.regular_registers = faults.registers.regular;
  spec.semantics = faults.registers.semantics;
  spec.write_omission = faults.registers.omit_denominator != 0 &&
                        faults.registers.omit_budget != 0;
  spec.process_faults = !faults.crashes.empty() || !faults.restarts.empty() ||
                        !faults.recoveries.empty() || !faults.stalls.empty();
  return spec;
}

// Trial `index` of `cell` as the engine's scalar path runs it
// (run_one_trial over run_object_trial), from public calls only.  The
// deterministic record fields must equal the engine's.
trial_record pipeline_trial(tracer& tr, const trial_grid& cell,
                            std::uint64_t index, trial_mode mode,
                            trial_timing& timing) {
  auto span = [&](std::optional<scope>& s, layer l) {
    if (!mode.probe) s.emplace(tr, l);
  };
  trial_record rec;
  rec.trial_index = index;
  rec.seed = analysis::derive_trial_seed(cell.base_seed, index);
  const std::size_t n = cell.n;
  const analysis::fault_plan faults =
      cell.faults_for ? cell.faults_for(index, rec.seed) : cell.faults;

  std::unique_ptr<sim::adversary> adv;
  std::vector<value_t> inputs;
  std::optional<sim::sim_world> world;
  std::unique_ptr<deciding_object<sim_env>> obj;
  {
    std::optional<scope> s;
    span(s, layer::world_ctor);
    adv = cell.make_adversary ? cell.make_adversary()
                              : std::make_unique<sim::random_oblivious>();
    inputs = analysis::make_inputs(cell.pattern, n, cell.m, rec.seed);
    sim::world_options wopts;
    wopts.trace_enabled = mode.trace;
    wopts.trace_max_events = cell.audit.max_trace_events;
    wopts.register_faults = faults.registers;
    wopts.fault_seed = faults.fault_seed;
    world.emplace(n, *adv, rec.seed, wopts);
  }
  {
    std::optional<scope> s;
    span(s, layer::build);
    obj = cell.build(*world, n);
  }
  {
    std::optional<scope> s;
    span(s, layer::spawn);
    for (process_id pid = 0; pid < n; ++pid) {
      world->spawn([&obj, v = inputs[pid]](sim_env& env) {
        return invoke_encoded(*obj, env, v);
      });
    }
    for (const analysis::crash_spec& c : faults.crashes)
      world->crash_after(c.pid, c.after_ops);
    for (const analysis::restart_spec& r : faults.restarts)
      world->restart_after(r.pid, r.after_ops);
    for (const analysis::restart_spec& r : faults.recoveries)
      world->recover_after(r.pid, r.after_ops);
    for (const analysis::stall_spec& st : faults.stalls)
      world->crash_after(st.pid, st.after_ops);
  }
  analysis::trial_result& res = rec.result;
  {
    scope s(tr, mode.trace ? layer::run_traced : layer::run);
    const std::uint64_t t0 = now_ns();
    res.status = world->run(cell.limits.max_steps).status;
    timing.run_ns = now_ns() - t0;
    s.units(world->steps());
  }
  std::vector<check::labeled_output> escaped;
  {
    std::optional<scope> s;
    span(s, layer::extract);
    for (process_id pid = 0; pid < n; ++pid) {
      const std::optional<word> out = world->output_of(pid);
      if (world->crashed(pid)) {
        res.crashed_pids.push_back(pid);
        if (out) res.crashed_outputs.push_back(decode_decided(*out));
      } else if (out) {
        res.outputs.push_back(decode_decided(*out));
        res.halted_pids.push_back(pid);
      }
      if (out) escaped.push_back({pid, decode_decided(*out)});
      if (world->restarts_of(pid) > 0) res.restarted_pids.push_back(pid);
      if (world->recoveries_of(pid) > 0) res.recovered_pids.push_back(pid);
    }
    res.restarts = world->total_restarts();
    res.recoveries = world->total_recoveries();
    res.stale_reads = world->stale_reads();
    res.omitted_writes = world->omitted_writes();
    res.overlap_reads = world->overlap_reads();
    res.volatile_wipes = world->volatile_wipes();
    res.total_ops = world->total_ops();
    res.max_individual_ops = world->max_individual_ops();
    res.steps = world->steps();
    res.registers = world->allocated();
  }
  if (mode.trace) timing.trace_events = world->execution_trace().size();
  if (mode.audit) {
    scope s(tr, layer::audit);
    check::audit_spec spec = audit_spec_for(inputs, faults, cell.audit);
    spec.volatile_regs = world->volatile_registers();
    spec.recovery_steps = world->recovery_steps();
    res.audit = check::audit_trial(world->execution_trace(), escaped, {}, spec);
    s.units(res.audit->events_checked);
  }
  {
    std::optional<scope> s;
    span(s, layer::teardown);
    obj.reset();
    world.reset();
    adv.reset();
  }
  {
    std::optional<scope> s;
    span(s, layer::predicates);
    const std::vector<decided> out = res.all_outputs();
    std::vector<value_t> sorted_inputs = inputs;
    std::sort(sorted_inputs.begin(), sorted_inputs.end());
    rec.valid = analysis::check_validity_sorted(out, sorted_inputs);
    rec.agreement = analysis::check_agreement(out);
    rec.coherent = analysis::check_coherence(out);
    rec.decided_all = analysis::all_decided(out);
  }
  return rec;
}

template <typename T>
std::size_t heap_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

std::size_t result_heap_bytes(const analysis::trial_result& x) {
  std::size_t b = heap_bytes(x.outputs) + heap_bytes(x.halted_pids) +
                  heap_bytes(x.crashed_pids) + heap_bytes(x.crashed_outputs) +
                  heap_bytes(x.restarted_pids) + heap_bytes(x.recovered_pids);
  if (x.audit) b += heap_bytes(x.audit->violations) + x.audit->note.capacity();
  return b;
}

// Bytes a retained record holds: the struct plus its vectors' capacity.
std::size_t record_bytes(const trial_record& r) {
  return sizeof(trial_record) + result_heap_bytes(r.result) +
         heap_bytes(r.probes);
}

std::size_t record_bytes(const analysis::multi_trial_result& r) {
  return sizeof(analysis::multi_trial_result) + result_heap_bytes(r.base) +
         heap_bytes(r.slot_ops);
}

// The grid_runner.py + modcon-merge path over one cell's records: two
// shard artifacts serialized, parsed back, and merged.  Runs on every
// workload's records, sharded or not, so its per-record cost is known
// everywhere.  Audit reports cannot be merged from records (analysis/
// shard.h), so they are dropped first.
void shard_probe(tracer& tr, analysis::cell_meta meta,
                 std::vector<trial_record> records) {
  meta.keep_records = true;
  std::vector<trial_record> part[kShards];
  for (trial_record& r : records) {
    r.result.audit.reset();
    part[r.trial_index % kShards].push_back(std::move(r));
  }
  std::vector<json> docs;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    const summary_stats s =
        analysis::reduce_records(meta, std::move(part[i]), false);
    total += s.records.size();
    std::string text;
    {
      scope sp(tr, layer::shard_serialize);
      sp.units(s.records.size());
      json doc = analysis::make_report_skeleton("modcon-benchmark/shard-probe");
      json header = json::object();
      header["index"] = json(i);
      header["count"] = json(kShards);
      doc["shard"] = std::move(header);
      doc["experiments"].push_back(analysis::shard_cell_to_json(s, meta));
      text = doc.dump(2);
    }
    scope sp(tr, layer::json_parse);
    sp.units(text.size());
    docs.push_back(json::parse(text));
  }
  scope sp(tr, layer::shard_merge);
  sp.units(total);
  const std::string merged = analysis::merge_shard_reports(docs).dump(2);
  (void)merged;
}

// The paper's cost model read from observed span trees: operations charged
// inside each object kind, per logical instance (one position in the
// composition, across processes), and the protocol counters.
struct core_tally {
  std::uint64_t trials = 0;
  std::uint64_t conc_instances = 0, conc_spans = 0, conc_ops = 0;
  std::uint64_t conc_indiv_max = 0;  // most ops one process spent in one
  std::uint64_t ratifier_instances = 0, ratifier_ops = 0;
  std::uint64_t fallback_ops = 0;
  std::uint64_t first_mover_wins = 0, ratified = 0, adopted = 0;

  void add(const obs::trial_obs& o) {
    ++trials;
    // Instance key: the span's position in its process's tree — its
    // parent's key, kind, index, and how many same-(kind, index) siblings
    // the process opened before it (slot k of different shard logs).
    std::vector<std::uint64_t> key(o.spans.size());
    std::map<std::tuple<process_id, std::uint64_t, int, std::uint32_t>,
             std::uint64_t>
        seen;
    struct instance {
      std::uint64_t ops = 0, max_ops = 0;
    };
    std::map<std::uint64_t, instance> conc, rat;
    for (std::size_t i = 0; i < o.spans.size(); ++i) {
      const obs::span& s = o.spans[i];
      const std::uint64_t parent = s.parent == obs::kNoSpan ? 0 : key[s.parent];
      const std::uint64_t occurrence =
          seen[{s.pid, parent, static_cast<int>(s.kind), s.index}]++;
      std::uint64_t h = parent ^ (static_cast<std::uint64_t>(s.kind) << 56) ^
                        (static_cast<std::uint64_t>(s.index) << 24) ^ occurrence;
      key[i] = splitmix64(h);
      if (s.kind == obs::span_kind::conciliator) {
        instance& c = conc[key[i]];
        c.ops += s.ops();
        c.max_ops = std::max(c.max_ops, s.ops());
        ++conc_spans;
      } else if (s.kind == obs::span_kind::ratifier) {
        rat[key[i]].ops += s.ops();
      } else if (s.kind == obs::span_kind::fallback) {
        fallback_ops += s.ops();
      }
    }
    conc_instances += conc.size();
    for (const auto& [k, c] : conc) {
      conc_ops += c.ops;
      conc_indiv_max = std::max(conc_indiv_max, c.max_ops);
    }
    ratifier_instances += rat.size();
    for (const auto& [k, r] : rat) ratifier_ops += r.ops;
    auto counter = [&o](obs::counter c) {
      return o.counters[static_cast<std::size_t>(c)];
    };
    first_mover_wins += counter(obs::counter::first_mover_wins);
    ratified += counter(obs::counter::ratified);
    adopted += counter(obs::counter::adopted);
  }

  core_tally& operator+=(const core_tally& o) {
    trials += o.trials;
    conc_instances += o.conc_instances;
    conc_spans += o.conc_spans;
    conc_ops += o.conc_ops;
    conc_indiv_max = std::max(conc_indiv_max, o.conc_indiv_max);
    ratifier_instances += o.ratifier_instances;
    ratifier_ops += o.ratifier_ops;
    fallback_ops += o.fallback_ops;
    first_mover_wins += o.first_mover_wins;
    ratified += o.ratified;
    adopted += o.adopted;
    return *this;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs.empty() ? 0.0 : xs[(xs.size() - 1) / 2];
}

// One row of the cost-model table.
struct cost_row {
  std::string label;
  std::size_t n = 0;
  core_tally core;
  double total_ops = 0;   // mean per trial
  double slot_ops_p50 = -1;  // multi-shot only
};

// Trace mode.  The speed of a shared machine drifts by 10-20% over seconds
// to minutes, so what is compared by wall time alternates at fine grain:
// one-shot engine references and the traced pipeline by slice of trial
// indices, multi-shot ones (whose grid driver cannot select trials) by pass.
constexpr std::size_t kSlices = 16;
constexpr int kPasses = 5;
constexpr std::uint64_t kProbeEvery = 8;       // trace-cost probe: 1 in 8
constexpr std::uint64_t kKeptTrials = 32;      // spans written per cell
constexpr std::size_t kBatchWidth = 64;        // the engine's lockstep width
constexpr std::size_t kB1Trials = 2'048;       // width-1 dispatch sample
constexpr std::size_t kShardRecords = 4'096;   // shard-path sample per cell
constexpr std::uint64_t kCoreTrials = 16;      // observed trials per cell

std::string trace_id(const workload& w, const std::string& cell,
                     std::uint64_t trial) {
  return w.name + "/0/" + cell + "/" + std::to_string(trial);
}

std::uint64_t in_scalar_trial_self(const layer_totals& after,
                                   const layer_totals& before) {
  std::uint64_t ns = 0;
  for (std::size_t l = 0; l < kLayerCount; ++l)
    if (kLayers[l].in_scalar_trial) ns += after[l].self_ns - before[l].self_ns;
  return ns;
}

struct trace_out {
  json metrics = json::object();     // the per_layer metrics BENCHMARK.json names
  json table_only = json::object();  // layers that run on some workloads only
  std::vector<cost_row> cost;
};

const layer_stat& stat(const tracer& tr, layer l) {
  return tr.totals()[static_cast<std::size_t>(l)];
}

double self_per_call(const tracer& tr, layer l) {
  const layer_stat& s = stat(tr, l);
  return ratio(static_cast<double>(s.self_ns), static_cast<double>(s.calls));
}

double self_per_unit(const tracer& tr, layer l) {
  const layer_stat& s = stat(tr, l);
  return ratio(static_cast<double>(s.self_ns),
               static_cast<double>(s.units) / info(l).unit_scale);
}

// Metrics every workload reports from the shared layers.
void shared_metrics(const tracer& tr, const std::vector<core_tally>& core,
                    std::uint64_t trials, double record_bytes_sum,
                    double reduce_ns_per_trial, trace_out& out) {
  json& m = out.metrics;
  m["check.audit_ns"] = json(self_per_call(tr, layer::audit));
  m["check.audit_events"] =
      json(ratio(static_cast<double>(stat(tr, layer::audit).units),
                 static_cast<double>(stat(tr, layer::audit).calls)));
  m["analysis.predicates_ns"] = json(self_per_call(tr, layer::predicates));
  m["analysis.reduce_ns"] = json(reduce_ns_per_trial);
  m["analysis.record_bytes"] =
      json(ratio(record_bytes_sum, static_cast<double>(trials)));
  const layer_stat& ser = stat(tr, layer::shard_serialize);
  m["analysis.shard.serialize_ns"] = json(self_per_unit(tr, layer::shard_serialize));
  m["analysis.shard.record_bytes"] =
      json(ratio(static_cast<double>(stat(tr, layer::json_parse).units),
                 static_cast<double>(ser.units)));
  m["analysis.json.parse_ns_per_kb"] = json(self_per_unit(tr, layer::json_parse));
  m["analysis.shard.merge_ns"] = json(self_per_unit(tr, layer::shard_merge));
  core_tally all;
  for (const core_tally& c : core) all += c;
  m["core.conciliator.ops"] = json(ratio(static_cast<double>(all.conc_ops),
                                         static_cast<double>(all.conc_instances)));
  m["core.ratifier.ops"] =
      json(ratio(static_cast<double>(all.ratifier_ops),
                 static_cast<double>(all.ratifier_instances)));
  m["core.fallback.ops"] = json(ratio(static_cast<double>(all.fallback_ops),
                                      static_cast<double>(all.trials)));
  m["core.conciliator.first_mover_frac"] =
      json(ratio(static_cast<double>(all.first_mover_wins),
                 static_cast<double>(all.conc_spans)));
  m["core.ratifier.ratified_frac"] =
      json(ratio(static_cast<double>(all.ratified),
                 static_cast<double>(all.ratified + all.adopted)));
}

void count_differences(tally& t, const std::string& what,
                       const std::vector<trial_record>& got,
                       const std::vector<trial_record>& want) {
  std::uint64_t differ = got.size() == want.size() ? 0 : 1;
  for (std::size_t k = 0; k < std::min(got.size(), want.size()); ++k)
    if (!same_record(got[k], want[k])) ++differ;
  if (differ != 0)
    t.fail(what + " on " + std::to_string(differ) + " trials", differ);
}

void trace_oneshot(tracer& tr, const workload& w, tally& t, trace_out& out) {
  const std::size_t cells = w.cells.size();
  std::vector<trial_grid> scalar_cells = w.cells;
  for (trial_grid& c : scalar_cells) c.keep_records = false;

  // One worker each, over the same trials: the engine on the workload's own
  // path (auto) and on the scalar path, the traced pipeline, and the batch
  // interpreter on the cells it takes.  They alternate slice by slice
  // (trial index = s mod kSlices, the engine's own shard selection), so
  // the walls compared below are taken close together in time.
  std::vector<std::vector<trial_record>> records(cells);  // by trial index
  for (std::size_t c = 0; c < cells; ++c) records[c].resize(w.cells[c].trials);
  std::uint64_t auto_ns = 0, scalar_ns = 0, path_ns = 0, pipeline_ns = 0;
  std::uint64_t b64_ns = 0, scalar_same_ns = 0, trials = 0;
  double bytes = 0;
  work wk;
  {
    scope ph(tr, layer::phase, "engine, traced pipeline and batch, by slice");
    for (std::size_t slice = 0; slice < kSlices; ++slice) {
      const bool first = slice == 0;  // its spans go to the trace file
      analysis::experiment_options opts = engine_options(1);
      opts.shard_index = slice;
      opts.shard_count = kSlices;
      std::vector<summary_stats> engine;
      {
        scope s(tr, layer::engine, "run_experiment_grid, auto engine", first);
        const std::uint64_t t0 = now_ns();
        engine = analysis::run_experiment_grid(w.cells, opts);
        auto_ns += now_ns() - t0;
      }
      {
        analysis::experiment_options scalar = opts;
        scalar.engine = analysis::engine_kind::scalar;
        scope s(tr, layer::engine, "run_experiment_grid, scalar engine", first);
        const std::uint64_t t0 = now_ns();
        analysis::run_experiment_grid(scalar_cells, scalar);
        scalar_ns += now_ns() - t0;
      }
      for (std::size_t c = 0; c < cells; ++c) {
        const trial_grid& cell = w.cells[c];
        std::vector<std::uint64_t> idx;
        for (std::uint64_t i = slice; i < cell.trials; i += kSlices)
          idx.push_back(i);
        const std::uint64_t keep_every =
            std::max<std::uint64_t>(1, idx.size() / kKeptTrials);
        scope cs(tr, layer::cell, cell.label.c_str(), first);
        const layer_totals before = tr.totals();
        std::vector<trial_record> recs;
        recs.reserve(idx.size());
        const std::uint64_t t0 = now_ns();
        for (std::size_t k = 0; k < idx.size(); ++k) {
          const bool keep = first && k % keep_every == 0;
          scope ts(tr, layer::trial, nullptr, keep,
                   keep ? trace_id(w, cell.label, idx[k]) : std::string());
          const bool audited = cell.audit.enabled_for(idx[k]);
          trial_timing tm;
          recs.push_back(pipeline_trial(
              tr, cell, idx[k], {.trace = audited, .audit = audited}, tm));
        }
        const std::uint64_t loop_ns = now_ns() - t0;
        const std::uint64_t layer_ns = in_scalar_trial_self(tr.totals(), before);
        const std::uint64_t r0 = now_ns();
        summary_stats s;
        {
          scope rs(tr, layer::reduce);
          rs.units(recs.size());
          s = analysis::reduce_records(analysis::meta_of(cell), std::move(recs));
        }
        const std::uint64_t reduce_ns = now_ns() - r0;
        pipeline_ns += loop_ns + reduce_ns;
        path_ns += reduce_ns;
        check_oneshot(s, w.promises[c], t, wk);
        count_differences(t, cell.label + ": traced pipeline differs from the engine",
                          s.records, engine[c].records);
        if (analysis::batch_supported(cell)) {
          std::vector<trial_record> batch(idx.size());
          const std::uint64_t b0 = now_ns();
          {
            scope bs(tr, layer::batch64, cell.label.c_str());
            bs.units(idx.size());
            for (std::size_t k = 0; k < idx.size(); k += kBatchWidth)
              analysis::run_batch_trials(cell, *cell.batch_hint, &idx[k], &batch[k],
                                         std::min(kBatchWidth, idx.size() - k));
          }
          const std::uint64_t dt = now_ns() - b0;
          path_ns += dt;
          b64_ns += dt;
          scalar_same_ns += loop_ns;
          count_differences(t, cell.label + ": batch interpreter differs from the pipeline",
                            batch, s.records);
        } else {
          path_ns += layer_ns;
        }
        for (trial_record& r : s.records) {
          bytes += record_bytes(r);
          ++trials;
          records[c][r.trial_index] = std::move(r);
        }
      }
    }
  }

  // Trace-cost probe: every 8th trial twice more, back to back, once as
  // the engine runs it and once with the execution trace flipped (on, with
  // a counterfactual audit, where the engine runs it off).  Only the run
  // and the audit get spans.
  std::uint64_t traced_ns = 0, untraced_ns = 0, probe_steps = 0;
  std::uint64_t trace_events = 0, probed = 0;
  {
    scope ph(tr, layer::phase, "trace-cost probe, 1 in 8 trials");
    for (std::size_t c = 0; c < cells; ++c) {
      const trial_grid& cell = w.cells[c];
      for (std::uint64_t i = 0; i < cell.trials; i += kProbeEvery) {
        const bool engine_traced = cell.audit.enabled_for(i);
        trial_timing as_engine, flipped;
        auto run = [&](bool traced, trial_timing& tm) {
          return pipeline_trial(tr, cell, i,
                                {.trace = traced, .audit = traced, .probe = true},
                                tm);
        };
        trial_record same, again;
        {
          scope ps(tr, layer::probe_trial, nullptr,
                   i / kProbeEvery < kKeptTrials);
          // Alternate which runs first, so neither always finds caches warm.
          if ((i / kProbeEvery) % 2 == 0) {
            same = run(engine_traced, as_engine);
            again = run(!engine_traced, flipped);
          } else {
            again = run(!engine_traced, flipped);
            same = run(engine_traced, as_engine);
          }
        }
        if (!same_record(same, records[c][i]) ||
            !same_record(again, records[c][i], /*with_audit=*/false))
          t.fail(cell.label + " trial " + std::to_string(i) +
                 ": a rerun or the execution trace changed the result");
        if (again.result.audit &&
            again.result.audit->status != check::audit_status::clean)
          t.fail(cell.label + " trial " + std::to_string(i) +
                 ": counterfactual audit not clean");
        const trial_timing& on = engine_traced ? as_engine : flipped;
        const trial_timing& off = engine_traced ? flipped : as_engine;
        traced_ns += on.run_ns;
        untraced_ns += off.run_ns;
        trace_events += on.trace_events;
        probe_steps += records[c][i].result.steps;
        ++probed;
      }
    }
  }

  // The batch interpreter at width 1: dispatch alone, no lanes to share.
  // One stride over every batch cell keeps the sample's cell mix that of
  // the width-64 runs.
  {
    scope ph(tr, layer::phase, "batch interpreter at width 1");
    std::size_t batch_trials = 0;
    for (const trial_grid& cell : w.cells)
      if (analysis::batch_supported(cell)) batch_trials += cell.trials;
    const std::size_t stride = std::max<std::size_t>(1, batch_trials / kB1Trials);
    for (const trial_grid& cell : w.cells) {
      if (!analysis::batch_supported(cell)) continue;
      scope s(tr, layer::batch1, cell.label.c_str());
      trial_record single;
      std::uint64_t count = 0;
      for (std::uint64_t i = 0; i < cell.trials; i += stride, ++count)
        analysis::run_batch_trials(cell, *cell.batch_hint, &i, &single, 1);
      s.units(count);
    }
  }

  {
    scope ph(tr, layer::phase, "shard path probe");
    for (std::size_t c = 0; c < cells; ++c) {
      const std::size_t m = std::min(records[c].size(), kShardRecords);
      shard_probe(tr, analysis::meta_of(w.cells[c]),
                  {records[c].begin(), records[c].begin() + m});
    }
  }

  std::vector<core_tally> core(cells);
  {
    scope ph(tr, layer::phase, "cost model: observed trials");
    for (std::size_t c = 0; c < cells; ++c) {
      const trial_grid& cell = w.cells[c];
      const std::uint64_t step = std::max<std::uint64_t>(1, cell.trials / kCoreTrials);
      for (std::uint64_t i = 0; i < cell.trials; i += step) {
        trial_record r;
        {
          scope s(tr, layer::traced_trial);
          r = analysis::run_traced_trial(cell, i);
        }
        if (r.result.obs)
          core[c].add(*r.result.obs);
        else
          t.fail(cell.label + ": traced trial carried no observation record");
      }
      double total = 0;
      for (const trial_record& r : records[c]) total += static_cast<double>(r.result.total_ops);
      out.cost.push_back({cell.label, cell.n, core[c],
                          ratio(total, static_cast<double>(records[c].size()))});
    }
  }

  json& m = out.metrics;
  m["analysis.driver.overhead_frac"] =
      json(1.0 - ratio(static_cast<double>(path_ns), static_cast<double>(auto_ns)));
  m["trace.overhead_frac"] =
      json(ratio(static_cast<double>(pipeline_ns), static_cast<double>(scalar_ns)) - 1.0);
  m["sim.trial_setup_ns"] =
      json(ratio(static_cast<double>(stat(tr, layer::world_ctor).self_ns +
                                     stat(tr, layer::build).self_ns +
                                     stat(tr, layer::spawn).self_ns),
                 static_cast<double>(stat(tr, layer::world_ctor).calls)));
  m["sim.run_ns_per_step"] = json(self_per_unit(tr, layer::run));
  m["sim.trace_ns_per_step"] =
      json(ratio(static_cast<double>(traced_ns) - static_cast<double>(untraced_ns),
                 static_cast<double>(probe_steps)));
  shared_metrics(tr, core, trials, bytes, self_per_unit(tr, layer::reduce), out);

  json& x = out.table_only;
  x["sim.world_ctor_ns"] = json(self_per_call(tr, layer::world_ctor));
  x["core.build_ns"] = json(self_per_call(tr, layer::build));
  x["exec.spawn_ns"] = json(self_per_call(tr, layer::spawn));
  x["sim.teardown_ns"] = json(self_per_call(tr, layer::teardown));
  x["sim.trace_events"] =
      json(ratio(static_cast<double>(trace_events), static_cast<double>(probed)));
  if (b64_ns > 0) {
    x["analysis.batch.b64_ns"] = json(self_per_unit(tr, layer::batch64));
    x["analysis.batch.b1_ns"] = json(self_per_unit(tr, layer::batch1));
    x["analysis.batch.speedup_vs_scalar"] =
        json(ratio(static_cast<double>(scalar_same_ns), static_cast<double>(b64_ns)));
  }
}

// The options run_multi_grid gives trial `index` of `cell`.
analysis::multi_trial_options multi_options(const analysis::multi_grid& cell,
                                            std::uint64_t index) {
  analysis::multi_trial_options mo;
  mo.seed = analysis::derive_trial_seed(cell.base_seed, index);
  mo.limits = cell.limits;
  mo.faults = cell.faults;
  mo.audit.enabled = cell.audit.enabled_for(index);
  mo.audit.max_trace_events = cell.audit.max_trace_events;
  return mo;
}

void trace_multi(tracer& tr, const workload& w, tally& t, trace_out& out) {
  const std::size_t cells = w.multi_cells.size();
  // The aggregates every multi trial feeds, to hold against the engine's.
  struct aggregates {
    std::uint64_t completed = 0, steps = 0, proposals = 0, decisions = 0;
    std::uint64_t fast = 0, reclaimed = 0, created = 0, reused = 0;
    std::uint64_t agreed = 0, valid = 0;
  };
  // Each pass runs run_multi_grid on one worker, then the traced pipeline
  // over the same trials; pass 0 feeds the checks and the probes below.
  std::vector<std::vector<trial_record>> shard_records(cells);
  std::vector<double> slot_ops, driver_overhead, trace_overhead;
  std::uint64_t trials = 0, proposals = 0, fast = 0, created = 0, reused = 0;
  std::uint64_t reduce_sum = 0;
  double bytes = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    scope ph(tr, layer::phase, "pass: engine, traced multi-shot pipeline");
    std::vector<summary_stats> engine;
    std::uint64_t engine_ns = 0, reduce_ns = 0, loop_ns = 0, trial_ns = 0;
    {
      scope s(tr, layer::engine, "run_multi_grid");
      const std::uint64_t t0 = now_ns();
      engine = analysis::run_multi_grid(w.multi_cells, engine_options(1));
      engine_ns = now_ns() - t0;
    }
    // run_multi_grid's reduction is internal; it times itself.
    for (const summary_stats& s : engine)
      reduce_ns += s.perf.get_ns(analysis::perf_phase::serialize);
    reduce_sum += reduce_ns;
    for (std::size_t c = 0; c < cells; ++c) {
      const analysis::multi_grid& cell = w.multi_cells[c];
      const std::uint64_t keep_every =
          pass == 0 ? std::max<std::uint64_t>(1, cell.trials / kKeptTrials) : 0;
      scope cs(tr, layer::cell, cell.label.c_str(), pass == 0);
      aggregates mine;
      std::vector<double> cell_slot_ops;
      const std::uint64_t t0 = now_ns();
      for (std::uint64_t i = 0; i < cell.trials; ++i) {
        const bool keep = keep_every != 0 && i % keep_every == 0;
        scope ts(tr, layer::trial, nullptr, keep,
                 keep ? trace_id(w, cell.label, i) : std::string());
        analysis::perf_counters perf;
        analysis::multi_trial_options mo = multi_options(cell, i);
        mo.perf = &perf;
        analysis::multi_trial_result res;
        {
          const std::uint64_t c0 = now_ns();
          scope s(tr, layer::multi_trial);
          res = analysis::run_multi_trial(cell, mo);
          trial_ns += now_ns() - c0;
        }
        tr.add(layer::trial_setup, perf.get_ns(analysis::perf_phase::schedule), 1);
        tr.add(mo.audit.enabled ? layer::run_traced : layer::run,
               perf.get_ns(analysis::perf_phase::step), res.base.steps);
        trial_record rec;
        rec.trial_index = i;
        rec.seed = mo.seed;
        rec.result = res.base;
        {
          scope s(tr, layer::predicates);
          const std::vector<decided> escaped = res.base.all_outputs();
          rec.agreement = analysis::check_agreement(escaped);
          rec.coherent = analysis::check_coherence(escaped);
          rec.decided_all = analysis::all_decided(escaped);
        }
        rec.valid = res.slots_valid && res.slots_agree;
        const bool terminated = res.base.status != sim::run_status::step_limit &&
                                !res.base.timed_out();
        if (pass == 0) {
          ++t.attempted;
          if (!terminated || !rec.valid || !rec.agreement || !rec.decided_all)
            t.fail(cell.label + " trial " + std::to_string(i) +
                   ": termination, log agreement or per-slot agreement/validity");
          bytes += record_bytes(res);
          if (shard_records[c].size() < kShardRecords)
            shard_records[c].push_back(std::move(rec));
        }
        mine.completed += terminated;
        if (terminated) mine.steps += res.base.steps;
        mine.proposals += res.proposals;
        mine.decisions += res.decisions;
        mine.fast += res.fast_path_hits;
        mine.reclaimed += res.slots_reclaimed;
        mine.created += res.pool.extents_created;
        mine.reused += res.pool.extents_reused;
        mine.agreed += res.slots_agree;
        mine.valid += res.slots_valid;
        cell_slot_ops.insert(cell_slot_ops.end(), res.slot_ops.begin(),
                             res.slot_ops.end());
      }
      loop_ns += now_ns() - t0;
      if (pass != 0) continue;
      trials += cell.trials;
      proposals += mine.proposals;
      fast += mine.fast;
      created += mine.created;
      reused += mine.reused;

      const summary_stats& ref = engine[c];
      const std::uint64_t ref_steps = static_cast<std::uint64_t>(
          std::llround(ref.steps.mean * static_cast<double>(ref.steps.count)));
      if (ref.completed != mine.completed || ref_steps != mine.steps ||
          ref.multi.proposals != mine.proposals ||
          ref.multi.decisions != mine.decisions ||
          ref.multi.fast_path_hits != mine.fast ||
          ref.multi.slots_reclaimed != mine.reclaimed ||
          ref.multi.extents_created != mine.created ||
          ref.multi.extents_reused != mine.reused ||
          ref.multi.slots_agreed != mine.agreed ||
          ref.multi.slots_valid != mine.valid)
        t.fail(cell.label + ": traced pipeline differs from run_multi_grid");

      std::vector<double> sorted = cell_slot_ops;
      std::sort(sorted.begin(), sorted.end());
      cost_row row{cell.label, cell.n};
      row.slot_ops_p50 = sorted.empty() ? 0 : sorted[(sorted.size() - 1) / 2];
      out.cost.push_back(row);
      slot_ops.insert(slot_ops.end(), cell_slot_ops.begin(), cell_slot_ops.end());
    }
    driver_overhead.push_back(1.0 - ratio(static_cast<double>(trial_ns + reduce_ns),
                                          static_cast<double>(engine_ns)));
    trace_overhead.push_back(
        ratio(static_cast<double>(loop_ns),
              static_cast<double>(engine_ns - std::min(engine_ns, reduce_ns))) -
        1.0);
  }

  // Trace-cost probe: every 8th trial twice more, back to back, without
  // and with its audit, which turns the execution trace on; the library's
  // perf timers split the run from the audit.
  std::uint64_t traced_ns = 0, untraced_ns = 0, probe_steps = 0;
  {
    scope ph(tr, layer::phase, "trace-cost probe, 1 in 8 trials");
    for (std::size_t c = 0; c < cells; ++c) {
      const analysis::multi_grid& cell = w.multi_cells[c];
      for (std::uint64_t i = 0; i < cell.trials; i += kProbeEvery) {
        auto run = [&](bool audit, analysis::perf_counters& perf) {
          analysis::multi_trial_options mo = multi_options(cell, i);
          mo.audit.enabled = audit;
          mo.perf = &perf;
          return analysis::run_multi_trial(cell, mo);
        };
        analysis::perf_counters off, on;
        analysis::multi_trial_result plain, audited;
        {
          scope s(tr, layer::probe_trial, nullptr,
                  i / kProbeEvery < kKeptTrials);
          // Alternate which runs first, so neither always finds caches warm.
          if ((i / kProbeEvery) % 2 == 0) {
            plain = run(false, off);
            audited = run(true, on);
          } else {
            audited = run(true, on);
            plain = run(false, off);
          }
        }
        const std::uint64_t on_ns = on.get_ns(analysis::perf_phase::step);
        const std::uint64_t off_ns = off.get_ns(analysis::perf_phase::step);
        tr.add(layer::run, off_ns, plain.base.steps);
        tr.add(layer::run_traced, on_ns, audited.base.steps);
        tr.add(layer::audit, on.get_ns(analysis::perf_phase::audit),
               audited.base.audit ? audited.base.audit->events_checked : 0);
        if (!audited.base.audit ||
            audited.base.audit->status != check::audit_status::clean)
          t.fail(cell.label + " trial " + std::to_string(i) +
                 ": counterfactual audit not clean");
        if (plain.base.steps != audited.base.steps)
          t.fail(cell.label + " trial " + std::to_string(i) +
                 ": the execution trace changed the result");
        traced_ns += on_ns;
        untraced_ns += off_ns;
        probe_steps += plain.base.steps;
      }
    }
  }

  {
    scope ph(tr, layer::phase, "shard path probe");
    for (std::size_t c = 0; c < cells; ++c) {
      const analysis::multi_grid& cell = w.multi_cells[c];
      analysis::cell_meta meta;
      meta.label = cell.label;
      meta.n = cell.n;
      meta.m = cell.m;
      meta.pattern = analysis::input_pattern::random_m;
      meta.base_seed = cell.base_seed;
      meta.fault_profile = analysis::to_string(cell.faults);
      meta.audit_profile = analysis::to_string(cell.audit);
      meta.semantics = sim::to_string(cell.faults.registers.semantics);
      shard_probe(tr, std::move(meta), std::move(shard_records[c]));
    }
  }

  std::vector<core_tally> core(cells);
  {
    scope ph(tr, layer::phase, "cost model: observed trials");
    for (std::size_t c = 0; c < cells; ++c) {
      const analysis::multi_grid& cell = w.multi_cells[c];
      const std::uint64_t step = std::max<std::uint64_t>(1, cell.trials / kCoreTrials);
      double total = 0;
      std::uint64_t observed = 0;
      for (std::uint64_t i = 0; i < cell.trials; i += step) {
        analysis::multi_trial_options mo = multi_options(cell, i);
        mo.observe = true;
        analysis::multi_trial_result res;
        {
          scope s(tr, layer::traced_trial);
          res = analysis::run_multi_trial(cell, mo);
        }
        if (res.base.obs)
          core[c].add(*res.base.obs);
        else
          t.fail(cell.label + ": observed trial carried no observation record");
        total += static_cast<double>(res.base.total_ops);
        ++observed;
      }
      out.cost[c].core = core[c];
      out.cost[c].total_ops = ratio(total, static_cast<double>(observed));
    }
  }

  json& m = out.metrics;
  m["analysis.driver.overhead_frac"] = json(median(driver_overhead));
  m["trace.overhead_frac"] = json(median(trace_overhead));
  m["sim.trial_setup_ns"] = json(self_per_call(tr, layer::trial_setup));
  m["sim.run_ns_per_step"] = json(self_per_unit(tr, layer::run));
  m["sim.trace_ns_per_step"] =
      json(ratio(static_cast<double>(traced_ns) - static_cast<double>(untraced_ns),
                 static_cast<double>(probe_steps)));
  shared_metrics(tr, core, trials, bytes,
                 ratio(static_cast<double>(reduce_sum),
                       static_cast<double>(trials * kPasses)),
                 out);

  std::sort(slot_ops.begin(), slot_ops.end());
  const layer_stat& calls = stat(tr, layer::multi_trial);
  json& x = out.table_only;
  x["analysis.multi.trial_ns"] =
      json(ratio(static_cast<double>(calls.total_ns), static_cast<double>(calls.calls)));
  x["analysis.multi.proposal_ns"] =
      json(ratio(static_cast<double>(calls.total_ns),
                 static_cast<double>(proposals * kPasses)));
  x["multi.fast_path_frac"] =
      json(ratio(static_cast<double>(fast), static_cast<double>(proposals)));
  x["multi.extent_reuse_frac"] =
      json(ratio(static_cast<double>(reused), static_cast<double>(created + reused)));
  x["multi.slot_ops_p50"] =
      json(slot_ops.empty() ? 0.0 : slot_ops[(slot_ops.size() - 1) / 2]);
}

// The whole launch at one worker and at `threads`, alternating, median of
// five each: the launch's rate at `threads` ÷ (threads × its rate at 1).
double parallel_efficiency(tracer& tr, const workload& w, std::size_t threads,
                           const std::string& artifact_path) {
  std::vector<double> at1, atn;
  scope ph(tr, layer::phase, "driver: launch at 1 and N threads");
  for (int rep = 0; rep < 5; ++rep) {
    for (const std::size_t k : {std::size_t{1}, threads}) {
      scope s(tr, layer::launch, k == 1 ? "launch, 1 thread" : "launch, N threads");
      const std::uint64_t t0 = now_ns();
      write_file(artifact_path, run_launch(w, k).artifact);
      (k == 1 ? at1 : atn).push_back(static_cast<double>(now_ns() - t0));
    }
  }
  return ratio(median(at1), static_cast<double>(threads) * median(atn));
}

void print_layer_table(const tracer& tr) {
  std::cout << "per-layer self time (spans recorded by the benchmark; * = the "
               "library's own perf timer, inside analysis.multi.trial)\n";
  std::cout << std::left << std::setw(28) << "layer" << std::right
            << std::setw(10) << "calls" << std::setw(12) << "self_ms"
            << std::setw(14) << "ns/unit" << "  unit\n";
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const layer_stat& s = tr.totals()[l];
    if (s.calls == 0) continue;
    const double units = static_cast<double>(s.units) / kLayers[l].unit_scale;
    std::cout << std::left << std::setw(28)
              << (std::string(kLayers[l].name) + (s.derived ? " *" : ""))
              << std::right << std::setw(10) << s.calls << std::setw(12)
              << std::fixed << std::setprecision(2)
              << static_cast<double>(s.self_ns) / 1e6 << std::setw(14)
              << std::setprecision(1)
              << ratio(static_cast<double>(s.self_ns), units) << "  "
              << kLayers[l].unit << "\n";
  }
}

// Paper bounds next to measured operation counts, priced at the measured
// sim.run_ns_per_step: Theorem 7's conciliator does at most 6n expected
// total and 2 lg n + O(1) individual work; binary consensus does O(n)
// total and O(log n) individual work.
void print_cost_model(const trace_out& out) {
  const double ns_per_op = out.metrics.find("sim.run_ns_per_step")->as_double();
  std::cout << "cost model: paper bound vs measured shared-memory ops, priced "
               "at sim.run_ns_per_step = "
            << std::fixed << std::setprecision(2) << ns_per_op << " ns\n";
  std::cout << std::left << std::setw(26) << "cell" << std::right
            << std::setw(14) << "conc.ops/inst" << std::setw(8) << "6n"
            << std::setw(12) << "conc.indiv" << std::setw(10) << "2lg n"
            << std::setw(13) << "ratif.ops" << std::setw(12) << "ops/trial"
            << std::setw(10) << "/n" << std::setw(12) << "ns/trial"
            << std::setw(12) << "slot.p50" << "\n";
  for (const cost_row& r : out.cost) {
    const core_tally& k = r.core;
    const double n = static_cast<double>(r.n);
    std::cout << std::left << std::setw(26) << r.label << std::right
              << std::setprecision(1) << std::setw(14)
              << ratio(static_cast<double>(k.conc_ops),
                       static_cast<double>(k.conc_instances))
              << std::setw(8) << 6 * n << std::setw(12) << k.conc_indiv_max
              << std::setw(10) << 2.0 * lg_ceil(r.n) << std::setw(13)
              << ratio(static_cast<double>(k.ratifier_ops),
                       static_cast<double>(k.ratifier_instances))
              << std::setw(12) << r.total_ops << std::setw(10)
              << r.total_ops / n << std::setw(12) << r.total_ops * ns_per_op;
    if (r.slot_ops_p50 >= 0)
      std::cout << std::setw(12) << r.slot_ops_p50;
    else
      std::cout << std::setw(12) << "-";
    std::cout << "\n";
  }
}

int run_trace(const options& o) {
  const workload w = make_workload(
      o.workload, analysis::derive_trial_seed(o.seed, 0), o.scale);
  tracer tr(o.workload + "/0");
  tally t;
  trace_out out;
  const std::uint64_t t0 = now_ns();
  {
    scope root(tr, layer::workload, o.workload.c_str());
    const double eff = parallel_efficiency(
        tr, w, o.threads, o.out + "/artifact_" + o.workload + ".json");
    if (w.how == driver::multi)
      trace_multi(tr, w, t, out);
    else
      trace_oneshot(tr, w, t, out);
    out.metrics["analysis.driver.parallel_eff"] = json(eff);
  }
  const double wall_s = static_cast<double>(now_ns() - t0) / 1e9;

  const std::string path = o.out + "/trace_" + o.workload + ".json";
  json doc = tr.chrome_trace();
  json meta = json::object();
  meta["workload"] = json(o.workload);
  meta["seed"] = json(o.seed);
  meta["scale"] = json(o.scale);
  json layers = json::object();
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const layer_stat& s = tr.totals()[l];
    if (s.calls == 0) continue;
    json row = json::object();
    row["self_ms"] = json(static_cast<double>(s.self_ns) / 1e6);
    row["calls"] = json(s.calls);
    row["ns_per_unit"] =
        json(ratio(static_cast<double>(s.self_ns),
                   static_cast<double>(s.units) / kLayers[l].unit_scale));
    row["unit"] = json(kLayers[l].unit);
    layers[kLayers[l].name] = std::move(row);
  }
  meta["layers"] = std::move(layers);
  meta["metrics"] = out.metrics;
  meta["table_only"] = out.table_only;
  doc["otherData"] = std::move(meta);
  write_file(path, doc.dump(1));

  print_layer_table(tr);
  print_cost_model(out);
  std::cout << "traced run: " << std::setprecision(2) << wall_s << " s\n";

  json r = json::object();
  r["mode"] = json("trace");
  r["workload"] = json(o.workload);
  r["attempted"] = json(t.attempted);
  r["failed"] = json(t.failed);
  r["failures"] = failures_json(t);
  r["trace_file"] = json(path);
  r["layers"] = out.metrics;
  r["table_only"] = out.table_only;
  std::cout << r.dump(-1) << "\n";
  return 0;
}

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "modcon_bench: " << msg
            << "\nusage: modcon_bench --workload W [--mode timed|setup|trace] "
               "[--seed S] [--seconds T] [--threads N] [--launches K] "
               "[--scale D] [--out DIR]\n";
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string v = argv[++i];
    char* end = nullptr;
    auto number = [&](auto parsed) {
      if (end == v.c_str() || *end != '\0') usage(arg + " expects a number, got '" + v + "'");
      return parsed;
    };
    if (arg == "--workload") o.workload = v;
    else if (arg == "--mode") o.mode = v;
    else if (arg == "--out") o.out = v;
    else if (arg == "--seed") o.seed = number(std::strtoull(v.c_str(), &end, 10));
    else if (arg == "--seconds") o.seconds = number(std::strtod(v.c_str(), &end));
    else if (arg == "--threads") o.threads = number(std::strtoull(v.c_str(), &end, 10));
    else if (arg == "--launches") o.launches = number(std::strtoull(v.c_str(), &end, 10));
    else if (arg == "--scale") o.scale = number(std::strtoull(v.c_str(), &end, 10));
    else usage("unknown argument '" + arg + "'");
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.mode != "timed" && o.mode != "setup" && o.mode != "trace")
    usage("--mode expects timed, setup or trace");
  if (o.threads < 1 || o.scale < 1 || o.launches < 1)
    usage("--threads, --scale and --launches must be at least 1");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const options o = parse(argc, argv);
  try {
    make_workload(o.workload, 1, o.scale);  // rejects unknown names early
    std::filesystem::create_directories(o.out);
    return o.mode == "trace" ? run_trace(o) : run_timed(o);
  } catch (const std::exception& e) {
    std::cerr << "modcon_bench: " << e.what() << "\n";
    return 1;
  }
}
