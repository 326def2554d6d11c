// End-to-end benchmark of the *default* configuration: the searches
// `rlmul_cli optimize` runs and the jobs a `rlmul serve` daemon runs,
// with no knob pinned. Four workloads, one per process:
//
//   sa16        SA, 16-bit AND: bound by synthesis, no network at all
//   a2c16       A2C (the CLI default), 16-bit AND: 4 concurrent env
//               workers coalesce into multi-design evaluator drains
//   dqn16       DQN, 16-bit AND: bound by the network
//   serve_dsdb  six jobs through an in-process serve::Server over a
//               fresh dsdb (cold pass), then again over the filled
//               dsdb on a second daemon (warm pass)
//
// Every layer is measured from outside: the bench times the calls it
// makes into public APIs (search::Driver, serve::Client), installs a
// synth::EvalCache probe on the traced run, and reads the counters the
// program already exports (util::perf_counters()). Nothing in src/ is
// instrumented for it.
//
// Usage:
//   bench_e2e --workload <name> --seed <S> [--seconds T] [--quick]
//             [--trace FILE] [--out FILE] [--workdir DIR]
//
// --seed S is the base of the seed set: run i uses seed S+i. --seconds
// sets how much work a run does (runs = T / nominal seconds per run on
// a 4-core x86-64 box), so the work, and with it every quality number,
// is a pure function of (workload, seed, seconds, quick). --trace
// halves the run count, runs each seed both untraced and with the probe
// installed, and writes the spans as Chrome trace-event JSON.
//
// Output: `<metric> <workload> <value> <unit>` lines, then one JSON
// document (also written to --out). Exits 1 when any correctness check
// fails and 2 on bad usage or when an RLMUL_* variable is set (a
// number taken with a pinned knob must not pass as the default).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dsdb/store.hpp"
#include "pareto/pareto.hpp"
#include "ppg/ppg.hpp"
#include "search/driver.hpp"
#include "search/registry.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"
#include "synth/evaluator.hpp"
#include "util/build_info.hpp"
#include "util/perf_counters.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

extern char** environ;

namespace {

using namespace rlmul;
using Clock = std::chrono::steady_clock;
using json = serve::json::Value;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linearly interpolated percentile (p in [0,1]); 0 for an empty sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// -- failures ----------------------------------------------------------
// Every operation the bench attempts (runs, jobs, requests, correctness
// checks) is counted; a failed one is also described on stderr.

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "bench_e2e: check failed: %s\n", what.c_str());
    }
  }
};

// -- process-wide counters ---------------------------------------------

enum Ctr : std::size_t {
  kUniqueEvals,
  kCacheHits,
  kInflightWaits,
  kSynthCalls,
  kNetlistsBuilt,
  kCpaVariants,
  kNetlistsReused,
  kStaFull,
  kStaIncremental,
  kStaRetimed,
  kNnTimeUs,
  kGemmTimeUs,
  kNnFlops,
  kBatches,
  kBatchedDesigns,
  kCoalesceWaitUs,
  kDsdbHits,
  kDsdbMisses,
  kDsdbAppends,
  kDsdbFlushes,
  kDeltaHits,
  kDeltaFallbacks,
  kDeltaFresh,
  kDeltaTotal,
  kNumCtr,
};

constexpr std::atomic<std::uint64_t> util::PerfCounters::*kCtrField[kNumCtr] =
    {
        &util::PerfCounters::unique_evals,
        &util::PerfCounters::cache_hits,
        &util::PerfCounters::inflight_waits,
        &util::PerfCounters::synth_calls,
        &util::PerfCounters::netlists_built,
        &util::PerfCounters::cpa_variants_built,
        &util::PerfCounters::netlists_reused,
        &util::PerfCounters::sta_full_updates,
        &util::PerfCounters::sta_incremental_updates,
        &util::PerfCounters::sta_gates_retimed,
        &util::PerfCounters::nn_time_us,
        &util::PerfCounters::gemm_time_us,
        &util::PerfCounters::nn_flops,
        &util::PerfCounters::eval_batches,
        &util::PerfCounters::eval_batched_designs,
        &util::PerfCounters::eval_batch_coalesce_wait_us,
        &util::PerfCounters::dsdb_hits,
        &util::PerfCounters::dsdb_misses,
        &util::PerfCounters::dsdb_appends,
        &util::PerfCounters::dsdb_flushes,
        &util::PerfCounters::eval_delta_hits,
        &util::PerfCounters::eval_delta_fallbacks,
        &util::PerfCounters::eval_delta_fresh_gates,
        &util::PerfCounters::eval_delta_total_gates,
};

using Counters = std::array<double, kNumCtr>;

Counters read_counters() {
  Counters c{};
  util::PerfCounters& pc = util::perf_counters();
  for (std::size_t i = 0; i < kNumCtr; ++i) {
    c[i] = static_cast<double>((pc.*kCtrField[i]).load());
  }
  return c;
}

/// Accumulates (b - a) into *acc.
void add_delta(const Counters& a, const Counters& b, Counters* acc) {
  for (std::size_t i = 0; i < kNumCtr; ++i) (*acc)[i] += b[i] - a[i];
}

// -- trace spans ---------------------------------------------------------
// Kept in memory and written once at exit as Chrome trace-event JSON
// (complete "X" events), which Perfetto and chrome://tracing open. Every
// span carries its run id; `parent` names the enclosing span's id.

class TraceLog {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int tid = 0;
    std::uint64_t id = 0;
    json args;
  };

  TraceLog() : origin_(Clock::now()) {}

  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }

  int tid() {
    util::LockGuard lock(mu_);
    auto [it, inserted] =
        tids_.try_emplace(std::this_thread::get_id(), tids_.size() + 1);
    return static_cast<int>(it->second);
  }

  /// Records a span on thread `tid` (0: the calling thread); `args`
  /// should carry "run" and, below the run level, "parent". Returns the
  /// span id (`id`, or a fresh one when 0).
  std::uint64_t add(std::string name, Clock::time_point start,
                    Clock::time_point end, json args, std::uint64_t id = 0,
                    int tid_of_span = 0) {
    Span s;
    s.name = std::move(name);
    s.start = start;
    s.end = end;
    s.tid = tid_of_span != 0 ? tid_of_span : tid();
    s.id = id != 0 ? id : next_id();
    s.args = std::move(args);
    s.args["id"] = s.id;
    util::LockGuard lock(mu_);
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  void write(const std::string& path, const json& metadata) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write trace " + path);
    util::LockGuard lock(mu_);
    out << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << metadata.dump()
        << ",\"traceEvents\":[\n";
    bool first = true;
    for (const Span& s : spans_) {
      json ev = json::object();
      ev["name"] = s.name;
      ev["cat"] = s.name.substr(0, s.name.find('.'));
      ev["ph"] = "X";
      ev["pid"] = 1;
      ev["tid"] = s.tid;
      ev["ts"] = us_between(origin_, s.start);
      ev["dur"] = us_between(s.start, s.end);
      ev["args"] = s.args;
      out << (first ? "" : ",\n") << ev.dump();
      first = false;
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("short write to trace " + path);
  }

 private:
  const Clock::time_point origin_;
  std::atomic<std::uint64_t> ids_{0};
  mutable util::Mutex mu_;
  std::vector<Span> spans_ RLMUL_GUARDED_BY(mu_);
  std::map<std::thread::id, std::size_t> tids_ RLMUL_GUARDED_BY(mu_);
};

// -- synthesis probe ---------------------------------------------------
// An EvalCache that never hits. The evaluator calls lookup() right
// before synthesizing a design and store() right after, on the per-call,
// delta and batched paths alike, so [lookup miss, store] brackets one
// design's synthesis. Busy time is the union of those intervals (a
// batched drain's designs overlap), counted only inside the search
// window. Designs whose intervals overlap form one group; a span's
// `batch` arg is its group's size.

class SynthProbe final : public synth::EvalCache {
 public:
  struct Design {
    std::string key;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t step = 0;
    std::uint64_t group = 0;
    int tid = 0;
  };

  explicit SynthProbe(TraceLog& log) : log_(log) {}

  void set_active(bool on) {
    util::LockGuard lock(mu_);
    active_ = on;
  }
  void set_step(std::uint64_t span_id) { step_.store(span_id); }

  bool lookup(const std::string& key, const ct::CompressorTree&,
              synth::DesignEval&) override {
    open(key);
    return false;
  }
  void store(const std::string& key, const ct::CompressorTree&,
             const synth::DesignEval&) override {
    close(key);
  }
  bool lookup_point(const std::string& key, const ppg::DesignPoint&,
                    synth::DesignEval&) override {
    open(key);
    return false;
  }
  void store_point(const std::string& key, const ppg::DesignPoint&,
                   const synth::DesignEval&) override {
    close(key);
  }

  double busy_s() const {
    util::LockGuard lock(mu_);
    return busy_s_;
  }

  /// Moves the recorded designs into the trace as `synth.design` spans.
  void flush(std::uint64_t run_id) {
    util::LockGuard lock(mu_);
    for (const Design& d : designs_) {
      json args = json::object();
      args["run"] = run_id;
      args["parent"] = d.step;
      args["key"] = d.key;
      args["batch"] = group_size_[d.group];
      log_.add("synth.design", d.start, d.end, std::move(args), 0, d.tid);
    }
    designs_.clear();
  }

 private:
  struct Open {
    Clock::time_point start;
    std::uint64_t step = 0;
    std::uint64_t group = 0;
    int tid = 0;
  };

  void open(const std::string& key) {
    const int tid = log_.tid();
    const Clock::time_point now = Clock::now();
    util::LockGuard lock(mu_);
    if (!active_) return;
    if (open_.empty()) {
      union_start_ = now;
      ++group_;
    }
    open_[key] = Open{now, step_.load(), group_, tid};
    ++group_size_[group_];
  }

  void close(const std::string& key) {
    const Clock::time_point now = Clock::now();
    util::LockGuard lock(mu_);
    auto it = open_.find(key);
    if (it == open_.end()) return;
    designs_.push_back(Design{key, it->second.start, now, it->second.step,
                              it->second.group, it->second.tid});
    open_.erase(it);
    if (open_.empty()) busy_s_ += seconds_between(union_start_, now);
  }

  TraceLog& log_;
  std::atomic<std::uint64_t> step_{0};
  mutable util::Mutex mu_;
  bool active_ RLMUL_GUARDED_BY(mu_) = false;
  std::unordered_map<std::string, Open> open_ RLMUL_GUARDED_BY(mu_);
  Clock::time_point union_start_ RLMUL_GUARDED_BY(mu_);
  double busy_s_ RLMUL_GUARDED_BY(mu_) = 0.0;
  std::uint64_t group_ RLMUL_GUARDED_BY(mu_) = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> group_size_
      RLMUL_GUARDED_BY(mu_);
  std::vector<Design> designs_ RLMUL_GUARDED_BY(mu_);
};

// -- correctness of one result -------------------------------------------

/// The hypervolume reference point of a spec: 1.1x the Wallace design's
/// (area, delay) at the loosest default target. `wallace` is the
/// evaluation of ppg::initial_tree(spec) under default targets.
std::pair<double, double> hv_reference(const synth::DesignEval& wallace) {
  const synth::SynthesisResult& loose = wallace.per_target.back();
  return {1.1 * loose.area_um2, 1.1 * loose.delay_ns};
}

/// Rebuilds `point` (with the CPA the evaluator picked at the tightest
/// target, or its pinned graph), simulates it against the golden model
/// (exhaustive up to 2^16 input pairs, 4096 random vectors beyond), and
/// re-evaluates it on `fresh` — a default evaluator that has seen none
/// of the search — which must reproduce `best_cost` to the last bit.
/// Returns the simulation's wall time in microseconds.
double verify_best(synth::DesignEvaluator& fresh,
                   const ppg::DesignPoint& point, double best_cost,
                   const std::string& label, Tally* tally) {
  const synth::DesignEval eval = fresh.evaluate(point);
  const double cost = fresh.cost(eval, 1.0, 1.0);
  tally->check(exact(cost) == exact(best_cost),
               label + ": re-evaluated best cost " + exact(cost) +
                   " != reported " + exact(best_cost));

  const ppg::MultiplierSpec rspec = point.resolved_spec(fresh.spec());
  const netlist::Netlist nl =
      point.cpa_pinned()
          ? ppg::build_multiplier(rspec, point.tree, point.cpa)
          : ppg::build_multiplier(rspec, point.tree,
                                  eval.per_target.front().cpa);
  util::Rng rng(0xB0E2E ^ static_cast<std::uint64_t>(rspec.bits));
  const Clock::time_point t0 = Clock::now();
  const sim::EquivalenceReport rep =
      sim::check_equivalence(nl, rspec, rng, 1u << 16, 4096);
  const double sim_us = us_between(t0, Clock::now());
  tally->check(rep.equivalent, label + ": best design is not a multiplier");
  return sim_us;
}

// -- reported metrics ----------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }
  json to_json() const {
    json obj = json::object();
    for (const Metric& m : metrics_) {
      json entry = json::object();
      entry["value"] = m.value;
      entry["unit"] = m.unit;
      obj[m.name] = std::move(entry);
    }
    return obj;
  }

 private:
  std::vector<Metric> metrics_;
};

double pct(double part, double whole) {
  return whole > 0.0 ? 100.0 * part / whole : 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics read from the counters, shared by every workload.
/// `wall_s` is the thread-time the layers' shares are taken of.
void add_counter_metrics(Report& r, const Counters& c, double wall_s) {
  const double lookups = c[kCacheHits] + c[kUniqueEvals];
  r.add("synth.unique_evals", c[kUniqueEvals], "count");
  r.add("synth.cache_hit_pct", pct(c[kCacheHits], lookups), "%");
  r.add("synth.inflight_waits", c[kInflightWaits], "count");
  r.add("synth.batches", c[kBatches], "count");
  r.add("synth.batch_size_avg", ratio(c[kBatchedDesigns], c[kBatches]),
        "count");
  r.add("synth.coalesce_wait_pct", pct(1e-6 * c[kCoalesceWaitUs], wall_s),
        "%");
  r.add("synth.delta_hits", c[kDeltaHits], "count");
  r.add("synth.delta_fallbacks", c[kDeltaFallbacks], "count");
  r.add("synth.delta_cone_pct", pct(c[kDeltaFresh], c[kDeltaTotal]), "%");
  r.add("synth.calls", c[kSynthCalls], "count");
  r.add("netlist.built", c[kNetlistsBuilt], "count");
  r.add("netlist.reused", c[kNetlistsReused], "count");
  r.add("netlist.cpa_variants", c[kCpaVariants], "count");
  r.add("sta.full_updates", c[kStaFull], "count");
  r.add("sta.incremental_updates", c[kStaIncremental], "count");
  r.add("sta.gates_retimed", c[kStaRetimed], "count");
  r.add("nn.share_pct", pct(1e-6 * c[kNnTimeUs], wall_s), "%");
  r.add("nn.gemm_pct", pct(1e-6 * c[kGemmTimeUs], wall_s), "%");
  r.add("nn.gflops", ratio(1e-3 * c[kNnFlops], c[kGemmTimeUs]), "GFLOP/s");
  r.add("dsdb.hits", c[kDsdbHits], "count");
  r.add("dsdb.misses", c[kDsdbMisses], "count");
  r.add("dsdb.appends", c[kDsdbAppends], "count");
  r.add("dsdb.flushes", c[kDsdbFlushes], "count");
}

// -- workload table --------------------------------------------------------

struct SearchWorkload {
  const char* name;
  const char* method;
  int bits;
  const char* ppg;
  int steps;
  int budget;
  double nominal_s;  ///< seconds per run on the reference box
};

// Sizes: the EDA budget, not the step count, ends every run (steps
// only cap it). One run each of sa16 / a2c16 / dqn16 takes about 1.0 /
// 1.6 / 3.0 s on a 4-core x86-64 box, so --seconds 20 measures 20 / 13
// / 7 runs — enough that the per-seed spread of the quality numbers
// averages out.
constexpr SearchWorkload kSearchWorkloads[] = {
    {"sa16", "sa", 16, "and", 4096, 1024, 1.0},
    {"a2c16", "a2c", 16, "and", 2048, 512, 1.6},
    {"dqn16", "dqn", 16, "and", 1024, 128, 3.0},
};

constexpr const char* kServeWorkload = "serve_dsdb";
/// Seconds per cold+warm cycle of serve_dsdb on the reference box.
constexpr double kServeNominalS = 4.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool quick = false;
  std::string trace;
  std::string out;
  std::string workdir;
};

/// Runs measured per phase: T / nominal, /16 with --quick, at least 1.
int runs_for(double seconds, double nominal_s, bool quick) {
  long n = std::lround(seconds / nominal_s);
  if (quick) n /= 16;
  return static_cast<int>(std::max(1L, n));
}

// -- search workloads ------------------------------------------------------

struct SearchRun {
  std::uint64_t seed = 0;
  double setup_s = 0.0;
  double search_s = 0.0;
  double busy_s = 0.0;  ///< probe union (traced runs only)
  double best_cost = 0.0;
  double start_cost = 0.0;  ///< cost of the Wallace design the run starts at
  double hypervolume = 0.0;
  double sim_us = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t eda_consumed = 0;
  Counters counters{};
  std::vector<double> step_us;
  int batch = 0;
  bool delta_eval = false;
};

/// One closed-loop search run: fresh evaluator, method and driver, the
/// exact MethodConfig the CLI builds (serve::resolve_config applies the
/// same conventions), then the correctness checks outside the timers.
SearchRun run_search(const SearchWorkload& w, std::uint64_t seed, bool quick,
                     TraceLog* trace, Tally* tally) {
  const std::uint64_t run_id = trace != nullptr ? trace->next_id() : 0;
  serve::JobSpec js;
  js.bits = w.bits;
  js.ppg = w.ppg;
  js.method = w.method;
  js.steps = quick ? std::max(1, w.steps / 16) : w.steps;
  js.budget = static_cast<std::uint64_t>(quick ? std::max(1, w.budget / 16)
                                               : w.budget);
  js.seed = seed;
  const ppg::MultiplierSpec spec = serve::resolve_spec(js);
  const search::MethodConfig cfg = serve::resolve_config(js);

  SearchRun run;
  run.seed = seed;
  std::optional<SynthProbe> probe;
  synth::EvaluatorOptions eopts;
  if (trace != nullptr) {
    probe.emplace(*trace);
    eopts.external_cache = &*probe;
  }

  const Clock::time_point t0 = Clock::now();
  synth::DesignEvaluator evaluator(spec, {}, eopts);
  search::DriverOptions dopts;
  dopts.eda_budget = js.budget;
  search::Driver driver(evaluator, dopts);
  std::unique_ptr<search::Method> method = search::make_method(js.method, cfg);
  driver.begin(*method);
  const Clock::time_point t1 = Clock::now();
  run.setup_s = seconds_between(t0, t1);
  run.batch = evaluator.batch();
  run.delta_eval = evaluator.delta_eval();

  const Counters c0 = read_counters();
  if (probe) probe->set_active(true);
  for (;;) {
    const std::uint64_t step_id = trace != nullptr ? trace->next_id() : 0;
    if (probe) probe->set_step(step_id);
    const Clock::time_point s0 = Clock::now();
    const bool more = driver.step_once(*method);
    const Clock::time_point s1 = Clock::now();
    run.step_us.push_back(us_between(s0, s1));
    if (trace != nullptr) {
      json args = json::object();
      args["run"] = run_id;
      args["parent"] = run_id;
      args["step"] = run.step_us.size();
      trace->add("step", s0, s1, std::move(args), step_id);
    }
    if (!more) break;
  }
  const search::RunResult res = driver.finish(*method);
  const Clock::time_point t2 = Clock::now();
  if (probe) probe->set_active(false);
  add_delta(c0, read_counters(), &run.counters);
  run.search_s = seconds_between(t1, t2);
  run.best_cost = res.best_cost;
  run.steps = res.steps_done;
  run.eda_consumed = res.eda_consumed;

  if (trace != nullptr) {
    run.busy_s = probe->busy_s();
    probe->flush(run_id);
    json args = json::object();
    args["run"] = run_id;
    args["seed"] = seed;
    trace->add("run", t0, t2, args, run_id);
    args["parent"] = run_id;
    trace->add("setup", t0, t1, std::move(args));
  }

  // -- correctness and quality, outside the timed region --
  const std::string label = std::string(w.name) + " seed " +
                            std::to_string(seed);
  tally->check(res.eda_consumed <= js.budget,
               label + ": eda_consumed " + std::to_string(res.eda_consumed) +
                   " exceeds budget " + std::to_string(js.budget));
  synth::DesignEvaluator fresh(spec);
  run.sim_us = verify_best(fresh, res.best_point, res.best_cost, label, tally);
  // Design 0 of every evaluator is its constructor's Wallace reference.
  run.start_cost = fresh.cost(fresh.eval_of(0), 1.0, 1.0);
  const auto [rx, ry] = hv_reference(fresh.eval_of(0));
  run.hypervolume =
      pareto::hypervolume(evaluator.frontier().points(), rx, ry);
  return run;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Runs units 0..n-1 (a search run or a serve cycle each) as a closed
/// loop. With a trace, every unit runs twice, untraced into *plain and
/// traced into *probed, alternating which goes first so neither side
/// always pays for the process's cold start.
///
/// *first_rss_mb is the process's peak RSS once the first untraced unit
/// has finished: what one CLI run, or one cold+warm daemon pair, needs.
/// Later units in the same process add only allocator fragmentation,
/// which varies from run to run.
template <typename Unit, typename Fn>
void run_units(int n, TraceLog* trace, const char* what, Tally* tally,
               std::vector<Unit>* plain, std::vector<Unit>* probed,
               double* first_rss_mb, Fn fn) {
  auto once = [&](int i, TraceLog* t, std::vector<Unit>* out) {
    try {
      out->push_back(fn(i, t));
      if (t == nullptr && out->size() == 1) *first_rss_mb = peak_rss_mb();
      tally->check(true, what);
    } catch (const std::exception& e) {
      tally->check(false, std::string(what) + " threw: " + e.what());
    }
  };
  for (int i = 0; i < n; ++i) {
    const bool traced_first = trace != nullptr && i % 2 == 1;
    if (traced_first) once(i, trace, probed);
    once(i, nullptr, plain);
    if (trace != nullptr && !traced_first) once(i, trace, probed);
  }
}

/// Fails unless the searches, on average, beat the designs they started
/// from. Without it a search that always returned its start would pass:
/// the Wallace start sits within 1% of the RL workloads' mean best cost.
/// `--quick` runs are too short to promise an improvement and skip it.
void check_improved(const std::vector<double>& best,
                    const std::vector<double>& start, bool quick,
                    Tally* tally) {
  if (quick || best.empty()) return;
  tally->check(mean(best) < mean(start),
               "mean best cost " + exact(mean(best)) +
                   " does not beat the start designs' " + exact(mean(start)));
}

void add_search_end_to_end(Report& r, const std::vector<SearchRun>& runs) {
  double setup = 0.0;
  std::vector<double> search, rate, best;
  for (const SearchRun& run : runs) {
    setup += run.setup_s;
    search.push_back(run.search_s);
    rate.push_back(ratio(run.counters[kUniqueEvals], run.search_s));
    best.push_back(run.best_cost);
  }
  r.add("setup_s", setup, "s");
  r.add("search_s", median(search), "s");
  r.add("designs_per_s", median(rate), "1/s");
  r.add("best_cost", mean(best), "1");
}

void add_search_per_layer(Report& r, const std::vector<SearchRun>& traced,
                          const std::vector<SearchRun>& untraced) {
  std::vector<double> steps_us, sim_us, hv;
  double search = 0.0, busy = 0.0, untraced_search = 0.0;
  double steps = 0.0, eda = 0.0;
  Counters c{};
  for (const SearchRun& run : traced) {
    steps_us.insert(steps_us.end(), run.step_us.begin(), run.step_us.end());
    sim_us.push_back(run.sim_us);
    hv.push_back(run.hypervolume);
    search += run.search_s;
    busy += run.busy_s;
    steps += static_cast<double>(run.steps);
    eda += static_cast<double>(run.eda_consumed);
    for (std::size_t i = 0; i < kNumCtr; ++i) c[i] += run.counters[i];
  }
  for (const SearchRun& run : untraced) untraced_search += run.search_s;
  const double nn_s = 1e-6 * c[kNnTimeUs];
  r.add("search.steps", steps, "count");
  r.add("search.step_p50_us", median(steps_us), "us");
  r.add("search.step_p90_us", percentile(steps_us, 0.9), "us");
  r.add("search.self_pct", pct(search - busy - nn_s, search), "%");
  r.add("search.eda_consumed", eda, "count");
  r.add("search.hypervolume", mean(hv), "um2.ns");
  r.add("synth.busy_pct", pct(busy, search), "%");
  r.add("synth.us_per_design", 1e6 * ratio(busy, c[kUniqueEvals]), "us");
  add_counter_metrics(r, c, search);
  r.add("dsdb.journal_bytes", 0.0, "bytes");
  r.add("dsdb.warm_pct", 0.0, "%");
  r.add("serve.requests", 0.0, "count");
  r.add("serve.event_gaps", 0.0, "count");
  r.add("sim.verify_us_per_design", median(sim_us), "us");
  r.add("trace.overhead_pct", pct(search - untraced_search, untraced_search),
        "%");
  // Absolute times behind the shares (not part of BENCHMARK.json).
  r.add("search.self_s", search - busy - nn_s, "s");
  r.add("synth.busy_s", busy, "s");
  r.add("nn.time_s", nn_s, "s");
  r.add("nn.gemm_s", 1e-6 * c[kGemmTimeUs], "s");
}

// -- serve_dsdb ------------------------------------------------------------

/// The six cold-pass jobs: distinct contracts (no two share an
/// evaluator), step-bounded and unbudgeted, so each is deterministic and
/// the warm pass replays it exactly.
std::vector<serve::JobSpec> serve_jobs(std::uint64_t seed, bool quick) {
  struct Row {
    const char* method;
    int bits;
    const char* ppg;
    int steps;
    bool joint;  ///< cpa + ppg search: the per-call point path
  };
  constexpr Row kRows[] = {
      {"sa", 16, "and", 384, false}, {"sa", 16, "mbe", 256, true},
      {"a2c", 16, "bw", 256, false}, {"dqn", 8, "and", 256, false},
      {"a2c", 8, "mbe", 512, false}, {"sa", 12, "and", 512, false},
  };
  std::vector<serve::JobSpec> jobs;
  for (const Row& row : kRows) {
    serve::JobSpec js;
    js.method = row.method;
    js.bits = row.bits;
    js.ppg = row.ppg;
    js.steps = quick ? std::max(8, row.steps / 16) : row.steps;
    js.seed = seed;
    js.cpa_search = row.joint;
    js.ppg_search = row.joint;
    jobs.push_back(js);
  }
  return jobs;
}

struct JobOutcome {
  double best_cost = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t eda_consumed = 0;
  double run_s = 0.0;  ///< "running" state event -> terminal event
};

struct PassOutcome {
  double setup_s = 0.0;
  double makespan_s = 0.0;
  std::vector<JobOutcome> jobs;
  std::vector<double> status_us;  ///< due time -> response
  std::vector<double> lag_us;     ///< due time -> send
  std::vector<double> submit_us;
  std::uint64_t requests = 0;
  std::uint64_t event_gaps = 0;
  Counters counters{};
  std::uint64_t journal_bytes = 0;
};

bool terminal_state(const std::string& s) {
  return s == "done" || s == "failed" || s == "cancelled" || s == "drained";
}

/// `v[key]`; throws when the field is missing.
const json& field(const json& v, const char* key) {
  const json* f = v.find(key);
  if (f == nullptr) throw std::runtime_error(std::string("no field ") + key);
  return *f;
}

/// An in-process daemon on its own poll thread, stopped and joined by
/// the destructor on every path.
class Daemon {
 public:
  explicit Daemon(const serve::ServerOptions& opts)
      : server_(opts), loop_([this]() { server_.run(); }) {}
  ~Daemon() {
    server_.request_shutdown();
    loop_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  serve::Server& server() { return server_; }

 private:
  serve::Server server_;
  std::thread loop_;  ///< declared last: runs server_
};

/// Open-loop `status` poller on its own connection and thread: one
/// request every 5 ms (200 req/s), each timed from its due time,
/// cycling over `ids`. Results are valid after stop().
class Poller {
 public:
  Poller(std::string sock, std::vector<std::uint64_t> ids, TraceLog* trace,
         std::uint64_t run_id)
      : sock_(std::move(sock)),
        ids_(std::move(ids)),
        trace_(trace),
        run_id_(run_id),
        thread_([this]() { loop(); }) {}
  ~Poller() { stop(); }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> status_us;  ///< due time -> response
  std::vector<double> lag_us;     ///< due time -> send
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;

 private:
  void loop() {
    constexpr auto kPeriod = std::chrono::microseconds(5000);
    try {
      serve::Client client(sock_);
      const Clock::time_point start = Clock::now();
      for (std::size_t k = 0; !stop_.load(); ++k) {
        const Clock::time_point due = start + kPeriod * k;
        std::this_thread::sleep_until(due);
        if (stop_.load()) break;
        const Clock::time_point sent = Clock::now();
        ++requests;
        try {
          (void)client.status(ids_[k % ids_.size()]);
        } catch (const std::exception& e) {
          ++failed;
          std::fprintf(stderr, "bench_e2e: status failed: %s\n", e.what());
        }
        const Clock::time_point got = Clock::now();
        status_us.push_back(us_between(due, got));
        lag_us.push_back(us_between(due, sent));
        if (trace_ != nullptr) {
          json args = json::object();
          args["run"] = run_id_;
          args["parent"] = run_id_;
          args["op"] = "status";
          trace_->add("serve.request", due, got, std::move(args));
        }
      }
    } catch (const std::exception& e) {
      ++failed;
      std::fprintf(stderr, "bench_e2e: poller failed: %s\n", e.what());
    }
  }

  const std::string sock_;
  const std::vector<std::uint64_t> ids_;
  TraceLog* const trace_;
  const std::uint64_t run_id_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  ///< declared last: reads everything above
};

/// One daemon lifetime: construct, wait until it listens, submit every
/// job subscribed, follow the event streams to the last terminal event
/// while the poller runs, then shut the daemon down.
PassOutcome run_pass(const std::vector<serve::JobSpec>& specs,
                     const std::string& dir, const char* pass,
                     TraceLog* trace, std::uint64_t run_id, Tally* tally) {
  PassOutcome out;
  serve::ServerOptions so;
  so.socket_path = dir + "/sock";
  so.scheduler.dsdb_dir = dir + "/dsdb";
  so.scheduler.state_dir = dir + "/state-" + pass;

  auto span = [&](const char* name, Clock::time_point a, Clock::time_point b,
                  json args) {
    if (trace == nullptr) return;
    args["run"] = run_id;
    args["parent"] = run_id;
    args["pass"] = pass;
    trace->add(name, a, b, std::move(args));
  };

  const Clock::time_point t0 = Clock::now();
  Daemon daemon(so);
  std::unique_ptr<serve::Client> client;
  while (client == nullptr) {
    try {
      client = std::make_unique<serve::Client>(so.socket_path);
    } catch (const std::exception&) {
      if (seconds_between(t0, Clock::now()) > 30.0) {
        throw std::runtime_error("daemon never started listening");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  const Clock::time_point t_listen = Clock::now();
  out.setup_s = seconds_between(t0, t_listen);
  span("setup", t0, t_listen, json::object());

  const Counters c0 = read_counters();
  std::vector<std::uint64_t> ids;
  std::map<std::uint64_t, Clock::time_point> submitted, running, finished;
  std::map<std::uint64_t, std::uint64_t> next_seq;
  std::map<std::uint64_t, std::string> states;
  const Clock::time_point first_submit = Clock::now();
  for (const serve::JobSpec& js : specs) {
    const Clock::time_point s0 = Clock::now();
    const std::uint64_t id = client->submit(js, /*subscribe=*/true);
    const Clock::time_point s1 = Clock::now();
    ++out.requests;
    out.submit_us.push_back(us_between(s0, s1));
    json args = json::object();
    args["op"] = "submit";
    span("serve.request", s0, s1, std::move(args));
    ids.push_back(id);
    submitted[id] = s0;
    next_seq[id] = 0;
  }

  Poller poller(so.socket_path, ids, trace, run_id);
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(150);
  std::size_t open_jobs = ids.size();
  while (open_jobs > 0 && Clock::now() < deadline) {
    json ev;
    if (!client->wait_event(&ev, 500)) continue;
    const Clock::time_point now = Clock::now();
    const std::uint64_t id = field(ev, "job").as_u64();
    const std::uint64_t seq = field(ev, "seq").as_u64();
    if (seq != next_seq[id]) ++out.event_gaps;
    next_seq[id] = seq + 1;
    if (field(ev, "event").as_string() != "state") continue;
    const std::string& s = field(ev, "state").as_string();
    if (s == "running") running[id] = now;
    if (terminal_state(s) && states.count(id) == 0) {
      states[id] = s;
      finished[id] = now;
      --open_jobs;
    }
  }
  add_delta(c0, read_counters(), &out.counters);
  poller.stop();
  out.status_us = std::move(poller.status_us);
  out.lag_us = std::move(poller.lag_us);
  out.requests += poller.requests;
  tally->attempted += poller.requests;
  tally->failed += poller.failed;

  Clock::time_point last_done = first_submit;
  for (const std::uint64_t id : ids) {
    JobOutcome job;
    const std::string state = states.count(id) != 0 ? states[id] : "lost";
    tally->check(state == "done", std::string(pass) + " job " +
                                      std::to_string(id) + " ended " + state);
    if (finished.count(id) != 0) {
      last_done = std::max(last_done, finished[id]);
      json args = json::object();
      args["job"] = id;
      span("serve.job", submitted[id], finished[id], std::move(args));
    }
    if (running.count(id) != 0 && finished.count(id) != 0) {
      job.run_s = seconds_between(running[id], finished[id]);
    }
    const json st = client->status(id);
    ++out.requests;
    job.best_cost = field(st, "best_cost").as_double();
    job.steps = field(st, "steps_done").as_u64();
    job.eda_consumed = field(st, "eda_consumed").as_u64();
    tally->check(field(st, "events").as_u64() == next_seq[id],
                 std::string(pass) + " job " + std::to_string(id) +
                     ": events received != events emitted");
    out.jobs.push_back(job);
  }
  out.makespan_s = seconds_between(first_submit, last_done);
  out.journal_bytes = daemon.server().scheduler().store()->journal_bytes();
  client->shutdown_server();
  ++out.requests;
  return out;
}

struct ServeCycle {
  std::uint64_t seed = 0;
  PassOutcome cold;
  PassOutcome warm;
  std::vector<double> hypervolume;  ///< per cold job
  std::vector<double> start_cost;   ///< per job: its Wallace start's cost
  std::vector<double> sim_us;
};

/// Cold pass over a fresh dsdb, warm pass on a second daemon over the
/// same dsdb, then the correctness checks against the stored records.
ServeCycle run_cycle(std::uint64_t seed, bool quick, const std::string& dir,
                     TraceLog* trace, Tally* tally) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::vector<serve::JobSpec> specs = serve_jobs(seed, quick);
  const std::uint64_t run_id = trace != nullptr ? trace->next_id() : 0;
  const Clock::time_point t0 = Clock::now();

  ServeCycle cyc;
  cyc.seed = seed;
  cyc.cold = run_pass(specs, dir, "cold", trace, run_id, tally);
  cyc.warm = run_pass(specs, dir, "warm", trace, run_id, tally);
  if (trace != nullptr) {
    json args = json::object();
    args["run"] = run_id;
    args["seed"] = seed;
    trace->add("run", t0, Clock::now(), std::move(args), run_id);
  }

  tally->check(cyc.warm.counters[kUniqueEvals] == 0.0,
               "warm pass synthesized " +
                   exact(cyc.warm.counters[kUniqueEvals]) + " designs");
  tally->check(cyc.cold.event_gaps + cyc.warm.event_gaps == 0,
               "event stream gaps");
  const std::size_t n = std::min(cyc.cold.jobs.size(), cyc.warm.jobs.size());
  tally->check(n == specs.size(), "jobs missing from a pass");
  for (std::size_t i = 0; i < n; ++i) {
    tally->check(exact(cyc.cold.jobs[i].best_cost) ==
                     exact(cyc.warm.jobs[i].best_cost),
                 "job " + std::to_string(i) + ": warm best_cost " +
                     exact(cyc.warm.jobs[i].best_cost) + " != cold " +
                     exact(cyc.cold.jobs[i].best_cost));
  }

  // Each job's best design is a stored record whose cost (under a fresh
  // default evaluator of the job's contract) is the reported best cost.
  const std::vector<dsdb::Record> records =
      dsdb::Store(dir + "/dsdb", {.read_only = true}).all_records();
  for (std::size_t i = 0; i < n; ++i) {
    const serve::JobSpec& js = specs[i];
    const std::string label = "serve job " + std::to_string(i) + " (" +
                              js.method + " " + std::to_string(js.bits) +
                              "b " + js.ppg + ")";
    synth::DesignEvaluator fresh(serve::resolve_spec(js));
    cyc.start_cost.push_back(fresh.cost(fresh.eval_of(0), 1.0, 1.0));
    const auto [rx, ry] = hv_reference(fresh.eval_of(0));
    pareto::Front front;
    const dsdb::Record* best = nullptr;
    const std::string want = exact(cyc.cold.jobs[i].best_cost);
    for (const dsdb::Record& rec : records) {
      if (rec.targets != fresh.targets() || rec.spec.bits != js.bits) continue;
      for (const synth::SynthesisResult& res : rec.eval.per_target) {
        front.insert(pareto::Point{res.area_um2, res.delay_ns, 0});
      }
      if (best == nullptr && exact(fresh.cost(rec.eval, 1.0, 1.0)) == want) {
        best = &rec;
      }
    }
    cyc.hypervolume.push_back(pareto::hypervolume(front.points(), rx, ry));
    tally->check(best != nullptr,
                 label + ": no stored design has the best cost " + want);
    if (best == nullptr) continue;
    ppg::DesignPoint point;
    point.ppg = best->spec.ppg;
    point.tree = best->tree;
    point.cpa = best->cpa;
    cyc.sim_us.push_back(
        verify_best(fresh, point, cyc.cold.jobs[i].best_cost, label, tally));
  }
  fs::remove_all(dir);
  return cyc;
}

void add_serve_end_to_end(Report& r, const std::vector<ServeCycle>& cycles) {
  double setup = 0.0;
  std::vector<double> search, rate, best, cold, warm, status, submit, lag;
  for (const ServeCycle& c : cycles) {
    setup += c.cold.setup_s + c.warm.setup_s;
    search.push_back(c.cold.makespan_s + c.warm.makespan_s);
    cold.push_back(c.cold.makespan_s);
    warm.push_back(c.warm.makespan_s);
    rate.push_back(ratio(c.cold.counters[kUniqueEvals], c.cold.makespan_s));
    for (const JobOutcome& j : c.cold.jobs) best.push_back(j.best_cost);
    status.insert(status.end(), c.cold.status_us.begin(),
                  c.cold.status_us.end());
    submit.insert(submit.end(), c.cold.submit_us.begin(),
                  c.cold.submit_us.end());
    lag.insert(lag.end(), c.cold.lag_us.begin(), c.cold.lag_us.end());
  }
  r.add("setup_s", setup, "s");
  r.add("search_s", median(search), "s");
  r.add("designs_per_s", median(rate), "1/s");
  r.add("best_cost", mean(best), "1");
  // serve_dsdb only (not part of BENCHMARK.json).
  r.add("makespan_cold_s", median(cold), "s");
  r.add("makespan_warm_s", median(warm), "s");
  r.add("status_p50_us", median(status), "us");
  r.add("submit_p50_us", median(submit), "us");
  r.add("gen_lag_p99_us", percentile(lag, 0.99), "us");
}

void add_serve_per_layer(Report& r, const std::vector<ServeCycle>& traced,
                         const std::vector<ServeCycle>& untraced,
                         int max_active) {
  std::vector<double> step_us, status_us, sim_us, hv;
  double cold = 0.0, warm = 0.0, steps = 0.0, eda = 0.0, requests = 0.0;
  double gaps = 0.0, untraced_total = 0.0;
  Counters c{};
  for (const ServeCycle& cyc : traced) {
    cold += cyc.cold.makespan_s;
    warm += cyc.warm.makespan_s;
    hv.insert(hv.end(), cyc.hypervolume.begin(), cyc.hypervolume.end());
    for (const JobOutcome& j : cyc.cold.jobs) {
      steps += static_cast<double>(j.steps);
      eda += static_cast<double>(j.eda_consumed);
      if (j.steps > 0) step_us.push_back(1e6 * j.run_s / j.steps);
    }
    status_us.insert(status_us.end(), cyc.cold.status_us.begin(),
                     cyc.cold.status_us.end());
    sim_us.insert(sim_us.end(), cyc.sim_us.begin(), cyc.sim_us.end());
    requests += static_cast<double>(cyc.cold.requests + cyc.warm.requests);
    gaps += static_cast<double>(cyc.cold.event_gaps + cyc.warm.event_gaps);
    for (std::size_t i = 0; i < kNumCtr; ++i) {
      c[i] += cyc.cold.counters[i] + cyc.warm.counters[i];
    }
  }
  for (const ServeCycle& cyc : untraced) {
    untraced_total += cyc.cold.makespan_s + cyc.warm.makespan_s;
  }
  // The warm pass replays the cold pass's trajectories with every
  // design served from the dsdb, so the makespan difference is the wall
  // time the cold pass spent synthesizing. Layer shares are taken of
  // the daemon's step capacity: max_active jobs x wall time.
  const double busy = std::max(0.0, cold - warm);
  const double capacity = static_cast<double>(max_active) * (cold + warm);
  const double nn_s = 1e-6 * c[kNnTimeUs];
  const double synth_share = pct(busy, cold + warm);
  const double nn_share = pct(nn_s, capacity);
  r.add("search.steps", steps, "count");
  r.add("search.step_p50_us", median(step_us), "us");
  r.add("search.step_p90_us", percentile(step_us, 0.9), "us");
  r.add("search.self_pct", std::max(0.0, 100.0 - synth_share - nn_share),
        "%");
  r.add("search.eda_consumed", eda, "count");
  r.add("search.hypervolume", mean(hv), "um2.ns");
  r.add("synth.busy_pct", synth_share, "%");
  r.add("synth.us_per_design", 1e6 * ratio(busy, c[kUniqueEvals]), "us");
  add_counter_metrics(r, c, capacity);
  r.add("dsdb.warm_pct", pct(warm, cold), "%");
  r.add("serve.requests", requests, "count");
  r.add("serve.event_gaps", gaps, "count");
  r.add("sim.verify_us_per_design", median(sim_us), "us");
  r.add("trace.overhead_pct",
        pct(cold + warm - untraced_total, untraced_total), "%");
  double journal = 0.0, open_s = 0.0;
  for (const ServeCycle& cyc : traced) {
    journal += static_cast<double>(cyc.warm.journal_bytes);
    open_s += cyc.warm.setup_s;
  }
  r.add("dsdb.journal_bytes", journal, "bytes");
  r.add("dsdb.open_s", open_s, "s");
  r.add("serve.status_p99_us", percentile(status_us, 0.99), "us");
  r.add("synth.busy_s", busy, "s");
  r.add("nn.time_s", nn_s, "s");
}

// -- driver ----------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload sa16|a2c16|dqn16|serve_dsdb "
               "--seed S [--seconds T] [--quick]\n"
               "                 [--trace FILE] [--out FILE] [--workdir "
               "DIR]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--quick") {
      a->quick = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return false;
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      a->trace = v;
    } else if (flag == "--out") {
      a->out = v;
    } else if (flag == "--workdir") {
      a->workdir = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

/// The name of the first RLMUL_* environment variable, or "".
std::string pinned_knob() {
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "RLMUL_", 6) == 0) {
      const char* eq = std::strchr(*e, '=');
      return eq != nullptr ? std::string(*e, static_cast<std::size_t>(eq - *e))
                           : std::string(*e);
    }
  }
  return "";
}

/// A fresh private directory under `parent` (default $TMPDIR) for the
/// serve workload's socket, dsdb and state dirs.
std::string make_workdir(const std::string& parent) {
  namespace fs = std::filesystem;
  const fs::path base =
      parent.empty() ? fs::temp_directory_path() : fs::path(parent);
  fs::create_directories(base);
  std::string tmpl = (base / "bench_e2e.XXXXXX").string();
  if (mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed under " + base.string());
  }
  return tmpl;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();
  const std::string knob = pinned_knob();
  if (!knob.empty()) {
    std::fprintf(stderr,
                 "bench_e2e: %s is set; this benchmark measures the default "
                 "configuration only — unset every RLMUL_* variable\n",
                 knob.c_str());
    return 2;
  }
  const SearchWorkload* search_w = nullptr;
  for (const SearchWorkload& w : kSearchWorkloads) {
    if (args.workload == w.name) search_w = &w;
  }
  const bool serve_w = args.workload == kServeWorkload;
  if (search_w == nullptr && !serve_w) return usage();

  const bool traced = !args.trace.empty();
  Tally tally;
  Report end_to_end;
  Report per_layer;
  json config = json::object();
  double first_unit_rss_mb = 0.0;
  std::unique_ptr<TraceLog> trace;
  if (traced) trace = std::make_unique<TraceLog>();

  try {
    if (search_w != nullptr) {
      int runs = runs_for(args.seconds, search_w->nominal_s, args.quick);
      if (traced) runs = std::max(1, runs / 2);
      std::vector<SearchRun> plain, probed;
      run_units(runs, trace.get(), "search run", &tally, &plain, &probed,
                &first_unit_rss_mb, [&](int i, TraceLog* t) {
                  return run_search(*search_w,
                                    args.seed + static_cast<std::uint64_t>(i),
                                    args.quick, t, &tally);
                });
      std::vector<double> best, start;
      for (const SearchRun& run : plain) {
        best.push_back(run.best_cost);
        start.push_back(run.start_cost);
      }
      check_improved(best, start, args.quick, &tally);
      add_search_end_to_end(end_to_end, plain);
      if (traced) add_search_per_layer(per_layer, probed, plain);
      config["method"] = search_w->method;
      config["bits"] = search_w->bits;
      config["ppg"] = search_w->ppg;
      config["steps"] = args.quick ? search_w->steps / 16 : search_w->steps;
      config["budget"] = args.quick ? search_w->budget / 16 : search_w->budget;
      config["runs"] = runs;
      if (!plain.empty()) {
        config["evaluator_batch"] = plain.front().batch;
        config["delta_eval"] = plain.front().delta_eval;
      }
      json per_run = json::array();
      for (const SearchRun& run : plain) {
        json r = json::object();
        r["seed"] = run.seed;
        r["setup_s"] = run.setup_s;
        r["search_s"] = run.search_s;
        r["best_cost"] = run.best_cost;
        r["hypervolume"] = run.hypervolume;
        r["unique_evals"] = run.counters[kUniqueEvals];
        r["steps"] = run.steps;
        per_run.push_back(std::move(r));
      }
      config["per_run"] = std::move(per_run);
    } else {
      const std::string dir = make_workdir(args.workdir);
      int cycles = runs_for(args.seconds, kServeNominalS, args.quick);
      if (traced) cycles = std::max(1, cycles / 2);
      const serve::SchedulerOptions sched;
      std::vector<ServeCycle> plain, probed;
      run_units(cycles, trace.get(), "serve cycle", &tally, &plain, &probed,
                &first_unit_rss_mb, [&](int i, TraceLog* t) {
                  return run_cycle(args.seed + static_cast<std::uint64_t>(i),
                                   args.quick, dir + "/c", t, &tally);
                });
      std::filesystem::remove_all(dir);
      std::vector<double> best, start;
      for (const ServeCycle& cyc : plain) {
        for (const JobOutcome& j : cyc.cold.jobs) best.push_back(j.best_cost);
        start.insert(start.end(), cyc.start_cost.begin(), cyc.start_cost.end());
      }
      check_improved(best, start, args.quick, &tally);
      add_serve_end_to_end(end_to_end, plain);
      if (traced) {
        add_serve_per_layer(per_layer, probed, plain, sched.max_active);
      }
      config["max_active"] = sched.max_active;
      config["step_threads"] = sched.step_threads;
      config["cycles"] = cycles;
      json per_cycle = json::array();
      for (const ServeCycle& cyc : plain) {
        json r = json::object();
        r["seed"] = cyc.seed;
        r["setup_cold_s"] = cyc.cold.setup_s;
        r["setup_warm_s"] = cyc.warm.setup_s;
        r["makespan_cold_s"] = cyc.cold.makespan_s;
        r["makespan_warm_s"] = cyc.warm.makespan_s;
        r["unique_evals"] = cyc.cold.counters[kUniqueEvals];
        per_cycle.push_back(std::move(r));
      }
      config["per_cycle"] = std::move(per_cycle);
      json jobs = json::array();
      for (const serve::JobSpec& js : serve_jobs(args.seed, args.quick)) {
        jobs.push_back(serve::to_json(js));
      }
      config["jobs"] = std::move(jobs);
    }
  } catch (const std::exception& e) {
    tally.check(false, std::string("workload aborted: ") + e.what());
  }

  end_to_end.add("peak_rss_mb", first_unit_rss_mb, "MB");
  end_to_end.add("error_rate",
                 ratio(static_cast<double>(tally.failed),
                       static_cast<double>(tally.attempted)),
                 "ratio");

  json doc = json::object();
  doc["workload"] = args.workload;
  doc["seed"] = args.seed;
  doc["seconds"] = args.seconds;
  doc["quick"] = args.quick;
  doc["traced"] = traced;
  doc["build"] = util::build_info();
  doc["cpus"] = static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  doc["config"] = std::move(config);
  doc["correct"] = tally.failed == 0;
  doc["attempted"] = tally.attempted;
  doc["failed"] = tally.failed;
  doc["metrics"] = end_to_end.to_json();
  if (traced) doc["per_layer"] = per_layer.to_json();

  if (traced) {
    try {
      json meta = json::object();
      meta["workload"] = args.workload;
      meta["seed"] = args.seed;
      meta["build"] = util::build_info();
      trace->write(args.trace, meta);
    } catch (const std::exception& e) {
      tally.check(false, e.what());
      doc["correct"] = false;
      doc["attempted"] = tally.attempted;
      doc["failed"] = tally.failed;
    }
  }

  for (const Report* r : {&end_to_end, &per_layer}) {
    for (const Metric& m : r->metrics()) {
      std::printf("%s %s %.9g %s\n", m.name.c_str(), args.workload.c_str(),
                  m.value, m.unit.c_str());
    }
  }
  const std::string text = doc.dump();
  std::printf("%s\n", text.c_str());
  if (!args.out.empty()) {
    std::ofstream out(args.out, std::ios::trunc);
    out << text << "\n";
    if (!out) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", args.out.c_str());
      return 1;
    }
  }
  return tally.failed == 0 ? 0 : 1;
}
