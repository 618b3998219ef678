// perfbench worker: runs one benchmark workload on the real RuntimeBackend
// in a closed loop — one Program execution at a time, each verified — and
// streams one JSON object per line to stdout:
//
//   {"type":"layers", ...}  one-off per-layer measurements (--mode traced)
//   {"type":"exec", ...}    one per execution
//   {"type":"done", ...}    last line; carries the benchmark's spans
//
// run.py drives it under a per-line deadline and kills it when a line is
// late, so a hung execution costs one deadline, never the whole run. The
// worker only times calls into public functions of the layers
// (Workload::build, RuntimeBackend::run, treematch::map_threads,
// SimBackend::run, lk23::sequential_kernel) and reads what RunReport
// returns; it adds nothing inside the library.
//
//   perfbench_worker --workload lk23 --seed 1 --seconds 10 --mode e2e
//
// Modes: e2e runs TreeMatch-placed executions with tracing off. traced
// first emits the layers line, then cycles plain / traced / unbound
// executions (unbound = place::Policy::None), so the ratios between them
// come from interleaved executions of one process.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/metrics.h"
#include "lk23/kernel.h"
#include "lk23/lk23_program.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "orwl/backend.h"
#include "orwl/program.h"
#include "topo/topology.h"
#include "treematch/treematch.h"
#include "workloads/workloads.h"

namespace {

using namespace orwl;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

using BuildFn =
    std::function<workloads::Built(Program&, const workloads::Params&)>;

struct Config {
  std::string name;
  workloads::Params params;
  /// Online re-placement for TreeMatch executions (phaseshift only: it is
  /// the one workload whose pattern drifts).
  place::ReplacementPolicy replacement;
  BuildFn build;
};

/// A 4-task ring built from the public Program API whose task 1 throws in
/// round 3. The benchmark's self-test: whatever the runtime does with the
/// exception (return it, or hang its peers), run.py must record a failed
/// execution within the deadline and carry on.
workloads::Built build_throwing_ring(Program& p,
                                     const workloads::Params& params) {
  const int n = params.tasks;
  std::vector<Location<long>> stage;
  for (int i = 0; i < n; ++i)
    stage.push_back(p.location<long>(1, "stage" + std::to_string(i)));
  for (int i = 0; i < n; ++i) {
    const Location<long> in = stage[static_cast<std::size_t>(i)];
    const Location<long> out = stage[static_cast<std::size_t>((i + 1) % n)];
    p.task("stage" + std::to_string(i))
        .reads(in)
        .writes(out)
        .iterations(params.iterations)
        .body([i, in, out](Step& s) {
          if (i == 1 && s.round() == 3)
            throw std::runtime_error("deliberate throw in task 1, round 3");
          const long v =
              s.read(in, [](std::span<const long> x) { return x[0]; });
          s.write(out, [v](std::span<long> x) { x[0] = v + 1; });
        });
  }
  workloads::Built built;
  built.num_tasks = n;
  built.predicted = p.static_comm_matrix();
  built.verify = [](Backend&, std::string&) { return true; };
  return built;
}

Config config_for(const std::string& name) {
  // Scales are set so one execution takes tens of milliseconds on a 4-PU
  // host: long enough that the runtime's own work dominates set-up noise,
  // short enough for a few hundred executions per measured run.
  if (name == "lk23")  // 4 mains + 32 frontier ops, 512x512-double blocks
    return {name, {.tasks = 4, .size = 1024, .iterations = 20}, {},
            workloads::get(name).build};
  if (name == "alltoall")  // grant path with batched 3-reader runs
    return {name, {.tasks = 4, .size = 256, .iterations = 2000}, {},
            workloads::get(name).build};
  if (name == "oversub")  // 96 runtime threads, single-reader handoffs
    return {name, {.tasks = 48, .size = 128, .iterations = 200}, {},
            workloads::get(name).build};
  if (name == "phaseshift")  // the only workload that re-places online
    return {name, {.tasks = 64, .size = 4096, .iterations = 32},
            place::ReplacementPolicy::on_drift(0.25, 2),
            workloads::get(name).build};
  if (name == "selftest_throw")
    return {name, {.tasks = 4, .size = 1, .iterations = 10}, {},
            build_throwing_ring};
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------------
// Spans: the benchmark's own, recorded around calls into each layer
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

struct Span {
  int id = 0;
  int parent = -1;  ///< -1 for a root
  int exec = 0;     ///< execution id; 0 = the one-off layers pass
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store; written out once, in the done line. While
/// recording is off, every call is a no-op.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}
  void enable(bool on) { enabled_ = on; }

  /// Open a span; returns its id (-1 when recording is off).
  int open(const std::string& name, int parent, int exec) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size()) + 1;
    spans_.push_back({id, parent, exec, name, now_ns(), 0});
    return id;
  }
  void close(int id) {
    if (id > 0) spans_[static_cast<std::size_t>(id - 1)].end_ns = now_ns();
  }
  /// A span whose interval is known rather than observed.
  void add(const std::string& name, int parent, int exec, std::int64_t start,
           std::int64_t end) {
    if (!enabled_) return;
    spans_.push_back(
        {static_cast<int>(spans_.size()) + 1, parent, exec, name, start, end});
  }
  [[nodiscard]] const std::vector<Span>& all() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// One flat JSON object, built member by member.
class Line {
 public:
  explicit Line(const std::string& type) { os_ << "{\"type\":" << quote(type); }
  Line& num(const std::string& key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    os_ << ',' << quote(key) << ':' << buf;
    return *this;
  }
  Line& str(const std::string& key, const std::string& v) {
    os_ << ',' << quote(key) << ':' << quote(v);
    return *this;
  }
  Line& raw(const std::string& key, const std::string& json) {
    os_ << ',' << quote(key) << ':' << json;
    return *this;
  }
  void emit() {
    os_ << "}\n";
    std::fputs(os_.str().c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  std::ostringstream os_;
};

// ---------------------------------------------------------------------------
// One execution
// ---------------------------------------------------------------------------

enum class Kind { Plain, Traced, Unbound };

const char* to_string(Kind k) {
  switch (k) {
    case Kind::Plain: return "plain";
    case Kind::Traced: return "traced";
    case Kind::Unbound: return "unbound";
  }
  return "?";
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         1e-6 * static_cast<double>(tv.tv_usec);
}

rusage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

/// Declare the workload into `p` and set its placement. Unbound executions
/// get place::Policy::None and no re-placement (Algorithm 1 is what
/// re-placement re-runs, so it has no meaning without a placement).
workloads::Built declare(const Config& cfg, Program& p, Kind kind,
                         std::uint64_t seed) {
  workloads::Built built = cfg.build(p, cfg.params);
  if (kind == Kind::Unbound) {
    p.place(place::Policy::None, {}, seed);
  } else {
    p.place(place::Policy::TreeMatch, {}, seed);
    if (cfg.replacement.enabled()) p.replacement(cfg.replacement);
  }
  return built;
}

/// Pool every per-handle histogram named `prefix` + "/h<id>".
obs::HistogramSnapshot pooled(const obs::RegistrySnapshot& snap,
                              const std::string& prefix) {
  obs::HistogramSnapshot out;
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (h.name.rfind(prefix + "/h", 0) != 0) continue;
    out.count += h.count;
    out.sum += h.sum;
    for (int i = 0; i < obs::HistogramSnapshot::kBuckets; ++i)
      out.buckets[static_cast<std::size_t>(i)] +=
          h.buckets[static_cast<std::size_t>(i)];
  }
  return out;
}

/// A counter's value in the snapshot; 0 when the runtime never created it.
double counter(const obs::RegistrySnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return static_cast<double>(v);
  return 0.0;
}

void execute(const Config& cfg, const topo::Topology& host, std::uint64_t seed,
             Kind kind, int exec, bool warmup, Spans& sp) {
  Line line("exec");
  line.str("kind", to_string(kind))
      .num("exec", exec)
      .num("warmup", warmup ? 1 : 0);
  const bool traced = kind == Kind::Traced;
  obs::enable_tracing(traced);
  obs::enable_detailed_metrics(traced);
  sp.enable(traced);
  const int root = sp.open("execution", -1, exec);
  try {
    RuntimeBackend backend({}, host.clone());

    const std::int64_t t_build = now_ns();
    const int s_build = sp.open("workloads.build", root, exec);
    Program p;
    const workloads::Built built = declare(cfg, p, kind, seed);
    sp.close(s_build);

    const rusage r0 = self_usage();
    const std::int64_t t_run = now_ns();
    const int s_backend = sp.open("orwl.backend_run", root, exec);
    const RunReport rep = backend.run(p);
    const std::int64_t t_run_end = now_ns();
    const rusage r1 = self_usage();
    sp.close(s_backend);
    // Runtime::run's start is not observable from outside; its duration
    // is (RunReport::seconds), and only the metrics snapshot follows it
    // inside RuntimeBackend::run, so it is placed flush with the end.
    const auto run_ns = static_cast<std::int64_t>(rep.seconds * 1e9);
    sp.add("orwl.runtime_run", s_backend, exec, t_run_end - run_ns, t_run_end);

    const int s_verify = sp.open("verify", root, exec);
    std::string why;
    const bool ok = built.verify(backend, why);
    sp.close(s_verify);

    const double backend_s = static_cast<double>(t_run_end - t_run) * 1e-9;
    line.num("ok", ok ? 1 : 0).str("error", ok ? "" : "verify: " + why);
    line.num("build_s", static_cast<double>(t_run - t_build) * 1e-9)
        .num("backend_s", backend_s)
        .num("run_s", rep.seconds)
        .num("cpu_s", seconds_of(r1.ru_utime) - seconds_of(r0.ru_utime) +
                          seconds_of(r1.ru_stime) - seconds_of(r0.ru_stime))
        .num("vcsw", static_cast<double>(r1.ru_nvcsw - r0.ru_nvcsw))
        .num("ivcsw", static_cast<double>(r1.ru_nivcsw - r0.ru_nivcsw));

    const obs::RegistrySnapshot& m = rep.metrics;
    const obs::HistogramSnapshot rounds = pooled(m, "orwl.wait_rounds");
    const obs::HistogramSnapshot wait_ns = pooled(m, "orwl.acquire_ns");
    line.num("grants_read", counter(m, "orwl.grants.read"))
        .num("grants_write", counter(m, "orwl.grants.write"))
        .num("releases", counter(m, "orwl.releases"))
        .num("handoffs", counter(m, "orwl.combiner.handoffs"))
        .num("cross_node", counter(m, "orwl.combiner.cross_node"))
        .num("acquires", static_cast<double>(rounds.count))
        .num("slow_acquires",
             static_cast<double>(rounds.count - rounds.buckets[0]))
        .num("acquire_p50_ns", static_cast<double>(wait_ns.quantile(0.50)))
        .num("acquire_p99_ns", static_cast<double>(wait_ns.quantile(0.99)))
        .num("measured_bytes",
             backend.runtime().measured_comm_matrix().total_volume())
        .num("hop_bytes", rep.placed ? comm::hop_bytes(backend.topology(),
                                                       built.predicted,
                                                       rep.plan.compute_pu)
                                     : 0.0);

    int migrated = 0, rebind_failures = 0;
    double replace_s = 0.0;
    for (const RunReport::EpochRecord& e : rep.epochs) {
      migrated += e.migrated;
      rebind_failures += e.rebind_failures;
      replace_s += e.replace_seconds;
    }
    line.num("epochs", static_cast<double>(rep.epochs.size()))
        .num("replacements", rep.replacements)
        .num("migrated", migrated)
        .num("rebind_failures", rebind_failures)
        .num("replace_s", replace_s);
  } catch (const std::exception& e) {
    line.num("ok", 0).str("error", std::string("exception: ") + e.what());
  }
  sp.close(root);
  obs::enable_tracing(false);
  obs::enable_detailed_metrics(false);
  line.emit();
}

// ---------------------------------------------------------------------------
// One-off layer measurements (traced mode)
// ---------------------------------------------------------------------------

template <class F>
double median_seconds(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    f();
    t.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

void measure_layers(const Config& cfg, const topo::Topology& host,
                    double topo_host_s, std::uint64_t seed, Spans& sp,
                    int root) {
  Line line("layers");
  line.num("topo_host_s", topo_host_s);

  Program p;
  const workloads::Built built = declare(cfg, p, Kind::Plain, seed);
  double location_bytes = 0.0;
  for (const Program::LocationDecl& d : p.location_decls())
    location_bytes += static_cast<double>(d.bytes);
  line.num("location_bytes", location_bytes);

  int s = sp.open("treematch.map", root, 0);
  treematch::Result tm;
  line.num("treematch_map_s", median_seconds(5, [&] {
             tm = treematch::map_threads(host, built.predicted,
                                         p.treematch_options());
           }));
  sp.close(s);
  line.num("threads_per_leaf", tm.threads_per_leaf);

  SimBackendOptions sim_opts;
  sim_opts.seed = seed;
  {
    s = sp.open("sim.host", root, 0);
    SimBackend sim(host.clone(), sim::LinkCost::defaults_for(host), sim_opts);
    const sim::Workload load = sim.workload(p);
    double model_bytes = 0.0;
    for (const sim::SimThread& t : load.threads) model_bytes += t.mem_bytes;
    line.num("model_bytes", model_bytes * load.iterations);
    const std::int64_t t0 = now_ns();
    const RunReport rep = sim.run(p);
    line.num("sim_predict_s", static_cast<double>(now_ns() - t0) * 1e-9)
        .num("sim_host_s", rep.seconds)
        .num("sim_compute_s", rep.sim.compute_seconds)
        .num("sim_memory_s", rep.sim.memory_seconds)
        .num("sim_comm_s", rep.sim.comm_seconds)
        .num("sim_sync_s", rep.sim.sync_seconds)
        .num("sim_lock_s", rep.sim.lock_seconds);
    sp.close(s);
  }
  {
    s = sp.open("sim.paper", root, 0);
    const topo::Topology paper = topo::Topology::paper_machine();
    SimBackend sim(paper.clone(), sim::LinkCost::defaults_for(paper), sim_opts);
    const double placed = sim.run(p).seconds;
    Program unbound;
    declare(cfg, unbound, Kind::Unbound, seed);
    line.num("sim_paper_s", placed)
        .num("sim_paper_unbound_s", sim.run(unbound).seconds);
    sp.close(s);
  }
  if (cfg.name == "lk23") {
    s = sp.open("lk23.sequential", root, 0);
    const lk23::Spec spec = lk23::spec_for_tasks(
        cfg.params.size, cfg.params.iterations, cfg.params.tasks);
    line.num("lk23_sequential_s", median_seconds(3, [&] {
               const std::vector<double> field =
                   lk23::sequential_kernel(spec.n, spec.iterations);
               if (field.empty()) throw std::logic_error("empty lk23 field");
             }));
    sp.close(s);
  }
  line.emit();
}

std::string spans_json(const std::vector<Span>& spans) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? "," : "") << '[' << s.id << ',' << s.parent << ',' << s.exec
       << ',' << quote(s.name) << ',' << s.start_ns << ',' << s.end_ns << ']';
  }
  os << ']';
  return os.str();
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_worker: %s\nusage: perfbench_worker --workload NAME "
               "--seed N --seconds S --mode e2e|traced [--first-exec K]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, mode = "e2e";
  std::uint64_t seed = 1;
  double seconds = 1.0;
  int first_exec = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") seconds = std::strtod(v.c_str(), nullptr);
    else if (a == "--mode") mode = v;
    else if (a == "--first-exec") first_exec = std::atoi(v.c_str());
    else return usage(("unknown argument " + a).c_str());
  }
  if (mode != "e2e" && mode != "traced") return usage("bad --mode");
  Config cfg;
  try {
    cfg = config_for(workload);
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  const bool traced_mode = mode == "traced";
  Spans spans(traced_mode);
  const int layers_root = spans.open("layers", -1, 0);
  int s = spans.open("topo.host", layers_root, 0);
  const std::int64_t t0 = now_ns();
  const topo::Topology host = topo::Topology::host();
  const double topo_host_s = static_cast<double>(now_ns() - t0) * 1e-9;
  spans.close(s);
  if (traced_mode)
    measure_layers(cfg, host, topo_host_s, seed, spans, layers_root);
  spans.close(layers_root);

  // One warm-up cycle per process: its executions are verified and
  // counted as attempts, but their timings (first touch of the heap,
  // first thread creations) are left out of the medians.
  const std::vector<Kind> cycle =
      traced_mode ? std::vector<Kind>{Kind::Plain, Kind::Traced, Kind::Unbound}
                  : std::vector<Kind>{Kind::Plain};
  int exec = first_exec;
  for (const Kind k : cycle) execute(cfg, host, seed, k, exec++, true, spans);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    for (const Kind k : cycle)
      execute(cfg, host, seed, k, exec++, false, spans);
  } while (now_ns() < deadline);

  Line("done").raw("spans", spans_json(spans.all())).emit();
  return 0;
}
