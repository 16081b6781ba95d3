// scagbench: the program-in -> verdict-out detection benchmark.
//
// A detection is what `scagctl scan` does: assembly text in, verdict out
// (isa::assemble, then Detector::scan on a store-backed detector with the
// compiled kernels, the triage index and SIMD on). The repository is
// brought up the way an operator does it: model the PoCs, pack_store,
// ModelStore::open (mmap), attach_store. The target corpus is
// eval::generate_dataset(--seed) exported with isa::export_assembly.
//
//   scagbench --workload <paper-4poc|mutant-1600|batch-4poc> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//             [--inject-mismatch]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger
// of a separate traced run. Either way every verdict is checked against an
// exhaustive oracle scan before anything is printed; on a mismatch the
// program exits 1 with no result line. README.md has the design.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attacks/registry.h"
#include "cfg/cfg.h"
#include "core/attack_graph.h"
#include "core/batch_detector.h"
#include "core/bb_profile.h"
#include "core/cst.h"
#include "core/detector.h"
#include "core/relevant.h"
#include "core/store.h"
#include "cpu/interpreter.h"
#include "eval/dataset.h"
#include "eval/experiments.h"
#include "eval/metrics.h"
#include "isa/assembler.h"
#include "isa/export.h"
#include "isa/normalize.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/rng.h"

namespace {

using namespace scag;
using core::Family;

// ---------------------------------------------------------------------------
// Workload parameters. Changing any of these changes the benchmark.

/// Corpus: mutants per attack type and benign programs (x4 + x1), plus
/// obfuscated variants per obfuscated family (FR-F, PP-F): 1344 targets.
constexpr std::size_t kCorpusPerType = 192;
constexpr std::size_t kCorpusObfuscatedPerFamily = 192;
constexpr std::size_t kCorpusSize =
    5 * kCorpusPerType + 2 * kCorpusObfuscatedPerFamily;
/// Generated programs come from this many independently seeded shards of
/// eval::generate_dataset, built on parallel threads.
constexpr std::size_t kShards = 4;
/// mutant-1600 repository: the paper's 400 mutants per attack type.
constexpr std::size_t kRepoMutantsPerType = 400;
/// batch-4poc: programs per BatchDetector call; lanes = min(4, nproc).
constexpr std::size_t kBatchSize = 8;
static_assert(kCorpusSize % kBatchSize == 0, "a pass is whole batches");
static_assert(kCorpusPerType % kShards == 0 &&
              kCorpusObfuscatedPerFamily % kShards == 0 &&
              kRepoMutantsPerType % kShards == 0);
constexpr unsigned kMaxLanes = 4;
/// p99 needs ten samples above it; measured loops make at least this many
/// calls.
constexpr std::size_t kMinLatencySamples = 1000;
/// Layer-sum tolerance: the five top-level spans must cover at least this
/// share of the traced detection time (the rest is span bookkeeping).
constexpr double kLayerSumTolerance = 0.02;

constexpr Family kAllClasses[] = {Family::kFlushReload, Family::kPrimeProbe,
                                  Family::kSpectreFR, Family::kSpectrePP,
                                  Family::kBenign};

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double seconds_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed ^ salt;
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Statistics are computed here rather than with support/stats.h, so that a
// change to the library cannot change how the benchmark reads its samples.

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

/// Median absolute deviation from the median.
double mad(const std::vector<double>& xs) {
  const double m = median(xs);
  std::vector<double> dev;
  dev.reserve(xs.size());
  for (double x : xs) dev.push_back(std::abs(x - m));
  return median(std::move(dev));
}

/// Nearest-rank q-quantile.
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

/// Peak resident set size in MiB since the last reset_peak_rss().
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Returns freed load-generation memory to the OS and restarts the
/// high-water mark, so peak_rss_mb() covers set-up and detection only.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

volatile std::uint64_t g_ref_sink = 0;

/// A fixed compute-and-memory loop in the benchmark's own code, which no
/// change to the detector can speed up: its time tracks the shared host's
/// speed, so runs made while the host was slow can be told apart.
double host_ref_loop_ms() {
  std::vector<std::uint64_t> buf(std::size_t{1} << 15);  // 256 KiB
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const std::uint64_t t0 = now_ns();
  for (int round = 0; round < 64; ++round)
    for (std::size_t i = 0; i < buf.size(); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      buf[(i * 7 + (x & 63)) & (buf.size() - 1)] += x;
    }
  const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
  g_ref_sink = buf[x & (buf.size() - 1)];
  return ms;
}

// ---------------------------------------------------------------------------
// Inputs.

/// A generated program as assembly text, with its ground-truth family.
struct Target {
  std::string name;
  Family truth = Family::kBenign;
  std::string text;  // isa::export_assembly of the generated program
};

/// eval::generate_dataset split into kShards shards (each `per_shard`
/// config, its own seed derived from `seed` and `salt`), generated on
/// parallel threads and concatenated in shard order. Deterministic.
std::vector<Target> generate_sharded(eval::DatasetConfig per_shard,
                                     std::uint64_t seed, std::uint64_t salt,
                                     bool with_benign) {
  std::vector<std::vector<Target>> shards(kShards);
  std::vector<std::exception_ptr> errors(kShards);
  {
    std::vector<std::jthread> threads;
    for (std::size_t s = 0; s < kShards; ++s)
      threads.emplace_back([&, s, per_shard]() mutable {
        try {
          per_shard.seed = mix_seed(seed, salt + s);
          const eval::Dataset ds = eval::generate_dataset(per_shard);
          for (const auto* pool : {&ds.attacks, &ds.obfuscated, &ds.benign}) {
            if (pool == &ds.benign && !with_benign) continue;
            for (const eval::Sample& x : *pool)
              shards[s].push_back({"s" + std::to_string(s) + "/" + x.name,
                                   x.family, isa::export_assembly(x.program)});
          }
        } catch (...) {
          errors[s] = std::current_exception();
        }
      });
  }
  std::vector<Target> out;
  for (std::size_t s = 0; s < kShards; ++s) {
    if (errors[s]) std::rethrow_exception(errors[s]);
    for (Target& t : shards[s]) out.push_back(std::move(t));
  }
  return out;
}

void write_all(int fd, const std::string& bytes) {
  for (std::size_t off = 0; off < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) _exit(4);
    off += static_cast<std::size_t>(n);
  }
}

/// Runs load generation in a forked child that streams the targets back
/// over a pipe, so none of generation's allocations stay in this process
/// (peak_rss_mb then depends only on set-up and detection). Must be called
/// before this process starts any thread.
std::vector<Target> generate_in_child(
    const std::function<std::vector<Target>()>& make) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    try {
      for (const Target& t : make()) {
        write_all(fds[1], std::to_string(static_cast<int>(t.truth)) + " " +
                              std::to_string(t.name.size()) + " " +
                              std::to_string(t.text.size()) + "\n");
        write_all(fds[1], t.name);
        write_all(fds[1], t.text);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "scagbench: load generation: %s\n", e.what());
      _exit(3);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    bytes.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("load generation failed");
  std::vector<Target> out;
  std::istringstream in(bytes);
  int family = 0;
  std::size_t name_len = 0, text_len = 0;
  while (in >> family >> name_len >> text_len && in.get() == '\n') {
    Target t{std::string(name_len, '\0'), static_cast<Family>(family),
             std::string(text_len, '\0')};
    in.read(t.name.data(), static_cast<std::streamsize>(name_len));
    in.read(t.text.data(), static_cast<std::streamsize>(text_len));
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<Target> make_corpus(std::uint64_t seed) {
  eval::DatasetConfig config;
  config.samples_per_type = kCorpusPerType / kShards;
  config.obfuscated_per_family = kCorpusObfuscatedPerFamily / kShards;
  return generate_in_child(
      [&] { return generate_sharded(config, seed, 0xc0de, true); });
}

std::uint64_t corpus_digest(const std::vector<Target>& corpus) {
  std::uint64_t h = kFnvBasis;
  for (const Target& t : corpus) {
    h = fnv1a(h, t.name.data(), t.name.size() + 1);
    h = fnv1a(h, t.text.data(), t.text.size() + 1);
  }
  return h;
}

/// One PoC the repository is modeled from.
struct Poc {
  std::string name;
  Family family = Family::kBenign;
  isa::Program program;
};

/// mutant-1600's repository sources: validated mutants of every attack
/// type, from seeds distinct from the corpus's.
std::vector<Poc> make_mutant_pocs(std::uint64_t seed) {
  eval::DatasetConfig config;
  config.samples_per_type = kRepoMutantsPerType / kShards;
  config.obfuscated_per_family = 0;
  std::vector<Poc> pocs;
  for (const Target& t : generate_in_child([&] {
         return generate_sharded(config, seed, 0x7e90517097ULL, false);
       }))
    pocs.push_back({t.name, t.truth, isa::assemble(t.text, t.name)});
  return pocs;
}

// ---------------------------------------------------------------------------
// Set-up: model -> pack_store -> open (mmap) -> attach_store -> warm.

struct Workload {
  std::string name;
  bool mutant_repository = false;  // mutant-1600
  bool batch = false;              // batch-4poc
  int setup_reps = 0;              // set-ups per run; setup_s is the median
};

std::optional<Workload> workload_named(const std::string& name) {
  if (name == "paper-4poc") return Workload{name, false, false, 25};
  if (name == "mutant-1600") return Workload{name, true, false, 3};
  if (name == "batch-4poc") return Workload{name, false, true, 25};
  return std::nullopt;
}

core::Detector make_scan_detector() {
  // scagctl scan's defaults: compiled kernels, triage index, SIMD.
  core::Detector detector(eval::experiment_model_config(),
                          eval::experiment_dtw_config(), eval::kThreshold);
  detector.set_use_index(true);
  return detector;
}

/// The paper's protocol repository: the designated PoC of each attack type
/// (the ones eval::make_scaguard enrolls), built with their default config.
std::vector<Poc> make_designated_pocs() {
  const core::Detector paper =
      eval::make_scaguard({Family::kFlushReload, Family::kPrimeProbe,
                           Family::kSpectreFR, Family::kSpectrePP});
  std::vector<Poc> pocs;
  for (std::size_t j = 0; j < paper.repository_size(); ++j) {
    const attacks::PocSpec& spec =
        attacks::poc_by_name(std::string(paper.model_name(j)));
    pocs.push_back({spec.name, spec.family, spec.build(attacks::PocConfig{})});
  }
  return pocs;
}

/// Models every PoC, as `scagctl build-repo` does.
std::vector<core::AttackModel> model_repository(const std::vector<Poc>& pocs) {
  const core::ModelBuilder builder(eval::experiment_model_config());
  std::vector<core::AttackModel> models;
  models.reserve(pocs.size());
  for (const Poc& poc : pocs) {
    models.push_back(builder.build(poc.program, poc.family));
    models.back().name = poc.name;
  }
  return models;
}

struct Setup {
  core::Detector detector = make_scan_detector();
  std::vector<core::AttackModel> models;  // the text models that were packed
  double total_s = 0.0;
  double enroll_s = 0.0;
  double pack_s = 0.0;
  double open_s = 0.0;
};

/// Removes the store file when the run ends, however it ends.
struct StoreFile {
  std::string path;
  ~StoreFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

Setup set_up(const std::vector<Poc>& pocs,
             const std::string& store_path, const std::vector<Target>& warm) {
  Setup s;
  const std::uint64_t t0 = now_ns();
  s.models = model_repository(pocs);
  const std::uint64_t t1 = now_ns();
  core::pack_store(store_path, s.models,
                   eval::experiment_dtw_config().distance);
  const std::uint64_t t2 = now_ns();
  s.detector.attach_store(core::ModelStore::open(store_path));
  const std::uint64_t t3 = now_ns();
  for (const Target& t : warm)
    (void)s.detector.scan(isa::assemble(t.text, t.name));
  const std::uint64_t t4 = now_ns();
  s.enroll_s = seconds_between(t0, t1);
  s.pack_s = seconds_between(t1, t2);
  s.open_s = seconds_between(t2, t3);
  s.total_s = seconds_between(t0, t4);
  return s;
}

/// Runs `reps` set-ups; returns the last one with the median timings.
Setup set_up_repeatedly(const Workload& w, const std::vector<Poc>& pocs,
                        const std::string& store_path,
                        const std::vector<Target>& warm) {
  std::vector<double> total, enroll, pack, open;
  std::optional<Setup> last;
  for (int r = 0; r < w.setup_reps; ++r) {
    last.reset();  // one repository alive at a time
    last.emplace(set_up(pocs, store_path, warm));
    total.push_back(last->total_s);
    enroll.push_back(last->enroll_s);
    pack.push_back(last->pack_s);
    open.push_back(last->open_s);
  }
  Setup s = std::move(*last);
  s.total_s = median(total);
  s.enroll_s = median(enroll);
  s.pack_s = median(pack);
  s.open_s = median(open);
  return s;
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return fnv1a(kFnvBasis, bytes.data(), bytes.size());
}

// ---------------------------------------------------------------------------
// Verdict bookkeeping and the correctness gate.

struct Verdict {
  Family family = Family::kBenign;
  std::uint64_t best_bits = 0;
  std::string winner;
  bool operator==(const Verdict&) const = default;
};

Verdict verdict_of(const core::Detection& d) {
  return {d.verdict, std::bit_cast<std::uint64_t>(d.best_score),
          d.scores.empty() ? std::string() : d.scores.front().model_name};
}

/// First verdict per unique target; repeats must agree with it.
struct VerdictTable {
  std::vector<std::optional<Verdict>> first;
  std::size_t inconsistent = 0;

  explicit VerdictTable(std::size_t n) : first(n) {}
  void record(std::size_t i, const core::Detection& d) {
    Verdict v = verdict_of(d);
    if (!first[i])
      first[i] = std::move(v);
    else if (!(*first[i] == v))
      ++inconsistent;
  }
};

/// Exhaustive oracle: a detector enrolled from the same text models, index
/// and SIMD off, scanned through the batch engine (bit-identical to the
/// serial exhaustive scan at any lane count). Returns the mismatch count.
std::size_t oracle_mismatches(const std::vector<core::AttackModel>& models,
                              const std::vector<Target>& corpus,
                              const VerdictTable& seen, std::size_t lanes) {
  core::Detector oracle(eval::experiment_model_config(),
                        eval::experiment_dtw_config(), eval::kThreshold);
  oracle.set_use_index(false);
  oracle.set_use_simd(false);
  for (const core::AttackModel& m : models) oracle.enroll(m);
  std::vector<std::size_t> ids;
  std::vector<isa::Program> programs;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (!seen.first[i]) continue;
    ids.push_back(i);
    programs.push_back(isa::assemble(corpus[i].text, corpus[i].name));
  }
  core::BatchConfig config;
  config.threads = lanes;
  const core::BatchDetector batch(oracle, config);
  const std::vector<core::Detection> expected = batch.scan_programs(programs);
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (verdict_of(expected[k]) == *seen.first[ids[k]]) continue;
    if (++mismatches <= 5)
      std::fprintf(stderr, "scagbench: verdict mismatch on %s\n",
                   corpus[ids[k]].name.c_str());
  }
  return mismatches;
}

double macro_f1(const std::vector<Target>& corpus, const VerdictTable& seen) {
  eval::ConfusionMatrix cm;
  for (std::size_t i = 0; i < corpus.size(); ++i)
    if (seen.first[i]) cm.add(corpus[i].truth, seen.first[i]->family);
  return cm.macro({std::begin(kAllClasses), std::end(kAllClasses)}).f1;
}

// ---------------------------------------------------------------------------
// Closed-loop load: one caller, next request after the previous reply.

struct LoopResult {
  std::vector<double> latency_ms;  // per successful call
  std::vector<double> pass_dps;    // detections/s of each whole corpus pass
  std::uint64_t attempted = 0;     // detections attempted
  std::uint64_t failed = 0;        // thrown, or an outcome that is not ok()
  std::uint64_t completed = 0;     // detections with a verdict
  std::uint64_t start_ns = 0;

  std::uint64_t pass_start_ns = 0;
  std::uint64_t pass_completed = 0;

  /// Closes a whole pass over the corpus (every pass holds the same
  /// programs, so pass rates compare like with like) and opens the next.
  void end_pass(std::uint64_t now) {
    pass_dps.push_back(static_cast<double>(completed - pass_completed) /
                       seconds_between(pass_start_ns, now));
    pass_start_ns = now;
    pass_completed = completed;
  }
};

/// Seeded visiting order over the corpus, reused pass after pass.
std::vector<std::size_t> visit_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(mix_seed(seed, 0x0bde7ULL));
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

/// How long a loop runs: `seconds` and at least one whole pass, and for
/// the measured loops until p99 has its ten samples above.
struct LoopLimits {
  double seconds = 0.0;
  bool measured = false;

  bool done(const LoopResult& r) const {
    return seconds_between(r.start_ns, now_ns()) >= seconds &&
           !r.pass_dps.empty() &&
           (!measured || r.latency_ms.size() >= kMinLatencySamples);
  }
};

/// Serial: one program per call.
LoopResult serial_loop(const core::Detector& detector,
                       const std::vector<Target>& corpus,
                       const std::vector<std::size_t>& order,
                       const LoopLimits& limits, VerdictTable& seen) {
  LoopResult r;
  r.start_ns = r.pass_start_ns = now_ns();
  for (std::size_t k = 0; !limits.done(r); ++k) {
    const std::uint64_t t0 = now_ns();
    const std::size_t i = order[k % order.size()];
    ++r.attempted;
    try {
      const core::Detection d =
          detector.scan(isa::assemble(corpus[i].text, corpus[i].name));
      r.latency_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      ++r.completed;
      seen.record(i, d);
    } catch (const std::exception&) {
      ++r.failed;
    }
    if ((k + 1) % order.size() == 0) r.end_pass(now_ns());
  }
  return r;
}

/// Batch: kBatchSize programs per BatchDetector::scan_programs_outcomes
/// call; a call's latency covers assembling and scanning all of them.
LoopResult batch_loop(const core::Detector& detector, std::size_t lanes,
                      const std::vector<Target>& corpus,
                      const std::vector<std::size_t>& order,
                      const LoopLimits& limits, VerdictTable& seen) {
  core::BatchConfig config;
  config.threads = lanes;
  config.index = true;
  const core::BatchDetector batch(detector, config);
  LoopResult r;
  r.start_ns = r.pass_start_ns = now_ns();
  std::vector<std::size_t> ids;
  std::vector<isa::Program> programs;
  for (std::size_t k = 0; !limits.done(r); k += kBatchSize) {
    const std::uint64_t t0 = now_ns();
    ids.clear();
    programs.clear();
    for (std::size_t b = 0; b < kBatchSize; ++b) {
      const std::size_t i = order[(k + b) % order.size()];
      ++r.attempted;
      try {
        programs.push_back(isa::assemble(corpus[i].text, corpus[i].name));
        ids.push_back(i);
      } catch (const std::exception&) {
        ++r.failed;
      }
    }
    std::vector<core::ScanOutcome> outcomes;
    try {
      outcomes = batch.scan_programs_outcomes(programs);
      r.latency_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    } catch (const std::exception&) {
      r.failed += ids.size();
    }
    for (std::size_t b = 0; b < outcomes.size(); ++b) {
      if (!outcomes[b].ok()) {
        ++r.failed;
        continue;
      }
      ++r.completed;
      seen.record(ids[b], outcomes[b].detection);
    }
    if ((k + kBatchSize) % order.size() == 0) r.end_pass(now_ns());
  }
  return r;
}

// ---------------------------------------------------------------------------
// Traced run: spans recorded around calls into each layer's public API.

enum Layer : std::uint8_t {
  kDetect,
  kAssemble,
  kCpuRun,
  kCfgBuild,
  kModel,
  kScan,
  // Children of core.model / core.scan, replayed right after the detection
  // on the detection's own intermediates (outside the detect span).
  kBbProfile,
  kRelevant,
  kAttackGraph,
  kNormalize,
  kCst,
  kCompile,
  kNumLayers,
};

constexpr const char* kLayerNames[kNumLayers] = {
    "detect",           "isa.assemble",  "cpu.run",
    "cfg.build",        "core.model",    "core.scan",
    "core.bb_profile",  "core.relevant", "core.attack_graph",
    "isa.normalize",    "core.cst",      "core.compile"};
constexpr Layer kTopLevel[] = {kAssemble, kCpuRun, kCfgBuild, kModel, kScan};

struct Span {
  std::uint32_t detection = 0;
  std::uint32_t parent = 0;  // index into the span list; self for roots
  Layer layer = kDetect;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// In-memory span list, written out when the run ends.
class SpanLog {
 public:
  std::uint32_t open(Layer layer, std::uint32_t detection,
                     std::optional<std::uint32_t> parent = std::nullopt) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({detection, parent.value_or(id), layer, now_ns(), 0});
    return id;
  }
  void close(std::uint32_t id) { spans_[id].end_ns = now_ns(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-detection busy time of each layer, in microseconds.
  std::vector<std::vector<double>> per_detection_us(
      std::uint32_t detections) const {
    std::vector<std::vector<double>> us(
        kNumLayers, std::vector<double>(detections, 0.0));
    for (const Span& s : spans_)
      us[s.layer][s.detection] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    return us;
  }

  void write_tsv(const std::string& path) const {
    std::ofstream out(path);
    out << "span\tparent\tdetection\tlayer\tstart_ns\tdur_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t' << s.parent << '\t' << s.detection << '\t'
          << kLayerNames[s.layer] << '\t' << s.start_ns << '\t'
          << s.end_ns - s.start_ns << '\n';
    }
  }

 private:
  std::vector<Span> spans_;
};

/// Registry counters read around each traced scan.
struct ScanCounters {
  std::uint64_t exact = 0, dp_cells = 0, memo_hits = 0, memo_misses = 0;

  static ScanCounters read() {
    auto& r = support::Registry::global();
    static support::Counter& exact = r.counter("cascade.exact");
    static support::Counter& cells = r.counter("dtw.dp_cells");
    static support::Counter& hits = r.counter("compiled.memo_hits");
    static support::Counter& misses = r.counter("compiled.memo_misses");
    return {exact.value(), cells.value(), hits.value(), misses.value()};
  }
  ScanCounters operator-(const ScanCounters& o) const {
    return {exact - o.exact, dp_cells - o.dp_cells, memo_hits - o.memo_hits,
            memo_misses - o.memo_misses};
  }
};

/// Work counts of one detection (deterministic for a fixed input).
struct DetectionCounts {
  double retired = 0, llc_miss = 0, l1d_miss = 0, blocks = 0, relevant = 0,
         accesses = 0, exact = 0, dp_cells = 0, memo_hits = 0, memo_misses = 0;

  DetectionCounts& operator+=(const DetectionCounts& o) {
    retired += o.retired, llc_miss += o.llc_miss, l1d_miss += o.l1d_miss;
    blocks += o.blocks, relevant += o.relevant, accesses += o.accesses;
    exact += o.exact, dp_cells += o.dp_cells;
    memo_hits += o.memo_hits, memo_misses += o.memo_misses;
    return *this;
  }
};

/// One traced detection: the same calls Detector::scan(Program) makes,
/// each wrapped in a span, then the modeling and compile stages replayed
/// on its intermediates for their child spans and counts.
core::Detection traced_detection(const core::Detector& detector,
                                 const Target& target, std::uint32_t id,
                                 SpanLog& log, DetectionCounts& counts) {
  const core::ModelConfig& mc = detector.builder().config();
  const std::uint32_t root = log.open(kDetect, id);

  std::uint32_t s = log.open(kAssemble, id, root);
  const isa::Program program = isa::assemble(target.text, target.name);
  log.close(s);

  s = log.open(kCpuRun, id, root);
  cpu::Interpreter interp(mc.exec);
  const cpu::RunResult run = interp.run(program);
  log.close(s);

  s = log.open(kCfgBuild, id, root);
  const cfg::Cfg cfg = cfg::Cfg::build(program);
  log.close(s);

  const std::uint32_t model_span = log.open(kModel, id, root);
  const core::AttackModel model =
      detector.builder().build_from_profile(cfg, run.profile);
  log.close(model_span);

  const ScanCounters before = ScanCounters::read();
  const std::uint32_t scan_span = log.open(kScan, id, root);
  core::Detection detection = detector.scan(model.sequence);
  log.close(scan_span);
  const ScanCounters scan = ScanCounters::read() - before;
  log.close(root);

  // Replays: results are discarded; the calls are opaque, so they run.
  s = log.open(kBbProfile, id, model_span);
  const std::vector<core::BbStats> stats =
      core::aggregate_by_block(cfg, run.profile);
  log.close(s);

  s = log.open(kRelevant, id, model_span);
  const core::RelevantResult rel =
      core::identify_relevant_blocks(stats, mc.relevant);
  log.close(s);

  s = log.open(kAttackGraph, id, model_span);
  (void)core::build_attack_graph(cfg, stats, rel.relevant, mc.graph);
  log.close(s);

  s = log.open(kNormalize, id, model_span);
  for (const core::CstBbsElement& e : model.sequence) {
    const std::vector<isa::Instruction> instrs = cfg.instructions_of(e.block);
    (void)isa::normalize(instrs);
    (void)isa::semantic_tokens(instrs);
  }
  log.close(s);

  std::size_t accesses = 0;
  s = log.open(kCst, id, model_span);
  for (const core::CstBbsElement& e : model.sequence) {
    (void)core::measure_cst(stats[e.block].accesses, mc.cst);
    accesses += stats[e.block].accesses.size();
  }
  log.close(s);

  s = log.open(kCompile, id, scan_span);
  (void)detector.compiled_repository().compile_target(model.sequence);
  log.close(s);

  using trace::HpcEvent;
  const trace::HpcCounters& hpc = run.profile.totals;
  counts.retired = static_cast<double>(run.profile.retired);
  counts.llc_miss = static_cast<double>(hpc[HpcEvent::kLlcLoadMiss] +
                                        hpc[HpcEvent::kLlcStoreMiss]);
  counts.l1d_miss = static_cast<double>(hpc[HpcEvent::kL1dLoadMiss]);
  counts.blocks = static_cast<double>(cfg.num_blocks());
  counts.relevant = static_cast<double>(rel.relevant.size());
  counts.accesses = static_cast<double>(accesses);
  counts.exact = static_cast<double>(scan.exact);
  counts.dp_cells = static_cast<double>(scan.dp_cells);
  counts.memo_hits = static_cast<double>(scan.memo_hits);
  counts.memo_misses = static_cast<double>(scan.memo_misses);
  return detection;
}

bool same_detection(const core::Detection& a, const core::Detection& b) {
  if (a.verdict != b.verdict ||
      std::bit_cast<std::uint64_t>(a.best_score) !=
          std::bit_cast<std::uint64_t>(b.best_score) ||
      a.scores.size() != b.scores.size())
    return false;
  for (std::size_t j = 0; j < a.scores.size(); ++j) {
    const core::ModelScore& x = a.scores[j];
    const core::ModelScore& y = b.scores[j];
    if (x.model_name != y.model_name || x.family != y.family ||
        x.pruned != y.pruned ||
        std::bit_cast<std::uint64_t>(x.score) !=
            std::bit_cast<std::uint64_t>(y.score))
      return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Prints the metric table, then the result object as the last line.
void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-32s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::ostringstream json;
  json << "{\"correct\": true, \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].value))
      throw std::runtime_error("metric " + metrics[i].name + " is not finite");
    json << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
         << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
         << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// The measured phases.

/// What the measured phases run against.
struct Bench {
  const core::Detector& detector;
  const std::vector<Target>& corpus;
  const std::vector<std::size_t>& order;  // seeded visiting order
  std::size_t lanes = 1;
  double seconds = 0.0;
};

struct Measurement {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t problems = 0;  // correctness problems found while measuring
};

/// --trace 0: the closed loop of the workload, then the end-to-end metrics.
Measurement measure_end_to_end(const Bench& b, bool batch, double setup_s,
                               const std::string& failpoints,
                               VerdictTable& seen) {
  if (!failpoints.empty()) support::fp::arm_from_string(failpoints);
  const LoopResult r =
      batch ? batch_loop(b.detector, b.lanes, b.corpus, b.order,
                         {b.seconds, true}, seen)
            : serial_loop(b.detector, b.corpus, b.order, {b.seconds, true}, seen);
  support::fp::disarm_all();
  const double rss = peak_rss_mb();
  const std::size_t n = r.latency_ms.size();
  std::printf("load: closed loop, 1 caller, %zu program(s) per call; "
              "%zu calls\n",
              batch ? kBatchSize : std::size_t{1}, n);
  std::printf("  %-32s %18.6f ratio  (%llu of %llu)\n", "failed_frac",
              static_cast<double>(r.failed) / static_cast<double>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("  latency samples n=%zu, samples above p99=%zu\n", n,
              n - static_cast<std::size_t>(
                      std::ceil(0.99 * static_cast<double>(n))));
  Measurement m;
  m.attempted = r.attempted;
  m.failed = r.failed;
  m.metrics = {
      {"setup_s", setup_s, "s"},
      {"detections_per_s", median(r.pass_dps), "1/s"},
      {"latency_p50_ms", median(r.latency_ms), "ms"},
      {"latency_p99_ms", quantile(r.latency_ms, 0.99), "ms"},
      {"macro_f1", macro_f1(b.corpus, seen), "ratio"},
      {"peak_rss_mb", rss, "MiB"},
  };
  return m;
}

/// --trace 1: the per-layer ledger (README.md, "Per-layer ledger").
Measurement measure_layers(const Bench& b, const Setup& setup,
                           double store_bytes, const std::string& spans_path,
                           VerdictTable& seen) {
  const core::Detector& detector = b.detector;
  const std::vector<Target>& corpus = b.corpus;
  const std::vector<std::size_t>& order = b.order;
  Measurement m;

  // 1. Untraced reference: one pass for reference Detections, then a timed
  //    serial loop (tracing overhead base and lane-efficiency base).
  std::vector<core::Detection> reference;
  for (const Target& t : corpus)
    reference.push_back(detector.scan(isa::assemble(t.text, t.name)));
  VerdictTable untraced_seen(corpus.size());
  const LoopResult base =
      serial_loop(detector, corpus, order, {b.seconds * 0.25}, untraced_seen);

  // 2. Traced serial loop: the first pass gives the counts, every detection
  //    gives spans; every Detection must equal the untraced one.
  SpanLog log;
  DetectionCounts total;
  std::uint32_t detections = 0;
  std::size_t traced_mismatches = 0;
  const std::uint64_t start = now_ns();
  const auto budget = static_cast<std::uint64_t>(b.seconds * 0.5 * 1e9);
  for (std::size_t k = 0; k < order.size() || now_ns() - start < budget; ++k) {
    const std::size_t i = order[k % order.size()];
    DetectionCounts c;
    const core::Detection d =
        traced_detection(detector, corpus[i], detections++, log, c);
    if (!same_detection(d, reference[i])) ++traced_mismatches;
    seen.record(i, d);
    if (k < order.size()) total += c;
  }
  if (traced_mismatches != 0)
    std::fprintf(stderr, "scagbench: %zu traced detections differ\n",
                 traced_mismatches);

  // 3. Batch lanes on the same repository.
  VerdictTable batch_seen(corpus.size());
  const LoopResult batch = batch_loop(detector, b.lanes, corpus, order,
                                      {b.seconds * 0.25}, batch_seen);
  m.problems = traced_mismatches + batch_seen.inconsistent +
               untraced_seen.inconsistent;
  m.attempted = base.attempted + detections + batch.attempted;
  m.failed = base.failed + batch.failed;

  const auto us = log.per_detection_us(detections);
  double top = 0.0, whole = 0.0;
  for (Layer l : kTopLevel)
    for (double v : us[l]) top += v;
  for (double v : us[kDetect]) whole += v;
  const double layer_sum = top / whole;
  std::printf("layer sum: top-level spans cover %.4f of traced detection "
              "time (tolerance %.2f), %u detections, %zu spans\n",
              layer_sum, kLayerSumTolerance, detections, log.spans().size());
  if (layer_sum < 1.0 - kLayerSumTolerance || layer_sum > 1.0) {
    std::fprintf(stderr, "scagbench: layer-sum check failed\n");
    ++m.problems;
  }
  log.write_tsv(spans_path);

  const double n = static_cast<double>(order.size());
  // Simulated instructions per microsecond of interpreter busy time over
  // the first pass (detection ids 0..n-1).
  double first_pass_run_us = 0.0;
  for (std::size_t d = 0; d < order.size(); ++d)
    first_pass_run_us += us[kCpuRun][d];
  const double serial_dps = median(base.pass_dps);
  const double batch_dps = median(batch.pass_dps);
  std::vector<Metric>& out = m.metrics;
  out.push_back({"detect_us", median(us[kDetect]), "us"});
  out.push_back({"detect_us_mad", mad(us[kDetect]), "us"});
  for (int l = kAssemble; l < kNumLayers; ++l) {
    out.push_back({std::string(kLayerNames[l]) + "_us", median(us[l]), "us"});
    out.push_back({std::string(kLayerNames[l]) + "_us_mad", mad(us[l]), "us"});
  }
  out.push_back({"cpu.sim_minstr_per_s", total.retired / first_pass_run_us,
                 "Minstr/s"});
  out.push_back({"cpu.retired_per_detect", total.retired / n, "count"});
  out.push_back({"cache.llc_miss_per_detect", total.llc_miss / n, "count"});
  out.push_back({"cache.l1d_miss_per_detect", total.l1d_miss / n, "count"});
  out.push_back({"cfg.blocks_per_detect", total.blocks / n, "count"});
  out.push_back({"core.relevant.keep_frac", total.relevant / total.blocks,
                 "ratio"});
  out.push_back({"core.cst.accesses_per_detect", total.accesses / n, "count"});
  out.push_back(
      {"core.scan.exact_frac",
       total.exact / (n * static_cast<double>(detector.repository_size())),
       "ratio"});
  out.push_back({"core.scan.dp_cells_per_detect", total.dp_cells / n, "count"});
  out.push_back({"core.scan.memo_hit_frac",
                 total.memo_hits / (total.memo_hits + total.memo_misses),
                 "ratio"});
  out.push_back({"core.enroll_ms", setup.enroll_s * 1e3, "ms"});
  out.push_back({"core.store.pack_ms", setup.pack_s * 1e3, "ms"});
  out.push_back({"core.store.open_ms", setup.open_s * 1e3, "ms"});
  out.push_back({"core.store.bytes", store_bytes, "bytes"});
  out.push_back({"batch.lane_eff",
                 batch_dps / (static_cast<double>(b.lanes) * serial_dps),
                 "ratio"});
  out.push_back({"batch.call_ms", median(batch.latency_ms), "ms"});
  out.push_back({"trace.p50_ratio",
                 median(us[kDetect]) * 1e-3 / median(base.latency_ms),
                 "ratio"});
  out.push_back({"trace.layer_sum_frac", layer_sum, "ratio"});
  return m;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  bool inject_mismatch = false;  // self-test of the correctness gate
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-mismatch") {
      a.inject_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload")
      a.workload = value;
    else if (flag == "--seed")
      a.seed = std::stoull(value);
    else if (flag == "--seconds")
      a.seconds = std::stod(value);
    else if (flag == "--trace")
      a.trace = std::stoi(value) != 0;
    else if (flag == "--work-dir")
      a.work_dir = value;
    else
      throw std::invalid_argument("unknown flag " + flag);
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int run(const Args& args) {
  const std::optional<Workload> w = workload_named(args.workload);
  if (!w) throw std::invalid_argument("unknown workload '" + args.workload + "'");
  const std::size_t lanes =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, kMaxLanes);

  // Failpoints from SCAG_FAILPOINTS are armed for the timed phase only, so
  // set-up and the correctness gate run fault-free.
  const char* fp_env = std::getenv("SCAG_FAILPOINTS");
  const std::string failpoints = fp_env != nullptr ? fp_env : "";
  unsetenv("SCAG_FAILPOINTS");

  // Load generation (not timed).
  const std::uint64_t gen0 = now_ns();
  const std::vector<Target> corpus = make_corpus(args.seed);
  const std::uint64_t gen1 = now_ns();
  std::vector<Poc> pocs = w->mutant_repository ? make_mutant_pocs(args.seed)
                                               : make_designated_pocs();
  const std::uint64_t gen2 = now_ns();
  const std::vector<std::size_t> order = visit_order(corpus.size(), args.seed);
  // Set-up ends with one detection (of the first generated mutant) to warm
  // the detector.
  const std::vector<Target> warm = {corpus.front()};
  reset_peak_rss();

  std::filesystem::create_directories(args.work_dir);
  const StoreFile store{args.work_dir + "/scagbench-" + w->name + "-" +
                        std::to_string(getpid()) + ".store"};
  Setup setup = set_up_repeatedly(*w, pocs, store.path, warm);
  const std::uint64_t setup_end = now_ns();
  pocs.clear();
  const core::Detector& detector = setup.detector;
  const auto store_bytes =
      static_cast<double>(std::filesystem::file_size(store.path));

  std::printf("scagbench %s seed=%llu seconds=%g trace=%d lanes=%zu\n",
              w->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, lanes);
  std::printf("corpus: %zu targets, digest fnv1a64=%016llx\n", corpus.size(),
              static_cast<unsigned long long>(corpus_digest(corpus)));
  std::printf("repository: %zu models, store %.0f bytes, fnv1a64=%016llx\n",
              detector.repository_size(), store_bytes,
              static_cast<unsigned long long>(file_digest(store.path)));
  std::printf("load generation: corpus %.2f s, repository sources %.2f s; "
              "%d set-ups %.2f s\n",
              seconds_between(gen0, gen1), seconds_between(gen1, gen2),
              w->setup_reps, seconds_between(gen2, setup_end));

  VerdictTable seen(corpus.size());
  std::vector<double> ref_ms;
  for (int r = 0; r < 5; ++r) ref_ms.push_back(host_ref_loop_ms());
  const Bench bench{detector, corpus, order, lanes, args.seconds};
  Measurement m =
      args.trace
          ? measure_layers(bench, setup, store_bytes,
                           args.work_dir + "/scagbench-" + w->name +
                               "-spans.tsv",
                           seen)
          : measure_end_to_end(bench, w->batch, setup.total_s, failpoints,
                               seen);
  std::size_t bad = m.problems;

  for (int r = 0; r < 5; ++r) ref_ms.push_back(host_ref_loop_ms());
  std::printf("host reference loop: %.3f ms (median of %zu, before and after "
              "the measured phases)\n",
              median(ref_ms), ref_ms.size());
  if (args.trace) m.metrics.push_back({"host.ref_loop_ms", median(ref_ms), "ms"});

  // Correctness gate: every unique target's verdict, best-score bits and
  // winning model against the exhaustive oracle; repeats must agree.
  if (args.inject_mismatch) {
    for (auto& v : seen.first)
      if (v) {
        v->best_bits ^= 1;
        break;
      }
  }
  const std::uint64_t gate0 = now_ns();
  bad += seen.inconsistent;
  bad += oracle_mismatches(setup.models, corpus, seen, lanes);
  std::size_t checked = 0;
  for (const auto& v : seen.first) checked += v.has_value();
  std::printf("correctness: %zu unique targets checked against the "
              "exhaustive oracle in %.2f s, %zu problems\n",
              checked, seconds_between(gate0, now_ns()), bad);
  if (bad != 0 || checked == 0) {
    std::fprintf(stderr, "scagbench: correctness gate failed\n");
    return 1;
  }
  print_result(m.attempted, m.failed, m.metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scagbench: %s\n", e.what());
    return 2;
  }
}
