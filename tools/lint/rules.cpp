#include "lint/rules.hpp"

#include <algorithm>
#include <cctype>
#include <string_view>
#include <tuple>

namespace scrubber::lint {
namespace {

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.rfind(prefix, 0) == 0;
}

void add(Sink& sink, const LexedFile& f, int line, const char* rule,
         std::string message) {
  sink.push_back(Diagnostic{f.rel_path, line, rule, std::move(message)});
}

/// scrubber-memory-order: atomic operations in src/runtime/ must pass an
/// explicit std::memory_order. Matches `.op(` / `->op(` for the atomic
/// member-function vocabulary and scans the balanced argument list for a
/// memory_order* identifier.
void rule_memory_order(const LexedFile& f, Sink& sink) {
  if (!starts_with(f.rel_path, "src/runtime/")) return;
  // `clear`/`test_and_set` (atomic_flag) are deliberately absent: `clear`
  // collides with the container vocabulary and atomic_flag is unused.
  static const std::set<std::string> kAtomicOps = {
      "load",          "store",
      "exchange",      "fetch_add",
      "fetch_sub",     "fetch_and",
      "fetch_or",      "fetch_xor",
      "compare_exchange_weak", "compare_exchange_strong",
  };
  const auto& t = f.tokens;
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (!t[i].is_identifier || kAtomicOps.count(t[i].text) == 0) continue;
    const bool member_call =
        t[i - 1].text == "." ||
        (i >= 2 && t[i - 1].text == ">" && t[i - 2].text == "-");
    if (!member_call || t[i + 1].text != "(") continue;
    // Scan the balanced argument list for memory_order*.
    int depth = 0;
    bool found = false;
    std::size_t j = i + 1;
    for (; j < t.size(); ++j) {
      if (t[j].text == "(") ++depth;
      if (t[j].text == ")" && --depth == 0) break;
      if (t[j].is_identifier && starts_with(t[j].text, "memory_order")) {
        found = true;
      }
    }
    if (!found) {
      add(sink, f, t[i].line, "scrubber-memory-order",
          "atomic `" + t[i].text +
              "` without an explicit std::memory_order (seq_cst-by-default "
              "is banned in src/runtime/ — name the ordering the protocol "
              "needs)");
    }
  }
}

/// scrubber-hot-path-blocking: inside // scrubber-hot-begin/end regions
/// (the SPSC ring push/pop paths) no locks, condvars, or sleeps. Socket
/// syscalls are blocking calls too (recvmmsg parks the thread in the
/// kernel even with a timeout) and are banned in hot regions everywhere
/// except src/netio/ — the listener subsystem is the one place the wire
/// is allowed to touch the hot path, and its receive loop is the very
/// thing the rule protects the rest of the pipeline from.
void rule_hot_path_blocking(const LexedFile& f, Sink& sink) {
  if (f.hot_regions.empty()) return;
  static const std::set<std::string> kBlocking = {
      "mutex",          "timed_mutex",
      "recursive_mutex", "shared_mutex",
      "lock_guard",     "unique_lock",
      "scoped_lock",    "shared_lock",
      "condition_variable", "condition_variable_any",
      "sleep_for",      "sleep_until",
      "wait",           "wait_for",
      "wait_until",     "future",
      "promise",
  };
  static const std::set<std::string> kSocketSyscalls = {
      "recv",     "recvfrom", "recvmsg",  "recvmmsg",
      "send",     "sendto",   "sendmsg",  "sendmmsg",
      "poll",     "ppoll",    "select",   "epoll_wait",
      "accept",   "connect",
  };
  const bool netio = starts_with(f.rel_path, "src/netio/");
  for (const Region& region : f.hot_regions) {
    if (region.begin_line == 0) {
      add(sink, f, region.end_line, "scrubber-hot-path-blocking",
          "scrubber-hot-end without a matching scrubber-hot-begin");
      continue;
    }
    if (region.end_line == 0) {
      add(sink, f, region.begin_line, "scrubber-hot-path-blocking",
          "scrubber-hot-begin without a matching scrubber-hot-end");
      continue;
    }
    for (const Token& token : f.tokens) {
      if (token.line <= region.begin_line || token.line >= region.end_line) {
        continue;
      }
      if (!token.is_identifier) continue;
      if (kBlocking.count(token.text) > 0) {
        add(sink, f, token.line, "scrubber-hot-path-blocking",
            "`" + token.text +
                "` inside a scrubber-hot region — ring push/pop paths must "
                "stay lock-free (spin/yield only)");
      } else if (!netio && kSocketSyscalls.count(token.text) > 0) {
        add(sink, f, token.line, "scrubber-hot-path-blocking",
            "socket syscall `" + token.text +
                "` inside a scrubber-hot region — only src/netio/ touches "
                "the wire; hand bytes off through the input ring");
      }
    }
  }
}

/// scrubber-hot-path-alloc: inside // scrubber-hot-begin/end regions no
/// heap allocation — per-record work must run at memory speed, so growth
/// happens in batch-sized chunks outside the marked kernels. Unbalanced
/// region markers are diagnosed by scrubber-hot-path-blocking already and
/// skipped here.
void rule_hot_path_alloc(const LexedFile& f, Sink& sink) {
  if (f.hot_regions.empty()) return;
  static const std::set<std::string> kAllocating = {
      "new",         "make_unique", "make_shared",
      "malloc",      "calloc",      "realloc",
      "aligned_alloc", "strdup",
      "push_back",   "emplace_back", "emplace",
      "resize",      "reserve",     "insert",
      "append",      "assign",
  };
  for (const Region& region : f.hot_regions) {
    if (region.begin_line == 0 || region.end_line == 0) continue;
    for (const Token& token : f.tokens) {
      if (token.line <= region.begin_line || token.line >= region.end_line) {
        continue;
      }
      if (token.is_identifier && kAllocating.count(token.text) > 0) {
        add(sink, f, token.line, "scrubber-hot-path-alloc",
            "`" + token.text +
                "` inside a scrubber-hot region — the per-record path must "
                "not allocate (preallocate or batch outside the region)");
      }
    }
  }
}

/// scrubber-hot-path-throw: inside // scrubber-hot-begin/end regions no
/// throw expressions — the wire hot path is exception-free. Unwinding
/// tears down per-record state the pool/ring protocols rely on, and a
/// throw in a noexcept decode kernel is std::terminate. Report errors as
/// values (net::DecodeStatus) and let the cold path decide. Unbalanced
/// region markers are diagnosed by scrubber-hot-path-blocking and
/// skipped here.
void rule_hot_path_throw(const LexedFile& f, Sink& sink) {
  if (f.hot_regions.empty()) return;
  for (const Region& region : f.hot_regions) {
    if (region.begin_line == 0 || region.end_line == 0) continue;
    for (const Token& token : f.tokens) {
      if (token.line <= region.begin_line || token.line >= region.end_line) {
        continue;
      }
      if (token.is_identifier && token.text == "throw") {
        add(sink, f, token.line, "scrubber-hot-path-throw",
            "`throw` inside a scrubber-hot region — the wire hot path is "
            "exception-free (return a status value like net::DecodeStatus "
            "instead of unwinding)");
      }
    }
  }
}

/// scrubber-hot-path-container: the flow hot path must not touch
/// node-based associative containers. std::map / std::unordered_map /
/// std::unordered_set are banned (i) inside scrubber-hot regions in any
/// file and (ii) *anywhere* in src/net/packet.* and src/core/aggregator.*
/// — the per-flow and per-group paths run on util::FlatHash and sorted
/// vectors (contiguous storage, deterministic insertion-order iteration,
/// zero per-node allocation), and a casual `std::map` reintroduced there
/// is exactly the regression this PR removed.
void rule_hot_path_container(const LexedFile& f, Sink& sink) {
  const bool hot_file = starts_with(f.rel_path, "src/net/packet.") ||
                        starts_with(f.rel_path, "src/core/aggregator.");
  if (!hot_file && f.hot_regions.empty()) return;
  static const std::set<std::string> kNodeContainers = {
      "map", "multimap", "unordered_map", "unordered_multimap",
      "unordered_set", "unordered_multiset",
  };
  const auto& t = f.tokens;
  for (std::size_t i = 3; i < t.size(); ++i) {
    if (!t[i].is_identifier || kNodeContainers.count(t[i].text) == 0) continue;
    // Only the std::-qualified spelling: `map` alone is too common a name
    // (the functional idiom, local variables) to match bare.
    const bool qualified = t[i - 3].text == "std" && t[i - 2].text == ":" &&
                           t[i - 1].text == ":";
    if (!qualified) continue;
    if (!hot_file && !line_in_region(f.hot_regions, t[i].line)) continue;
    add(sink, f, t[i].line, "scrubber-hot-path-container",
        "`std::" + t[i].text +
            "` on the flow hot path — use util::FlatHash or a sorted "
            "vector (contiguous, insertion-ordered, no per-node "
            "allocation)");
  }
}

/// scrubber-raw-rand: all randomness flows through util/rng (seeded,
/// reproducible); libc rand and std::random_device are banned elsewhere.
void rule_raw_rand(const LexedFile& f, Sink& sink) {
  if (starts_with(f.rel_path, "src/util/rng")) return;
  static const std::set<std::string> kBanned = {
      "rand", "srand", "rand_r", "drand48", "random_device",
  };
  for (const Token& token : f.tokens) {
    if (token.is_identifier && kBanned.count(token.text) > 0) {
      add(sink, f, token.line, "scrubber-raw-rand",
          "`" + token.text +
              "` is banned — draw from util::Rng (seeded, reproducible) "
              "instead");
    }
  }
}

/// scrubber-raw-thread: naming std::thread/std::jthread (construction or
/// member containers of them) is only allowed in src/util/thread_pool.hpp
/// (the pool that owns learning-plane workers), src/runtime/ (the serving
/// path owns its shard threads) and src/netio/ (the listener and load
/// generator own their socket threads — pooling a thread that blocks in
/// recvmmsg would poison the pool) — everything else fans work out
/// through util::training_pool(), which is what keeps learning-plane
/// results bit-identical for any thread count. Static member access
/// (std::thread::hardware_concurrency) is fine anywhere: it reads the
/// machine, it does not spawn on it.
void rule_raw_thread(const LexedFile& f, Sink& sink) {
  if (f.rel_path == "src/util/thread_pool.hpp") return;
  if (starts_with(f.rel_path, "src/runtime/")) return;
  if (starts_with(f.rel_path, "src/netio/")) return;
  const auto& t = f.tokens;
  for (std::size_t i = 3; i < t.size(); ++i) {
    if (!t[i].is_identifier ||
        (t[i].text != "thread" && t[i].text != "jthread")) {
      continue;
    }
    const bool qualified = t[i - 3].text == "std" && t[i - 2].text == ":" &&
                           t[i - 1].text == ":";
    if (!qualified) continue;
    const bool static_member_access =
        i + 2 < t.size() && t[i + 1].text == ":" && t[i + 2].text == ":";
    if (static_member_access) continue;
    add(sink, f, t[i].line, "scrubber-raw-thread",
        "`std::" + t[i].text +
            "` outside src/util/thread_pool.hpp, src/runtime/ and "
            "src/netio/ — fan work out through util::training_pool() so "
            "results stay bit-identical for any thread count");
  }
}

/// scrubber-float-counter: names that look like byte/packet counters must
/// not be declared float/double. Derived quantities (means, rates, sizes,
/// shares) are fine and excluded by name.
void rule_float_counter(const LexedFile& f, Sink& sink) {
  const auto counter_name = [](std::string name) {
    std::transform(name.begin(), name.end(), name.begin(), [](unsigned char c) {
      return static_cast<char>(std::tolower(c));
    });
    for (const char* derived : {"mean", "avg", "per", "rate", "size", "share",
                                "frac", "ratio", "scale", "weight", "norm"}) {
      if (name.find(derived) != std::string::npos) return false;
    }
    for (const char* unit : {"byte", "packet", "pkt"}) {
      if (name.find(unit) != std::string::npos) return true;
    }
    return false;
  };
  const auto& t = f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].is_identifier ||
        (t[i].text != "float" && t[i].text != "double")) {
      continue;
    }
    if (t[i + 1].is_identifier && counter_name(t[i + 1].text)) {
      add(sink, f, t[i + 1].line, "scrubber-float-counter",
          "byte/packet counter `" + t[i + 1].text + "` declared as " +
              t[i].text +
              " — counters accumulate in integers (precision loss at IXP "
              "volumes is silent)");
    }
  }
}

/// scrubber-naked-new: no naked new/delete expressions. `= delete;`
/// (deleted functions) is the one allowed spelling.
void rule_naked_new(const LexedFile& f, Sink& sink) {
  const auto& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t[i].is_identifier) continue;
    if (t[i].text == "new") {
      add(sink, f, t[i].line, "scrubber-naked-new",
          "naked `new` — use std::make_unique/containers; ownership must "
          "be structural");
    } else if (t[i].text == "delete") {
      const bool deleted_function =
          i > 0 && t[i - 1].text == "=" && i + 1 < t.size() &&
          (t[i + 1].text == ";" || t[i + 1].text == ",");
      if (!deleted_function) {
        add(sink, f, t[i].line, "scrubber-naked-new",
            "naked `delete` — if you need this, the ownership model is "
            "already broken");
      }
    }
  }
}

/// scrubber-include-guard: headers say #pragma once (and nothing else).
void rule_include_guard(const LexedFile& f, Sink& sink) {
  const bool is_header = f.rel_path.size() > 4 &&
                         (f.rel_path.ends_with(".hpp") ||
                          f.rel_path.ends_with(".h"));
  if (!is_header) return;
  bool has_pragma_once = false;
  for (const Directive& d : f.directives) {
    if (d.text.find("pragma") != std::string::npos &&
        d.text.find("once") != std::string::npos) {
      has_pragma_once = true;
      break;
    }
  }
  if (!has_pragma_once) {
    add(sink, f, 1, "scrubber-include-guard",
        "header without #pragma once (the project guard style; #ifndef "
        "guards drift)");
  }
  // #ifndef-style guard: first two directives are #ifndef X / #define X.
  if (f.directives.size() >= 2) {
    const std::string& first = f.directives[0].text;
    const std::string& second = f.directives[1].text;
    if (first.find("ifndef") != std::string::npos &&
        second.find("define") != std::string::npos) {
      add(sink, f, f.directives[0].line, "scrubber-include-guard",
          "#ifndef include guard — use #pragma once (project style)");
    }
  }
}

/// scrubber-banned-construct: std::regex and volatile are banned in
/// src/, tools/ and bench/ (regex backtracks unboundedly; volatile is
/// not synchronization — use std::atomic).
void rule_banned_construct(const LexedFile& f, Sink& sink) {
  for (const Directive& d : f.directives) {
    if (d.text.find("<regex>") != std::string::npos) {
      add(sink, f, d.line, "scrubber-banned-construct",
          "#include <regex> — std::regex backtracking is unbounded; use "
          "hand-rolled matching");
    }
  }
  for (const Token& token : f.tokens) {
    if (!token.is_identifier) continue;
    if (token.text == "regex" || token.text == "basic_regex") {
      add(sink, f, token.line, "scrubber-banned-construct",
          "std::regex is banned (unbounded backtracking on hot paths)");
    } else if (token.text == "volatile") {
      add(sink, f, token.line, "scrubber-banned-construct",
          "volatile is not synchronization — use std::atomic with an "
          "explicit memory order");
    }
  }
}

/// scrubber-simd-isolation: x86 vector intrinsics — the <immintrin.h>
/// header family and _mm*/__m128/__m256/__m512 identifiers — are allowed
/// only in src/util/simd.* (the dispatch layer) and src/ml/compiled_tree*
/// (the lane-table kernels). Everywhere else wants the dispatched batch
/// APIs: intrinsics that sprawl into ordinary TUs can be inlined into
/// functions the linker picks for other TUs and then fault on machines
/// the runtime cpuid gate was supposed to protect (DESIGN.md §13).
void rule_simd_isolation(const LexedFile& f, Sink& sink) {
  if (starts_with(f.rel_path, "src/util/simd.")) return;
  if (starts_with(f.rel_path, "src/ml/compiled_tree")) return;
  for (const Directive& d : f.directives) {
    if (d.text.find("intrin.h") != std::string::npos) {
      add(sink, f, d.line, "scrubber-simd-isolation",
          "intrinsics header outside src/util/simd.* and "
          "src/ml/compiled_tree* — SIMD code lives behind "
          "util::simd_level() dispatch so one binary stays safe on "
          "non-AVX2 machines");
    }
  }
  const auto vector_intrinsic = [](const std::string& name) {
    return starts_with(name, "_mm") || starts_with(name, "__m64") ||
           starts_with(name, "__m128") || starts_with(name, "__m256") ||
           starts_with(name, "__m512");
  };
  for (const Token& token : f.tokens) {
    if (!token.is_identifier || !vector_intrinsic(token.text)) continue;
    add(sink, f, token.line, "scrubber-simd-isolation",
        "`" + token.text +
            "` outside src/util/simd.* and src/ml/compiled_tree* — call "
            "the dispatched batch APIs (CompiledForest::margin_batch et "
            "al.) instead of raw vector intrinsics");
  }
}

/// scrubber-deterministic (direct): inside // scrubber-deterministic
/// regions no unseeded randomness, clock reads, unordered-container use,
/// or address-dependent ordering — the sharded-collector merge, the
/// training plane, and flowgen must produce bit-identical output for any
/// thread count and any run. Unbalanced markers are diagnosed here too.
void rule_deterministic_direct(const LexedFile& f, Sink& sink) {
  if (f.det_regions.empty()) return;
  for (const Region& region : f.det_regions) {
    if (region.begin_line == 0) {
      add(sink, f, region.end_line, "scrubber-deterministic",
          "scrubber-deterministic-end without a matching "
          "scrubber-deterministic-begin");
    } else if (region.end_line == 0) {
      add(sink, f, region.begin_line, "scrubber-deterministic",
          "scrubber-deterministic-begin without a matching "
          "scrubber-deterministic-end");
    }
  }
  std::vector<Primitive> primitives;
  collect_primitives(f, 0, f.tokens.size(), primitives);
  for (const Primitive& primitive : primitives) {
    if (!is_det_category(primitive.category)) continue;
    if (!line_in_region(f.det_regions, primitive.line)) continue;
    if (primitive.category == Category::DetRand &&
        starts_with(f.rel_path, "src/util/rng")) {
      continue;
    }
    add(sink, f, primitive.line, "scrubber-deterministic",
        "`" + primitive.token + "` (" + category_label(primitive.category) +
            ") inside a scrubber-deterministic region — merge, training and "
            "flowgen output must be bit-identical for any thread count and "
            "any run");
  }
}

}  // namespace

const std::vector<std::string>& all_rule_ids() {
  static const std::vector<std::string> kRules = {
      "scrubber-memory-order",    "scrubber-hot-path-blocking",
      "scrubber-hot-path-alloc",  "scrubber-hot-path-container",
      "scrubber-hot-path-throw",
      "scrubber-raw-rand",        "scrubber-raw-thread",
      "scrubber-float-counter",   "scrubber-naked-new",
      "scrubber-include-guard",   "scrubber-banned-construct",
      "scrubber-nolint-needs-reason", "scrubber-transitive",
      "scrubber-deterministic",   "scrubber-layering",
      "scrubber-stale-nolint",    "scrubber-simd-isolation",
      "scrubber-unreferenced",
  };
  return kRules;
}

const std::map<std::string, std::set<std::string>>& module_dag() {
  // Derived from the actual include graph at the time the DAG was
  // declared; enforced against drift from here on. netio sits on top
  // (it may see everything), util at the bottom (it sees nothing), and
  // ml must never reach netio — the learning plane cannot grow a
  // dependency on the wire.
  static const std::map<std::string, std::set<std::string>> kDag = {
      {"netio", {"netio", "runtime", "core", "net", "bgp", "util"}},
      {"runtime", {"runtime", "core", "net", "bgp", "util"}},
      {"core", {"core", "ml", "arm", "bgp", "net", "util"}},
      {"ml", {"ml", "net", "util"}},
      {"arm", {"arm", "net", "util"}},
      {"bgp", {"bgp", "net", "util"}},
      {"flowgen", {"flowgen", "net", "bgp", "util"}},
      {"net", {"net", "util"}},
      {"util", {"util"}},
  };
  return kDag;
}

void run_file_rules(const LexedFile& file, Sink& sink) {
  rule_memory_order(file, sink);
  rule_hot_path_blocking(file, sink);
  rule_hot_path_alloc(file, sink);
  rule_hot_path_container(file, sink);
  rule_hot_path_throw(file, sink);
  rule_raw_rand(file, sink);
  rule_raw_thread(file, sink);
  rule_float_counter(file, sink);
  rule_naked_new(file, sink);
  rule_include_guard(file, sink);
  rule_banned_construct(file, sink);
  rule_simd_isolation(file, sink);
  rule_deterministic_direct(file, sink);
}

namespace {

/// Module of an include target: "netio/udp.hpp" (or "src/netio/udp.hpp")
/// names module netio; targets whose first segment is not a declared
/// module ("lint/lexer.hpp", "gtest/gtest.h") are unconstrained.
std::string include_target_module(const std::string& include_path) {
  std::string path = include_path;
  if (starts_with(path, "src/")) path = path.substr(4);
  const auto slash = path.find('/');
  if (slash == std::string::npos) return "";
  const std::string segment = path.substr(0, slash);
  return module_dag().count(segment) > 0 ? segment : "";
}

std::string joined(const std::set<std::string>& values) {
  std::string out;
  for (const std::string& value : values) {
    if (!out.empty()) out += ", ";
    out += value;
  }
  return out;
}

}  // namespace

void rule_layering(const ProjectIndex& index, Sink& sink) {
  for (const IncludeEdge& edge : index.includes) {
    const IndexedFile& from = index.files[edge.file];
    const auto allowed = module_dag().find(from.module);
    if (allowed == module_dag().end()) continue;  // tools/bench/top-level
    const std::string target = include_target_module(edge.path);
    if (target.empty()) continue;
    if (allowed->second.count(target) > 0) continue;
    sink.push_back(Diagnostic{
        from.lexed.rel_path, edge.line, "scrubber-layering",
        "module `" + from.module + "` must not include `" + edge.path +
            "` (module `" + target + "`) — the declared DAG allows " +
            from.module + " -> { " + joined(allowed->second) +
            " } (see DESIGN.md §12)"});
  }
}

namespace {

/// Identifiers of a preprocessor directive (a macro body, an #if
/// condition); #include targets are paths, not uses.
std::vector<std::string> directive_identifiers(const Directive& directive) {
  const std::string& text = directive.text;
  std::vector<std::string> out;
  const auto head = text.find_first_not_of(" \t#");
  if (head == std::string::npos || text.compare(head, 7, "include") == 0) {
    return out;
  }
  const auto ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  };
  for (std::size_t i = head; i < text.size();) {
    if (!ident(text[i])) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < text.size() && ident(text[end])) ++end;
    if (std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
      out.push_back(text.substr(i, end - i));
    }
    i = end;
  }
  return out;
}

/// One src/ function or class name: its definitions and which of its
/// appearances are its own rather than uses.
struct Candidate {
  Sink findings;  ///< one per src/ definition, reported when `used` stays false
  /// (file, [begin, end)) token spans: definition bodies, class bodies,
  /// out-of-line member definitions, class-head names.
  std::vector<std::tuple<std::uint32_t, std::size_t, std::size_t>> own;
  bool used = false;

  [[nodiscard]] bool owns(std::uint32_t file, std::size_t token) const {
    return std::any_of(own.begin(), own.end(), [&](const auto& span) {
      return std::get<0>(span) == file && token >= std::get<1>(span) &&
             token < std::get<2>(span);
    });
  }
};

Diagnostic unreferenced(const std::string& file, int line,
                        const std::string& what) {
  return Diagnostic{
      file, line, "scrubber-unreferenced",
      what + " is named only at its own declaration, definition or body — "
             "no use in src/, tools/, bench/, examples/ or bench_e2e/ "
             "(tests/ do not count); delete it, or keep a test oracle with "
             "NOLINT(scrubber-unreferenced): <reason>"};
}

}  // namespace

void rule_unreferenced(const ProjectIndex& index,
                       const std::vector<LexedFile>& reference_only,
                       Sink& sink) {
  const auto path = [&index](std::uint32_t file) -> const std::string& {
    return index.files[file].lexed.rel_path;
  };
  const auto in_src = [&path](std::uint32_t file) {
    return starts_with(path(file), "src/");
  };
  std::map<std::string, Candidate> candidates;
  for (const FunctionDef& fn : index.functions) {
    const bool special = fn.name == fn.class_name || fn.name[0] == '~';
    if (!in_src(fn.file) || special) continue;
    Candidate& c = candidates[fn.name];
    c.findings.push_back(unreferenced(path(fn.file), fn.name_line,
                                      "function `" + fn.qualified + "`"));
    c.own.emplace_back(fn.file, fn.body_begin, fn.body_end);
  }
  for (const ClassDef& cls : index.classes) {
    if (!in_src(cls.file)) continue;
    Candidate& c = candidates[cls.name];
    c.findings.push_back(unreferenced(path(cls.file), cls.name_line,
                                      "class `" + cls.name + "`"));
    c.own.emplace_back(cls.file, cls.name_token, cls.name_token + 1);
    c.own.emplace_back(cls.file, cls.body_begin, cls.body_end);
  }
  for (const FunctionDef& fn : index.functions) {
    const auto it = candidates.find(fn.class_name);
    if (in_src(fn.file) && it != candidates.end()) {
      it->second.own.emplace_back(fn.file, fn.decl_begin, fn.body_end);
    }
  }

  const auto use_directives = [&candidates](const LexedFile& file) {
    for (const Directive& directive : file.directives) {
      for (const std::string& name : directive_identifiers(directive)) {
        const auto it = candidates.find(name);
        if (it != candidates.end()) it->second.used = true;
      }
    }
  };
  for (std::uint32_t fi = 0; fi < index.files.size(); ++fi) {
    const IndexedFile& file = index.files[fi];
    if (starts_with(file.lexed.rel_path, "tests/")) continue;
    const auto& tokens = file.lexed.tokens;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (!tokens[i].is_identifier) continue;
      const auto it = candidates.find(tokens[i].text);
      if (it == candidates.end() || it->second.used) continue;
      const bool declared = std::binary_search(
          file.declarators.begin(), file.declarators.end(), i);
      if (!declared && !it->second.owns(fi, i)) it->second.used = true;
    }
    use_directives(file.lexed);
  }
  for (const LexedFile& file : reference_only) {
    for (const Token& token : file.tokens) {
      const auto it = candidates.find(token.text);
      if (it != candidates.end()) it->second.used = true;
    }
    use_directives(file);
  }

  for (const auto& [name, candidate] : candidates) {
    if (!candidate.used) {
      sink.insert(sink.end(), candidate.findings.begin(),
                  candidate.findings.end());
    }
  }
}

void apply_suppressions(const ProjectIndex& index, Sink raw,
                        const UsedSuppressions& edge_used, Sink& kept) {
  std::map<std::string, std::uint32_t> file_of;
  for (std::uint32_t fi = 0; fi < index.files.size(); ++fi) {
    file_of[index.files[fi].lexed.rel_path] = fi;
  }
  // (file, target line, rule) triples whose suppression absorbed a
  // diagnostic — seeded with the edges the transitive walk consumed.
  UsedSuppressions used = edge_used;
  for (Diagnostic& d : raw) {
    const auto fit = file_of.find(d.file);
    const bool suppressible = d.rule != "scrubber-nolint-needs-reason";
    if (suppressible && fit != file_of.end() &&
        index.files[fit->second].suppressions.covers(d.line, d.rule)) {
      used.insert({fit->second, d.line, d.rule});
      continue;
    }
    kept.push_back(std::move(d));
  }
  for (std::uint32_t fi = 0; fi < index.files.size(); ++fi) {
    const IndexedFile& file = index.files[fi];
    for (const Diagnostic& d : file.suppressions.malformed) {
      kept.push_back(d);
    }
    for (const SuppressionSite& site : file.suppressions.sites) {
      bool fired = false;
      for (const std::string& rule : site.rules) {
        if (used.count({fi, site.target_line, rule}) > 0) {
          fired = true;
          break;
        }
      }
      if (!fired) {
        kept.push_back(Diagnostic{
            file.lexed.rel_path, site.comment_line, "scrubber-stale-nolint",
            "NOLINT(" + joined(site.rules) +
                ") suppresses nothing — the violation it silenced is gone; "
                "remove the suppression or re-justify it"});
      }
    }
  }
}

}  // namespace scrubber::lint
