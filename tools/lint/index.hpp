#pragma once
// Pass 1 of scrubber-lint: the whole-program index. Every translation
// unit handed to the driver is lexed and scanned once for
//
//   - function definitions (free and member, in-class and out-of-line),
//     with their body token ranges and scope-qualified names
//   - call sites inside those bodies (bare name + spelled qualifier +
//     receiver-ness, resolved later by the call-graph pass)
//   - quoted #include edges (the layering pass checks them against the
//     declared module DAG)
//   - NOLINT suppression sites (the stale pass checks they still fire)
//   - class definitions and the name tokens of function declarators and
//     forward class declarations (the unreferenced pass discounts them)
//
// The function scanner is a heuristic brace/scope tracker, not a parser:
// it recognizes `name(args) <trailer> {` at namespace/class scope,
// including ctor-initializer lists and trailing return types. Operator
// overloads and templates spelled `f<T>(...)` are not indexed — the
// region rules still cover their bodies lexically, only the transitive
// pass cannot see through them (documented in DESIGN.md §12).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lint/lexer.hpp"

namespace scrubber::lint {

struct FunctionDef {
  std::uint32_t file = 0;    ///< index into ProjectIndex::files
  std::string name;          ///< bare name ("~" prefix for destructors)
  std::string class_name;    ///< enclosing class/struct; "" = free function
  std::string qualified;     ///< scope-qualified spelling, for graph labels
  int name_line = 0;
  int body_begin_line = 0;
  int body_end_line = 0;
  std::size_t decl_begin = 0;  ///< first token of the whole declaration
  std::size_t body_begin = 0;  ///< token range [body_begin, body_end)
  std::size_t body_end = 0;
};

struct ClassDef {
  std::uint32_t file = 0;
  std::string name;
  int name_line = 0;
  std::size_t name_token = 0;
  std::size_t body_begin = 0;  ///< token range [body_begin, body_end)
  std::size_t body_end = 0;
};

struct CallSite {
  std::uint32_t file = 0;
  std::int32_t caller = -1;  ///< FunctionDef index; only in-body calls kept
  std::string name;          ///< bare callee name
  std::string qualifier;     ///< "std" / "util" / "Foo" when spelled A::f
  int line = 0;
  bool has_receiver = false;  ///< x.f(...) or x->f(...)
};

struct IncludeEdge {
  std::uint32_t file = 0;
  std::string path;  ///< quoted include target, as written
  int line = 0;
};

struct IndexedFile {
  LexedFile lexed;
  Suppressions suppressions;
  std::string module;  ///< "runtime", "tools", ...; "" outside the tree
  /// Sorted token indices of names being declared rather than used:
  /// function names at namespace/class-scope declarations and
  /// definitions, class names in forward declarations.
  std::vector<std::size_t> declarators;
};

struct ProjectIndex {
  std::vector<IndexedFile> files;
  std::vector<FunctionDef> functions;
  std::vector<ClassDef> classes;
  std::vector<CallSite> calls;
  std::vector<IncludeEdge> includes;
  std::map<std::string, std::vector<std::uint32_t>> functions_by_name;
};

/// Module of a scan-root-relative path: "src/runtime/ring.hpp" ->
/// "runtime", "tools/lint/main.cpp" -> "tools", "bench/micro.cpp" ->
/// "bench", anything else -> "".
std::string module_of(const std::string& rel_path);

/// Builds the whole-program index over already-lexed files.
ProjectIndex build_index(std::vector<LexedFile> files);

}  // namespace scrubber::lint
