#include "lint/index.hpp"

#include <algorithm>
#include <cctype>
#include <set>

namespace scrubber::lint {
namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Keywords and vocabulary that can never be a project function name or a
/// call worth an edge: control flow, type heads, cast-like builtins.
const std::set<std::string>& keyword_set() {
  static const std::set<std::string> kKeywords = {
      "if", "else", "for", "while", "do", "switch", "case", "default",
      "return", "goto", "break", "continue", "sizeof", "alignof", "alignas",
      "decltype", "typeid", "static_assert", "new", "delete", "throw",
      "catch", "try", "operator", "template", "typename", "using",
      "namespace", "class", "struct", "enum", "union", "concept", "requires",
      "const", "constexpr", "consteval", "constinit", "volatile", "static",
      "inline", "extern", "mutable", "register", "thread_local", "friend",
      "explicit", "virtual", "override", "final", "public", "private",
      "protected", "typedef", "void", "bool", "char", "wchar_t", "char8_t",
      "char16_t", "char32_t", "int", "float", "double", "long", "short",
      "unsigned", "signed", "auto", "noexcept", "this", "true", "false",
      "nullptr", "asm", "co_await", "co_return", "co_yield",
      // Fixed-width typedefs show up as functional casts (`uint64_t(x)`);
      // they are types, not calls.
      "int8_t", "int16_t", "int32_t", "int64_t", "uint8_t", "uint16_t",
      "uint32_t", "uint64_t", "size_t", "ssize_t", "ptrdiff_t", "uintptr_t",
      "intptr_t",
  };
  return kKeywords;
}

/// ALL_CAPS identifiers are treated as macros: never function definitions,
/// never call edges.
bool is_all_caps(const std::string& name) {
  if (name.size() < 2) return false;
  bool has_upper = false;
  for (const char c : name) {
    if (std::isupper(static_cast<unsigned char>(c)) != 0) {
      has_upper = true;
    } else if (c != '_' && std::isdigit(static_cast<unsigned char>(c)) == 0) {
      return false;
    }
  }
  return has_upper;
}

/// Index one past the closer matching the opener at `open`, or kNpos.
std::size_t skip_balanced(const std::vector<Token>& toks, std::size_t open,
                          const char* opener, const char* closer) {
  int depth = 0;
  for (std::size_t q = open; q < toks.size(); ++q) {
    if (toks[q].text == opener) {
      ++depth;
    } else if (toks[q].text == closer) {
      if (--depth == 0) return q + 1;
    }
  }
  return kNpos;
}

/// Parses a constructor mem-initializer list starting after the `:`.
/// Grammar per initializer: name-soup, then one balanced `(...)` or
/// `{...}` group, then `,` (next initializer) or `{` (body). Returns the
/// body-brace token index, or kNpos when this is not an initializer list.
std::size_t parse_ctor_init(const std::vector<Token>& toks, std::size_t from) {
  std::size_t q = from;
  while (true) {
    while (q < toks.size() && toks[q].text != "(" && toks[q].text != "{") {
      if (toks[q].text == ";" || toks[q].text == "}") return kNpos;
      ++q;
    }
    if (q >= toks.size()) return kNpos;
    const bool paren = toks[q].text == "(";
    const std::size_t after = paren ? skip_balanced(toks, q, "(", ")")
                                    : skip_balanced(toks, q, "{", "}");
    if (after == kNpos || after >= toks.size()) return kNpos;
    if (toks[after].text == ",") {
      q = after + 1;
      continue;
    }
    if (toks[after].text == "{") return after;
    return kNpos;
  }
}

struct ParsedFn {
  std::size_t body_open = kNpos;  ///< token index of the body `{`
};

enum class Declarator { kNone, kDeclaration, kDefinition };

/// Parses a function declarator whose name token is at `t` (with
/// `toks[t + 1] == "("`). Accepts the parameter list, then a trailer of
/// const / noexcept(...) / override / final / & / && / trailing return /
/// ctor-initializer list. Ending at the body `{` is a definition; ending
/// at `;` or `= 0` / `= default` / `= delete` is a declaration; anything
/// else (an initializer, a call inside an expression) is neither.
Declarator parse_declarator(const std::vector<Token>& toks, std::size_t t,
                            ParsedFn& out) {
  constexpr Declarator kNone = Declarator::kNone;
  std::size_t q = skip_balanced(toks, t + 1, "(", ")");
  if (q == kNpos) return kNone;
  while (q < toks.size()) {
    const std::string& s = toks[q].text;
    if (s == "{") {
      out.body_open = q;
      return Declarator::kDefinition;
    }
    if (s == ";") return Declarator::kDeclaration;
    if (s == "=") {
      const bool pure_or_special =
          q + 1 < toks.size() &&
          (toks[q + 1].text == "0" || toks[q + 1].text == "default" ||
           toks[q + 1].text == "delete");
      return pure_or_special ? Declarator::kDeclaration : kNone;
    }
    if (s == "}") return kNone;
    if (s == "const" || s == "override" || s == "final" || s == "mutable") {
      ++q;
      continue;
    }
    if (s == "noexcept" || s == "throw") {
      ++q;
      if (q < toks.size() && toks[q].text == "(") {
        q = skip_balanced(toks, q, "(", ")");
        if (q == kNpos) return kNone;
      }
      continue;
    }
    if (s == "&") {
      ++q;
      continue;
    }
    if (s == "-" && q + 1 < toks.size() && toks[q + 1].text == ">") {
      // Trailing return type: scan to the body `{` at paren depth 0.
      q += 2;
      int depth = 0;
      while (q < toks.size()) {
        const std::string& u = toks[q].text;
        if (u == "(") {
          ++depth;
        } else if (u == ")") {
          --depth;
        } else if (depth == 0 && (u == "{" || u == ";" || u == "=")) {
          break;
        }
        ++q;
      }
      continue;  // the outer loop classifies the stop token
    }
    if (s == ":") {
      const std::size_t body = parse_ctor_init(toks, q + 1);
      if (body == kNpos) return kNone;
      out.body_open = body;
      return Declarator::kDefinition;
    }
    return kNone;
  }
  return kNone;
}

/// The per-file scope scanner. A stack of frames tracks where `{` put us;
/// function definitions are only recognized at namespace/class scope, call
/// sites are only recorded inside function bodies.
class Scanner {
 public:
  Scanner(ProjectIndex& out, std::uint32_t file_idx)
      : out_(out), file_(file_idx),
        toks_(out.files[file_idx].lexed.tokens),
        declarators_(out.files[file_idx].declarators) {}

  void run() {
    scopes_.push_back(Frame{Kind::Namespace, "", -1});
    std::size_t t = 0;
    while (t < toks_.size()) {
      const Token& tok = toks_[t];
      const bool decl_scope = scopes_.back().kind == Kind::Namespace ||
                              scopes_.back().kind == Kind::Class;
      if (tok.text == "{") {
        Kind kind = Kind::Block;
        std::string name;
        std::int32_t def = -1;
        if (decl_scope && pending_.kind == Pending::Namespace) {
          kind = Kind::Namespace;
          name = pending_.name;
        } else if (decl_scope && pending_.kind == Pending::Class) {
          kind = Kind::Class;
          name = pending_.name;
          if (!name.empty()) def = record_class(t);
        }
        scopes_.push_back(Frame{kind, std::move(name), def});
        pending_ = {};
        stmt_begin_ = ++t;
        continue;
      }
      if (tok.text == "}") {
        close_top(t, tok.line);
        pending_ = {};
        stmt_begin_ = ++t;
        continue;
      }
      if (decl_scope) {
        t = scan_decl_scope(t);
      } else {
        t = scan_body_scope(t);
      }
    }
    // Unbalanced file (preprocessor-split braces): close what is open so
    // body ranges stay valid.
    while (scopes_.size() > 1) {
      close_top(toks_.size(),
                toks_.empty() ? 1 : toks_.back().line);
    }
  }

 private:
  enum class Kind { Namespace, Class, Function, Block };
  struct Frame {
    Kind kind;
    std::string name;
    std::int32_t def;  ///< FunctionDef / ClassDef index, or -1
  };
  struct Pending {
    /// Enum and Init both make the next `{` a plain block, but only Enum
    /// also blocks `class`/`struct` from re-classifying: `enum class` is
    /// still an enum, while `template <typename H = std::hash<K>> class`
    /// must be a class despite the `=` in the default argument.
    enum Which { None, Namespace, Class, Enum, Init } kind = None;
    std::string name;
    std::size_t name_token = kNpos;
    /// A `:` base clause or a specialization's `<` froze the class name.
    bool name_frozen = false;
  };

  void close_top(std::size_t t, int line) {
    if (scopes_.size() <= 1) return;
    const Frame& top = scopes_.back();
    if (top.kind == Kind::Function && top.def >= 0) {
      FunctionDef& fn = out_.functions[static_cast<std::size_t>(top.def)];
      fn.body_end = t;
      fn.body_end_line = line;
    } else if (top.kind == Kind::Class && top.def >= 0) {
      out_.classes[static_cast<std::size_t>(top.def)].body_end = t;
    }
    scopes_.pop_back();
  }

  /// Records the class whose body `{` is at `t`; returns its index.
  std::int32_t record_class(std::size_t t) {
    ClassDef def;
    def.file = file_;
    def.name = pending_.name;
    def.name_line = toks_[pending_.name_token].line;
    def.name_token = pending_.name_token;
    def.body_begin = t + 1;
    def.body_end = toks_.size();
    out_.classes.push_back(std::move(def));
    return static_cast<std::int32_t>(out_.classes.size() - 1);
  }

  /// Handles one token at namespace/class scope; returns the next index.
  std::size_t scan_decl_scope(std::size_t t) {
    const Token& tok = toks_[t];
    if (!tok.is_identifier) {
      if (tok.text == ";") {
        if (pending_.kind == Pending::Class &&
            pending_.name_token != kNpos) {
          declarators_.push_back(pending_.name_token);  // `class Foo;`
        }
        pending_ = {};
        stmt_begin_ = t + 1;
      } else if (tok.text == "=") {
        pending_.kind = Pending::Init;  // initializer braces, not a scope
      } else if ((tok.text == ":" || tok.text == "<") &&
                 pending_.kind == Pending::Class && !pending_.name.empty()) {
        // Base clause `class Foo : Bar`, specialization `struct hash<K>`.
        pending_.name_frozen = true;
      }
      return t + 1;
    }
    const std::string& s = tok.text;
    if (s == "namespace") {
      pending_ = {};
      pending_.kind = Pending::Namespace;
      return t + 1;
    }
    if ((s == "class" || s == "struct") && pending_.kind != Pending::Enum) {
      pending_ = {};
      pending_.kind = Pending::Class;
      return t + 1;
    }
    if (s == "enum" || s == "union") {
      pending_.kind = Pending::Enum;
      return t + 1;
    }
    if (pending_.kind == Pending::Namespace) {
      pending_.name =
          pending_.name.empty() ? s : pending_.name + "::" + s;
      return t + 1;
    }
    if (pending_.kind == Pending::Class && !pending_.name_frozen &&
        keyword_set().count(s) == 0) {
      pending_.name = s;  // last identifier before `{` / `:` wins
      pending_.name_token = t;
      return t + 1;
    }
    if (keyword_set().count(s) == 0 && !is_all_caps(s) &&
        t + 1 < toks_.size() && toks_[t + 1].text == "(") {
      ParsedFn parsed;
      const Declarator kind = parse_declarator(toks_, t, parsed);
      if (kind == Declarator::kDefinition) {
        declarators_.push_back(t);
        return record_definition(t, parsed);
      }
      // After `=` this is an initializer's call (`int x = f(1);`), not a
      // declaration.
      if (kind == Declarator::kDeclaration && pending_.kind != Pending::Init) {
        declarators_.push_back(t);
      }
    }
    return t + 1;
  }

  /// Records the definition whose name is at `t`, pushes its frame, and
  /// returns the first body token index.
  std::size_t record_definition(std::size_t t, const ParsedFn& parsed) {
    std::string name = toks_[t].text;
    std::string qual_class;
    std::size_t back = t;
    if (back >= 1 && toks_[back - 1].text == "~") {
      name = "~" + name;
      --back;
    }
    if (back >= 3 && toks_[back - 1].text == ":" &&
        toks_[back - 2].text == ":" && toks_[back - 3].is_identifier) {
      qual_class = toks_[back - 3].text;  // out-of-line `Foo::bar`
    }
    std::string class_name = qual_class;
    if (class_name.empty()) {
      for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
        if (it->kind == Kind::Class) {
          class_name = it->name;
          break;
        }
      }
    }
    std::string qualified;
    for (const Frame& frame : scopes_) {
      if ((frame.kind == Kind::Namespace || frame.kind == Kind::Class) &&
          !frame.name.empty()) {
        qualified += frame.name + "::";
      }
    }
    if (!qual_class.empty()) qualified += qual_class + "::";
    qualified += name;

    FunctionDef def;
    def.file = file_;
    def.name = name;
    def.class_name = class_name;
    def.qualified = std::move(qualified);
    def.name_line = toks_[t].line;
    def.decl_begin = stmt_begin_;
    def.body_begin = parsed.body_open + 1;
    def.body_begin_line = toks_[parsed.body_open].line;
    const auto idx = static_cast<std::int32_t>(out_.functions.size());
    out_.functions.push_back(std::move(def));
    scopes_.push_back(Frame{Kind::Function, name, idx});
    pending_ = {};
    return parsed.body_open + 1;
  }

  /// Handles one token inside a function/block body; returns next index.
  std::size_t scan_body_scope(std::size_t t) {
    const Token& tok = toks_[t];
    if (!tok.is_identifier || keyword_set().count(tok.text) != 0 ||
        is_all_caps(tok.text) || t + 1 >= toks_.size() ||
        toks_[t + 1].text != "(") {
      return t + 1;
    }
    std::int32_t caller = -1;
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Kind::Function) {
        caller = it->def;
        break;
      }
    }
    if (caller < 0) return t + 1;  // initializer block at file scope

    CallSite call;
    call.file = file_;
    call.caller = caller;
    call.name = tok.text;
    call.line = tok.line;
    std::size_t back = t;
    if (back >= 1 && toks_[back - 1].text == "~") {
      call.name = "~" + call.name;
      --back;
    }
    if (back >= 1) {
      const std::string& prev = toks_[back - 1].text;
      if (prev == ".") {
        call.has_receiver = true;
      } else if (prev == ">" && back >= 2 && toks_[back - 2].text == "-") {
        call.has_receiver = true;
      } else if (prev == ":" && back >= 3 && toks_[back - 2].text == ":" &&
                 toks_[back - 3].is_identifier) {
        call.qualifier = toks_[back - 3].text;
      }
    }
    out_.calls.push_back(std::move(call));
    return t + 1;
  }

  ProjectIndex& out_;
  const std::uint32_t file_;
  const std::vector<Token>& toks_;
  std::vector<Frame> scopes_;
  std::vector<std::size_t>& declarators_;
  Pending pending_;
  std::size_t stmt_begin_ = 0;  ///< first token of the current declaration
};

void collect_includes(ProjectIndex& out, std::uint32_t file_idx) {
  for (const Directive& directive : out.files[file_idx].lexed.directives) {
    std::size_t p = 0;
    const std::string& text = directive.text;
    auto skip_ws = [&] {
      while (p < text.size() &&
             (text[p] == ' ' || text[p] == '\t')) {
        ++p;
      }
    };
    skip_ws();
    if (p >= text.size() || text[p] != '#') continue;
    ++p;
    skip_ws();
    if (text.compare(p, 7, "include") != 0) continue;
    const auto open = text.find('"', p + 7);
    if (open == std::string::npos) continue;  // <system> include
    const auto close = text.find('"', open + 1);
    if (close == std::string::npos) continue;
    out.includes.push_back(IncludeEdge{
        file_idx, text.substr(open + 1, close - open - 1), directive.line});
  }
}

}  // namespace

std::string module_of(const std::string& rel_path) {
  if (rel_path.rfind("src/", 0) == 0) {
    const auto slash = rel_path.find('/', 4);
    if (slash == std::string::npos) return "";
    return rel_path.substr(4, slash - 4);
  }
  if (rel_path.rfind("tools/", 0) == 0) return "tools";
  if (rel_path.rfind("bench/", 0) == 0) return "bench";
  return "";
}

ProjectIndex build_index(std::vector<LexedFile> files) {
  ProjectIndex out;
  out.files.reserve(files.size());
  for (LexedFile& lexed : files) {
    IndexedFile indexed;
    indexed.suppressions = parse_suppressions(lexed);
    indexed.module = module_of(lexed.rel_path);
    indexed.lexed = std::move(lexed);
    out.files.push_back(std::move(indexed));
  }
  for (std::uint32_t fi = 0; fi < out.files.size(); ++fi) {
    Scanner(out, fi).run();
    std::sort(out.files[fi].declarators.begin(),
              out.files[fi].declarators.end());
    collect_includes(out, fi);
  }
  for (std::uint32_t i = 0; i < out.functions.size(); ++i) {
    out.functions_by_name[out.functions[i].name].push_back(i);
  }
  return out;
}

}  // namespace scrubber::lint
