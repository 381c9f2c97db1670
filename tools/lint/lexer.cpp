#include "lint/lexer.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace scrubber::lint {
namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Length of a raw-string introducer (`R"`, `LR"`, `uR"`, `UR"`, `u8R"`)
/// starting at `i`, including the opening quote; 0 when `i` does not start
/// one. Checked before identifier scanning so the encoding prefix is never
/// consumed as an identifier (which would hand the quote to the ordinary
/// string scanner and let `\)` escapes derail it).
std::size_t raw_intro_len(const std::string& text, std::size_t i) {
  static const char* kIntros[] = {"R\"", "LR\"", "uR\"", "UR\"", "u8R\""};
  for (const char* intro : kIntros) {
    const std::size_t len = std::char_traits<char>::length(intro);
    if (text.compare(i, len, intro) == 0) {
      // The prefix must begin a token: `FooR"` is an identifier then a
      // plain string, not a raw string.
      if (i > 0 && is_ident_char(text[i - 1])) continue;
      return len;
    }
  }
  return 0;
}

/// Extends `end` (an offset of '\n' or npos) across backslash-newline
/// splices: returns the offset of the first newline NOT preceded by a
/// backslash (ignoring a \r), or npos.
std::size_t extend_over_continuations(const std::string& text,
                                      std::size_t from, std::size_t begin) {
  std::size_t end = from;
  while (true) {
    end = text.find('\n', end);
    if (end == std::string::npos) return end;
    std::size_t back = end;
    while (back > begin && text[back - 1] == '\r') --back;
    if (back > begin && text[back - 1] == '\\') {
      ++end;  // spliced: keep scanning past this newline
      continue;
    }
    return end;
  }
}

}  // namespace

bool line_in_region(const std::vector<Region>& regions, int line) {
  for (const Region& region : regions) {
    if (region.begin_line == 0 || region.end_line == 0) continue;
    if (line > region.begin_line && line < region.end_line) return true;
  }
  return false;
}

LexedFile lex(const std::string& rel_path, const std::string& text) {
  LexedFile out;
  out.rel_path = rel_path;
  const std::size_t n = text.size();
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;

  // A marker is the comment's *entire* content (mentioning a marker in
  // prose must not open a region).
  const auto note_region_marker = [&](const std::string& comment, int at) {
    const auto first = comment.find_first_not_of(" \t");
    const auto last = comment.find_last_not_of(" \t\r");
    const std::string trimmed =
        first == std::string::npos
            ? std::string()
            : comment.substr(first, last - first + 1);
    const auto open = [&](std::vector<Region>& regions) {
      regions.push_back(Region{at, 0});
    };
    const auto close = [&](std::vector<Region>& regions) {
      if (!regions.empty() && regions.back().end_line == 0) {
        regions.back().end_line = at;
      } else {
        regions.push_back(Region{0, at});  // end without begin
      }
    };
    if (trimmed == "scrubber-hot-begin") {
      open(out.hot_regions);
    } else if (trimmed == "scrubber-hot-end") {
      close(out.hot_regions);
    } else if (trimmed == "scrubber-deterministic-begin") {
      open(out.det_regions);
    } else if (trimmed == "scrubber-deterministic-end") {
      close(out.det_regions);
    }
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Preprocessor directive: consume the whole logical line, including
    // backslash-newline continuations.
    if (c == '#' && at_line_start) {
      const int start_line = line;
      std::size_t end = extend_over_continuations(text, i, i);
      if (end == std::string::npos) end = n;
      std::string directive = text.substr(i, end - i);
      line += static_cast<int>(
          std::count(directive.begin(), directive.end(), '\n'));
      // Strip a trailing // comment from the directive text.
      if (const auto slash = directive.find("//"); slash != std::string::npos) {
        std::string trailing = directive.substr(slash + 2);
        note_region_marker(trailing, start_line);
        out.comments.push_back(Comment{std::move(trailing), start_line});
        directive.resize(slash);
      }
      out.directives.push_back(Directive{std::move(directive), start_line});
      i = end;
      continue;
    }
    at_line_start = false;
    // Line comment. A trailing backslash splices the next physical line
    // into the comment (phase-2 line splicing runs before comments are
    // recognized), so code on the spliced line is NOT code.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      const int start_line = line;
      std::size_t end = extend_over_continuations(text, i, i);
      if (end == std::string::npos) end = n;
      std::string comment = text.substr(i + 2, end - i - 2);
      line += static_cast<int>(std::count(comment.begin(), comment.end(), '\n'));
      note_region_marker(comment, start_line);
      out.comments.push_back(Comment{std::move(comment), start_line});
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      const int start_line = line;
      std::size_t end = text.find("*/", i + 2);
      if (end == std::string::npos) end = n;
      std::string comment = text.substr(i + 2, end - i - 2);
      line += static_cast<int>(std::count(comment.begin(), comment.end(), '\n'));
      note_region_marker(comment, start_line);
      out.comments.push_back(Comment{std::move(comment), start_line});
      i = end == n ? n : end + 2;
      continue;
    }
    // Raw string literal (any encoding prefix). The d-char delimiter is
    // validated — at most 16 chars, none of space/tab/newline/backslash/
    // paren/quote — so a stray `R"` that is not actually a raw string
    // falls back to ordinary lexing instead of eating the rest of the
    // file.
    if (const std::size_t intro = raw_intro_len(text, i); intro > 0) {
      const std::size_t dstart = i + intro;
      std::size_t paren = dstart;
      bool valid = true;
      while (true) {
        if (paren >= n || paren - dstart > 16) {
          valid = false;
          break;
        }
        const char dc = text[paren];
        if (dc == '(') break;
        if (dc == ' ' || dc == '\t' || dc == '\n' || dc == '\\' ||
            dc == '"' || dc == ')') {
          valid = false;
          break;
        }
        ++paren;
      }
      if (valid) {
        std::string close;
        close.reserve(paren - dstart + 2);
        close.append(1, ')')
            .append(text, dstart, paren - dstart)
            .append(1, '"');
        std::size_t end = text.find(close, paren + 1);
        if (end == std::string::npos) end = n;
        const std::size_t stop = std::min(n, end + close.size());
        line += static_cast<int>(
            std::count(text.begin() + static_cast<std::ptrdiff_t>(i),
                       text.begin() + static_cast<std::ptrdiff_t>(stop),
                       '\n'));
        i = stop;
        continue;
      }
      // Not a raw string: emit the prefix (minus the quote) as an
      // identifier token and let the quote lex as an ordinary string.
      out.tokens.push_back(Token{text.substr(i, intro - 1), line, true});
      i += intro - 1;
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < n && text[i] != quote) {
        if (text[i] == '\\' && i + 1 < n) ++i;
        if (text[i] == '\n') ++line;
        ++i;
      }
      ++i;  // closing quote
      continue;
    }
    // Identifier / keyword.
    if (is_ident_start(c)) {
      std::size_t end = i;
      while (end < n && is_ident_char(text[end])) ++end;
      out.tokens.push_back(Token{text.substr(i, end - i), line, true});
      i = end;
      continue;
    }
    // Number (digits and the usual suffix soup; precision irrelevant here).
    // Digit separators (60'000) are consumed here — otherwise the `'`
    // would open a phantom char literal that eats code until the next
    // apostrophe, comments and hot-region markers included.
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t end = i;
      while (end < n && (is_ident_char(text[end]) || text[end] == '.' ||
                         ((text[end] == '+' || text[end] == '-') && end > i &&
                          (text[end - 1] == 'e' || text[end - 1] == 'E')) ||
                         (text[end] == '\'' && end + 1 < n &&
                          is_ident_char(text[end + 1])))) {
        ++end;
      }
      out.tokens.push_back(Token{text.substr(i, end - i), line, false});
      i = end;
      continue;
    }
    // Punctuation: single characters; enough for every rule here.
    out.tokens.push_back(Token{std::string(1, c), line, false});
    ++i;
  }
  out.last_line = line;
  return out;
}

Suppressions parse_suppressions(const LexedFile& file) {
  Suppressions out;
  for (const Comment& comment : file.comments) {
    for (const char* marker : {"NOLINTNEXTLINE(", "NOLINT("}) {
      const auto at = comment.text.find(marker);
      if (at == std::string::npos) continue;
      const bool next_line = marker[6] == 'N';  // NOLINTNEXTLINE
      const auto open = comment.text.find('(', at);
      const auto close = comment.text.find(')', open);
      if (close == std::string::npos) break;
      // Parse the comma-separated rule list.
      std::set<std::string> rules;
      std::string list = comment.text.substr(open + 1, close - open - 1);
      std::stringstream stream(list);
      std::string rule;
      bool any_scrubber = false;
      while (std::getline(stream, rule, ',')) {
        rule.erase(std::remove_if(rule.begin(), rule.end(),
                                  [](unsigned char ch) {
                                    return std::isspace(ch) != 0;
                                  }),
                   rule.end());
        if (rule.rfind("scrubber-", 0) == 0) any_scrubber = true;
        if (!rule.empty()) rules.insert(rule);
      }
      if (!any_scrubber) break;  // clang-tidy suppression, not ours
      // Justification: required non-blank text after "):".
      std::string after = comment.text.substr(close + 1);
      bool justified = false;
      if (!after.empty() && after[0] == ':') {
        const std::string reason = after.substr(1);
        justified = std::any_of(reason.begin(), reason.end(),
                                [](unsigned char ch) {
                                  return std::isspace(ch) == 0;
                                });
      }
      const int target = next_line ? comment.line + 1 : comment.line;
      if (!justified) {
        out.malformed.push_back(Diagnostic{
            file.rel_path, comment.line, "scrubber-nolint-needs-reason",
            "NOLINT(scrubber-*) requires a justification: "
            "`// NOLINT(scrubber-rule): why this is safe`"});
      } else {
        out.by_line[target].insert(rules.begin(), rules.end());
        out.sites.push_back(SuppressionSite{comment.line, target, rules});
      }
      break;  // one NOLINT marker per comment
    }
  }
  return out;
}

}  // namespace scrubber::lint
