// Fixture: scrubber-unreferenced fires on code that only its own
// declaration, definition or body names.

namespace fixture {

// Recursion is not a use.
int countdown(int n) { return n == 0 ? 0 : countdown(n - 1); }  // EXPECT-LINT: scrubber-unreferenced

// Named only in its own body and its out-of-line member definitions.
class Orphan {  // EXPECT-LINT: scrubber-unreferenced
 public:
  Orphan adopt(const Orphan& other) const;
  int id = 0;
};

Orphan Orphan::adopt(const Orphan& other) const {  // EXPECT-LINT: scrubber-unreferenced
  Orphan copy = other;
  copy.id = id;
  return copy;
}

// A NOLINT on a used function suppresses nothing.
int used_helper() { return 1; }  // NOLINT(scrubber-unreferenced): kept anyway  EXPECT-LINT: scrubber-stale-nolint

}  // namespace fixture
