// Fixture: scrubber-unreferenced stays silent on each conservative
// exemption — an override whose base is called, a function whose only use
// is its address, a function named only in a macro body, and a test
// oracle kept under a justified NOLINT.

namespace fixture {

void report_failure(const char* what) { (void)what; }

#define FIXTURE_CHECK(cond) ((cond) ? (void)0 : report_failure(#cond))

struct Sink {
  virtual ~Sink() = default;
  virtual void emit(int value) = 0;
};

// Never called by its own name: drive_sink() calls the base.
struct CountingSink : Sink {
  void emit(int value) override { total += value; }
  int total = 0;
};

void drive_sink() {
  CountingSink sink;
  Sink& base = sink;
  base.emit(1);
}

int twice(int value) { return 2 * value; }

int checked_total(int value) {
  FIXTURE_CHECK(value >= 0);
  int (*scale)(int) = &twice;
  return scale(value);
}

// NOLINTNEXTLINE(scrubber-unreferenced): oracle the tests hold checked_total to
int slow_total(int value) { return value + value; }

}  // namespace fixture
