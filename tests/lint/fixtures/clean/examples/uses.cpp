// Reference-only root: scrubber-lint lexes examples/ for identifiers and
// never lints it, so these uses keep the fixture tree's src/ code
// referenced (scrubber-unreferenced) without being checked themselves.
#include <thread>

void use_clean_fixtures(int fd) {
  auto counter = fixture::Counter::make();
  counter->bump();
  counter->note(counter->total_packets());
  fixture::MinuteStats stats;
  fixture::BatchReceiver receiver;
  receiver.start();
  receiver.harvest(fd, nullptr, 0);
  receiver.stop();
  fixture::Stage stage;
  stage.start();
  stage.stop();
  fixture::ChainedProducer producer;
  producer.publish();
  fixture::WireParser parser;
  parser.configure();
  parser.parse(nullptr, 0);
  parser.check_invariant();
  fixture::Pool pool(4);
  fixture::layered_ok();
  fixture::lookup(1);
  fixture::add4(nullptr);
  fixture::splat4(1.0);
  fixture::plan_width(8);
  fixture::drive_sink();
  fixture::checked_total(2);
  volatile int never_linted = 0;  // banned in src/, but examples/ is not linted
}
