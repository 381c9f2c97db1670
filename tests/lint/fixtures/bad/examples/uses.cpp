// Reference-only root: these uses keep the bad fixtures' src/ code
// referenced, so each file fires only the rules its markers name.
void use_bad_fixtures() {
  fixture::relaxed_rules_here();
  fixture::match();
  fixture::sample();
  fixture::distinct();
  fixture::merge_tallies();
  fixture::sum4();
  fixture::lanes_wide();
  fixture::WireTap tap;
  tap.pull();
  tap.push();
  tap.drain();
  fixture::Totals totals;
  fixture::answer();
  fixture::deep_peek();
  fixture::FlowCacheish cache;
  fixture::GreedyReceiver receiver;
  receiver.harvest();
  fixture::Widget widget;
  fixture::churn();
  fixture::entropy();
  fixture::bad_atomics();
  fixture::merge_quietly();
  fixture::also_merge();
  fixture::BatchBuffer buffer;
  buffer.push();
  buffer.grow();
  buffer.attach();
  buffer.prepare();
  fixture::ChainedProducer producer;
  producer.publish();
  fixture::Ring ring;
  ring.try_push();
  ring.slow_path();
  fixture::WireParser parser;
  parser.parse();
  parser.configure();
  fixture::ThrowingDecoder decoder;
  decoder.consume();
  fixture::spin();
  fixture::also_spin();
  fixture::quiet();
  fixture::seeded();
  fixture::spawn();
}

int use_helper() { return fixture::used_helper(); }
