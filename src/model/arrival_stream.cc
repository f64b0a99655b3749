#include "model/arrival_stream.h"

#include <vector>

namespace comx {

Instance RandomOrderCopy(const Instance& instance, Rng* rng) {
  Instance copy = instance;
  std::vector<Event> events = copy.events();
  rng->Shuffle(&events);
  // Re-assign monotone times preserving the shuffled order: position i gets
  // time i (seconds). Entity timestamps must agree with their event.
  for (size_t i = 0; i < events.size(); ++i) {
    events[i].time = static_cast<Timestamp>(i);
    events[i].sequence = static_cast<int64_t>(i);
    if (events[i].kind == EventKind::kWorkerArrival) {
      copy.mutable_worker(events[i].entity_id)->time = events[i].time;
    } else {
      copy.mutable_request(events[i].entity_id)->time = events[i].time;
    }
  }
  copy.SetEvents(std::move(events));
  return copy;
}

}  // namespace comx
