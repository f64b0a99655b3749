// Random-order permutations of an instance's event stream, for the
// random-order competitive-ratio model.

#ifndef COMX_MODEL_ARRIVAL_STREAM_H_
#define COMX_MODEL_ARRIVAL_STREAM_H_

#include "model/event.h"
#include "model/instance.h"
#include "util/rng.h"

namespace comx {

/// Produces a uniformly random permutation of the instance's arrival order:
/// entity timestamps are kept but the *order* is shuffled and times are
/// re-assigned monotonically so the shuffled order is consistent. This
/// implements the "random order model" (Definition 2.8): the adversary fixes
/// the input set, nature draws the order.
///
/// Returns a deep copy of the instance with rewritten times/events.
Instance RandomOrderCopy(const Instance& instance, Rng* rng);

}  // namespace comx

#endif  // COMX_MODEL_ARRIVAL_STREAM_H_
