// Instance-level informativeness scoring (§3.5).
//
// Not every co-occurrence of values reflects intent: 0.0.0.0/0 contains every address
// and small integers collide constantly. Each relation instance is scored by how
// unlikely it is to arise by chance; contracts aggregate scores over *distinct* values
// (diversity) and survive only above a threshold. The functions here are the
// domain-agnostic step functions the paper describes.
#ifndef SRC_RELATIONS_SCORE_H_
#define SRC_RELATIONS_SCORE_H_

#include <string_view>

#include "src/value/value.h"

namespace concord {

// Score of a containment witness with the given prefix length (0 for /0: it trivially
// contains everything).
double PrefixScore(int prefix_len, bool is_v6);

// Score of a shared canonical key (equality buckets and affix overlaps). Digit-only
// keys score by magnitude step (1 scores near zero, 3852 scores high); other text
// scores by length.
double KeyScore(std::string_view key);

// Score of an untransformed value; dispatches per type.
double ValueScore(const Value& value);

}  // namespace concord

#endif  // SRC_RELATIONS_SCORE_H_
