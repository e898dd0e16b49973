// Round-scoped decode cache: each unique wire buffer is decoded once per
// round, not once per recipient.
//
// A broadcast to n recipients shares one payload buffer (sim::Envelope holds
// an arena handle), but every recipient used to re-parse it — Θ(n²) decodes
// per round for a broadcast protocol. The engine owns one DecodeCache per
// executor thread, clears each at the start of each round's delivery, and
// stamps the delivering worker's cache into every Envelope it delivers;
// protocol code funnels decoding through decode_cached(), which turns the
// n-1 repeat decodes of a broadcast into pointer-keyed hash hits. (Under
// the parallel executor each worker decodes a buffer at most once — workers
// never share a cache, so no lookup ever synchronizes.)
//
// Determinism argument (docs/perf.md has the long form): decoding is a pure
// function of the payload bytes, and a buffer address is a stable identity
// for those bytes within a round (payloads are immutable and outboxes keep
// them alive until the next send phase). Caching therefore returns exactly
// the value a fresh decode would return — recipients observe bit-identical
// messages, cached or not. The cache is cleared before the first lookup of
// each round, so a recycled allocation address can never alias a previous
// round's entry.
//
// The cache is keyed by buffer address alone, so all users of one engine
// must decode to the same type T — true by construction, since an engine
// runs one protocol. Malformed buffers are remembered as null: the decode
// failure (and its exception cost) is also paid once per buffer.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/types.h"
#include "wire/wire.h"

namespace bil::sim {

class DecodeCache {
 public:
  /// Drops every entry. The engine calls this at the start of each round's
  /// delivery, before any lookup against that round's payloads.
  void begin_round() {
    entries_.clear();
    shared_ = {};
    clear_layered_inbox();
    index_memo_.clear();
  }

  /// Registers the round's shared delivery plan — the one span every
  /// unexceptional alive recipient receives. Its indexes are memoized once
  /// per round (see shared_index).
  void set_shared_inbox(std::span<const Envelope> shared) { shared_ = shared; }

  /// Records how one recipient's custom inbox was assembled: the registered
  /// shared plan merged, in sender order, with `extras` — the envelopes of
  /// the special senders (this round's crashed senders, for a broadcast
  /// protocol) that reach this recipient, in sender order. A sender is
  /// shared xor special, so the two parts are disjoint by sender. Both
  /// spans alias engine arenas that are reused for the next recipient; the
  /// record covers one on_receive call, and the engine clears it when that
  /// call returns.
  void set_layered_inbox(std::span<const Envelope> inbox,
                         std::span<const Envelope> extras) {
    layered_ = inbox;
    extras_ = extras;
  }
  void clear_layered_inbox() {
    layered_ = {};
    extras_ = {};
  }

  /// How `inbox` relates to the shared plan: no extras for the shared plan
  /// itself, the recorded extras for the recorded layered inbox, nullopt
  /// for any other span (which callers must index in full).
  [[nodiscard]] std::optional<std::span<const Envelope>> extras_of(
      std::span<const Envelope> inbox) const {
    if (inbox.data() == shared_.data() && inbox.size() == shared_.size()) {
      return std::span<const Envelope>();
    }
    if (inbox.data() == layered_.data() && inbox.size() == layered_.size()) {
      return extras_;
    }
    return std::nullopt;
  }

  /// Returns the decoded form of `payload`, decoding on first sight and
  /// serving hash hits afterwards. Returns nullptr for malformed payloads
  /// (wire::WireError), also memoized. `decode` must be a pure function
  /// span-of-bytes → T.
  template <typename T, typename DecodeFn>
  const T* get_or_decode(const wire::Buffer* payload, DecodeFn&& decode) {
    const auto [it, inserted] = entries_.try_emplace(payload);
    if (inserted) {
      try {
        it->second = std::make_shared<const T>(
            decode(std::span<const std::byte>(*payload)));
      } catch (const wire::WireError&) {
        // Remembered as malformed; the null entry makes the sender look
        // silent to every recipient, exactly as an uncached decode would.
      }
    }
    return static_cast<const T*>(it->second.get());
  }

  /// Memoizes a whole-inbox derived structure (e.g. a label → message
  /// index) of the round's shared delivery plan. In a crash-free broadcast
  /// round every recipient receives the identical span and would build an
  /// identical structure; building it once per round instead of once per
  /// recipient is the plan-level analogue of decode-once payloads. `build`
  /// must be a pure function of the span contents — the memoized object is
  /// then exactly what every recipient would have built, so sharing it is
  /// observation-equivalent.
  template <typename T, typename BuildFn>
  const T* shared_index(BuildFn&& build) {
    const std::type_index key(typeid(T));
    for (const auto& [type, value] : index_memo_) {
      if (type == key) {
        return static_cast<const T*>(value.get());
      }
    }
    auto built = std::make_shared<const T>(build(shared_));
    const T* out = built.get();
    index_memo_.emplace_back(key, std::move(built));
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  std::unordered_map<const wire::Buffer*, std::shared_ptr<const void>>
      entries_;
  std::span<const Envelope> shared_;
  /// The current recipient's layered inbox and its extras (empty outside
  /// the on_receive call they were recorded for).
  std::span<const Envelope> layered_;
  std::span<const Envelope> extras_;
  /// Plan-level memo entries for the shared span, keyed by result type (a
  /// round uses one or two at most — linear scan beats hashing).
  std::vector<std::pair<std::type_index, std::shared_ptr<const void>>>
      index_memo_;
};

/// Decodes an envelope through its engine's cache when delivered by an
/// engine, or directly into `scratch` for envelopes built outside one
/// (tests, handcrafted inboxes). Returns nullptr on malformed input either
/// way, so call sites have one code path.
template <typename T, typename DecodeFn>
const T* decode_cached(const Envelope& envelope, T& scratch,
                       DecodeFn&& decode) {
  if (envelope.cache != nullptr) {
    return envelope.cache->get_or_decode<T>(envelope.payload,
                                            std::forward<DecodeFn>(decode));
  }
  try {
    scratch = decode(envelope.bytes());
  } catch (const wire::WireError&) {
    return nullptr;
  }
  return &scratch;
}

/// Builds (or fetches) the whole-inbox derived structure `build(inbox)`.
/// - `inbox` is the engine's shared delivery plan: memoized once per round.
/// - `inbox` is a recorded layered inbox (shared plan plus this recipient's
///   extras, see DecodeCache::set_layered_inbox) and the caller passes
///   `extras`: returns the shared plan's memoized index and points *extras
///   at the recipient's extras. The caller must consult both; they are
///   disjoint by sender, and every extra sender's messages come in sender
///   order.
/// - Otherwise (no `extras` out-parameter, custom inboxes of corruption
///   rounds, engine-less tests): builds into `scratch`, *extras empty.
template <typename T, typename BuildFn>
const T* round_index(std::span<const Envelope> inbox, T& scratch,
                     BuildFn&& build,
                     std::span<const Envelope>* extras = nullptr) {
  if (extras != nullptr) {
    *extras = {};
  }
  DecodeCache* cache = inbox.empty() ? nullptr : inbox.front().cache;
  if (cache != nullptr) {
    const auto layer = cache->extras_of(inbox);
    if (layer.has_value() && (layer->empty() || extras != nullptr)) {
      if (extras != nullptr) {
        *extras = *layer;
      }
      return cache->shared_index<T>(build);
    }
  }
  scratch = build(inbox);
  return &scratch;
}

}  // namespace bil::sim
