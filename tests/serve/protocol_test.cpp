// Wire-protocol codecs: round-trips, header validation verdicts, and the
// adversarial fuzz contract — 1000 hostile frames must produce 1000 typed
// verdicts and zero crashes, over-reads or wire-sized allocations.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/rng.hpp"

namespace solsched::serve {
namespace {

QueryRequest sample_query() {
  QueryRequest q;
  q.controller_key = 0xf9ebf1a782f586edull;
  q.day = 3;
  q.period = 7;
  q.selected_cap = 1;
  q.dead_mask = 0b100;
  q.accumulated_dmr = 0.125;
  q.deadline_ms = 250;
  q.last_period_solar_w = {0.1, 0.05, 0.0, 0.2};
  q.cap_voltages = {2.5, 3.25, 4.0};
  return q;
}

TEST(Protocol, QueryRoundTripIsExact) {
  const QueryRequest q = sample_query();
  const auto payload = encode_query(q);
  QueryRequest back;
  ASSERT_EQ(decode_query(payload.data(), payload.size(), kProtocolVersion,
                         &back),
            FrameVerdict::kOk);
  EXPECT_EQ(back.controller_key, q.controller_key);
  EXPECT_EQ(back.day, q.day);
  EXPECT_EQ(back.period, q.period);
  EXPECT_EQ(back.selected_cap, q.selected_cap);
  EXPECT_EQ(back.dead_mask, q.dead_mask);
  // Doubles travel as IEEE-754 bit patterns: bit-exact, not approximate.
  EXPECT_EQ(back.accumulated_dmr, q.accumulated_dmr);
  EXPECT_EQ(back.deadline_ms, q.deadline_ms);
  EXPECT_EQ(back.last_period_solar_w, q.last_period_solar_w);
  EXPECT_EQ(back.cap_voltages, q.cap_voltages);
  EXPECT_FALSE(back.trace.active());
}

TEST(Protocol, TracedQueryRoundTripsUnderV2) {
  QueryRequest q = sample_query();
  q.trace.trace_id = 0x1122334455667788ull;
  q.trace.parent_span_id = 0x99aabbccddeeff00ull;
  const auto payload = encode_query(q);
  QueryRequest back;
  ASSERT_EQ(decode_query(payload.data(), payload.size(),
                         kProtocolVersionTraced, &back),
            FrameVerdict::kOk);
  EXPECT_EQ(back.trace.trace_id, q.trace.trace_id);
  EXPECT_EQ(back.trace.parent_span_id, q.trace.parent_span_id);
  EXPECT_EQ(back.controller_key, q.controller_key);
  EXPECT_EQ(back.cap_voltages, q.cap_voltages);
  EXPECT_EQ(query_wire_version(q), kProtocolVersionTraced);
  EXPECT_EQ(query_wire_version(sample_query()), kProtocolVersion);
}

TEST(Protocol, UntracedQueryPayloadIsExactV1Bytes) {
  // The byte-identity contract: adding the trace extension must not move a
  // single bit of an untraced query.
  QueryRequest traced = sample_query();
  traced.trace.trace_id = 7;
  const auto v1 = encode_query(sample_query());
  const auto v2 = encode_query(traced);
  EXPECT_EQ(v2.size(), v1.size() + 16);
  EXPECT_TRUE(std::equal(v1.begin(), v1.end(), v2.begin()));
}

TEST(Protocol, VersionGatesTheExtensionGrammar) {
  // v2 payload under a v1 grammar: 16 trailing bytes = kBadPayload.
  QueryRequest traced = sample_query();
  traced.trace.trace_id = 7;
  const auto v2_payload = encode_query(traced);
  QueryRequest back;
  EXPECT_EQ(decode_query(v2_payload.data(), v2_payload.size(),
                         kProtocolVersion, &back),
            FrameVerdict::kBadPayload);
  // v1 payload under a v2 grammar: the extension is required, not optional.
  const auto v1_payload = encode_query(sample_query());
  EXPECT_EQ(decode_query(v1_payload.data(), v1_payload.size(),
                         kProtocolVersionTraced, &back),
            FrameVerdict::kBadPayload);
  // A zero trace id on a v2 frame is also malformed: zero means "untraced",
  // and untraced queries must travel as v1.
  auto zero_id = v2_payload;
  std::fill(zero_id.end() - 16, zero_id.end() - 8, std::uint8_t{0});
  EXPECT_EQ(decode_query(zero_id.data(), zero_id.size(),
                         kProtocolVersionTraced, &back),
            FrameVerdict::kBadPayload);
}

TEST(Protocol, DeriveTraceIdIsDeterministicAndNeverZero) {
  EXPECT_EQ(derive_trace_id(1, 0), derive_trace_id(1, 0));
  EXPECT_NE(derive_trace_id(1, 0), derive_trace_id(1, 1));
  EXPECT_NE(derive_trace_id(1, 0), derive_trace_id(2, 0));
  for (std::uint64_t n = 0; n < 64; ++n)
    EXPECT_NE(derive_trace_id(0, n), 0u);
}

TEST(Protocol, DecisionAndErrorAndReloadRoundTrip) {
  DecisionReply d;
  d.fallback_code = kFallbackBudgetExhausted;
  d.used_fallback = true;
  d.has_select_cap = true;
  d.select_cap = 2;
  d.alpha = 0.64372697048087013;
  d.intra_mode = true;
  d.n_tasks = 5;
  d.te_mask = 0b10110;
  d.controller_key = 42;
  const auto dp = encode_decision(d);
  DecisionReply d2;
  ASSERT_EQ(decode_decision(dp.data(), dp.size(), &d2), FrameVerdict::kOk);
  EXPECT_EQ(d2.fallback_code, d.fallback_code);
  EXPECT_EQ(d2.used_fallback, d.used_fallback);
  EXPECT_EQ(d2.has_select_cap, d.has_select_cap);
  EXPECT_EQ(d2.select_cap, d.select_cap);
  EXPECT_EQ(d2.alpha, d.alpha);
  EXPECT_EQ(d2.intra_mode, d.intra_mode);
  EXPECT_EQ(d2.n_tasks, d.n_tasks);
  EXPECT_EQ(d2.te_mask, d.te_mask);
  EXPECT_EQ(d2.controller_key, d.controller_key);

  const ErrorReply e{ErrorCode::kOverloaded, "queue full"};
  const auto ep = encode_error(e);
  ErrorReply e2;
  ASSERT_EQ(decode_error(ep.data(), ep.size(), &e2), FrameVerdict::kOk);
  EXPECT_EQ(e2.code, e.code);
  EXPECT_EQ(e2.message, e.message);

  ReloadReply r{true, 0xabcdefull, "loaded"};
  const auto rp = encode_reload_ack(r);
  ReloadReply r2;
  ASSERT_EQ(decode_reload_ack(rp.data(), rp.size(), &r2), FrameVerdict::kOk);
  EXPECT_EQ(r2.ok, r.ok);
  EXPECT_EQ(r2.controller_key, r.controller_key);
  EXPECT_EQ(r2.message, r.message);

  const auto lp = encode_reload(0x1234ull);
  std::uint64_t key = 0;
  ASSERT_EQ(decode_reload(lp.data(), lp.size(), &key), FrameVerdict::kOk);
  EXPECT_EQ(key, 0x1234ull);
}

TEST(Protocol, EncodedRepliesAreByteStable) {
  // The kill/restart drill compares decision lines across daemon restarts;
  // that only works if encoding is a pure function of the reply struct.
  DecisionReply d;
  d.alpha = 0.3333333333333333;
  d.te_mask = 0b101;
  EXPECT_EQ(encode_decision(d), encode_decision(d));
  EXPECT_EQ(encode_frame(FrameType::kDecision, encode_decision(d)),
            encode_frame(FrameType::kDecision, encode_decision(d)));
}

TEST(Protocol, HeaderVerdicts) {
  const auto frame = encode_frame(FrameType::kPing, {});
  ASSERT_EQ(frame.size(), kFrameHeaderSize);
  FrameHeader header;
  EXPECT_EQ(decode_header(frame.data(), frame.size(), &header),
            FrameVerdict::kOk);
  EXPECT_EQ(header.type, FrameType::kPing);
  EXPECT_EQ(header.payload_len, 0u);

  // Short reads are "need more", not errors.
  EXPECT_EQ(decode_header(frame.data(), kFrameHeaderSize - 1, &header),
            FrameVerdict::kNeedMore);

  std::vector<std::uint8_t> bad = frame;
  bad[0] ^= 0xFF;  // Magic.
  EXPECT_EQ(decode_header(bad.data(), bad.size(), &header),
            FrameVerdict::kBadMagic);

  bad = frame;
  bad[4] = 99;  // Version.
  EXPECT_EQ(decode_header(bad.data(), bad.size(), &header),
            FrameVerdict::kBadVersion);

  bad = frame;
  bad[6] = 0xEE;  // Type.
  EXPECT_EQ(decode_header(bad.data(), bad.size(), &header),
            FrameVerdict::kBadType);

  bad = frame;
  bad[8] = 0xFF; bad[9] = 0xFF; bad[10] = 0xFF; bad[11] = 0xFF;  // Length.
  EXPECT_EQ(decode_header(bad.data(), bad.size(), &header),
            FrameVerdict::kBadLength);
}

TEST(Protocol, PayloadHashCatchesCorruption) {
  const auto payload = encode_query(sample_query());
  const auto frame = encode_frame(FrameType::kQuery, payload);
  FrameHeader header;
  ASSERT_EQ(decode_header(frame.data(), frame.size(), &header),
            FrameVerdict::kOk);
  ASSERT_EQ(header.payload_len, payload.size());
  EXPECT_EQ(verify_payload(header, frame.data() + kFrameHeaderSize,
                           header.payload_len),
            FrameVerdict::kOk);

  std::vector<std::uint8_t> corrupt(frame.begin() + kFrameHeaderSize,
                                    frame.end());
  corrupt[corrupt.size() / 2] ^= 0x01;
  EXPECT_EQ(verify_payload(header, corrupt.data(), corrupt.size()),
            FrameVerdict::kBadHash);
}

TEST(Protocol, OversizedWireCountsAreRejectedBeforeAllocation) {
  QueryRequest q = sample_query();
  q.cap_voltages.assign(kMaxCaps + 1, 1.0);
  auto payload = encode_query(q);
  QueryRequest back;
  EXPECT_EQ(decode_query(payload.data(), payload.size(), kProtocolVersion,
                         &back),
            FrameVerdict::kBadPayload);

  q = sample_query();
  q.last_period_solar_w.assign(kMaxSolarSlots + 1, 0.0);
  payload = encode_query(q);
  EXPECT_EQ(decode_query(payload.data(), payload.size(), kProtocolVersion,
                         &back),
            FrameVerdict::kBadPayload);
}

TEST(Protocol, TruncatedPayloadsAreBadNotCrashes) {
  const auto payload = encode_query(sample_query());
  QueryRequest back;
  for (std::size_t cut = 0; cut < payload.size(); ++cut)
    EXPECT_NE(decode_query(payload.data(), cut, kProtocolVersion, &back),
              FrameVerdict::kOk)
        << "decode accepted a " << cut << "-byte prefix";
  // Trailing garbage is equally malformed: full consumption is required.
  auto padded = payload;
  padded.push_back(0);
  EXPECT_EQ(decode_query(padded.data(), padded.size(), kProtocolVersion,
                         &back),
            FrameVerdict::kBadPayload);

  // Same sweep for a traced payload: every truncation of the extension
  // (including a partial 8-byte id) is kBadPayload, never an over-read.
  QueryRequest traced = sample_query();
  traced.trace.trace_id = 0xdeadbeefull;
  traced.trace.parent_span_id = 0xfeedull;
  const auto v2 = encode_query(traced);
  for (std::size_t cut = 0; cut < v2.size(); ++cut)
    EXPECT_NE(decode_query(v2.data(), cut, kProtocolVersionTraced, &back),
              FrameVerdict::kOk)
        << "v2 decode accepted a " << cut << "-byte prefix";
}

// The headline robustness drill: 1000 adversarial frames — random bytes,
// random mutations of valid frames, hostile length fields — every one must
// resolve to a verdict. ASan/UBSan builds turn any over-read into a
// failure; a crash here is a daemon crash in production.
TEST(Protocol, FuzzThousandHostileFramesNeverCrash) {
  util::Rng rng(0x5345525645ull);
  const auto valid_payload = encode_query(sample_query());
  const auto valid_frame = encode_frame(FrameType::kQuery, valid_payload);
  QueryRequest traced = sample_query();
  traced.trace.trace_id = 0x7261636564ull;
  const auto traced_frame =
      encode_frame(FrameType::kQuery, encode_query(traced),
                   kProtocolVersionTraced);

  std::size_t accepted = 0;
  for (int i = 0; i < 1000; ++i) {
    std::vector<std::uint8_t> bytes;
    if (i % 2 == 0) {
      // Pure noise of random length (possibly shorter than a header).
      const std::size_t len =
          static_cast<std::size_t>(rng.uniform_int(0, 96));
      bytes.resize(len);
      for (auto& b : bytes)
        b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    } else {
      // A valid v1 or v2 frame with 1-4 mutated bytes: the hash must catch
      // payload damage, the header checks everything else. Flips landing
      // in the version field exercise the cross-version grammar.
      bytes = i % 4 == 1 ? valid_frame : traced_frame;
      const int flips = rng.uniform_int(1, 4);
      for (int f = 0; f < flips; ++f) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(bytes.size()) - 1));
        bytes[pos] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
      }
    }

    FrameHeader header;
    const FrameVerdict hv = decode_header(bytes.data(), bytes.size(), &header);
    EXPECT_NE(verdict_name(hv), nullptr);
    if (hv != FrameVerdict::kOk) continue;
    if (bytes.size() < kFrameHeaderSize + header.payload_len) continue;
    const std::uint8_t* payload = bytes.data() + kFrameHeaderSize;
    if (verify_payload(header, payload, header.payload_len) !=
        FrameVerdict::kOk)
      continue;
    QueryRequest q;
    if (decode_query(payload, header.payload_len, header.version, &q) ==
        FrameVerdict::kOk) {
      ++accepted;
      // Anything that decodes obeys the wire bounds.
      EXPECT_LE(q.cap_voltages.size(), kMaxCaps);
      EXPECT_LE(q.last_period_solar_w.size(), kMaxSolarSlots);
      // A v2-accepted payload carries a nonzero id by grammar.
      if (header.version >= kProtocolVersionTraced) {
        EXPECT_TRUE(q.trace.active());
      }
    }
  }
  // Mutated frames whose flips all landed in the payload get caught by the
  // hash; a rare flip set that cancels out may still decode. The point is
  // the loop finished with no crash, over-read or bad_alloc.
  EXPECT_LE(accepted, 1000u);
}

}  // namespace
}  // namespace solsched::serve
