// Wire-format properties of the orchestrator service protocol.
//
// Three contracts, pinned over randomized messages (common/rng, fixed seeds):
//   1. Round-trip identity: decode(encode(m)) re-encodes to the same bytes.
//   2. Truncation safety: every strict prefix of a valid frame is rejected.
//   3. Corruption safety: flipping ANY single bit of a frame is rejected
//      (the trailing CRC32 covers every preceding byte), reusing the
//      bit-rot primitive from src/store/fault_injection.

#include "src/service/wire.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/store/fault_injection.h"

namespace pronghorn {
namespace {

std::string RandomFunctionName(Rng& rng) {
  const uint64_t length = 1 + rng.UniformUint64(24);
  std::string name;
  for (uint64_t i = 0; i < length; ++i) {
    name.push_back(static_cast<char>('a' + rng.UniformUint64(26)));
  }
  return name;
}

ServiceRequest RandomRequest(Rng& rng) {
  ServiceRequest request;
  const uint64_t kind = rng.UniformUint64(3);
  request.type = kind == 0   ? WireType::kStartDecision
                 : kind == 1 ? WireType::kObservation
                             : WireType::kCheckpointPlan;
  request.function = RandomFunctionName(rng);
  request.slot = static_cast<uint32_t>(rng.UniformUint64(1u << 16));
  if (request.type == WireType::kObservation) {
    request.request.id = rng.NextUint64() >> 8;
    request.request.input_scale = rng.UniformDouble() * 4.0;
    request.request.input_class = static_cast<uint32_t>(rng.UniformUint64(64));
    request.defer_commit = rng.UniformUint64(2) == 1;
  } else if (request.type == WireType::kCheckpointPlan) {
    request.retire = rng.UniformUint64(2) == 1;
  }
  return request;
}

Duration RandomDuration(Rng& rng) {
  return Duration::Micros(static_cast<int64_t>(rng.UniformUint64(1u << 30)));
}

ServiceResponse RandomResponse(Rng& rng) {
  ServiceResponse response;
  const uint64_t kind = rng.UniformUint64(4);
  if (kind == 0) {
    response.type = WireType::kStartAck;
    response.view.worker_id = rng.NextUint64() >> 8;
    response.view.restored = rng.UniformUint64(2) == 1;
    response.view.degraded = rng.UniformUint64(2) == 1;
    response.view.restored_from = rng.UniformUint64(1000);
    response.view.startup_latency = RandomDuration(rng);
    response.view.startup_overhead = RandomDuration(rng);
  } else if (kind == 1) {
    response.type = WireType::kObservationAck;
    response.outcome.latency = RandomDuration(rng);
    response.outcome.request_number = rng.UniformUint64(1u << 20);
    response.outcome.checkpoint_taken = rng.UniformUint64(2) == 1;
    response.outcome.checkpoint_downtime = RandomDuration(rng);
    response.outcome.request_overhead = RandomDuration(rng);
    response.outcome.checkpoint_overhead = RandomDuration(rng);
    response.committed = rng.UniformUint64(2) == 1;
  } else if (kind == 2) {
    response.type = WireType::kPlanAck;
    response.plan.live = rng.UniformUint64(2) == 1;
    response.plan.has_plan = rng.UniformUint64(2) == 1;
    response.plan.checkpoint_at = rng.UniformUint64(200);
    response.plan.requests_executed = rng.UniformUint64(1u << 20);
    response.plan.memory_mb = rng.UniformDouble() * 512.0;
    response.plan.retired = rng.UniformUint64(2) == 1;
  } else {
    response.type = WireType::kError;
    response.code =
        static_cast<StatusCode>(1 + rng.UniformUint64(11));  // Never kOk.
    response.message = RandomFunctionName(rng);
  }
  return response;
}

TEST(ServiceProtocolTest, RequestRoundTripIsIdentity) {
  Rng rng(101);
  for (int trial = 0; trial < 500; ++trial) {
    const ServiceRequest request = RandomRequest(rng);
    const std::vector<uint8_t> wire = EncodeServiceRequest(request);
    const auto decoded = DecodeServiceRequest(wire);
    ASSERT_TRUE(decoded.ok()) << "trial " << trial << ": "
                              << decoded.status().ToString();
    EXPECT_EQ(decoded->type, request.type);
    EXPECT_EQ(decoded->function, request.function);
    EXPECT_EQ(decoded->slot, request.slot);
    // Re-encoding the decoded message must reproduce the exact frame — the
    // strongest identity check, covering every field of every type.
    EXPECT_EQ(EncodeServiceRequest(*decoded), wire) << "trial " << trial;
  }
}

TEST(ServiceProtocolTest, ResponseRoundTripIsIdentity) {
  Rng rng(202);
  for (int trial = 0; trial < 500; ++trial) {
    const ServiceResponse response = RandomResponse(rng);
    const std::vector<uint8_t> wire = EncodeServiceResponse(response);
    const auto decoded = DecodeServiceResponse(wire);
    ASSERT_TRUE(decoded.ok()) << "trial " << trial << ": "
                              << decoded.status().ToString();
    EXPECT_EQ(decoded->type, response.type);
    EXPECT_EQ(EncodeServiceResponse(*decoded), wire) << "trial " << trial;
  }
}

TEST(ServiceProtocolTest, EveryTruncationIsRejected) {
  Rng rng(303);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<uint8_t> wire = EncodeServiceRequest(RandomRequest(rng));
    for (size_t length = 0; length < wire.size(); ++length) {
      const auto truncated =
          DecodeServiceRequest(std::span<const uint8_t>(wire.data(), length));
      EXPECT_FALSE(truncated.ok()) << "prefix of length " << length << " accepted";
    }
  }
}

TEST(ServiceProtocolTest, EverySingleBitFlipIsRejected) {
  // Exhaustive, not sampled: the CRC32 frame check must catch a flip at any
  // bit position — body, header, or the checksum itself.
  Rng rng(404);
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<uint8_t> wire = EncodeServiceRequest(RandomRequest(rng));
    for (size_t bit = 0; bit < wire.size() * 8; ++bit) {
      std::vector<uint8_t> corrupted = wire;
      corrupted[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      EXPECT_FALSE(DecodeServiceRequest(corrupted).ok())
          << "bit " << bit << " flip accepted";
    }
  }
}

TEST(ServiceProtocolTest, RandomBitRotFromFaultInjectionIsRejected) {
  // The same primitive the chaos layer uses for blob corruption
  // (FaultySnapshotStore's corruption_rate) must never slip through the frame
  // check either.
  Rng rng(505);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> wire = EncodeServiceResponse(RandomResponse(rng));
    FlipRandomBit(wire, rng);
    EXPECT_FALSE(DecodeServiceResponse(wire).ok()) << "trial " << trial;
  }
}

TEST(ServiceProtocolTest, TrailingBytesAreRejected) {
  Rng rng(606);
  std::vector<uint8_t> wire = EncodeServiceRequest(RandomRequest(rng));
  wire.push_back(0);
  EXPECT_FALSE(DecodeServiceRequest(wire).ok());
}

TEST(ServiceProtocolTest, RequestAndResponseFramesAreNotInterchangeable) {
  Rng rng(707);
  const std::vector<uint8_t> request_wire = EncodeServiceRequest(RandomRequest(rng));
  const std::vector<uint8_t> response_wire =
      EncodeServiceResponse(RandomResponse(rng));
  EXPECT_FALSE(DecodeServiceResponse(request_wire).ok());
  EXPECT_FALSE(DecodeServiceRequest(response_wire).ok());
}

TEST(ServiceProtocolTest, WrongMagicAndVersionAreRejected) {
  ServiceRequest request;
  request.type = WireType::kStartDecision;
  request.function = "f";
  std::vector<uint8_t> wire = EncodeServiceRequest(request);

  // Patch the version byte and re-seal the CRC so only the version is wrong.
  std::vector<uint8_t> bad_version = wire;
  bad_version[4] = kWireVersion + 1;
  const uint32_t crc = Crc32(
      std::span<const uint8_t>(bad_version.data(), bad_version.size() - 4));
  for (int i = 0; i < 4; ++i) {
    bad_version[bad_version.size() - 4 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(crc >> (8 * i));
  }
  const auto version_result = DecodeServiceRequest(bad_version);
  ASSERT_FALSE(version_result.ok());
  EXPECT_EQ(version_result.status().code(), StatusCode::kInvalidArgument);

  // A wrong magic fails even with a matching CRC.
  std::vector<uint8_t> bad_magic = wire;
  bad_magic[0] ^= 0xff;
  const uint32_t magic_crc =
      Crc32(std::span<const uint8_t>(bad_magic.data(), bad_magic.size() - 4));
  for (int i = 0; i < 4; ++i) {
    bad_magic[bad_magic.size() - 4 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(magic_crc >> (8 * i));
  }
  const auto magic_result = DecodeServiceRequest(bad_magic);
  ASSERT_FALSE(magic_result.ok());
  EXPECT_EQ(magic_result.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace pronghorn
