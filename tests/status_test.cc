#include "src/common/status.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "src/common/result.h"

namespace pronghorn {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = NotFoundError("missing widget");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "missing widget");
  EXPECT_EQ(status.ToString(), "NOT_FOUND: missing widget");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPreconditionError("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(DataLossError("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(ResourceExhaustedError("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(AbortedError("x").code(), StatusCode::kAborted);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
}

// One word of payload beside the code: an OK status, and so every
// successful Result<T>, carries no string.
static_assert(sizeof(Status) <= 16);

TEST(StatusTest, OkMessageIsEmpty) {
  EXPECT_TRUE(OkStatus().message().empty());
  EXPECT_TRUE(Status().message().empty());
  // An error without text shares the same empty message.
  const Status bare = NotFoundError("");
  EXPECT_FALSE(bare.ok());
  EXPECT_TRUE(bare.message().empty());
  EXPECT_EQ(bare.ToString(), "NOT_FOUND");
  EXPECT_EQ(bare, Status(StatusCode::kNotFound, ""));
}

TEST(StatusTest, ErrorCopySurvivesTheOriginal) {
  auto original = std::make_unique<Status>(DataLossError("checksum mismatch"));
  const Status copy = *original;
  Status assigned;
  assigned = *original;
  original.reset();
  EXPECT_EQ(copy.code(), StatusCode::kDataLoss);
  EXPECT_EQ(copy.message(), "checksum mismatch");
  EXPECT_EQ(assigned.message(), "checksum mismatch");
  EXPECT_EQ(copy, assigned);
}

TEST(StatusTest, SelfAssignmentKeepsTheMessage) {
  Status status = AbortedError("version moved");
  const Status& alias = status;
  status = alias;
  EXPECT_EQ(status.message(), "version moved");
}

TEST(StatusTest, MovedFromStatusStaysValid) {
  Status source = UnavailableError("store offline");
  const Status moved = std::move(source);
  EXPECT_EQ(moved.code(), StatusCode::kUnavailable);
  EXPECT_EQ(moved.message(), "store offline");
  // The moved-from status can still be read, copied and reassigned.
  (void)source.ToString();  // NOLINT(bugprone-use-after-move)
  const Status copy = source;  // NOLINT(bugprone-use-after-move)
  (void)copy.message();
  source = InternalError("reused");
  EXPECT_EQ(source.message(), "reused");
  source = OkStatus();
  EXPECT_TRUE(source.ok());
  EXPECT_TRUE(source.message().empty());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(NotFoundError("a"), NotFoundError("a"));
  EXPECT_FALSE(NotFoundError("a") == NotFoundError("b"));
  EXPECT_FALSE(NotFoundError("a") == InternalError("a"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeName(StatusCode::kDataLoss), "DATA_LOSS");
  EXPECT_EQ(StatusCodeName(StatusCode::kAborted), "ABORTED");
}

Status FailsIfNegative(int value) {
  if (value < 0) {
    return InvalidArgumentError("negative");
  }
  return OkStatus();
}

Status UsesReturnIfError(int value) {
  PRONGHORN_RETURN_IF_ERROR(FailsIfNegative(value));
  return OkStatus();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

Result<int> ParsePositive(int value) {
  if (value <= 0) {
    return OutOfRangeError("not positive");
  }
  return value;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok = ParsePositive(7);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 7);
  EXPECT_EQ(ok.value_or(-1), 7);

  Result<int> err = ParsePositive(0);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(err.value_or(-1), -1);
}

Result<int> DoubleIfPositive(int value) {
  PRONGHORN_ASSIGN_OR_RETURN(int parsed, ParsePositive(value));
  return parsed * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = DoubleIfPositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(DoubleIfPositive(-3).status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, ArrowReachesThePointeeOfASmartPointer) {
  struct Widget {
    int size = 3;
  };
  const Result<std::shared_ptr<const Widget>> shared = std::make_shared<const Widget>();
  EXPECT_EQ(shared->size, 3);
  const Result<std::unique_ptr<Widget>> unique = std::make_unique<Widget>();
  EXPECT_EQ(unique->size, 3);
  EXPECT_EQ((*unique)->size, 3);
}

TEST(ResultTest, MoveOnlyValue) {
  auto make = []() -> Result<std::unique_ptr<int>> {
    return std::make_unique<int>(5);
  };
  Result<std::unique_ptr<int>> result = make();
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = *std::move(result);
  EXPECT_EQ(*owned, 5);
}

}  // namespace
}  // namespace pronghorn
