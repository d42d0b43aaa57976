#include "util/status.h"

#include <gtest/gtest.h>

namespace ldpr {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad d");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad d");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad d");
}

TEST(StatusTest, ConstructorsMapToCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status(), Status::Ok());
  EXPECT_EQ(InvalidArgumentError("a"), InvalidArgumentError("a"));
  EXPECT_FALSE(InvalidArgumentError("a") == InvalidArgumentError("b"));
  EXPECT_FALSE(InvalidArgumentError("a") == NotFoundError("a"));
}

TEST(StatusTest, StreamOperator) {
  std::ostringstream os;
  os << NotFoundError("missing");
  EXPECT_EQ(os.str(), "NOT_FOUND: missing");
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "INTERNAL");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(-1), 42);
}

// Callers pass x.status() straight into error checks, with no
// x.ok() guard, so it must be OK while x holds a value.
TEST(StatusOrTest, StatusIsOkWhileHoldingValue) {
  StatusOr<int> v = 42;
  EXPECT_TRUE(v.status().ok());
  EXPECT_EQ(v.status(), Status::Ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFoundError("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(-1), -1);
}

TEST(StatusOrTest, MoveOnlyFriendly) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> out = std::move(v).value();
  EXPECT_EQ(*out, 7);
}

TEST(StatusOrTest, ArrowOperator) {
  StatusOr<std::string> v = std::string("hello");
  EXPECT_EQ(v->size(), 5u);
}

}  // namespace
}  // namespace ldpr
