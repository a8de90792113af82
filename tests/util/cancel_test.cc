#include "util/cancel.h"

#include <gtest/gtest.h>

#include <chrono>

namespace epfis {
namespace {

TEST(CancellationTokenTest, NullTokenNeverCancels) {
  CancellationToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  token.Cancel();  // No-op, not a crash.
  EXPECT_FALSE(token.cancelled());
}

TEST(CancellationTokenTest, CancelIsSticky) {
  CancellationToken token = CancellationToken::Create();
  EXPECT_TRUE(token.valid());
  EXPECT_FALSE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  token.Cancel();  // Idempotent.
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationTokenTest, CopiesShareTheFlag) {
  CancellationToken a = CancellationToken::Create();
  CancellationToken b = a;
  b.Cancel();
  EXPECT_TRUE(a.cancelled());
}

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
}

TEST(DeadlineTest, ExpiresOnTheSteadyClock) {
  Deadline d = Deadline::After(std::chrono::nanoseconds(0));
  EXPECT_FALSE(d.infinite());
  EXPECT_TRUE(d.expired());

  Deadline far = Deadline::After(std::chrono::hours(24));
  EXPECT_FALSE(far.infinite());
  EXPECT_FALSE(far.expired());
}

TEST(DeadlineTest, HugeDurationSaturatesToInfinite) {
  Deadline d = Deadline::After(std::chrono::nanoseconds(INT64_MAX));
  EXPECT_TRUE(d.infinite());
}

TEST(CheckCancelTest, ReportsCancelledAndDeadlineWithContext) {
  CancellationToken token = CancellationToken::Create();
  EXPECT_TRUE(CheckCancel(token, Deadline(), "work").ok());

  token.Cancel();
  Status st = CheckCancel(token, Deadline(), "shard 3");
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_NE(st.message().find("shard 3"), std::string::npos);

  Status dl = CheckCancel(CancellationToken(), Deadline::AfterMillis(0),
                          "merge");
  EXPECT_EQ(dl.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(dl.message().find("merge"), std::string::npos);
}

TEST(CheckCancelTest, TokenWinsOverExpiredDeadline) {
  CancellationToken token = CancellationToken::Create();
  token.Cancel();
  Status st = CheckCancel(token, Deadline::AfterMillis(0), "x");
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace epfis
