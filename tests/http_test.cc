// Tests for the HTTP layer: incremental request parsing (including the
// byte-at-a-time delivery the inactive-client workload produces), response
// construction, client-side response tracking, and the document store.

#include <gtest/gtest.h>

#include <limits>

#include "src/http/http_message.h"
#include "src/http/request_parser.h"
#include "src/http/response_reader.h"
#include "src/http/static_content.h"

namespace scio {
namespace {

// --- RequestParser ----------------------------------------------------------------

TEST(RequestParserTest, ParsesWholeRequest) {
  RequestParser parser;
  EXPECT_EQ(parser.Feed(BuildHttpRequest("/index.html")), RequestParser::State::kComplete);
  EXPECT_EQ(parser.method(), "GET");
  EXPECT_EQ(parser.path(), "/index.html");
  EXPECT_EQ(parser.version(), "HTTP/1.0");
}

TEST(RequestParserTest, LenientAboutBareLf) {
  RequestParser parser;
  EXPECT_EQ(parser.Feed("GET / HTTP/1.0\n\n"), RequestParser::State::kComplete);
  EXPECT_EQ(parser.path(), "/");
}

TEST(RequestParserTest, IncompleteUntilBlankLine) {
  RequestParser parser;
  EXPECT_EQ(parser.Feed("GET /x HTTP/1.0\r\nHost: h\r\n"),
            RequestParser::State::kIncomplete);
  EXPECT_EQ(parser.Feed("\r\n"), RequestParser::State::kComplete);
}

TEST(RequestParserTest, RejectsMalformedRequestLine) {
  const char* bad[] = {
      "GETNOSPACE\r\n\r\n",
      "GET missingversion\r\n\r\n",
      "GET nopath HTTP/1.0\r\n\r\n",     // path must start with /
      "GET /x FTP/1.0\r\n\r\n",          // version must be HTTP/*
      "GET  /double HTTP/1.0\r\n\r\n",   // empty path token
  };
  for (const char* request : bad) {
    RequestParser parser;
    EXPECT_EQ(parser.Feed(request), RequestParser::State::kError) << request;
  }
}

TEST(RequestParserTest, TerminalStatesAreSticky) {
  RequestParser parser;
  parser.Feed(BuildHttpRequest("/a"));
  EXPECT_EQ(parser.Feed("garbage"), RequestParser::State::kComplete);
  EXPECT_EQ(parser.path(), "/a");
}

TEST(RequestParserTest, ResetAllowsReuse) {
  RequestParser parser;
  parser.Feed(BuildHttpRequest("/a"));
  parser.Reset();
  EXPECT_EQ(parser.state(), RequestParser::State::kIncomplete);
  EXPECT_EQ(parser.Feed(BuildHttpRequest("/b")), RequestParser::State::kComplete);
  EXPECT_EQ(parser.path(), "/b");
}

TEST(RequestParserTest, OverlongHeaderIsError) {
  RequestParser parser;
  parser.Feed("GET / HTTP/1.0\r\nX: ");
  RequestParser::State state = parser.state();
  for (int i = 0; i < 20 && state == RequestParser::State::kIncomplete; ++i) {
    state = parser.Feed(std::string(1024, 'a'));
  }
  EXPECT_EQ(state, RequestParser::State::kError) << "unbounded header rejected";
}

// Property: the parse result is independent of how the bytes are fragmented.
class RequestParserSplitTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RequestParserSplitTest, FragmentationInvariant) {
  const std::string request = BuildHttpRequest("/some/deep/path.html");
  const size_t chunk = GetParam();
  RequestParser parser;
  RequestParser::State state = RequestParser::State::kIncomplete;
  for (size_t pos = 0; pos < request.size(); pos += chunk) {
    state = parser.Feed(request.substr(pos, chunk));
  }
  EXPECT_EQ(state, RequestParser::State::kComplete);
  EXPECT_EQ(parser.path(), "/some/deep/path.html");
  EXPECT_EQ(parser.version(), "HTTP/1.0");
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, RequestParserSplitTest,
                         ::testing::Values(1u, 2u, 3u, 7u, 16u, 64u, 1000u));

// --- responses ---------------------------------------------------------------------

TEST(HttpMessageTest, OkResponseShape) {
  const Chunk response = BuildHttpOkResponse(6144);
  EXPECT_EQ(response.synthetic, 6144u);
  EXPECT_NE(response.data.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.data.find("Content-Length: 6144"), std::string::npos);
  EXPECT_EQ(response.data.substr(response.data.size() - 4), "\r\n\r\n");
}

TEST(HttpMessageTest, NotFoundResponseIsFullyReal) {
  const Chunk response = BuildHttpNotFoundResponse();
  EXPECT_EQ(response.synthetic, 0u);
  EXPECT_NE(response.data.find("404"), std::string::npos);
}

// --- ResponseReader -----------------------------------------------------------------

TEST(ResponseReaderTest, CompletesOnExactLength) {
  const Chunk response = BuildHttpOkResponse(100);
  ResponseReader reader;
  EXPECT_EQ(reader.Feed(response.data, 100), ResponseReader::State::kComplete);
  EXPECT_EQ(reader.status_code(), 200);
  EXPECT_EQ(reader.content_length(), 100u);
  EXPECT_EQ(reader.body_received(), 100u);
}

TEST(ResponseReaderTest, IncompleteBody) {
  const Chunk response = BuildHttpOkResponse(100);
  ResponseReader reader;
  EXPECT_EQ(reader.Feed(response.data, 40), ResponseReader::State::kBody);
  EXPECT_EQ(reader.Feed("", 60), ResponseReader::State::kComplete);
}

TEST(ResponseReaderTest, RealBytesTrailingHeaderCountTowardBody) {
  ResponseReader reader;
  reader.Feed("HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nab", 0);
  EXPECT_EQ(reader.body_received(), 2u);
  EXPECT_EQ(reader.Feed("cde", 0), ResponseReader::State::kComplete);
}

TEST(ResponseReaderTest, RejectsNonHttp) {
  ResponseReader reader;
  EXPECT_EQ(reader.Feed("SMTP/1.0 200\r\n\r\n", 0), ResponseReader::State::kError);
}

TEST(ResponseReaderTest, RejectsSyntheticBytesInsideHeader) {
  ResponseReader reader;
  EXPECT_EQ(reader.Feed("HTTP/1.0 200 OK\r\n", 50), ResponseReader::State::kError);
}

TEST(ResponseReaderTest, ParsesStatusCode) {
  ResponseReader reader;
  reader.Feed("HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n", 0);
  EXPECT_EQ(reader.state(), ResponseReader::State::kComplete);
  EXPECT_EQ(reader.status_code(), 404);
}

// The length is read with strtoll's saturation, so a hostile header cannot
// overflow the parse or wrap to a small length.
TEST(ResponseReaderTest, OversizedContentLengthSaturates) {
  ResponseReader reader;
  EXPECT_EQ(reader.Feed("HTTP/1.0 200 OK\r\nContent-Length: 99999999999999999999999\r\n\r\n",
                        1000),
            ResponseReader::State::kBody);
  EXPECT_EQ(reader.content_length(),
            static_cast<size_t>(std::numeric_limits<long long>::max()));
}

class ResponseReaderSplitTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ResponseReaderSplitTest, FragmentationInvariant) {
  const Chunk response = BuildHttpOkResponse(6144);
  const size_t chunk = GetParam();
  ResponseReader reader;
  // Real header fragmented, then synthetic body fragmented.
  for (size_t pos = 0; pos < response.data.size(); pos += chunk) {
    reader.Feed(response.data.substr(pos, chunk), 0);
  }
  size_t body = response.synthetic;
  while (body > 0) {
    const size_t n = body < chunk ? body : chunk;
    reader.Feed("", n);
    body -= n;
  }
  EXPECT_EQ(reader.state(), ResponseReader::State::kComplete);
  EXPECT_EQ(reader.body_received(), 6144u);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, ResponseReaderSplitTest,
                         ::testing::Values(1u, 3u, 17u, 256u, 8192u));

// --- StaticContent ------------------------------------------------------------------

TEST(StaticContentTest, DefaultDocumentIsSixKilobytes) {
  StaticContent content;
  auto size = content.Lookup("/index.html");
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(*size, 6u * 1024u) << "the paper's 6 KB CITI index.html";
}

TEST(StaticContentTest, MissLooksUpNullopt) {
  StaticContent content;
  EXPECT_FALSE(content.Lookup("/missing").has_value());
}

TEST(StaticContentTest, AddAndOverwrite) {
  StaticContent content;
  content.AddDocument("/big", 1 << 20);
  content.AddDocument("/big", 2 << 20);
  EXPECT_EQ(*content.Lookup("/big"), 2u << 20);
  EXPECT_EQ(content.document_count(), 2u);
}

}  // namespace
}  // namespace scio
