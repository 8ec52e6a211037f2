#ifndef GPUDB_SQL_LEXER_H_
#define GPUDB_SQL_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace gpudb {
namespace sql {

/// \brief Token kinds of the SQL fragment the paper targets (Section 4):
/// SELECT <aggregates|*> FROM t WHERE <boolean combination of comparisons>.
enum class TokenKind {
  // keywords
  kExplain,
  kAnalyze,
  kProfile,
  kSelect,
  kFrom,
  kWhere,
  kAnd,
  kOr,
  kNot,
  kBetween,
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
  kMedian,
  kKthLargest,
  kGroup,
  kBy,
  kOrder,
  kLimit,
  kAsc,
  kDesc,
  // literals / names
  kIdentifier,
  kNumber,
  // punctuation / operators
  kStar,
  kLParen,
  kRParen,
  kComma,
  kSemicolon,
  kEq,        // =
  kNe,        // != or <>
  kLt,
  kLe,
  kGt,
  kGe,
  kEnd,
};

std::string_view ToString(TokenKind kind);

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;     ///< original spelling (identifier/number)
  double number = 0.0;  ///< value for kNumber
  size_t position = 0;  ///< byte offset in the input, for error messages
};

/// Tokenizes a query string. Keywords are case-insensitive; identifiers are
/// [A-Za-z_][A-Za-z0-9_]*; numbers are decimal with an optional leading '-'
/// and an optional fraction.
[[nodiscard]] Result<std::vector<Token>> Tokenize(std::string_view input);

}  // namespace sql
}  // namespace gpudb

#endif  // GPUDB_SQL_LEXER_H_
