#include "src/sql/lexer.h"

#include <cctype>
#include <cstdlib>
#include <utility>

namespace gpudb {
namespace sql {

std::string_view ToString(TokenKind kind) {
  switch (kind) {
    case TokenKind::kExplain: return "EXPLAIN";
    case TokenKind::kAnalyze: return "ANALYZE";
    case TokenKind::kProfile: return "PROFILE";
    case TokenKind::kSelect: return "SELECT";
    case TokenKind::kFrom: return "FROM";
    case TokenKind::kWhere: return "WHERE";
    case TokenKind::kAnd: return "AND";
    case TokenKind::kOr: return "OR";
    case TokenKind::kNot: return "NOT";
    case TokenKind::kBetween: return "BETWEEN";
    case TokenKind::kCount: return "COUNT";
    case TokenKind::kSum: return "SUM";
    case TokenKind::kAvg: return "AVG";
    case TokenKind::kMin: return "MIN";
    case TokenKind::kMax: return "MAX";
    case TokenKind::kMedian: return "MEDIAN";
    case TokenKind::kKthLargest: return "KTH_LARGEST";
    case TokenKind::kGroup: return "GROUP";
    case TokenKind::kBy: return "BY";
    case TokenKind::kOrder: return "ORDER";
    case TokenKind::kLimit: return "LIMIT";
    case TokenKind::kAsc: return "ASC";
    case TokenKind::kDesc: return "DESC";
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kNumber: return "number";
    case TokenKind::kStar: return "*";
    case TokenKind::kLParen: return "(";
    case TokenKind::kRParen: return ")";
    case TokenKind::kComma: return ",";
    case TokenKind::kSemicolon: return ";";
    case TokenKind::kEq: return "=";
    case TokenKind::kNe: return "!=";
    case TokenKind::kLt: return "<";
    case TokenKind::kLe: return "<=";
    case TokenKind::kGt: return ">";
    case TokenKind::kGe: return ">=";
    case TokenKind::kEnd: return "<end>";
  }
  return "<unknown>";
}

namespace {

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(c));
  return out;
}

TokenKind KeywordOrIdentifier(std::string_view word) {
  const std::string upper = ToUpper(word);
  if (upper == "EXPLAIN") return TokenKind::kExplain;
  if (upper == "ANALYZE") return TokenKind::kAnalyze;
  if (upper == "PROFILE") return TokenKind::kProfile;
  if (upper == "SELECT") return TokenKind::kSelect;
  if (upper == "FROM") return TokenKind::kFrom;
  if (upper == "WHERE") return TokenKind::kWhere;
  if (upper == "AND") return TokenKind::kAnd;
  if (upper == "OR") return TokenKind::kOr;
  if (upper == "NOT") return TokenKind::kNot;
  if (upper == "BETWEEN") return TokenKind::kBetween;
  if (upper == "COUNT") return TokenKind::kCount;
  if (upper == "SUM") return TokenKind::kSum;
  if (upper == "AVG") return TokenKind::kAvg;
  if (upper == "MIN") return TokenKind::kMin;
  if (upper == "MAX") return TokenKind::kMax;
  if (upper == "MEDIAN") return TokenKind::kMedian;
  if (upper == "KTH_LARGEST") return TokenKind::kKthLargest;
  if (upper == "GROUP") return TokenKind::kGroup;
  if (upper == "BY") return TokenKind::kBy;
  if (upper == "ORDER") return TokenKind::kOrder;
  if (upper == "LIMIT") return TokenKind::kLimit;
  if (upper == "ASC") return TokenKind::kAsc;
  if (upper == "DESC") return TokenKind::kDesc;
  return TokenKind::kIdentifier;
}

/// A digit, or a '.' followed by a digit, at input[i].
bool StartsNumber(std::string_view input, size_t i) {
  const auto digit = [&](size_t at) {
    return at < input.size() &&
           std::isdigit(static_cast<unsigned char>(input[at]));
  };
  return digit(i) || (i < input.size() && input[i] == '.' && digit(i + 1));
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    const char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.position = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(input[j])) ||
                       input[j] == '_')) {
        ++j;
      }
      token.text = std::string(input.substr(i, j - i));
      token.kind = KeywordOrIdentifier(token.text);
      i = j;
    } else if (StartsNumber(input, i) ||
               (c == '-' && StartsNumber(input, i + 1))) {
      // A '-' directly before a number is its sign; the grammar has no
      // arithmetic, so a minus sign can mean nothing else.
      size_t j = c == '-' ? i + 1 : i;
      bool seen_dot = false;
      while (j < n && (std::isdigit(static_cast<unsigned char>(input[j])) ||
                       (input[j] == '.' && !seen_dot))) {
        seen_dot = seen_dot || input[j] == '.';
        ++j;
      }
      token.text = std::string(input.substr(i, j - i));
      token.kind = TokenKind::kNumber;
      token.number = std::strtod(token.text.c_str(), nullptr);
      i = j;
    } else {
      switch (c) {
        case '*': token.kind = TokenKind::kStar; ++i; break;
        case '(': token.kind = TokenKind::kLParen; ++i; break;
        case ')': token.kind = TokenKind::kRParen; ++i; break;
        case ',': token.kind = TokenKind::kComma; ++i; break;
        case ';': token.kind = TokenKind::kSemicolon; ++i; break;
        case '=': token.kind = TokenKind::kEq; ++i; break;
        case '!':
          if (i + 1 < n && input[i + 1] == '=') {
            token.kind = TokenKind::kNe;
            i += 2;
          } else {
            return Status::InvalidArgument(
                "unexpected '!' at position " + std::to_string(i) +
                " (did you mean '!='?)");
          }
          break;
        case '<':
          if (i + 1 < n && input[i + 1] == '=') {
            token.kind = TokenKind::kLe;
            i += 2;
          } else if (i + 1 < n && input[i + 1] == '>') {
            token.kind = TokenKind::kNe;
            i += 2;
          } else {
            token.kind = TokenKind::kLt;
            ++i;
          }
          break;
        case '>':
          if (i + 1 < n && input[i + 1] == '=') {
            token.kind = TokenKind::kGe;
            i += 2;
          } else {
            token.kind = TokenKind::kGt;
            ++i;
          }
          break;
        default:
          return Status::InvalidArgument("unexpected character '" +
                                         std::string(1, c) +
                                         "' at position " + std::to_string(i));
      }
    }
    tokens.push_back(std::move(token));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.position = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace sql
}  // namespace gpudb
