//===- CobaltParser.cpp ---------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CobaltParser.h"

#include "core/Builder.h"
#include "ir/Parser.h"
#include "support/Lexer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace cobalt;
using namespace cobalt::ir;

namespace {

/// Recursive-descent parser over the shared lexer. Embedded IL patterns
/// (statement/expression fragments) are carved out of the buffer as
/// substrings — token spellings are views into the buffer, so the extent
/// of a pattern is [first token begin, last token end) — and re-parsed by
/// the IL pattern parser.
class CobaltParser {
public:
  CobaltParser(std::string_view Buffer, DiagnosticEngine &Diags)
      : Buffer(Buffer), Lex(Buffer, Diags), Diags(Diags) {}

  std::optional<CobaltModule> parseModule();

private:
  // Formula / witness grammars.
  FormulaPtr parseFormula();   // ||
  FormulaPtr parseConjunct();  // &&
  FormulaPtr parseNegation();  // !
  FormulaPtr parsePrimary();   // literals, labels, case, equality, parens
  WitnessPtr parseWitness();
  WitnessPtr parseWitnessConjunct();
  WitnessPtr parseWitnessNegation();
  WitnessPtr parseWitnessPrimary();

  // Top-level definitions.
  bool parseLabelDef();
  bool parseOptimization();
  bool parseAnalysis();
  /// Rejects a definition name an earlier analysis or optimization of
  /// the module already uses: requests name the definition to prove, so
  /// a name must pick out exactly one.
  bool checkFreshName(const Token &Name);

  /// Extracts the source extent of tokens up to (not including) the next
  /// top-level occurrence of one of the \p Stops (punctuator spellings or
  /// identifier keywords), respecting (), and re-parses it with \p Parse.
  /// Consumes the extent but not the stop token.
  std::optional<std::string_view>
  collectUntil(const std::vector<std::string_view> &Stops);

  std::optional<Stmt> parseStmtPatternUntil(
      const std::vector<std::string_view> &Stops);
  std::optional<Expr> parseExprPatternUntil(
      const std::vector<std::string_view> &Stops);

  bool expectPunct(std::string_view S);
  bool expectKeyword(std::string_view S);
  size_t offsetOf(const Token &Tok) const {
    return static_cast<size_t>(Tok.Spelling.data() - Buffer.data());
  }

  std::string_view Buffer;
  Lexer Lex;
  DiagnosticEngine &Diags;
  CobaltModule Module;
};

bool CobaltParser::expectPunct(std::string_view S) {
  Token Tok = Lex.lex();
  if (Tok.isPunct(S))
    return true;
  Diags.error(Tok.Loc, "expected '" + std::string(S) + "', found '" +
                           std::string(Tok.Spelling) + "'");
  return false;
}

bool CobaltParser::expectKeyword(std::string_view S) {
  Token Tok = Lex.lex();
  if (Tok.isIdent(S))
    return true;
  Diags.error(Tok.Loc, "expected '" + std::string(S) + "', found '" +
                           std::string(Tok.Spelling) + "'");
  return false;
}

std::optional<std::string_view>
CobaltParser::collectUntil(const std::vector<std::string_view> &Stops) {
  int Depth = 0;
  std::optional<size_t> Begin;
  size_t End = 0;
  while (true) {
    const Token &Next = Lex.peek();
    if (Next.is(TokenKind::TK_End)) {
      Diags.error(Lex.currentLoc(), "unexpected end of input in pattern");
      return std::nullopt;
    }
    if (Depth == 0) {
      for (std::string_view S : Stops)
        if (Next.isPunct(S) || Next.isIdent(S)) {
          if (!Begin) {
            Diags.error(Next.Loc, "empty pattern");
            return std::nullopt;
          }
          return Buffer.substr(*Begin, End - *Begin);
        }
    }
    Token Tok = Lex.lex();
    if (Tok.isPunct("("))
      ++Depth;
    if (Tok.isPunct(")")) {
      if (Depth == 0) {
        // A closing paren above our nesting is a caller's delimiter.
        if (!Begin) {
          Diags.error(Tok.Loc, "empty pattern");
          return std::nullopt;
        }
        Lex.unlex(Tok);
        return Buffer.substr(*Begin, End - *Begin);
      }
      --Depth;
    }
    if (!Begin)
      Begin = offsetOf(Tok);
    End = offsetOf(Tok) + Tok.Spelling.size();
  }
}

std::optional<Stmt> CobaltParser::parseStmtPatternUntil(
    const std::vector<std::string_view> &Stops) {
  auto Text = collectUntil(Stops);
  if (!Text)
    return std::nullopt;
  return parseStmtPattern(*Text, Diags);
}

std::optional<Expr> CobaltParser::parseExprPatternUntil(
    const std::vector<std::string_view> &Stops) {
  auto Text = collectUntil(Stops);
  if (!Text)
    return std::nullopt;
  return parseExprPattern(*Text, Diags);
}

//===----------------------------------------------------------------------===//
// Formulas.
//===----------------------------------------------------------------------===//

FormulaPtr CobaltParser::parseFormula() {
  FormulaPtr Lhs = parseConjunct();
  while (Lhs && Lex.peek().isPunct("||")) {
    Lex.lex();
    FormulaPtr Rhs = parseConjunct();
    if (!Rhs)
      return nullptr;
    Lhs = fOr(std::move(Lhs), std::move(Rhs));
  }
  return Lhs;
}

FormulaPtr CobaltParser::parseConjunct() {
  FormulaPtr Lhs = parseNegation();
  while (Lhs && Lex.peek().isPunct("&&")) {
    Lex.lex();
    FormulaPtr Rhs = parseNegation();
    if (!Rhs)
      return nullptr;
    Lhs = fAnd(std::move(Lhs), std::move(Rhs));
  }
  return Lhs;
}

FormulaPtr CobaltParser::parseNegation() {
  if (Lex.peek().isPunct("!")) {
    Lex.lex();
    FormulaPtr Inner = parseNegation();
    return Inner ? fNot(std::move(Inner)) : nullptr;
  }
  return parsePrimary();
}

FormulaPtr CobaltParser::parsePrimary() {
  const Token &Next = Lex.peek();

  if (Next.isIdent("true")) {
    Lex.lex();
    return fTrue();
  }
  if (Next.isIdent("false")) {
    Lex.lex();
    return fFalse();
  }
  if (Next.isPunct("(")) {
    Lex.lex();
    FormulaPtr Inner = parseFormula();
    if (!Inner || !expectPunct(")"))
      return nullptr;
    return Inner;
  }

  if (Next.isIdent("case")) {
    Lex.lex();
    // Scrutinee: currStmt or an expression pattern (until 'of').
    Term Scrutinee = Term(CurrStmtTerm{});
    bool StmtArms = true;
    if (Lex.peek().isIdent("currStmt")) {
      Lex.lex();
    } else {
      auto E = parseExprPatternUntil({"of"});
      if (!E)
        return nullptr;
      Scrutinee = Term(std::move(*E));
      StmtArms = false;
    }
    if (!expectKeyword("of"))
      return nullptr;

    std::vector<CaseArm> Arms;
    while (!Lex.peek().isIdent("else")) {
      Term Pattern = Term(CurrStmtTerm{});
      if (StmtArms) {
        auto S = parseStmtPatternUntil({"=>"});
        if (!S)
          return nullptr;
        Pattern = Term(std::move(*S));
      } else {
        auto E = parseExprPatternUntil({"=>"});
        if (!E)
          return nullptr;
        Pattern = Term(std::move(*E));
      }
      if (!expectPunct("=>"))
        return nullptr;
      FormulaPtr Body = parseFormula();
      if (!Body)
        return nullptr;
      Arms.push_back({std::move(Pattern), std::move(Body)});
      if (Lex.peek().isPunct("|")) {
        Lex.lex();
        continue;
      }
      break;
    }
    if (!expectKeyword("else") || !expectPunct("=>"))
      return nullptr;
    FormulaPtr ElseBody = parseFormula();
    if (!ElseBody)
      return nullptr;
    if (!expectKeyword("endcase"))
      return nullptr;
    return fCase(std::move(Scrutinee), std::move(Arms),
                 std::move(ElseBody));
  }

  // A label literal `name(args...)` or a term equality `t = t`.
  if (Next.is(TokenKind::TK_Ident)) {
    Token Name = Lex.lex();
    if (Lex.peek().isPunct("(")) {
      Lex.lex();
      std::string LabelName(Name.Spelling);
      std::vector<Term> Args;
      if (LabelName == "stmt") {
        auto S = parseStmtPatternUntil({")"});
        if (!S)
          return nullptr;
        Args.push_back(Term(std::move(*S)));
      } else if (!Lex.peek().isPunct(")")) {
        while (true) {
          auto E = parseExprPatternUntil({",", ")"});
          if (!E)
            return nullptr;
          Args.push_back(Term(std::move(*E)));
          if (Lex.peek().isPunct(",")) {
            Lex.lex();
            continue;
          }
          break;
        }
      }
      if (!expectPunct(")"))
        return nullptr;
      return fLabel(std::move(LabelName), std::move(Args));
    }
    // Equality: re-parse the identifier as the start of an expression
    // pattern term.
    Lex.unlex(Name);
  }

  auto LhsE = parseExprPatternUntil({"="});
  if (!LhsE || !expectPunct("="))
    return nullptr;
  // The right side ends where the enclosing context continues; stop at
  // any formula-level delimiter.
  auto RhsE = parseExprPatternUntil(
      {"&&", "||", ")", "|", ";", "else", "endcase", "followed", "preceded",
       "until", "since", "defines", "with"});
  if (!RhsE)
    return nullptr;
  return fEq(Term(std::move(*LhsE)), Term(std::move(*RhsE)));
}

//===----------------------------------------------------------------------===//
// Witnesses.
//===----------------------------------------------------------------------===//

WitnessPtr CobaltParser::parseWitness() {
  WitnessPtr Lhs = parseWitnessConjunct();
  while (Lhs && Lex.peek().isPunct("||")) {
    Lex.lex();
    WitnessPtr Rhs = parseWitnessConjunct();
    if (!Rhs)
      return nullptr;
    Lhs = wOr(std::move(Lhs), std::move(Rhs));
  }
  return Lhs;
}

WitnessPtr CobaltParser::parseWitnessConjunct() {
  WitnessPtr Lhs = parseWitnessNegation();
  while (Lhs && Lex.peek().isPunct("&&")) {
    Lex.lex();
    WitnessPtr Rhs = parseWitnessNegation();
    if (!Rhs)
      return nullptr;
    Lhs = wAnd(std::move(Lhs), std::move(Rhs));
  }
  return Lhs;
}

WitnessPtr CobaltParser::parseWitnessNegation() {
  if (Lex.peek().isPunct("!")) {
    Lex.lex();
    WitnessPtr Inner = parseWitnessNegation();
    return Inner ? wNot(std::move(Inner)) : nullptr;
  }
  return parseWitnessPrimary();
}

WitnessPtr CobaltParser::parseWitnessPrimary() {
  Token Tok = Lex.lex();

  if (Tok.isIdent("true"))
    return wTrue();

  if (Tok.isPunct("(")) {
    Lex.unlex(Tok);
    expectPunct("(");
    WitnessPtr Inner = parseWitness();
    if (!Inner || !expectPunct(")"))
      return nullptr;
    return Inner;
  }

  if (Tok.isIdent("notPointedTo")) {
    if (!expectPunct("("))
      return nullptr;
    auto X = parseExprPatternUntil({")"});
    if (!X || !expectPunct(")"))
      return nullptr;
    const auto *V = std::get_if<Var>(&X->V);
    if (!V) {
      Diags.error(Tok.Loc, "notPointedTo takes a variable");
      return nullptr;
    }
    return wNotPointedTo(*V);
  }

  auto ParseSel = [&](const Token &T) -> std::optional<StateSel> {
    if (T.isIdent("eta"))
      return StateSel::WS_Cur;
    if (T.isIdent("eta_old"))
      return StateSel::WS_Old;
    if (T.isIdent("eta_new"))
      return StateSel::WS_New;
    return std::nullopt;
  };

  auto Sel = ParseSel(Tok);
  if (!Sel) {
    Diags.error(Tok.Loc, "expected a witness predicate, found '" +
                             std::string(Tok.Spelling) + "'");
    return nullptr;
  }

  // eta_old = eta_new (state equality).
  if (Lex.peek().isPunct("=")) {
    Lex.lex();
    Token Rhs = Lex.lex();
    if (ParseSel(Rhs) && *Sel == StateSel::WS_Old &&
        *ParseSel(Rhs) == StateSel::WS_New)
      return wStateEq();
    Diags.error(Rhs.Loc, "expected 'eta_new' after 'eta_old ='");
    return nullptr;
  }

  // eta_old/X = eta_new/X (equality up to X).
  if (Lex.peek().isPunct("/")) {
    Lex.lex();
    auto X1 = parseExprPatternUntil({"="});
    if (!X1 || !expectPunct("="))
      return nullptr;
    Token Rhs = Lex.lex();
    if (!ParseSel(Rhs)) {
      Diags.error(Rhs.Loc, "expected a state name after '='");
      return nullptr;
    }
    if (!expectPunct("/"))
      return nullptr;
    auto X2 = parseExprPatternUntil(
        {"&&", "||", ")", ";", "filtered"});
    if (!X2)
      return nullptr;
    const auto *V1 = std::get_if<Var>(&X1->V);
    const auto *V2 = std::get_if<Var>(&X2->V);
    if (!V1 || !V2 || !(*V1 == *V2)) {
      Diags.error(Tok.Loc,
                  "'up to' witnesses must name the same variable on both "
                  "sides");
      return nullptr;
    }
    return wEqUpTo(*V1);
  }

  // eta(e) = eta(e) (value equality).
  if (!expectPunct("("))
    return nullptr;
  auto E1 = parseExprPatternUntil({")"});
  if (!E1 || !expectPunct(")") || !expectPunct("="))
    return nullptr;
  Token Rhs = Lex.lex();
  auto Sel2 = ParseSel(Rhs);
  if (!Sel2) {
    Diags.error(Rhs.Loc, "expected a state name after '='");
    return nullptr;
  }
  if (!expectPunct("("))
    return nullptr;
  auto E2 = parseExprPatternUntil({")"});
  if (!E2 || !expectPunct(")"))
    return nullptr;
  return wEq(WTerm{*Sel, std::move(*E1)}, WTerm{*Sel2, std::move(*E2)});
}

//===----------------------------------------------------------------------===//
// Definitions.
//===----------------------------------------------------------------------===//

bool CobaltParser::parseLabelDef() {
  Token Name = Lex.lex();
  if (!Name.is(TokenKind::TK_Ident)) {
    Diags.error(Name.Loc, "expected label name");
    return false;
  }
  if (!expectPunct("("))
    return false;
  std::vector<std::string> Params;
  while (!Lex.peek().isPunct(")")) {
    Token P = Lex.lex();
    if (!P.is(TokenKind::TK_Ident)) {
      Diags.error(P.Loc, "expected parameter name");
      return false;
    }
    Params.emplace_back(P.Spelling);
    if (Lex.peek().isPunct(","))
      Lex.lex();
  }
  Lex.lex(); // ')'
  if (!expectPunct(":="))
    return false;
  FormulaPtr Body = parseFormula();
  if (!Body || !expectPunct(";"))
    return false;
  Module.Labels.push_back(
      makeLabelDef(std::string(Name.Spelling), std::move(Params),
                   std::move(Body)));
  return true;
}

bool CobaltParser::checkFreshName(const Token &Name) {
  auto Same = [&Name](const auto &Def) { return Def.Name == Name.Spelling; };
  if (std::none_of(Module.Analyses.begin(), Module.Analyses.end(), Same) &&
      std::none_of(Module.Optimizations.begin(), Module.Optimizations.end(),
                   Same))
    return true;
  Diags.error(Name.Loc, "a definition named '" + std::string(Name.Spelling) +
                            "' already exists in this module");
  return false;
}

bool CobaltParser::parseOptimization() {
  Token Name = Lex.lex();
  if (!Name.is(TokenKind::TK_Ident)) {
    Diags.error(Name.Loc, "expected optimization name");
    return false;
  }
  if (!checkFreshName(Name))
    return false;
  if (!expectPunct(":="))
    return false;

  Token Dir = Lex.lex();
  bool Forward = Dir.isIdent("forward");
  if (!Forward && !Dir.isIdent("backward")) {
    Diags.error(Dir.Loc, "expected 'forward' or 'backward'");
    return false;
  }

  Optimization O;
  O.Name = std::string(Name.Spelling);
  O.Pat.Dir = Forward ? Direction::D_Forward : Direction::D_Backward;

  O.Pat.G.Psi1 = parseFormula();
  if (!O.Pat.G.Psi1)
    return false;
  if (Forward) {
    if (!expectKeyword("followed") || !expectKeyword("by"))
      return false;
  } else {
    if (!expectKeyword("preceded") || !expectKeyword("by"))
      return false;
  }
  O.Pat.G.Psi2 = parseFormula();
  if (!O.Pat.G.Psi2)
    return false;

  if (!expectKeyword(Forward ? "until" : "since"))
    return false;
  auto From = parseStmtPatternUntil({"=>"});
  if (!From || !expectPunct("=>"))
    return false;
  auto To = parseStmtPatternUntil({"with"});
  if (!To)
    return false;
  O.Pat.From = std::move(*From);
  O.Pat.To = std::move(*To);

  if (!expectKeyword("with") || !expectKeyword("witness"))
    return false;
  O.Pat.W = parseWitness();
  if (!O.Pat.W || !expectPunct(";"))
    return false;

  O.Labels = Module.Labels; // labels defined so far are in scope
  if (auto Err = validateOptimization(O)) {
    Diags.error(Name.Loc, *Err);
    return false;
  }
  Module.Optimizations.push_back(std::move(O));
  return true;
}

bool CobaltParser::parseAnalysis() {
  Token Name = Lex.lex();
  if (!Name.is(TokenKind::TK_Ident)) {
    Diags.error(Name.Loc, "expected analysis name");
    return false;
  }
  if (!checkFreshName(Name))
    return false;
  if (!expectPunct(":="))
    return false;

  PureAnalysis A;
  A.Name = std::string(Name.Spelling);
  A.G.Psi1 = parseFormula();
  if (!A.G.Psi1)
    return false;
  if (!expectKeyword("followed") || !expectKeyword("by"))
    return false;
  A.G.Psi2 = parseFormula();
  if (!A.G.Psi2)
    return false;

  if (!expectKeyword("defines"))
    return false;
  Token LabelName = Lex.lex();
  if (!LabelName.is(TokenKind::TK_Ident)) {
    Diags.error(LabelName.Loc, "expected label name after 'defines'");
    return false;
  }
  A.LabelName = std::string(LabelName.Spelling);
  if (!expectPunct("("))
    return false;
  while (!Lex.peek().isPunct(")")) {
    auto E = parseExprPatternUntil({",", ")"});
    if (!E)
      return false;
    A.LabelArgs.push_back(Term(std::move(*E)));
    if (Lex.peek().isPunct(","))
      Lex.lex();
  }
  Lex.lex(); // ')'

  if (!expectKeyword("with") || !expectKeyword("witness"))
    return false;
  A.W = parseWitness();
  if (!A.W || !expectPunct(";"))
    return false;

  A.Labels = Module.Labels;
  if (auto Err = validateAnalysis(A)) {
    Diags.error(Name.Loc, *Err);
    return false;
  }
  Module.Analyses.push_back(std::move(A));
  return true;
}

std::optional<CobaltModule> CobaltParser::parseModule() {
  while (!Lex.peek().is(TokenKind::TK_End)) {
    Token Kw = Lex.lex();
    bool Ok = false;
    if (Kw.isIdent("label"))
      Ok = parseLabelDef();
    else if (Kw.isIdent("optimization"))
      Ok = parseOptimization();
    else if (Kw.isIdent("analysis"))
      Ok = parseAnalysis();
    else
      Diags.error(Kw.Loc, "expected 'label', 'optimization', or "
                          "'analysis', found '" +
                              std::string(Kw.Spelling) + "'");
    if (!Ok)
      return std::nullopt;
  }
  return std::move(Module);
}

} // namespace

std::optional<CobaltModule> cobalt::parseCobalt(std::string_view Text,
                                                DiagnosticEngine &Diags) {
  CobaltParser P(Text, Diags);
  return P.parseModule();
}

CobaltModule cobalt::parseCobaltOrDie(std::string_view Text) {
  DiagnosticEngine Diags;
  auto M = parseCobalt(Text, Diags);
  if (!M) {
    std::fprintf(stderr, "fatal: failed to parse Cobalt module:\n%s\n",
                 Diags.str().c_str());
    std::abort();
  }
  return std::move(*M);
}
