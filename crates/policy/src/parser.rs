//! Recursive-descent parser for policy scripts.

use crate::ast::{ActionCall, BinOp, Expr, Rule, Script};
use crate::lexer::{lex, LexError, Token};
use crate::Verb;
use std::fmt;

/// A parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset in the source (best effort).
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            at: e.at,
            message: e.message,
        }
    }
}

/// Parses a policy script.
///
/// # Errors
///
/// Returns a [`ParseError`] locating the first malformation.
pub fn parse(input: &str) -> Result<Script, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut rules = Vec::new();
    while !p.at_end() {
        rules.push(p.rule()?);
    }
    Ok(Script { rules })
}

struct Parser {
    tokens: Vec<(usize, Token)>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(_, t)| t)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|(o, _)| *o)
            .unwrap_or(0)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(_, t)| t.clone());
        self.pos += 1;
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            at: self.offset(),
            message: message.into(),
        }
    }

    fn expect(&mut self, want: &Token) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == want => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => Err(self.err(format!("expected {want}, found {t}"))),
            None => Err(self.err(format!("expected {want}, found end of input"))),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) if s == kw => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => Err(self.err(format!("expected '{kw}', found {t}"))),
            None => Err(self.err(format!("expected '{kw}', found end of input"))),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            Some(t) => Err(self.err(format!("expected identifier, found {t}"))),
            None => Err(self.err("expected identifier, found end of input")),
        }
    }

    fn rule(&mut self) -> Result<Rule, ParseError> {
        self.keyword("rule")?;
        let name = self.ident()?;
        self.expect(&Token::LBrace)?;
        self.keyword("when")?;
        let condition = self.expr()?;
        let sustain = if matches!(self.peek(), Some(Token::Ident(s)) if s == "for") {
            self.pos += 1;
            match self.bump() {
                Some(Token::Number(n)) if n >= 1.0 && n.fract() == 0.0 => n as u32,
                _ => return Err(self.err("'for' needs a positive integer")),
            }
        } else {
            1
        };
        self.keyword("then")?;
        let mut actions = vec![self.action()?];
        while matches!(self.peek(), Some(Token::Semi)) {
            self.pos += 1;
            actions.push(self.action()?);
        }
        self.expect(&Token::RBrace)?;
        Ok(Rule {
            name,
            condition,
            sustain,
            actions,
        })
    }

    fn action(&mut self) -> Result<ActionCall, ParseError> {
        let at = self.offset();
        let name = self.ident()?;
        let verb = Verb::from_name(&name).ok_or_else(|| ParseError {
            at,
            message: format!("unknown action `{name}`"),
        })?;
        let mut args = Vec::new();
        if matches!(self.peek(), Some(Token::LParen)) {
            self.pos += 1;
            if !matches!(self.peek(), Some(Token::RParen)) {
                args.push(self.expr()?);
                while matches!(self.peek(), Some(Token::Comma)) {
                    self.pos += 1;
                    args.push(self.expr()?);
                }
            }
            self.expect(&Token::RParen)?;
        }
        Ok(ActionCall { verb, args })
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while matches!(self.peek(), Some(Token::Ident(s)) if s == "or") {
            self.pos += 1;
            let rhs = self.and_expr()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while matches!(self.peek(), Some(Token::Ident(s)) if s == "and") {
            self.pos += 1;
            let rhs = self.cmp_expr()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.sum_expr()?;
        let op = match self.peek() {
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::Ge) => Some(BinOp::Ge),
            Some(Token::Le) => Some(BinOp::Le),
            Some(Token::EqEq) => Some(BinOp::Eq),
            Some(Token::Ne) => Some(BinOp::Ne),
            _ => None,
        };
        match op {
            Some(op) => {
                self.pos += 1;
                let rhs = self.sum_expr()?;
                Ok(Expr::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                })
            }
            None => Ok(lhs),
        }
    }

    fn sum_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.prod_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.prod_expr()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn prod_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary_expr()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::Minus) => {
                self.pos += 1;
                Ok(Expr::Neg(Box::new(self.unary_expr()?)))
            }
            Some(Token::Ident(s)) if s == "not" => {
                self.pos += 1;
                Ok(Expr::Not(Box::new(self.unary_expr()?)))
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Some(Token::Number(n)) => Ok(Expr::Number(n)),
            Some(Token::Str(s)) => Ok(Expr::Str(s)),
            Some(Token::Subject) => Ok(Expr::Subject),
            Some(Token::LParen) => {
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(s)) if s == "true" => Ok(Expr::Bool(true)),
            Some(Token::Ident(s)) if s == "false" => Ok(Expr::Bool(false)),
            Some(Token::Ident(name)) => {
                self.expect(&Token::LParen)?;
                let mut args = Vec::new();
                if !matches!(self.peek(), Some(Token::RParen)) {
                    args.push(self.expr()?);
                    while matches!(self.peek(), Some(Token::Comma)) {
                        self.pos += 1;
                        args.push(self.expr()?);
                    }
                }
                self.expect(&Token::RParen)?;
                Ok(Expr::Call { name, args })
            }
            Some(t) => Err(self.err(format!("unexpected {t}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_rule() {
        let s = parse(
            "rule hot { when cpu_share($i) > quota_cpu($i) * 1.2 for 3 then migrate($i); alert(\"hot\") }",
        )
        .unwrap();
        assert_eq!(s.rules.len(), 1);
        let r = &s.rules[0];
        assert_eq!(r.name, "hot");
        assert_eq!(r.sustain, 3);
        assert_eq!(r.actions.len(), 2);
        assert_eq!(r.actions[1].verb, Verb::Alert);
        assert_eq!(
            r.to_string(),
            "rule hot { when (cpu_share($i) > (quota_cpu($i) * 1.2)) for 3 then migrate($i); alert(\"hot\") }"
        );
    }

    #[test]
    fn precedence_is_conventional() {
        let s = parse("rule p { when a() + b() * 2 > 10 and not c() then stop($i) }").unwrap();
        assert_eq!(
            s.rules[0].condition.to_string(),
            "(((a() + (b() * 2)) > 10) and not c())"
        );
        let s = parse("rule p { when a() or b() and c() then hibernate }").unwrap();
        assert_eq!(s.rules[0].condition.to_string(), "(a() or (b() and c()))");
    }

    #[test]
    fn parentheses_override() {
        let s = parse("rule p { when (a() or b()) and c() then hibernate }").unwrap();
        assert_eq!(s.rules[0].condition.to_string(), "((a() or b()) and c())");
    }

    #[test]
    fn multiple_rules_and_bare_actions() {
        let s = parse(
            "# policies\nrule a { when true then hibernate }\nrule b { when false then scale_out }",
        )
        .unwrap();
        assert_eq!(s.rules.len(), 2);
        assert!(s.rules[0].actions[0].args.is_empty());
    }

    #[test]
    fn parse_print_parse_fixpoint() {
        let src = "rule hot { when (cpu($i) > 0.5) for 2 then migrate($i) } rule idle { when node_cpu() < 0.1 then hibernate() }";
        let once = parse(src).unwrap();
        let twice = parse(&once.to_string()).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse("rule { when true then stop }").is_err()); // missing name
        assert!(parse("rule a when true then stop }").is_err()); // missing brace
        assert!(parse("rule a { when then stop }").is_err()); // missing cond
        assert!(parse("rule a { when true for 0 then stop }").is_err()); // bad sustain
        assert!(parse("rule a { when true for 1.5 then stop }").is_err());
        assert!(parse("rule a { when true }").is_err()); // missing then
        assert!(parse("rule a { when f( then stop }").is_err()); // bad call
        let e = parse("bogus").unwrap_err();
        assert!(e.message.contains("rule"));
    }
}
