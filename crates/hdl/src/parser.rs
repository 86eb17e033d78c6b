//! Parser for the emitted Verilog subset.

use std::error::Error;
use std::fmt;
use syncircuit_graph::{mask, CircuitGraph, Node, NodeId, NodeType};

/// Parse error with source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl Error for ParseError {}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Number(u64),
    SizedLit { value: u64 },
    Sym(&'static str),
    Eof,
}

#[derive(Clone, Debug)]
struct Token {
    tok: Tok,
    line: usize,
    col: usize,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> u8 {
        let c = self.src[self.pos];
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        c
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn tokenize(mut self) -> Result<Vec<Token>, ParseError> {
        let mut out = Vec::new();
        loop {
            // skip whitespace and // comments
            loop {
                match self.peek() {
                    Some(c) if c.is_ascii_whitespace() => {
                        self.bump();
                    }
                    Some(b'/') if self.peek2() == Some(b'/') => {
                        while let Some(c) = self.peek() {
                            if c == b'\n' {
                                break;
                            }
                            self.bump();
                        }
                    }
                    _ => break,
                }
            }
            let (line, col) = (self.line, self.col);
            let Some(c) = self.peek() else {
                out.push(Token {
                    tok: Tok::Eof,
                    line,
                    col,
                });
                return Ok(out);
            };
            let tok = if c.is_ascii_alphabetic() || c == b'_' {
                let mut s = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == b'_' {
                        s.push(self.bump() as char);
                    } else {
                        break;
                    }
                }
                Tok::Ident(s)
            } else if c.is_ascii_digit() {
                let mut v: u64 = 0;
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() {
                        v = v
                            .checked_mul(10)
                            .and_then(|x| x.checked_add((c - b'0') as u64))
                            .ok_or_else(|| self.error("integer literal overflows u64"))?;
                        self.bump();
                    } else {
                        break;
                    }
                }
                if self.peek() == Some(b'\'') {
                    self.bump();
                    let base = self.peek().ok_or_else(|| self.error("eof in literal"))?;
                    self.bump();
                    let radix = match base {
                        b'd' | b'D' => 10,
                        b'h' | b'H' => 16,
                        b'b' | b'B' => 2,
                        _ => return Err(self.error("unsupported literal base")),
                    };
                    let mut val: u64 = 0;
                    let mut any = false;
                    while let Some(c) = self.peek() {
                        let d = (c as char).to_digit(radix);
                        match d {
                            Some(d) => {
                                val = val
                                    .checked_mul(radix as u64)
                                    .and_then(|x| x.checked_add(d as u64))
                                    .ok_or_else(|| self.error("literal overflows u64"))?;
                                any = true;
                                self.bump();
                            }
                            None if c == b'_' => {
                                self.bump();
                            }
                            None => break,
                        }
                    }
                    if !any {
                        return Err(self.error("empty literal value"));
                    }
                    Tok::SizedLit { value: val }
                } else {
                    Tok::Number(v)
                }
            } else {
                let two = |a: u8, b: u8| self.peek() == Some(a) && self.peek2() == Some(b);
                if two(b'=', b'=') {
                    self.bump();
                    self.bump();
                    Tok::Sym("==")
                } else if two(b'<', b'<') {
                    self.bump();
                    self.bump();
                    Tok::Sym("<<")
                } else if two(b'>', b'>') {
                    self.bump();
                    self.bump();
                    Tok::Sym(">>")
                } else if two(b'<', b'=') {
                    self.bump();
                    self.bump();
                    Tok::Sym("<=")
                } else {
                    let c = self.bump();
                    let s = match c {
                        b'(' => "(",
                        b')' => ")",
                        b'[' => "[",
                        b']' => "]",
                        b'{' => "{",
                        b'}' => "}",
                        b',' => ",",
                        b';' => ";",
                        b'=' => "=",
                        b'~' => "~",
                        b'&' => "&",
                        b'|' => "|",
                        b'^' => "^",
                        b'+' => "+",
                        b'-' => "-",
                        b'*' => "*",
                        b'<' => "<",
                        b'>' => ">",
                        b'?' => "?",
                        b':' => ":",
                        b'@' => "@",
                        _ => {
                            return Err(ParseError {
                                line,
                                col,
                                message: format!("unexpected character {:?}", c as char),
                            })
                        }
                    };
                    Tok::Sym(s)
                }
            };
            out.push(Token { tok, line, col });
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DeclKind {
    Input,
    Output,
    Wire,
    Reg,
}

#[derive(Clone, Debug)]
struct Decl {
    kind: DeclKind,
    width: u32,
    init: Option<u64>,
    line: usize,
    col: usize,
}

#[derive(Clone, Debug)]
enum Rhs {
    Copy(usize),
    Not(usize),
    Select {
        src: usize,
        hi: u32,
        lo: u32,
    },
    Binary {
        op: &'static str,
        a: usize,
        b: usize,
    },
    Concat(usize, usize),
    Mux(usize, usize, usize),
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn cur(&self) -> &Token {
        &self.toks[self.pos]
    }

    fn error_here(&self, message: impl Into<String>) -> ParseError {
        let t = self.cur();
        ParseError {
            line: t.line,
            col: t.col,
            message: message.into(),
        }
    }

    fn advance(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), ParseError> {
        match &self.cur().tok {
            Tok::Sym(x) if *x == s => {
                self.advance();
                Ok(())
            }
            other => Err(self.error_here(format!("expected `{s}`, found {other:?}"))),
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match &self.cur().tok {
            Tok::Ident(x) if x == kw => {
                self.advance();
                Ok(())
            }
            other => Err(self.error_here(format!("expected keyword `{kw}`, found {other:?}"))),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match &self.cur().tok {
            Tok::Ident(x) => {
                let s = x.clone();
                self.advance();
                Ok(s)
            }
            other => Err(self.error_here(format!("expected identifier, found {other:?}"))),
        }
    }

    fn number(&mut self) -> Result<u64, ParseError> {
        match &self.cur().tok {
            Tok::Number(v) => {
                let v = *v;
                self.advance();
                Ok(v)
            }
            other => Err(self.error_here(format!("expected number, found {other:?}"))),
        }
    }

    fn node_ref(&mut self) -> Result<usize, ParseError> {
        let t = self.cur().clone();
        let name = self.ident()?;
        parse_node_name(&name).ok_or(ParseError {
            line: t.line,
            col: t.col,
            message: format!("expected a node name like `n3`, found `{name}`"),
        })
    }

    /// Parses an optional `[w-1:0]` range, returning the width.
    fn opt_range(&mut self) -> Result<u32, ParseError> {
        if self.cur().tok == Tok::Sym("[") {
            self.advance();
            let hi = self.number()?;
            self.expect_sym(":")?;
            let lo = self.number()?;
            self.expect_sym("]")?;
            if lo != 0 {
                return Err(self.error_here("declaration ranges must end at 0"));
            }
            Ok(hi as u32 + 1)
        } else {
            Ok(1)
        }
    }
}

fn parse_node_name(name: &str) -> Option<usize> {
    let rest = name.strip_prefix('n')?;
    if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// Parses a module in the emitted Verilog subset back into a circuit
/// graph, recovering node ids from the `n<id>` names.
///
/// # Errors
///
/// Returns a [`ParseError`] with line/column on any lexical, syntactic or
/// structural problem (undeclared or undriven signals, id gaps,
/// width-mismatched part-selects, etc.).
pub fn parse(src: &str) -> Result<CircuitGraph, ParseError> {
    let toks = Lexer::new(src).tokenize()?;
    let mut p = Parser { toks, pos: 0 };

    p.expect_kw("module")?;
    let name = p.ident()?;
    p.expect_sym("(")?;
    // Port list: identifiers separated by commas (contents re-derived
    // from declarations).
    if p.cur().tok != Tok::Sym(")") {
        loop {
            let _ = p.ident()?;
            if p.cur().tok == Tok::Sym(",") {
                p.advance();
            } else {
                break;
            }
        }
    }
    p.expect_sym(")")?;
    p.expect_sym(";")?;

    let mut decls: Vec<Option<Decl>> = Vec::new();
    let mut assigns: Vec<Option<Rhs>> = Vec::new();
    let mut reg_drivers: Vec<Option<usize>> = Vec::new();

    let ensure_len = |decls: &mut Vec<Option<Decl>>,
                      assigns: &mut Vec<Option<Rhs>>,
                      regs: &mut Vec<Option<usize>>,
                      id: usize| {
        while decls.len() <= id {
            decls.push(None);
            assigns.push(None);
            regs.push(None);
        }
    };

    loop {
        let t = p.cur().clone();
        match &t.tok {
            Tok::Ident(kw) if kw == "endmodule" => {
                p.advance();
                break;
            }
            Tok::Ident(kw) if kw == "input" || kw == "output" || kw == "wire" || kw == "reg" => {
                let kind_word = p.ident()?;
                let kind = match kind_word.as_str() {
                    "input" => {
                        p.expect_kw("wire")?;
                        DeclKind::Input
                    }
                    "output" => {
                        p.expect_kw("wire")?;
                        DeclKind::Output
                    }
                    "wire" => DeclKind::Wire,
                    _ => DeclKind::Reg,
                };
                let width = p.opt_range()?;
                let t_name = p.cur().clone();
                let name = p.ident()?;
                if name == "clk" {
                    p.expect_sym(";")?;
                    continue;
                }
                let Some(id) = parse_node_name(&name) else {
                    return Err(ParseError {
                        line: t_name.line,
                        col: t_name.col,
                        message: format!("signal `{name}` is not of the form n<id>"),
                    });
                };
                let init = if p.cur().tok == Tok::Sym("=") {
                    p.advance();
                    match &p.cur().tok {
                        Tok::SizedLit { value } => {
                            let v = *value;
                            p.advance();
                            Some(v)
                        }
                        Tok::Number(v) => {
                            let v = *v;
                            p.advance();
                            Some(v)
                        }
                        other => {
                            return Err(p.error_here(format!(
                                "expected literal initializer, found {other:?}"
                            )))
                        }
                    }
                } else {
                    None
                };
                p.expect_sym(";")?;
                ensure_len(&mut decls, &mut assigns, &mut reg_drivers, id);
                if decls[id].is_some() {
                    return Err(ParseError {
                        line: t_name.line,
                        col: t_name.col,
                        message: format!("signal n{id} declared twice"),
                    });
                }
                decls[id] = Some(Decl {
                    kind,
                    width,
                    init,
                    line: t_name.line,
                    col: t_name.col,
                });
            }
            Tok::Ident(kw) if kw == "assign" => {
                p.advance();
                let lhs = p.node_ref()?;
                p.expect_sym("=")?;
                let rhs = parse_expr(&mut p)?;
                p.expect_sym(";")?;
                ensure_len(&mut decls, &mut assigns, &mut reg_drivers, lhs);
                if assigns[lhs].is_some() {
                    return Err(p.error_here(format!("signal n{lhs} assigned twice")));
                }
                assigns[lhs] = Some(rhs);
            }
            Tok::Ident(kw) if kw == "always" => {
                p.advance();
                p.expect_sym("@")?;
                p.expect_sym("(")?;
                p.expect_kw("posedge")?;
                p.expect_kw("clk")?;
                p.expect_sym(")")?;
                let lhs = p.node_ref()?;
                p.expect_sym("<=")?;
                let rhs = p.node_ref()?;
                p.expect_sym(";")?;
                ensure_len(&mut decls, &mut assigns, &mut reg_drivers, lhs.max(rhs));
                if reg_drivers[lhs].is_some() {
                    return Err(p.error_here(format!("register n{lhs} driven twice")));
                }
                reg_drivers[lhs] = Some(rhs);
            }
            Tok::Eof => {
                return Err(p.error_here("unexpected end of file before `endmodule`"));
            }
            other => {
                return Err(p.error_here(format!("unexpected token {other:?}")));
            }
        }
    }

    build_graph(&name, decls, assigns, reg_drivers)
}

fn parse_expr(p: &mut Parser) -> Result<Rhs, ParseError> {
    match p.cur().tok.clone() {
        Tok::Sym("~") => {
            p.advance();
            let a = p.node_ref()?;
            Ok(Rhs::Not(a))
        }
        Tok::Sym("{") => {
            p.advance();
            let a = p.node_ref()?;
            p.expect_sym(",")?;
            let b = p.node_ref()?;
            p.expect_sym("}")?;
            Ok(Rhs::Concat(a, b))
        }
        Tok::Ident(_) => {
            let a = p.node_ref()?;
            match p.cur().tok.clone() {
                Tok::Sym("[") => {
                    p.advance();
                    let hi = p.number()? as u32;
                    let (hi, lo) = if p.cur().tok == Tok::Sym(":") {
                        p.advance();
                        let lo = p.number()? as u32;
                        (hi, lo)
                    } else {
                        (hi, hi)
                    };
                    p.expect_sym("]")?;
                    if hi < lo {
                        return Err(p.error_here("part-select with hi < lo"));
                    }
                    Ok(Rhs::Select { src: a, hi, lo })
                }
                Tok::Sym("?") => {
                    p.advance();
                    let b = p.node_ref()?;
                    p.expect_sym(":")?;
                    let c = p.node_ref()?;
                    Ok(Rhs::Mux(a, b, c))
                }
                Tok::Sym(op)
                    if matches!(
                        op,
                        "&" | "|" | "^" | "+" | "-" | "*" | "==" | "<" | "<<" | ">>"
                    ) =>
                {
                    p.advance();
                    let b = p.node_ref()?;
                    Ok(Rhs::Binary { op, a, b })
                }
                _ => Ok(Rhs::Copy(a)),
            }
        }
        other => Err(p.error_here(format!("expected expression, found {other:?}"))),
    }
}

fn build_graph(
    name: &str,
    decls: Vec<Option<Decl>>,
    assigns: Vec<Option<Rhs>>,
    reg_drivers: Vec<Option<usize>>,
) -> Result<CircuitGraph, ParseError> {
    let n = decls.len();
    let at = |d: &Decl| (d.line, d.col);
    let mut g = CircuitGraph::new(name);

    // First pass: create nodes.
    for (id, d) in decls.iter().enumerate() {
        let Some(d) = d else {
            return Err(ParseError {
                line: 0,
                col: 0,
                message: format!("node ids must be contiguous: n{id} missing"),
            });
        };
        let (line, col) = at(d);
        let node = match d.kind {
            DeclKind::Input => Node::new(NodeType::Input, d.width),
            DeclKind::Output => Node::new(NodeType::Output, d.width),
            DeclKind::Reg => Node::new(NodeType::Reg, d.width),
            DeclKind::Wire => {
                if let Some(v) = d.init {
                    Node::with_aux(NodeType::Const, d.width, v & mask(d.width))
                } else {
                    // Type comes from its assign.
                    let Some(rhs) = &assigns[id] else {
                        return Err(ParseError {
                            line,
                            col,
                            message: format!("wire n{id} is never assigned"),
                        });
                    };
                    rhs_node(rhs, d.width).map_err(|m| ParseError {
                        line,
                        col,
                        message: m,
                    })?
                }
            }
        };
        g.push_node(node);
    }

    // Second pass: wire parents.
    for (id, d) in decls.iter().enumerate() {
        let d = d.as_ref().expect("checked above");
        let (line, col) = at(d);
        let check = |x: usize| -> Result<NodeId, ParseError> {
            if x < n {
                Ok(NodeId::new(x))
            } else {
                Err(ParseError {
                    line,
                    col,
                    message: format!("reference to undeclared signal n{x}"),
                })
            }
        };
        match d.kind {
            DeclKind::Input => {
                if assigns[id].is_some() {
                    return Err(ParseError {
                        line,
                        col,
                        message: format!("input n{id} cannot be assigned"),
                    });
                }
            }
            DeclKind::Reg => {
                let Some(drv) = reg_drivers[id] else {
                    return Err(ParseError {
                        line,
                        col,
                        message: format!("register n{id} has no always block"),
                    });
                };
                g.set_parents_unchecked(NodeId::new(id), &[check(drv)?]);
            }
            DeclKind::Output | DeclKind::Wire => {
                if d.init.is_some() {
                    continue; // constant
                }
                let Some(rhs) = &assigns[id] else {
                    return Err(ParseError {
                        line,
                        col,
                        message: format!("signal n{id} is never assigned"),
                    });
                };
                if d.kind == DeclKind::Output && !matches!(rhs, Rhs::Copy(_)) {
                    return Err(ParseError {
                        line,
                        col,
                        message: format!("output n{id} must be a plain copy of its driver"),
                    });
                }
                if d.kind == DeclKind::Wire && matches!(rhs, Rhs::Copy(_)) {
                    return Err(ParseError {
                        line,
                        col,
                        message: format!("wire n{id} is a plain copy; only outputs may copy"),
                    });
                }
                let parents: Vec<NodeId> = match rhs {
                    Rhs::Copy(a) | Rhs::Not(a) | Rhs::Select { src: a, .. } => vec![check(*a)?],
                    Rhs::Binary { a, b, .. } | Rhs::Concat(a, b) => {
                        vec![check(*a)?, check(*b)?]
                    }
                    Rhs::Mux(a, b, c) => vec![check(*a)?, check(*b)?, check(*c)?],
                };
                g.set_parents_unchecked(NodeId::new(id), &parents);
            }
        }
    }
    Ok(g)
}

fn rhs_node(rhs: &Rhs, width: u32) -> Result<Node, String> {
    Ok(match rhs {
        Rhs::Copy(_) => Node::new(NodeType::Output, width), // validated by caller
        Rhs::Not(_) => Node::new(NodeType::Not, width),
        Rhs::Select { hi, lo, .. } => {
            let w = hi - lo + 1;
            if w != width {
                return Err(format!(
                    "part-select width {w} does not match declared width {width}"
                ));
            }
            Node::with_aux(NodeType::BitSelect, width, *lo as u64)
        }
        Rhs::Binary { op, .. } => {
            let ty = match *op {
                "&" => NodeType::And,
                "|" => NodeType::Or,
                "^" => NodeType::Xor,
                "+" => NodeType::Add,
                "-" => NodeType::Sub,
                "*" => NodeType::Mul,
                "==" => NodeType::Eq,
                "<" => NodeType::Lt,
                "<<" => NodeType::Shl,
                ">>" => NodeType::Shr,
                other => return Err(format!("unsupported operator `{other}`")),
            };
            Node::new(ty, width)
        }
        Rhs::Concat(_, _) => Node::new(NodeType::Concat, width),
        Rhs::Mux(_, _, _) => Node::new(NodeType::Mux, width),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emitter::emit;

    #[test]
    fn roundtrip_counter() {
        let mut g = CircuitGraph::new("counter");
        let one = g.add_const(8, 1);
        let r = g.add_node(NodeType::Reg, 8);
        let s = g.add_node(NodeType::Add, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(s, &[r, one]).unwrap();
        g.set_parents(r, &[s]).unwrap();
        g.set_parents(o, &[r]).unwrap();
        let v = emit(&g).unwrap();
        let parsed = parse(&v).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn parse_error_has_position() {
        let src = "module m (clk);\n  input wire clk;\n  garbage here;\nendmodule\n";
        let err = parse(src).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("unexpected token"));
    }

    #[test]
    fn rejects_duplicate_assign() {
        let src = "module m (clk, n0, n1);\n  input wire clk;\n  input wire n0;\n  output wire n1;\n  assign n1 = n0;\n  assign n1 = n0;\nendmodule\n";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("assigned twice"), "{err}");
    }

    #[test]
    fn rejects_id_gap() {
        let src = "module m (clk, n0, n2);\n  input wire clk;\n  input wire n0;\n  output wire n2;\n  assign n2 = n0;\nendmodule\n";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("contiguous"), "{err}");
    }

    #[test]
    fn rejects_undriven_wire() {
        let src = "module m (clk, n0, n2);\n  input wire clk;\n  input wire n0;\n  wire [3:0] n1;\n  output wire n2;\n  assign n2 = n0;\nendmodule\n";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("never assigned"), "{err}");
    }

    #[test]
    fn rejects_undriven_register() {
        let src = "module m (clk, n0, n2);\n  input wire clk;\n  input wire n0;\n  reg n1;\n  output wire n2;\n  assign n2 = n0;\nendmodule\n";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("no always block"), "{err}");
    }

    #[test]
    fn accepts_hex_and_binary_literals() {
        let src = "module m (clk, n1);\n  input wire clk;\n  wire [7:0] n0 = 8'hFF;\n  output wire [7:0] n1;\n  assign n1 = n0;\nendmodule\n";
        let g = parse(src).unwrap();
        assert_eq!(g.node(NodeId::new(0)).aux(), 255);
        let src2 = "module m (clk, n1);\n  input wire clk;\n  wire [3:0] n0 = 4'b1010;\n  output wire [3:0] n1;\n  assign n1 = n0;\nendmodule\n";
        let g2 = parse(src2).unwrap();
        assert_eq!(g2.node(NodeId::new(0)).aux(), 10);
    }

    #[test]
    fn comments_are_skipped() {
        let src = "// header\nmodule m (clk, n0, n1); // ports\n  input wire clk;\n  input wire n0;\n  output wire n1;\n  assign n1 = n0; // copy\nendmodule\n";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn plain_copy_to_wire_rejected() {
        let src = "module m (clk, n0, n2);\n  input wire clk;\n  input wire n0;\n  wire n1;\n  output wire n2;\n  assign n1 = n0;\n  assign n2 = n0;\nendmodule\n";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("plain copy"), "{err}");
    }

    #[test]
    fn junk_input_never_panics() {
        for junk in [
            "",
            "module",
            "module m",
            "module m (clk); input wire [banana] n0; endmodule",
            "module m (clk); assign n0 = ; endmodule",
            "module m (clk); wire n0 = 'd; endmodule",
            "))))",
            "module m (clk);\u{7f}endmodule",
        ] {
            let _ = parse(junk); // must return Err, not panic
        }
    }
}
