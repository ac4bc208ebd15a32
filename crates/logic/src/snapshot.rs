//! Lossless, whitespace-free wire encoding of [`Term`]s and [`Sort`]s.
//!
//! Resident synthesis sessions persist their validity-cache entries to
//! disk so a future process (or a `synquid serve` fleet node) can boot
//! hot. That needs an encoding of cache keys — normalized refinement
//! terms — that round-trips *exactly*: the pretty-printer is ambiguous
//! (it drops sorts and parentheses), so this module defines a compact
//! prefix encoding instead. Strings are length-prefixed (netstring
//! style), so no escaping is needed; whitespace can appear in the
//! encoded stream only inside an embedded identifier (which the spec
//! grammar never produces — line-oriented snapshot writers still guard
//! against it).
//!
//! The encoding is versioned by the snapshot container (see the engine's
//! session module); within one version it is a pure bijection:
//! `decode_term(&encode_term(t)) == Ok(t)` for every term.

use crate::sort::Sort;
use crate::term::{BinOp, Term, UnOp};
use std::fmt::Write as _;
use std::sync::Arc;

/// Encodes a term as a single whitespace-free token string.
pub fn encode_term(term: &Term) -> String {
    let mut out = String::new();
    write_term(term, &mut out);
    out
}

/// Decodes a term encoded by [`encode_term`]. Fails (with a brief
/// message) on any malformed or trailing input — snapshot loaders treat
/// any failure as "stale snapshot, start cold".
pub fn decode_term(input: &str) -> Result<Term, String> {
    let mut cursor = Cursor { input, pos: 0 };
    let term = cursor.term()?;
    if cursor.pos != input.len() {
        return Err(format!("trailing input at byte {}", cursor.pos));
    }
    Ok(term)
}

fn write_term(term: &Term, out: &mut String) {
    match term {
        Term::IntLit(n) => {
            let _ = write!(out, "i{n}.");
        }
        Term::BoolLit(b) => out.push_str(if *b { "t." } else { "f." }),
        Term::SetLit(elem, items) => {
            let _ = write!(out, "s{}.", items.len());
            write_sort(elem, out);
            for item in items {
                write_term(item, out);
            }
        }
        Term::Var(name, sort) => {
            out.push('v');
            write_str(name, out);
            write_sort(sort, out);
        }
        Term::Unknown(id, pending) => {
            let _ = write!(out, "u{id}.{}.", pending.len());
            for (k, v) in pending {
                write_str(k, out);
                write_term(v, out);
            }
        }
        Term::Unary(op, t) => {
            out.push('1');
            out.push(match op {
                UnOp::Neg => 'n',
                UnOp::Not => '!',
            });
            write_term(t, out);
        }
        Term::Binary(op, a, b) => {
            out.push('2');
            out.push(bin_tag(*op));
            write_term(a, out);
            write_term(b, out);
        }
        Term::Ite(c, t, e) => {
            out.push('?');
            write_term(c, out);
            write_term(t, out);
            write_term(e, out);
        }
        Term::App(name, args, sort) => {
            out.push('a');
            write_str(name, out);
            let _ = write!(out, "{}.", args.len());
            for arg in args {
                write_term(arg, out);
            }
            write_sort(sort, out);
        }
    }
}

fn write_sort(sort: &Sort, out: &mut String) {
    match sort {
        Sort::Bool => out.push('B'),
        Sort::Int => out.push('Z'),
        Sort::Set(elem) => {
            out.push('S');
            write_sort(elem, out);
        }
        Sort::Data(name, args) => {
            out.push('D');
            write_str(name, out);
            let _ = write!(out, "{}.", args.len());
            for arg in args {
                write_sort(arg, out);
            }
        }
        Sort::Var(name) => {
            out.push('V');
            write_str(name, out);
        }
        Sort::Unknown => out.push('U'),
    }
}

fn write_str(s: &str, out: &mut String) {
    let _ = write!(out, "{}:{s}", s.len());
}

fn bin_tag(op: BinOp) -> char {
    match op {
        BinOp::Plus => '+',
        BinOp::Minus => '-',
        BinOp::Times => '*',
        BinOp::Eq => '=',
        BinOp::Neq => '#',
        BinOp::Lt => '<',
        BinOp::Le => 'l',
        BinOp::Gt => '}',
        BinOp::Ge => 'g',
        BinOp::And => '&',
        BinOp::Or => '|',
        BinOp::Implies => 'i',
        BinOp::Iff => '~',
        BinOp::Union => 'u',
        BinOp::Intersect => 'n',
        BinOp::Diff => 'd',
        BinOp::Member => 'm',
        BinOp::Subset => 'c',
    }
}

fn bin_of_tag(tag: char) -> Option<BinOp> {
    Some(match tag {
        '+' => BinOp::Plus,
        '-' => BinOp::Minus,
        '*' => BinOp::Times,
        '=' => BinOp::Eq,
        '#' => BinOp::Neq,
        '<' => BinOp::Lt,
        'l' => BinOp::Le,
        '}' => BinOp::Gt,
        'g' => BinOp::Ge,
        '&' => BinOp::And,
        '|' => BinOp::Or,
        'i' => BinOp::Implies,
        '~' => BinOp::Iff,
        'u' => BinOp::Union,
        'n' => BinOp::Intersect,
        'd' => BinOp::Diff,
        'm' => BinOp::Member,
        'c' => BinOp::Subset,
        _ => return None,
    })
}

struct Cursor<'a> {
    input: &'a str,
    pos: usize,
}

impl Cursor<'_> {
    fn byte(&mut self) -> Result<char, String> {
        let c = self.input[self.pos..]
            .chars()
            .next()
            .ok_or_else(|| "unexpected end of input".to_string())?;
        self.pos += c.len_utf8();
        Ok(c)
    }

    /// Reads digits (with optional leading `-`) up to a `.` terminator.
    fn int(&mut self) -> Result<i64, String> {
        let end = self.input[self.pos..]
            .find('.')
            .map(|i| self.pos + i)
            .ok_or_else(|| format!("unterminated integer at byte {}", self.pos))?;
        let parsed = self.input[self.pos..end]
            .parse::<i64>()
            .map_err(|e| format!("bad integer at byte {}: {e}", self.pos))?;
        self.pos = end + 1;
        Ok(parsed)
    }

    fn count(&mut self) -> Result<usize, String> {
        usize::try_from(self.int()?).map_err(|_| "negative count".to_string())
    }

    /// Reads a `<len>:<bytes>` netstring.
    fn string(&mut self) -> Result<String, String> {
        let colon = self.input[self.pos..]
            .find(':')
            .map(|i| self.pos + i)
            .ok_or_else(|| format!("unterminated string length at byte {}", self.pos))?;
        let len: usize = self.input[self.pos..colon]
            .parse()
            .map_err(|e| format!("bad string length at byte {}: {e}", self.pos))?;
        let start = colon + 1;
        let end = start.checked_add(len).filter(|&e| e <= self.input.len());
        let end = end.ok_or_else(|| format!("string overruns input at byte {start}"))?;
        let s = self
            .input
            .get(start..end)
            .ok_or_else(|| format!("string splits a UTF-8 character at byte {start}"))?;
        self.pos = end;
        Ok(s.to_string())
    }

    fn term(&mut self) -> Result<Term, String> {
        match self.byte()? {
            'i' => Ok(Term::IntLit(self.int()?)),
            't' => {
                self.expect('.')?;
                Ok(Term::BoolLit(true))
            }
            'f' => {
                self.expect('.')?;
                Ok(Term::BoolLit(false))
            }
            's' => {
                let n = self.count()?;
                let elem = self.sort()?;
                let items = (0..n).map(|_| self.term()).collect::<Result<_, _>>()?;
                Ok(Term::SetLit(elem, items))
            }
            'v' => Ok(Term::Var(self.string()?, self.sort()?)),
            'u' => {
                let id = u32::try_from(self.int()?).map_err(|_| "bad unknown id".to_string())?;
                let n = self.count()?;
                let mut pending = crate::Substitution::new();
                for _ in 0..n {
                    let k = self.string()?;
                    let v = self.term()?;
                    pending.insert(k, v);
                }
                Ok(Term::Unknown(id, pending))
            }
            '1' => {
                let op = match self.byte()? {
                    'n' => UnOp::Neg,
                    '!' => UnOp::Not,
                    c => return Err(format!("unknown unary op tag {c:?}")),
                };
                Ok(Term::Unary(op, Arc::new(self.term()?)))
            }
            '2' => {
                let tag = self.byte()?;
                let op = bin_of_tag(tag).ok_or_else(|| format!("unknown binary op tag {tag:?}"))?;
                Ok(Term::Binary(
                    op,
                    Arc::new(self.term()?),
                    Arc::new(self.term()?),
                ))
            }
            '?' => Ok(Term::Ite(
                Arc::new(self.term()?),
                Arc::new(self.term()?),
                Arc::new(self.term()?),
            )),
            'a' => {
                let name = self.string()?;
                let n = self.count()?;
                let args = (0..n).map(|_| self.term()).collect::<Result<_, _>>()?;
                Ok(Term::App(name, args, self.sort()?))
            }
            c => Err(format!("unknown term tag {c:?}")),
        }
    }

    fn sort(&mut self) -> Result<Sort, String> {
        match self.byte()? {
            'B' => Ok(Sort::Bool),
            'Z' => Ok(Sort::Int),
            'S' => Ok(Sort::set(self.sort()?)),
            'D' => {
                let name = self.string()?;
                let n = self.count()?;
                let args = (0..n).map(|_| self.sort()).collect::<Result<_, _>>()?;
                Ok(Sort::Data(name, args))
            }
            'V' => Ok(Sort::Var(self.string()?)),
            'U' => Ok(Sort::Unknown),
            c => Err(format!("unknown sort tag {c:?}")),
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        let got = self.byte()?;
        if got == want {
            Ok(())
        } else {
            Err(format!("expected {want:?}, found {got:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Substitution;

    fn x() -> Term {
        Term::var("x", Sort::Int)
    }

    #[test]
    fn round_trips_every_constructor() {
        let list = Sort::data("List", vec![Sort::var("a")]);
        let mut pending = Substitution::new();
        pending.insert("x".into(), Term::int(1));
        pending.insert("y: odd name".into(), Term::tt());
        let terms = [
            Term::int(-7),
            Term::tt(),
            Term::ff(),
            Term::empty_set(Sort::Int),
            Term::singleton(Sort::var("a"), Term::var("e", Sort::var("a"))),
            Term::Unknown(3, pending),
            Term::app("len", vec![Term::value_var(list.clone())], Sort::Int).eq(x()),
            Term::ite(x().le(Term::int(0)), x(), x().neg()),
            x().lt(Term::int(2))
                .and(x().ge(Term::int(0)))
                .implies(x().neq(Term::int(9))),
            Term::var("s", Sort::set(Sort::Unknown)),
        ];
        for term in terms {
            let encoded = encode_term(&term);
            assert_eq!(decode_term(&encoded), Ok(term.clone()), "via {encoded:?}");
        }
    }

    #[test]
    fn every_binop_round_trips() {
        use crate::term::BinOp;
        for op in [
            BinOp::Plus,
            BinOp::Minus,
            BinOp::Times,
            BinOp::Eq,
            BinOp::Neq,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::And,
            BinOp::Or,
            BinOp::Implies,
            BinOp::Iff,
            BinOp::Union,
            BinOp::Intersect,
            BinOp::Diff,
            BinOp::Member,
            BinOp::Subset,
        ] {
            let term = Term::Binary(op, Arc::new(x()), Arc::new(x()));
            assert_eq!(decode_term(&encode_term(&term)), Ok(term));
        }
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "", "q", "i12", "v3:ab", "2+i1.", "i1.i2.", "s1.Z", "a1:f0.Q",
        ] {
            assert!(decode_term(bad).is_err(), "{bad:?} must not decode");
        }
    }
}
