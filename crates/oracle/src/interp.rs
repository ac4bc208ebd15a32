//! The measure interpreter: evaluating refinement terms over concrete
//! values.
//!
//! The paper never *runs* measures — `len`, `elems`, `size`, `keys` are
//! uninterpreted function symbols whose meaning the SMT solver only sees
//! through the constructor refinements (e.g. `Cons :: x → xs → {List |
//! len ν = len xs + 1}`). But those refinements are a perfectly good
//! *program*: for a concrete constructor value, find the constructor's
//! defining equation for the measure, bind the constructor's fields, and
//! evaluate the right-hand side by structural recursion. That turns every
//! quantifier-free refinement — postconditions, datatype invariants,
//! preconditions — into an executable boolean check, which is what makes
//! property-based fuzzing of the whole pipeline possible.

use crate::cval::CVal;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use synquid_logic::{BinOp, Term, UnOp, VALUE_VAR};
use synquid_types::Datatypes;

/// A value of the refinement logic: what a [`Term`] denotes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicVal {
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A finite set (the denotation of `elems`, `keys`, set literals).
    Set(BTreeSet<CVal>),
    /// A datatype value (compared for equality, fed to measures).
    Data(CVal),
}

impl LogicVal {
    /// Wraps a concrete value at its natural logical sort.
    pub fn of(v: &CVal) -> LogicVal {
        match v {
            CVal::Int(n) => LogicVal::Int(*n),
            CVal::Bool(b) => LogicVal::Bool(*b),
            ctor => LogicVal::Data(ctor.clone()),
        }
    }

    /// The boolean payload, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            LogicVal::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Lowers into a first-order element value (for set membership).
    fn as_element(&self) -> Result<CVal, OracleError> {
        match self {
            LogicVal::Int(n) => Ok(CVal::Int(*n)),
            LogicVal::Bool(b) => Ok(CVal::Bool(*b)),
            LogicVal::Data(c) => Ok(c.clone()),
            LogicVal::Set(_) => Err(OracleError::Unsupported(
                "sets cannot be elements of sets".into(),
            )),
        }
    }
}

impl fmt::Display for LogicVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicVal::Int(n) => write!(f, "{n}"),
            LogicVal::Bool(b) => write!(f, "{b}"),
            LogicVal::Data(c) => write!(f, "{c}"),
            LogicVal::Set(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// Variable bindings for term evaluation (argument names, constructor
/// fields, and the value variable `ν`).
pub type LogicEnv = BTreeMap<String, LogicVal>;

/// Why the oracle could not produce a verdict. These are harness-side
/// failures ("the oracle can't check this"), kept strictly apart from
/// oracle *violations* ("the checked program is wrong").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// A term variable was not bound in the evaluation environment.
    UnboundLogicVar(String),
    /// A measure application had no defining equation on the value's
    /// constructor.
    MissingMeasureDef {
        /// The measure name.
        measure: String,
        /// The constructor the value is built from.
        constructor: String,
    },
    /// A value or term had the wrong shape for an operation.
    SortMismatch(String),
    /// The term contains a construct the oracle cannot evaluate (predicate
    /// unknowns, multi-argument uninterpreted functions).
    Unsupported(String),
    /// Structural recursion exceeded its step budget (malformed measure
    /// definitions could otherwise diverge).
    FuelExhausted,
    /// Rejection sampling exhausted its retry budget (an unsatisfiable or
    /// very sparse precondition).
    GaveUp(String),
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oracle error: ")?;
        match self {
            OracleError::UnboundLogicVar(name) => write!(f, "unbound logic variable {name}"),
            OracleError::MissingMeasureDef {
                measure,
                constructor,
            } => write!(
                f,
                "measure {measure} has no defining equation on constructor {constructor}"
            ),
            OracleError::SortMismatch(msg) => write!(f, "sort mismatch: {msg}"),
            OracleError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            OracleError::FuelExhausted => write!(f, "measure evaluation fuel exhausted"),
            OracleError::GaveUp(msg) => write!(f, "gave up: {msg}"),
        }
    }
}

impl std::error::Error for OracleError {}

/// Evaluates refinement terms and measure applications over concrete
/// values, reading measure semantics off the constructor refinements of a
/// datatype registry.
pub struct MeasureInterp<'a> {
    datatypes: &'a Datatypes,
    fuel: Cell<u64>,
    depth: Cell<u32>,
}

/// Measure-recursion depth bound: generous for structural recursion over
/// generated values (whose size is double-digit), but small enough that a
/// measure defined in terms of itself hits [`OracleError::FuelExhausted`]
/// long before the call stack overflows.
const MAX_MEASURE_DEPTH: u32 = 64;

impl<'a> MeasureInterp<'a> {
    /// An interpreter over the given datatype registry.
    pub fn new(datatypes: &'a Datatypes) -> MeasureInterp<'a> {
        MeasureInterp {
            datatypes,
            fuel: Cell::new(1_000_000),
            depth: Cell::new(0),
        }
    }

    fn spend(&self) -> Result<(), OracleError> {
        let left = self.fuel.get();
        if left == 0 {
            return Err(OracleError::FuelExhausted);
        }
        self.fuel.set(left - 1);
        Ok(())
    }

    /// Applies a measure to a concrete value by structural recursion over
    /// the defining equations in the constructor result refinements.
    pub fn measure(&self, name: &str, value: &CVal) -> Result<LogicVal, OracleError> {
        self.spend()?;
        let depth = self.depth.get();
        if depth >= MAX_MEASURE_DEPTH {
            return Err(OracleError::FuelExhausted);
        }
        self.depth.set(depth + 1);
        let result = self.measure_inner(name, value);
        self.depth.set(depth);
        result
    }

    fn measure_inner(&self, name: &str, value: &CVal) -> Result<LogicVal, OracleError> {
        let CVal::Ctor(ctor_name, fields) = value else {
            return Err(OracleError::SortMismatch(format!(
                "measure {name} applied to non-datatype value {value}"
            )));
        };
        let (dt, ctor) = self
            .datatypes
            .values()
            .find_map(|dt| dt.constructor(ctor_name).map(|c| (dt, c)))
            .ok_or_else(|| OracleError::SortMismatch(format!("unknown constructor {ctor_name}")))?;
        let _ = dt;
        let (args, ret) = ctor.schema.ty.uncurry();
        if args.len() != fields.len() {
            return Err(OracleError::SortMismatch(format!(
                "constructor {ctor_name} carries {} values but its schema declares {}",
                fields.len(),
                args.len()
            )));
        }
        let rhs = defining_equation(&ret.refinement(), name).ok_or_else(|| {
            OracleError::MissingMeasureDef {
                measure: name.to_string(),
                constructor: ctor_name.clone(),
            }
        })?;
        let mut env = LogicEnv::new();
        // The result refinement is a statement about the constructed value,
        // so `ν` denotes the value itself (this is also what lets the fuel
        // guard catch measures defined in terms of themselves).
        env.insert(VALUE_VAR.to_string(), LogicVal::Data(value.clone()));
        for ((arg_name, _), field) in args.iter().zip(fields) {
            env.insert(arg_name.clone(), LogicVal::of(field));
        }
        self.eval(&rhs, &env)
    }

    /// Evaluates a quantifier-free refinement term under the given
    /// bindings.
    pub fn eval(&self, term: &Term, env: &LogicEnv) -> Result<LogicVal, OracleError> {
        self.spend()?;
        match term {
            Term::IntLit(n) => Ok(LogicVal::Int(*n)),
            Term::BoolLit(b) => Ok(LogicVal::Bool(*b)),
            Term::SetLit(_, items) => {
                let mut set = BTreeSet::new();
                for item in items {
                    set.insert(self.eval(item, env)?.as_element()?);
                }
                Ok(LogicVal::Set(set))
            }
            Term::Var(name, _) => env
                .get(name)
                .cloned()
                .ok_or_else(|| OracleError::UnboundLogicVar(name.clone())),
            Term::Unknown(..) => Err(OracleError::Unsupported(
                "predicate unknowns have no runtime denotation".into(),
            )),
            Term::Unary(op, inner) => {
                let v = self.eval(inner, env)?;
                match (op, v) {
                    (UnOp::Neg, LogicVal::Int(n)) => Ok(LogicVal::Int(-n)),
                    (UnOp::Not, LogicVal::Bool(b)) => Ok(LogicVal::Bool(!b)),
                    (op, v) => Err(OracleError::SortMismatch(format!("{op:?} applied to {v}"))),
                }
            }
            Term::Binary(op, lhs, rhs) => {
                // Short-circuiting matters for rejection sampling: the
                // guard `x ≠ 0 ⇒ 10 / x > c` idiom must not evaluate the
                // right side eagerly. (The logic has no division today, but
                // And/Or/Implies short-circuit regardless.)
                let l = self.eval(lhs, env)?;
                match (op, &l) {
                    (BinOp::And, LogicVal::Bool(false)) => return Ok(LogicVal::Bool(false)),
                    (BinOp::Or, LogicVal::Bool(true)) => return Ok(LogicVal::Bool(true)),
                    (BinOp::Implies, LogicVal::Bool(false)) => return Ok(LogicVal::Bool(true)),
                    _ => {}
                }
                let r = self.eval(rhs, env)?;
                self.binary(*op, l, r)
            }
            Term::Ite(cond, then, els) => {
                let c = self
                    .eval(cond, env)?
                    .as_bool()
                    .ok_or_else(|| OracleError::SortMismatch("non-boolean condition".into()))?;
                if c {
                    self.eval(then, env)
                } else {
                    self.eval(els, env)
                }
            }
            Term::App(name, args, _) => {
                if args.len() != 1 {
                    return Err(OracleError::Unsupported(format!(
                        "uninterpreted function {name} with {} arguments",
                        args.len()
                    )));
                }
                match self.eval(&args[0], env)? {
                    LogicVal::Data(value) => self.measure(name, &value),
                    other => Err(OracleError::SortMismatch(format!(
                        "measure {name} applied to {other}"
                    ))),
                }
            }
        }
    }

    /// Evaluates a term that must denote a boolean (a refinement).
    pub fn eval_bool(&self, term: &Term, env: &LogicEnv) -> Result<bool, OracleError> {
        self.eval(term, env)?.as_bool().ok_or_else(|| {
            OracleError::SortMismatch(format!("refinement {term} is not boolean-valued"))
        })
    }

    fn binary(&self, op: BinOp, l: LogicVal, r: LogicVal) -> Result<LogicVal, OracleError> {
        use LogicVal::*;
        Ok(match (op, l, r) {
            (BinOp::Plus, Int(a), Int(b)) => Int(a + b),
            (BinOp::Minus, Int(a), Int(b)) => Int(a - b),
            (BinOp::Times, Int(a), Int(b)) => Int(a * b),
            (BinOp::Lt, Int(a), Int(b)) => Bool(a < b),
            (BinOp::Le, Int(a), Int(b)) => Bool(a <= b),
            (BinOp::Gt, Int(a), Int(b)) => Bool(a > b),
            (BinOp::Ge, Int(a), Int(b)) => Bool(a >= b),
            (BinOp::Eq, a, b) => Bool(a == b),
            (BinOp::Neq, a, b) => Bool(a != b),
            (BinOp::And, Bool(a), Bool(b)) => Bool(a && b),
            (BinOp::Or, Bool(a), Bool(b)) => Bool(a || b),
            (BinOp::Implies, Bool(a), Bool(b)) => Bool(!a || b),
            (BinOp::Iff, Bool(a), Bool(b)) => Bool(a == b),
            (BinOp::Union, Set(a), Set(b)) => Set(a.union(&b).cloned().collect()),
            (BinOp::Intersect, Set(a), Set(b)) => Set(a.intersection(&b).cloned().collect()),
            (BinOp::Diff, Set(a), Set(b)) => Set(a.difference(&b).cloned().collect()),
            (BinOp::Member, elem, Set(b)) => Bool(b.contains(&elem.as_element()?)),
            (BinOp::Subset, Set(a), Set(b)) => Bool(a.is_subset(&b)),
            (op, l, r) => {
                return Err(OracleError::SortMismatch(format!(
                    "{op:?} applied to {l} and {r}"
                )))
            }
        })
    }
}

/// Finds the defining equation for `measure` in a constructor result
/// refinement: a conjunct of the shape `measure ν = rhs` (either
/// orientation), returning `rhs`.
fn defining_equation(refinement: &Term, measure: &str) -> Option<Term> {
    let mut found = None;
    for conjunct in conjuncts(refinement) {
        if let Term::Binary(BinOp::Eq, lhs, rhs) = conjunct {
            if is_measure_of_nu(lhs, measure) {
                found = Some(rhs.as_ref().clone());
                break;
            }
            if is_measure_of_nu(rhs, measure) {
                found = Some(lhs.as_ref().clone());
                break;
            }
        }
        // Boolean-sorted measures may be defined with ⇔ instead of =.
        if let Term::Binary(BinOp::Iff, lhs, rhs) = conjunct {
            if is_measure_of_nu(lhs, measure) {
                found = Some(rhs.as_ref().clone());
                break;
            }
            if is_measure_of_nu(rhs, measure) {
                found = Some(lhs.as_ref().clone());
                break;
            }
        }
    }
    found
}

fn is_measure_of_nu(term: &Term, measure: &str) -> bool {
    matches!(term, Term::App(name, args, _)
        if name == measure
            && args.len() == 1
            && matches!(&args[0], Term::Var(v, _) if v == VALUE_VAR))
}

/// Flattens nested conjunctions into a list of conjuncts.
pub fn conjuncts(term: &Term) -> Vec<&Term> {
    let mut out = Vec::new();
    let mut stack = vec![term];
    while let Some(t) = stack.pop() {
        match t {
            Term::Binary(BinOp::And, l, r) => {
                stack.push(r);
                stack.push(l);
            }
            other => out.push(other),
        }
    }
    out
}

/// Convenience: the empty environment plus `ν ↦ value`.
pub fn nu_env(value: &CVal) -> LogicEnv {
    let mut env = LogicEnv::new();
    env.insert(VALUE_VAR.to_string(), LogicVal::of(value));
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus_datatypes as dts;
    use synquid_logic::Sort;

    fn list(items: &[i64]) -> CVal {
        items
            .iter()
            .rev()
            .fold(CVal::Ctor("Nil".into(), vec![]), |acc, n| {
                CVal::Ctor("Cons".into(), vec![CVal::Int(*n), acc])
            })
    }

    #[test]
    fn len_counts_cons_cells() {
        let dts = dts();
        let interp = MeasureInterp::new(&dts);
        assert_eq!(
            interp.measure("len", &list(&[7, 8, 9])),
            Ok(LogicVal::Int(3))
        );
        assert_eq!(interp.measure("len", &list(&[])), Ok(LogicVal::Int(0)));
    }

    #[test]
    fn elems_collects_the_element_set() {
        let dts = dts();
        let interp = MeasureInterp::new(&dts);
        let LogicVal::Set(s) = interp.measure("elems", &list(&[2, 1, 2])).unwrap() else {
            panic!("elems should be a set");
        };
        assert_eq!(
            s,
            BTreeSet::from([CVal::Int(1), CVal::Int(2)]),
            "duplicates collapse"
        );
    }

    #[test]
    fn bst_size_and_keys_recurse_into_both_subtrees() {
        let dts = dts();
        let interp = MeasureInterp::new(&dts);
        let leaf = |n: i64| {
            CVal::Ctor(
                "Node".into(),
                vec![
                    CVal::Int(n),
                    CVal::Ctor("Empty".into(), vec![]),
                    CVal::Ctor("Empty".into(), vec![]),
                ],
            )
        };
        let tree = CVal::Ctor("Node".into(), vec![CVal::Int(5), leaf(2), leaf(8)]);
        assert_eq!(interp.measure("size", &tree), Ok(LogicVal::Int(3)));
        let LogicVal::Set(keys) = interp.measure("keys", &tree).unwrap() else {
            panic!("keys should be a set");
        };
        assert_eq!(
            keys,
            BTreeSet::from([CVal::Int(2), CVal::Int(5), CVal::Int(8)])
        );
    }

    #[test]
    fn missing_measures_are_reported_not_guessed() {
        let dts = dts();
        let interp = MeasureInterp::new(&dts);
        assert_eq!(
            interp.measure("height", &list(&[1])),
            Err(OracleError::MissingMeasureDef {
                measure: "height".into(),
                constructor: "Cons".into()
            })
        );
    }

    #[test]
    fn refinement_evaluation_checks_postconditions() {
        // len ν = len xs + 1, with ν = [1,2,3] and xs = [2,3].
        let dts = dts();
        let interp = MeasureInterp::new(&dts);
        let ls = Sort::Data("List".into(), vec![Sort::Int]);
        let post = Term::app("len", vec![Term::value_var(ls.clone())], Sort::Int).eq(Term::app(
            "len",
            vec![Term::var("xs", ls)],
            Sort::Int,
        )
        .plus(Term::int(1)));
        let mut env = nu_env(&list(&[1, 2, 3]));
        env.insert("xs".into(), LogicVal::of(&list(&[2, 3])));
        assert_eq!(interp.eval_bool(&post, &env), Ok(true));
        env.insert("xs".into(), LogicVal::of(&list(&[])));
        assert_eq!(interp.eval_bool(&post, &env), Ok(false));
    }

    #[test]
    fn set_operations_and_membership_evaluate() {
        let dts = dts();
        let interp = MeasureInterp::new(&dts);
        let s = Sort::Int;
        // 2 ∈ ([1,2] ∪ [3]) ∧ [1] ⊆ [1,2] ∧ ([1,2] ∩ [2,3]) = [2]
        let lit =
            |items: Vec<i64>| Term::SetLit(s.clone(), items.into_iter().map(Term::int).collect());
        let term = Term::int(2)
            .member(lit(vec![1, 2]).union(lit(vec![3])))
            .and(lit(vec![1]).subset(lit(vec![1, 2])))
            .and(lit(vec![1, 2]).intersect(lit(vec![2, 3])).eq(lit(vec![2])));
        assert_eq!(interp.eval_bool(&term, &LogicEnv::new()), Ok(true));
    }

    #[test]
    fn short_circuits_do_not_evaluate_the_dead_branch() {
        let dts = dts();
        let interp = MeasureInterp::new(&dts);
        // false ∧ unbound — must not error on the unbound variable.
        let t = Term::ff().and(Term::var("nope", Sort::Bool));
        assert_eq!(interp.eval_bool(&t, &LogicEnv::new()), Ok(false));
        let t = Term::tt().or(Term::var("nope", Sort::Bool));
        assert_eq!(interp.eval_bool(&t, &LogicEnv::new()), Ok(true));
        let t = Term::ff().implies(Term::var("nope", Sort::Bool));
        assert_eq!(interp.eval_bool(&t, &LogicEnv::new()), Ok(true));
    }

    #[test]
    fn fuel_bounds_malformed_recursion() {
        // A datatype whose measure is defined in terms of itself on the
        // same (unshrunk) value would recurse forever without fuel.
        use synquid_types::{Constructor, Datatype, Measure, RType, Schema};
        let base = synquid_types::BaseType::Data("Loop".into(), vec![]);
        let sort = Sort::Data("Loop".into(), vec![]);
        let bad = Term::app("m", vec![Term::value_var(sort.clone())], Sort::Int).eq(Term::app(
            "m",
            vec![Term::value_var(sort.clone())],
            Sort::Int,
        )
        .plus(Term::int(1)));
        let mut dts = Datatypes::new();
        dts.insert(
            "Loop".into(),
            Datatype {
                name: "Loop".into(),
                type_params: vec![],
                constructors: vec![Constructor {
                    name: "L".into(),
                    schema: Schema::monotype(RType::refined(base, bad)),
                }],
                measures: vec![Measure {
                    name: "m".into(),
                    datatype: "Loop".into(),
                    result: Sort::Int,
                    non_negative: false,
                }],
                termination_measure: None,
            },
        );
        let interp = MeasureInterp::new(&dts);
        assert_eq!(
            interp.measure("m", &CVal::Ctor("L".into(), vec![])),
            Err(OracleError::FuelExhausted)
        );
    }
}
