//! A big-step interpreter for synthesized programs.
//!
//! The paper's guarantee is static — synthesized programs are correct by
//! construction of their typing derivation — but being able to *run* the
//! results is invaluable for testing this reproduction: the runtime
//! soundness oracle (`synquid-oracle`) executes synthesized programs on
//! generated inputs and checks the postcondition refinement with the
//! measure interpreter, catching any mismatch between the type system and
//! the intended semantics.
//!
//! The interpreter understands the program forms of Fig. 2 (variables,
//! applications, abstractions, fixpoints, conditionals, matches) plus the
//! standard component library of `synquid-lang` (integer arithmetic,
//! comparisons, boolean connectives, and the goal-local list helpers
//! `snoc`, `append`, `insert`, `umember`), and treats any other
//! capitalized name as a datatype constructor.

use crate::ast::Program;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A (possibly partially applied) datatype constructor.
    Ctor(String, Vec<Value>),
    /// A closure: formal argument, body, captured bindings.
    Closure(String, Rc<Program>, Bindings),
    /// A recursive closure introduced by `fix`.
    Fixpoint(String, Rc<Program>, Bindings),
    /// A partially applied built-in component.
    Builtin(String, Vec<Value>),
}

/// Variable bindings (environments are persistent maps: cloning is cheap
/// enough for the program sizes the synthesizer produces).
pub type Bindings = BTreeMap<String, Value>;

impl Value {
    /// Builds a `List` value (`Cons`/`Nil`) from a vector of values.
    pub fn list(items: Vec<Value>) -> Value {
        items
            .into_iter()
            .rev()
            .fold(Value::Ctor("Nil".into(), vec![]), |acc, x| {
                Value::Ctor("Cons".into(), vec![x, acc])
            })
    }

    /// Converts a `List` value back into a vector; `None` if the value is
    /// not a proper list.
    pub fn as_list(&self) -> Option<Vec<Value>> {
        self.as_cons_chain("Nil", "Cons")
    }

    /// Converts any nil/cons-shaped value (e.g. `List`, `IList`, `UList`)
    /// into a vector of its elements; `None` if the spine does not consist
    /// of exactly the given constructors.
    pub fn as_cons_chain(&self, nil: &str, cons: &str) -> Option<Vec<Value>> {
        let mut out = Vec::new();
        let mut current = self;
        loop {
            match current {
                Value::Ctor(name, args) if name == nil && args.is_empty() => return Some(out),
                Value::Ctor(name, args) if name == cons && args.len() == 2 => {
                    out.push(args[0].clone());
                    current = &args[1];
                }
                _ => return None,
            }
        }
    }

    /// The integer payload, if this is an integer value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A short description of the value's shape, used in error messages.
    fn shape(&self) -> String {
        match self {
            Value::Int(_) => "an integer".into(),
            Value::Bool(_) => "a boolean".into(),
            Value::Ctor(name, _) => format!("constructor {name}"),
            Value::Closure(..) => "a closure".into(),
            Value::Fixpoint(..) => "a fixpoint".into(),
            Value::Builtin(name, _) => format!("builtin {name}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Ctor(name, args) if args.is_empty() => write!(f, "{name}"),
            Value::Ctor(name, args) => {
                write!(f, "({name}")?;
                for a in args {
                    write!(f, " {a}")?;
                }
                write!(f, ")")
            }
            Value::Closure(arg, _, _) => write!(f, "<closure \\{arg}>"),
            Value::Fixpoint(name, _, _) => write!(f, "<fix {name}>"),
            Value::Builtin(name, args) => write!(f, "<builtin {name}/{}>", args.len()),
        }
    }
}

/// A typed evaluation error. Every malformed program or value is reported
/// as one of these variants — the interpreter never panics on bad input,
/// which the fuzzing oracle relies on to distinguish "the synthesized
/// program is wrong" from "the harness fed it garbage".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable was not bound and is not a builtin or constructor.
    UnboundVariable(String),
    /// A `Value::Builtin` named a component that is not registered.
    UnknownBuiltin(String),
    /// A builtin was invoked with the wrong number of arguments.
    ArityMismatch {
        /// The builtin's name.
        name: String,
        /// Its registered arity.
        expected: usize,
        /// The number of arguments it received.
        got: usize,
    },
    /// A builtin received a value of the wrong shape.
    SortMismatch {
        /// The builtin's name.
        name: String,
        /// What it expected (e.g. "an integer").
        expected: &'static str,
        /// What it got, rendered.
        got: String,
    },
    /// An `if` condition evaluated to a non-boolean.
    NonBooleanCondition(String),
    /// A `match` scrutinee evaluated to a non-constructor value.
    BadScrutinee(String),
    /// No case matched the scrutinee's constructor.
    NonExhaustiveMatch(String),
    /// A pattern binds a different number of values than the constructor
    /// carries.
    PatternArity {
        /// The constructor's name.
        constructor: String,
        /// How many values it carries.
        carries: usize,
        /// How many the pattern binds.
        binds: usize,
    },
    /// A non-function value was applied to an argument.
    NotAFunction(String),
    /// The program contains a hole.
    Hole,
    /// The step budget was exhausted (guards against divergence).
    FuelExhausted,
}

impl EvalError {
    fn sort(name: &str, expected: &'static str, got: &Value) -> EvalError {
        EvalError::SortMismatch {
            name: name.to_string(),
            expected,
            got: got.shape(),
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: ")?;
        match self {
            EvalError::UnboundVariable(name) => write!(f, "unbound variable {name}"),
            EvalError::UnknownBuiltin(name) => write!(f, "unknown builtin {name}"),
            EvalError::ArityMismatch {
                name,
                expected,
                got,
            } => write!(f, "{name} expects {expected} argument(s), got {got}"),
            EvalError::SortMismatch {
                name,
                expected,
                got,
            } => write!(f, "{name} expects {expected}, got {got}"),
            EvalError::NonBooleanCondition(v) => {
                write!(f, "condition evaluated to non-boolean {v}")
            }
            EvalError::BadScrutinee(v) => {
                write!(f, "match scrutinee is not a constructor value: {v}")
            }
            EvalError::NonExhaustiveMatch(name) => write!(f, "non-exhaustive match: {name}"),
            EvalError::PatternArity {
                constructor,
                carries,
                binds,
            } => write!(
                f,
                "constructor {constructor} carries {carries} values but the pattern binds {binds}"
            ),
            EvalError::NotAFunction(v) => write!(f, "cannot apply non-function {v}"),
            EvalError::Hole => write!(f, "cannot evaluate a hole"),
            EvalError::FuelExhausted => write!(f, "evaluation fuel exhausted"),
        }
    }
}

impl std::error::Error for EvalError {}

type BuiltinFn = Rc<dyn Fn(&[Value]) -> Result<Value, EvalError>>;

/// The interpreter.
#[derive(Clone)]
pub struct Evaluator {
    builtins: BTreeMap<String, (usize, BuiltinFn)>,
    /// Remaining evaluation steps before the interpreter gives up (guards
    /// against accidentally non-terminating inputs).
    pub fuel: u64,
}

impl fmt::Debug for Evaluator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Evaluator")
            .field("builtins", &self.builtins.keys().collect::<Vec<_>>())
            .field("fuel", &self.fuel)
            .finish()
    }
}

impl Default for Evaluator {
    fn default() -> Self {
        Evaluator::with_standard_components()
    }
}

impl Evaluator {
    /// An evaluator with no built-in components (constructors still work).
    pub fn new() -> Evaluator {
        Evaluator {
            builtins: BTreeMap::new(),
            fuel: 1_000_000,
        }
    }

    /// An evaluator pre-loaded with the semantics of every component the
    /// benchmark environments of `synquid-lang` can emit: the standard
    /// library (`zero`, `inc`, `dec`, `plus`, comparisons over integers and
    /// over ordered opaque values, boolean connectives, `c<n>` constants)
    /// plus the goal-local helper components (`snoc`, `append`, `insert`,
    /// `umember`, `is_private`).
    pub fn with_standard_components() -> Evaluator {
        let mut eval = Evaluator::new();
        eval.register_const("zero", Value::Int(0));
        eval.register_const("one", Value::Int(1));
        eval.register_const("true", Value::Bool(true));
        eval.register_const("false", Value::Bool(false));
        eval.register("inc", 1, |args| int_op("inc", args, |a| a + 1));
        eval.register("dec", 1, |args| int_op("dec", args, |a| a - 1));
        eval.register("neg", 1, |args| int_op("neg", args, |a| -a));
        eval.register("plus", 2, |args| int_op2("plus", args, |a, b| a + b));
        eval.register("minus", 2, |args| int_op2("minus", args, |a, b| a - b));
        eval.register("not", 1, |args| {
            expect_arity("not", args, 1)?;
            let b = args[0]
                .as_bool()
                .ok_or_else(|| EvalError::sort("not", "a boolean", &args[0]))?;
            Ok(Value::Bool(!b))
        });
        eval.register("and", 2, |args| bool_op2("and", args, |a, b| a && b));
        eval.register("or", 2, |args| bool_op2("or", args, |a, b| a || b));
        for name in ["leq", "lt", "eq", "neq", "leqg", "ltg", "eqg", "neqg"] {
            let base = name.trim_end_matches('g').to_string();
            eval.register(name, 2, move |args| compare(&base, args));
        }
        // Goal-local components from the Table-1 transcriptions.
        eval.register("snoc", 2, |args| {
            expect_arity("snoc", args, 2)?;
            let mut items = args[0]
                .as_list()
                .ok_or_else(|| EvalError::sort("snoc", "a list", &args[0]))?;
            items.push(args[1].clone());
            Ok(Value::list(items))
        });
        eval.register("append", 2, |args| {
            expect_arity("append", args, 2)?;
            let mut xs = args[0]
                .as_list()
                .ok_or_else(|| EvalError::sort("append", "a list", &args[0]))?;
            let ys = args[1]
                .as_list()
                .ok_or_else(|| EvalError::sort("append", "a list", &args[1]))?;
            xs.extend(ys);
            Ok(Value::list(xs))
        });
        eval.register("insert", 2, |args| {
            // insert :: x: α → xs: IList α → IList α, keeping the list sorted.
            expect_arity("insert", args, 2)?;
            let x = args[0]
                .as_int()
                .ok_or_else(|| EvalError::sort("insert", "an integer", &args[0]))?;
            let mut items = args[1]
                .as_cons_chain("INil", "ICons")
                .ok_or_else(|| EvalError::sort("insert", "an increasing list", &args[1]))?;
            let pos = items
                .iter()
                .position(|v| v.as_int().is_none_or(|n| x <= n))
                .unwrap_or(items.len());
            items.insert(pos, Value::Int(x));
            Ok(items
                .into_iter()
                .rev()
                .fold(Value::Ctor("INil".into(), vec![]), |acc, v| {
                    Value::Ctor("ICons".into(), vec![v, acc])
                }))
        });
        eval.register("umember", 2, |args| {
            expect_arity("umember", args, 2)?;
            let items = args[1]
                .as_cons_chain("UNil", "UCons")
                .ok_or_else(|| EvalError::sort("umember", "a unique list", &args[1]))?;
            Ok(Value::Bool(items.contains(&args[0])))
        });
        eval.register("is_private", 1, |args| {
            // The address-book benchmarks only require *some* deterministic
            // classifier α → Bool; negative integers are "private".
            expect_arity("is_private", args, 1)?;
            Ok(Value::Bool(match &args[0] {
                Value::Int(n) => *n < 0,
                Value::Bool(b) => *b,
                _ => false,
            }))
        });
        eval
    }

    /// Registers a built-in component with the given arity.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        arity: usize,
        f: impl Fn(&[Value]) -> Result<Value, EvalError> + 'static,
    ) {
        self.builtins.insert(name.into(), (arity, Rc::new(f)));
    }

    /// Registers a nullary component with a constant value.
    pub fn register_const(&mut self, name: impl Into<String>, value: Value) {
        self.builtins
            .insert(name.into(), (0, Rc::new(move |_| Ok(value.clone()))));
    }

    /// Whether the evaluator has executable semantics for the named
    /// component: a registered builtin, an integer constant `c<n>` (the
    /// SyGuS benchmarks declare these up to arbitrary `n`), or a
    /// capitalized name (treated as a datatype constructor).
    pub fn covers(&self, name: &str) -> bool {
        self.builtins.contains_key(name)
            || int_constant(name).is_some()
            || name.chars().next().is_some_and(char::is_uppercase)
    }

    /// Evaluates a closed program (typically a synthesized function) and
    /// applies it to the given argument values.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] for unbound names, arity mismatches,
    /// non-exhaustive matches, or fuel exhaustion.
    pub fn run(&mut self, program: &Program, args: &[Value]) -> Result<Value, EvalError> {
        let mut value = self.eval(program, &Bindings::new())?;
        for arg in args {
            value = self.apply(value, arg.clone())?;
        }
        Ok(value)
    }

    /// Evaluates a program under the given bindings.
    pub fn eval(&mut self, program: &Program, bindings: &Bindings) -> Result<Value, EvalError> {
        if self.fuel == 0 {
            return Err(EvalError::FuelExhausted);
        }
        self.fuel -= 1;
        match program {
            Program::IntLit(n) => Ok(Value::Int(*n)),
            Program::BoolLit(b) => Ok(Value::Bool(*b)),
            Program::Hole => Err(EvalError::Hole),
            Program::Var(name) => self.lookup(name, bindings),
            Program::Abs(arg, body) => Ok(Value::Closure(
                arg.clone(),
                Rc::new(body.as_ref().clone()),
                bindings.clone(),
            )),
            Program::Fix(name, body) => Ok(Value::Fixpoint(
                name.clone(),
                Rc::new(body.as_ref().clone()),
                bindings.clone(),
            )),
            Program::App(f, a) => {
                let fv = self.eval(f, bindings)?;
                let av = self.eval(a, bindings)?;
                self.apply(fv, av)
            }
            Program::If(c, t, e) => {
                let cv = self.eval(c, bindings)?;
                match cv {
                    Value::Bool(true) => self.eval(t, bindings),
                    Value::Bool(false) => self.eval(e, bindings),
                    other => Err(EvalError::NonBooleanCondition(other.to_string())),
                }
            }
            Program::Match(scrutinee, cases) => {
                let sv = self.eval(scrutinee, bindings)?;
                let Value::Ctor(name, args) = sv else {
                    return Err(EvalError::BadScrutinee(sv.to_string()));
                };
                let case = cases
                    .iter()
                    .find(|c| c.constructor == name)
                    .ok_or_else(|| EvalError::NonExhaustiveMatch(name.clone()))?;
                if case.binders.len() != args.len() {
                    return Err(EvalError::PatternArity {
                        constructor: name,
                        carries: args.len(),
                        binds: case.binders.len(),
                    });
                }
                let mut inner = bindings.clone();
                for (binder, value) in case.binders.iter().zip(args) {
                    inner.insert(binder.clone(), value);
                }
                self.eval(&case.body, &inner)
            }
        }
    }

    fn lookup(&mut self, name: &str, bindings: &Bindings) -> Result<Value, EvalError> {
        if let Some(v) = bindings.get(name) {
            return Ok(v.clone());
        }
        if let Some((arity, f)) = self.builtins.get(name).cloned() {
            if arity == 0 {
                return f(&[]);
            }
            return Ok(Value::Builtin(name.to_string(), Vec::new()));
        }
        // The SyGuS benchmarks declare `c0 … cn` for arbitrary `n`; resolve
        // them dynamically instead of pre-registering a fixed prefix.
        if let Some(n) = int_constant(name) {
            return Ok(Value::Int(n));
        }
        if name.chars().next().is_some_and(char::is_uppercase) {
            return Ok(Value::Ctor(name.to_string(), Vec::new()));
        }
        Err(EvalError::UnboundVariable(name.to_string()))
    }

    /// Applies a function value to an argument value.
    pub fn apply(&mut self, function: Value, arg: Value) -> Result<Value, EvalError> {
        if self.fuel == 0 {
            return Err(EvalError::FuelExhausted);
        }
        self.fuel -= 1;
        match function {
            Value::Closure(formal, body, mut captured) => {
                captured.insert(formal, arg);
                self.eval(&body, &captured)
            }
            Value::Fixpoint(name, body, captured) => {
                let mut recursive = captured.clone();
                recursive.insert(name.clone(), Value::Fixpoint(name, body.clone(), captured));
                let unfolded = self.eval(&body, &recursive)?;
                self.apply(unfolded, arg)
            }
            Value::Builtin(name, mut args) => {
                args.push(arg);
                let (arity, f) = self
                    .builtins
                    .get(&name)
                    .cloned()
                    .ok_or_else(|| EvalError::UnknownBuiltin(name.clone()))?;
                if args.len() == arity {
                    f(&args)
                } else if args.len() > arity {
                    Err(EvalError::ArityMismatch {
                        name,
                        expected: arity,
                        got: args.len(),
                    })
                } else {
                    Ok(Value::Builtin(name, args))
                }
            }
            Value::Ctor(name, mut args) => {
                args.push(arg);
                Ok(Value::Ctor(name, args))
            }
            other => Err(EvalError::NotAFunction(other.to_string())),
        }
    }
}

/// Parses an integer-constant component name `c<n>` (e.g. `c0`, `c12`).
fn int_constant(name: &str) -> Option<i64> {
    let digits = name.strip_prefix('c')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn expect_arity(name: &str, args: &[Value], expected: usize) -> Result<(), EvalError> {
    if args.len() != expected {
        return Err(EvalError::ArityMismatch {
            name: name.to_string(),
            expected,
            got: args.len(),
        });
    }
    Ok(())
}

fn int_op(name: &str, args: &[Value], f: impl Fn(i64) -> i64) -> Result<Value, EvalError> {
    expect_arity(name, args, 1)?;
    let a = args[0]
        .as_int()
        .ok_or_else(|| EvalError::sort(name, "an integer", &args[0]))?;
    Ok(Value::Int(f(a)))
}

fn int_op2(name: &str, args: &[Value], f: impl Fn(i64, i64) -> i64) -> Result<Value, EvalError> {
    expect_arity(name, args, 2)?;
    let a = args[0]
        .as_int()
        .ok_or_else(|| EvalError::sort(name, "an integer", &args[0]))?;
    let b = args[1]
        .as_int()
        .ok_or_else(|| EvalError::sort(name, "an integer", &args[1]))?;
    Ok(Value::Int(f(a, b)))
}

fn bool_op2(
    name: &str,
    args: &[Value],
    f: impl Fn(bool, bool) -> bool,
) -> Result<Value, EvalError> {
    expect_arity(name, args, 2)?;
    let a = args[0]
        .as_bool()
        .ok_or_else(|| EvalError::sort(name, "a boolean", &args[0]))?;
    let b = args[1]
        .as_bool()
        .ok_or_else(|| EvalError::sort(name, "a boolean", &args[1]))?;
    Ok(Value::Bool(f(a, b)))
}

/// Generic comparison used by both the integer components (`leq`, …) and
/// their generic counterparts (`leqg`, …): integers compare numerically,
/// booleans and constructors compare structurally where an order exists.
fn compare(op: &str, args: &[Value]) -> Result<Value, EvalError> {
    expect_arity(op, args, 2)?;
    let result = match (&args[0], &args[1]) {
        (Value::Int(a), Value::Int(b)) => match op {
            "leq" => a <= b,
            "lt" => a < b,
            "eq" => a == b,
            "neq" => a != b,
            _ => return Err(EvalError::UnknownBuiltin(op.to_string())),
        },
        (a, b) => match op {
            "eq" => a == b,
            "neq" => a != b,
            _ => return Err(EvalError::sort(op, "ordered (integer) values", a)),
        },
    };
    Ok(Value::Bool(result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Case;

    fn replicate_program() -> Program {
        let body = Program::ite(
            Program::apply("leq", vec![Program::var("n"), Program::var("zero")]),
            Program::var("Nil"),
            Program::apply(
                "Cons",
                vec![
                    Program::var("x"),
                    Program::apply(
                        "replicate",
                        vec![
                            Program::apply("dec", vec![Program::var("n")]),
                            Program::var("x"),
                        ],
                    ),
                ],
            ),
        );
        Program::Fix(
            "replicate".into(),
            Box::new(Program::lambda("n", Program::lambda("x", body))),
        )
    }

    #[test]
    fn literals_and_arithmetic_evaluate() {
        let mut eval = Evaluator::default();
        let p = Program::apply("plus", vec![Program::IntLit(2), Program::IntLit(3)]);
        assert_eq!(eval.run(&p, &[]), Ok(Value::Int(5)));
        let p = Program::apply("inc", vec![Program::apply("dec", vec![Program::IntLit(7)])]);
        assert_eq!(eval.run(&p, &[]), Ok(Value::Int(7)));
    }

    #[test]
    fn closures_capture_their_environment() {
        let mut eval = Evaluator::default();
        // (\x . \y . plus x y) 2 40
        let p = Program::lambda(
            "x",
            Program::lambda(
                "y",
                Program::apply("plus", vec![Program::var("x"), Program::var("y")]),
            ),
        );
        assert_eq!(
            eval.run(&p, &[Value::Int(2), Value::Int(40)]),
            Ok(Value::Int(42))
        );
    }

    #[test]
    fn fig1_replicate_produces_n_copies() {
        let mut eval = Evaluator::default();
        let result = eval
            .run(&replicate_program(), &[Value::Int(3), Value::Int(9)])
            .expect("replicate evaluates");
        let items = result.as_list().expect("result is a list");
        assert_eq!(items, vec![Value::Int(9); 3]);
        // Zero and negative counts produce the empty list.
        let mut eval = Evaluator::default();
        let empty = eval
            .run(&replicate_program(), &[Value::Int(0), Value::Int(1)])
            .unwrap();
        assert_eq!(empty.as_list().unwrap().len(), 0);
    }

    #[test]
    fn match_destructures_constructor_values() {
        let mut eval = Evaluator::default();
        // match xs with Nil -> 0 | Cons h t -> h
        let program = Program::lambda(
            "xs",
            Program::Match(
                Box::new(Program::var("xs")),
                vec![
                    Case {
                        constructor: "Nil".into(),
                        binders: vec![],
                        body: Program::IntLit(0),
                    },
                    Case {
                        constructor: "Cons".into(),
                        binders: vec!["h".into(), "t".into()],
                        body: Program::var("h"),
                    },
                ],
            ),
        );
        let list = Value::list(vec![Value::Int(5), Value::Int(6)]);
        assert_eq!(eval.run(&program, &[list]), Ok(Value::Int(5)));
        let mut eval = Evaluator::default();
        assert_eq!(
            eval.run(&program, &[Value::list(vec![])]),
            Ok(Value::Int(0))
        );
    }

    #[test]
    fn generic_equality_works_on_constructor_values() {
        let mut eval = Evaluator::default();
        let p = Program::apply("eqg", vec![Program::var("Nil"), Program::var("Nil")]);
        assert_eq!(eval.run(&p, &[]), Ok(Value::Bool(true)));
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut eval = Evaluator::default();
        assert_eq!(
            eval.run(&Program::var("nope"), &[]),
            Err(EvalError::UnboundVariable("nope".into()))
        );
        assert_eq!(eval.run(&Program::Hole, &[]), Err(EvalError::Hole));
        let bad_if = Program::ite(Program::IntLit(3), Program::IntLit(1), Program::IntLit(2));
        assert_eq!(
            eval.run(&bad_if, &[]),
            Err(EvalError::NonBooleanCondition("3".into()))
        );
    }

    #[test]
    fn builtins_reject_wrong_sorts_and_arities() {
        let mut eval = Evaluator::default();
        // inc true → sort mismatch, not a panic.
        let p = Program::apply("inc", vec![Program::BoolLit(true)]);
        assert!(matches!(
            eval.run(&p, &[]),
            Err(EvalError::SortMismatch { .. })
        ));
        // Over-application of a saturated builtin: (not true) false.
        let mut eval = Evaluator::default();
        let over = eval
            .apply(
                Value::Builtin("not".into(), vec![Value::Bool(true)]),
                Value::Bool(false),
            )
            .unwrap_err();
        assert!(matches!(over, EvalError::ArityMismatch { .. }));
        // Direct calls with short argument slices error instead of indexing
        // out of bounds.
        assert!(matches!(
            int_op2("plus", &[Value::Int(1)], |a, b| a + b),
            Err(EvalError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
        assert!(matches!(
            compare("lt", &[Value::Bool(true), Value::Bool(false)]),
            Err(EvalError::SortMismatch { .. })
        ));
    }

    #[test]
    fn every_standard_builtin_computes() {
        let mut cases: Vec<(Program, Value)> = vec![
            (Program::var("zero"), Value::Int(0)),
            (Program::var("one"), Value::Int(1)),
            (Program::var("true"), Value::Bool(true)),
            (Program::var("false"), Value::Bool(false)),
            (
                Program::apply("inc", vec![Program::IntLit(4)]),
                Value::Int(5),
            ),
            (
                Program::apply("dec", vec![Program::IntLit(4)]),
                Value::Int(3),
            ),
            (
                Program::apply("neg", vec![Program::IntLit(4)]),
                Value::Int(-4),
            ),
            (
                Program::apply("plus", vec![Program::IntLit(2), Program::IntLit(3)]),
                Value::Int(5),
            ),
            (
                Program::apply("minus", vec![Program::IntLit(2), Program::IntLit(3)]),
                Value::Int(-1),
            ),
            (
                Program::apply("not", vec![Program::BoolLit(false)]),
                Value::Bool(true),
            ),
            (
                Program::apply("and", vec![Program::BoolLit(true), Program::BoolLit(false)]),
                Value::Bool(false),
            ),
            (
                Program::apply("or", vec![Program::BoolLit(true), Program::BoolLit(false)]),
                Value::Bool(true),
            ),
        ];
        for (op, expect) in [
            ("leq", true),
            ("lt", true),
            ("eq", false),
            ("neq", true),
            ("leqg", true),
            ("ltg", true),
            ("eqg", false),
            ("neqg", true),
        ] {
            cases.push((
                Program::apply(op, vec![Program::IntLit(1), Program::IntLit(2)]),
                Value::Bool(expect),
            ));
        }
        for (program, expected) in cases {
            let mut eval = Evaluator::default();
            assert_eq!(eval.run(&program, &[]), Ok(expected), "{program:?}");
        }
    }

    #[test]
    fn goal_local_components_compute() {
        // snoc [1,2] 3 = [1,2,3]
        let mut eval = Evaluator::default();
        let xs = Value::list(vec![Value::Int(1), Value::Int(2)]);
        let out = eval
            .run(&Program::var("snoc"), &[xs.clone(), Value::Int(3)])
            .unwrap();
        assert_eq!(
            out.as_list().unwrap(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
        // append [1] [2,3] = [1,2,3]
        let mut eval = Evaluator::default();
        let out = eval
            .run(
                &Program::var("append"),
                &[
                    Value::list(vec![Value::Int(1)]),
                    Value::list(vec![Value::Int(2), Value::Int(3)]),
                ],
            )
            .unwrap();
        assert_eq!(out.as_list().unwrap().len(), 3);
        // insert 2 (ICons 1 (ICons 3 INil)) keeps the list sorted.
        let mut eval = Evaluator::default();
        let ilist = Value::Ctor(
            "ICons".into(),
            vec![
                Value::Int(1),
                Value::Ctor(
                    "ICons".into(),
                    vec![Value::Int(3), Value::Ctor("INil".into(), vec![])],
                ),
            ],
        );
        let out = eval
            .run(&Program::var("insert"), &[Value::Int(2), ilist])
            .unwrap();
        assert_eq!(
            out.as_cons_chain("INil", "ICons").unwrap(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
        // umember finds (only) present elements.
        let mut eval = Evaluator::default();
        let ulist = Value::Ctor(
            "UCons".into(),
            vec![Value::Int(7), Value::Ctor("UNil".into(), vec![])],
        );
        assert_eq!(
            eval.run(&Program::var("umember"), &[Value::Int(7), ulist.clone()]),
            Ok(Value::Bool(true))
        );
        let mut eval = Evaluator::default();
        assert_eq!(
            eval.run(&Program::var("umember"), &[Value::Int(8), ulist]),
            Ok(Value::Bool(false))
        );
        // is_private is a deterministic classifier.
        let mut eval = Evaluator::default();
        assert_eq!(
            eval.run(&Program::var("is_private"), &[Value::Int(-3)]),
            Ok(Value::Bool(true))
        );
    }

    #[test]
    fn int_constants_resolve_dynamically() {
        let mut eval = Evaluator::default();
        assert_eq!(eval.run(&Program::var("c0"), &[]), Ok(Value::Int(0)));
        let mut eval = Evaluator::default();
        assert_eq!(eval.run(&Program::var("c42"), &[]), Ok(Value::Int(42)));
        // `c` alone and `cx` are not constants.
        let mut eval = Evaluator::default();
        assert!(eval.run(&Program::var("c"), &[]).is_err());
        let mut eval = Evaluator::default();
        assert!(eval.run(&Program::var("cx"), &[]).is_err());
        assert!(Evaluator::default().covers("c1000"));
    }

    #[test]
    fn coverage_introspection_reports_builtins_and_ctors() {
        let eval = Evaluator::default();
        for name in [
            "zero", "plus", "leqg", "snoc", "insert", "Cons", "Node", "c17",
        ] {
            assert!(eval.covers(name), "{name} should be covered");
        }
        assert!(!eval.covers("mystery_component"));
        assert!(eval.covers("umember"));
    }

    #[test]
    fn fuel_bounds_runaway_recursion() {
        // fix loop . \n . loop n
        let looping = Program::Fix(
            "loop".into(),
            Box::new(Program::lambda(
                "n",
                Program::apply("loop", vec![Program::var("n")]),
            )),
        );
        // Keep the bound small: the interpreter is not tail-recursive, so a
        // large fuel budget on a divergent program would exhaust the test
        // thread's stack before it exhausts the fuel.
        let mut eval = Evaluator {
            fuel: 500,
            ..Evaluator::default()
        };
        let err = eval.run(&looping, &[Value::Int(1)]).unwrap_err();
        assert_eq!(err, EvalError::FuelExhausted);
    }

    #[test]
    fn list_round_trip_helpers() {
        let v = Value::list(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(v.as_list().unwrap().len(), 2);
        assert_eq!(v.to_string(), "(Cons 1 (Cons 2 Nil))");
        assert!(Value::Int(3).as_list().is_none());
    }
}
