//! Round-trip type *checking* of complete programs (Fig. 4 of the paper).
//!
//! The synthesizer in [`crate::synthesis`] interleaves these rules with
//! enumeration; this module exposes them as a standalone checker so that
//!
//! * users can verify a hand-written (or previously synthesized) program
//!   against a refinement type without running synthesis, and
//! * the test suite can independently validate every program the
//!   synthesizer returns.
//!
//! The checker follows the round-trip discipline: I-terms (abstractions,
//! fixpoints, conditionals, matches) are handled by *checking* rules that
//! decompose the goal type, while E-terms (variables and applications) are
//! handled by *strengthening* rules that check each sub-term against an
//! over-approximate goal and propagate the precise type back up.

use crate::ast::{Case, Program};
use crate::synthesis::Goal;
use synquid_logic::{Sort, Substitution, Term};
use synquid_solver::Smt;
use synquid_telemetry::events::{self, Event};
use synquid_types::{
    weaken_for_recursion, BaseType, ConstraintSolver, Environment, RType, Schema, TypeError,
};

/// A standalone round-trip type checker.
#[derive(Debug)]
pub struct TypeChecker {
    /// The SMT backend shared across all checks.
    pub smt: Smt,
    fresh_counter: usize,
    /// Derivation-node ids for the checking judgment, mirroring the
    /// synthesizer's scheme: preorder allocation over the `check` call
    /// tree, reset per top-level check, `current_node` = frame on the
    /// stack (0 = root's parent sentinel). Ids land on the `check_step` /
    /// `check_step_finish` trace events.
    node_counter: u64,
    current_node: u64,
}

impl Default for TypeChecker {
    fn default() -> Self {
        TypeChecker::new()
    }
}

impl TypeChecker {
    /// Creates a checker with default budgets.
    pub fn new() -> TypeChecker {
        TypeChecker {
            smt: Smt::new(),
            fresh_counter: 0,
            node_counter: 0,
            current_node: 0,
        }
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        let n = self.fresh_counter;
        self.fresh_counter += 1;
        format!("__chk_{prefix}{n}")
    }

    /// Checks a complete program against a synthesis goal (the goal's
    /// environment provides the components and datatypes the program may
    /// reference).
    ///
    /// # Errors
    ///
    /// Returns the first [`TypeError`] encountered; the error message names
    /// the sub-term and the constraint that failed.
    pub fn check_goal(&mut self, goal: &Goal, program: &Program) -> Result<(), TypeError> {
        self.node_counter = 0;
        self.current_node = 0;
        if !program.is_complete() {
            return Err(TypeError::new("program contains holes"));
        }
        let mut env = goal.env.clone();
        env.add_qualifiers_from_type(&goal.schema.ty);
        let mut solver = ConstraintSolver::default();

        // A fixpoint at the top level introduces the recursive binding with
        // a termination-weakened type (rule FIX); the goal's own argument
        // names provide the "smaller than" reference points.
        let body = match program {
            Program::Fix(name, body) => {
                let (args, _) = goal.schema.ty.uncurry();
                let arg_names: Vec<String> = args.iter().map(|(n, _)| n.clone()).collect();
                let weakened =
                    weaken_for_recursion(&env, &goal.schema, &arg_names).ok_or_else(|| {
                        TypeError::new(format!(
                            "recursive program {name} has no argument with a termination metric"
                        ))
                    })?;
                env.add_var(name.clone(), weakened);
                body.as_ref()
            }
            other => other,
        };
        self.check(&env, &mut solver, body, &goal.schema.ty)
    }

    /// Checks a program against an environment and plain type (rule set of
    /// Fig. 4 without the top-level FIX handling of [`Self::check_goal`]).
    pub fn check_program(
        &mut self,
        env: &Environment,
        program: &Program,
        ty: &RType,
    ) -> Result<(), TypeError> {
        self.node_counter = 0;
        self.current_node = 0;
        let mut solver = ConstraintSolver::default();
        self.check(env, &mut solver, program, ty)
    }

    // -----------------------------------------------------------------
    // Checking judgment  Γ ⊢ t ↓ T
    // -----------------------------------------------------------------

    /// One derivation node per checking-judgment frame: allocates the node
    /// id, brackets the frame with `check_step` / `check_step_finish`
    /// events, and dispatches to [`TypeChecker::check_node`].
    fn check(
        &mut self,
        env: &Environment,
        solver: &mut ConstraintSolver,
        program: &Program,
        goal: &RType,
    ) -> Result<(), TypeError> {
        let parent = self.current_node;
        self.node_counter += 1;
        let node = self.node_counter;
        self.current_node = node;
        events::emit(|| {
            Event::new("check_step")
                .uint("node", node)
                .uint("parent", parent)
                .str("rule", check_rule(program))
                .str("term", program.to_string())
                .str("ty", goal.to_string())
        });
        let result = self.check_node(env, solver, program, goal);
        events::emit(|| {
            Event::new("check_step_finish")
                .uint("node", node)
                .str("status", if result.is_ok() { "ok" } else { "error" })
        });
        self.current_node = parent;
        result
    }

    fn check_node(
        &mut self,
        env: &Environment,
        solver: &mut ConstraintSolver,
        program: &Program,
        goal: &RType,
    ) -> Result<(), TypeError> {
        match program {
            // Rule ABS: λy.t against x:Tx → T checks t against [y/x]T with
            // y:Tx in scope.
            Program::Abs(y, body) => {
                let resolved = solver.resolve(goal);
                let RType::Function { arg_name, arg, ret } = resolved else {
                    return Err(TypeError::new(format!(
                        "abstraction \\{y} checked against non-function type {goal}"
                    )));
                };
                let mut inner = env.clone();
                inner.add_var(y.clone(), (*arg).clone());
                let renamed = if arg.is_scalar() {
                    ret.substitute_var(&arg_name, &Term::var(y.clone(), arg.sort()))
                } else {
                    (*ret).clone()
                };
                self.check(&inner, solver, body, &renamed)
            }
            // Rule FIX (nested fixpoints): bind the recursive name with a
            // termination-weakened type.
            Program::Fix(name, body) => {
                let schema = Schema::monotype(goal.clone());
                let (args, _) = goal.uncurry();
                let arg_names: Vec<String> = args.iter().map(|(n, _)| n.clone()).collect();
                let mut inner = env.clone();
                match weaken_for_recursion(env, &schema, &arg_names) {
                    Some(weakened) => inner.add_var(name.clone(), weakened),
                    None => {
                        return Err(TypeError::new(format!(
                            "fixpoint {name} has no argument with a termination metric"
                        )))
                    }
                }
                self.check(&inner, solver, body, goal)
            }
            // Rule IF: infer the guard's strengthened type, then check the
            // branches under the corresponding path conditions.
            Program::If(cond, then_branch, else_branch) => {
                let (cond_env, cond_ty) = self.infer(env, solver, cond, &RType::bool())?;
                let psi = cond_ty.refinement();
                let then_fact = psi.substitute_value(&Term::tt());
                let else_fact = psi.substitute_value(&Term::ff());
                let mut then_env = cond_env.clone();
                then_env.add_path_condition(then_fact);
                self.check(&then_env, solver, then_branch, goal)?;
                let mut else_env = cond_env;
                else_env.add_path_condition(else_fact);
                self.check(&else_env, solver, else_branch, goal)
            }
            // Rule MATCH: infer the scrutinee, bind each constructor's
            // arguments, add the constructor refinement as a path fact.
            Program::Match(scrutinee, cases) => {
                self.check_match(env, solver, scrutinee, cases, goal)
            }
            // Rule IE: an E-term is checked by the strengthening judgment.
            eterm => {
                let _ = self.infer(env, solver, eterm, goal)?;
                Ok(())
            }
        }
    }

    fn check_match(
        &mut self,
        env: &Environment,
        solver: &mut ConstraintSolver,
        scrutinee: &Program,
        cases: &[Case],
        goal: &RType,
    ) -> Result<(), TypeError> {
        // Infer the scrutinee against top (its shape is not known from the
        // goal); we then need a program variable standing for it so that
        // constructor refinements can be stated about it.
        let (scrut_env, scrut_ty) = self.infer(env, solver, scrutinee, &RType::Any)?;
        let resolved = solver.resolve(&scrut_ty);
        let Some(BaseType::Data(dt_name, targs)) = resolved.base_type().cloned() else {
            return Err(TypeError::new(format!(
                "match scrutinee {scrutinee} has non-datatype type {resolved}"
            )));
        };
        let datatype = env
            .datatype(&dt_name)
            .cloned()
            .ok_or_else(|| TypeError::new(format!("unknown datatype {dt_name}")))?;
        let scrut_sort = Sort::Data(dt_name.clone(), targs.iter().map(|t| t.sort()).collect());
        let (mut match_env, scrut_var) = match scrutinee {
            Program::Var(name) => (scrut_env.clone(), name.clone()),
            _ => {
                let name = self.fresh_name("scrut");
                let mut e = scrut_env.clone();
                e.add_var(name.clone(), resolved.clone());
                (e, name)
            }
        };
        match_env.add_path_condition(resolved.refinement_for(&scrut_var));

        // Every constructor must be covered exactly once.
        for ctor in &datatype.constructors {
            if !cases.iter().any(|c| c.constructor == ctor.name) {
                return Err(TypeError::new(format!(
                    "match on {scrut_var} does not cover constructor {}",
                    ctor.name
                )));
            }
        }
        for case in cases {
            let ctor = datatype.constructor(&case.constructor).ok_or_else(|| {
                TypeError::new(format!(
                    "{} is not a constructor of {dt_name}",
                    case.constructor
                ))
            })?;
            let con_ty = ctor.schema.instantiate(&targs);
            let (cargs, cret) = con_ty.uncurry();
            if cargs.len() != case.binders.len() {
                return Err(TypeError::new(format!(
                    "constructor {} expects {} arguments, the match binds {}",
                    case.constructor,
                    cargs.len(),
                    case.binders.len()
                )));
            }
            let mut case_env = match_env.clone();
            let mut rename = Substitution::new();
            for ((formal, ty), binder) in cargs.iter().zip(&case.binders) {
                let bound_ty = ty.substitute(&rename);
                rename.insert(formal.clone(), Term::var(binder.clone(), bound_ty.sort()));
                case_env.add_var(binder.clone(), bound_ty);
            }
            let fact = cret
                .refinement()
                .substitute(&rename)
                .substitute_value(&Term::var(scrut_var.clone(), scrut_sort.clone()));
            case_env.add_path_condition(fact);
            self.check(&case_env, solver, &case.body, goal)?;
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Strengthening judgment  Γ ⊢ e ↓ T ↑ T'
    // -----------------------------------------------------------------

    /// Infers the strengthened type of an E-term while checking it against
    /// the goal. Returns the environment extended with bindings for the
    /// intermediate results of applications (the contextual part of the
    /// paper's `let C in T'`) together with the strengthened type.
    fn infer(
        &mut self,
        env: &Environment,
        solver: &mut ConstraintSolver,
        eterm: &Program,
        goal: &RType,
    ) -> Result<(Environment, RType), TypeError> {
        match eterm {
            Program::IntLit(n) => {
                let ty =
                    RType::refined(BaseType::Int, Term::value_var(Sort::Int).eq(Term::int(*n)));
                solver.subtype(env, &ty, goal, &mut self.smt, &format!("literal {n}"))?;
                Ok((env.clone(), ty))
            }
            Program::BoolLit(b) => {
                let ty = RType::refined(
                    BaseType::Bool,
                    Term::value_var(Sort::Bool).iff(Term::BoolLit(*b)),
                );
                solver.subtype(env, &ty, goal, &mut self.smt, &format!("literal {b}"))?;
                Ok((env.clone(), ty))
            }
            // Rules VARSC / VAR∀.
            Program::Var(name) => {
                let schema = env
                    .lookup(name)
                    .cloned()
                    .ok_or_else(|| TypeError::new(format!("unbound variable {name}")))?;
                let instantiated = solver.instantiate_schema(&schema);
                let strengthened = if instantiated.is_scalar() {
                    env.singleton_type(name, &instantiated)
                } else {
                    instantiated
                };
                solver.subtype(env, &strengthened, goal, &mut self.smt, name)?;
                Ok((env.clone(), strengthened))
            }
            // Rules APPFO / APPHO: check the head against an
            // over-approximate function goal, then the arguments, then the
            // instantiated result against the goal.
            Program::App(_, _) => self.infer_application(env, solver, eterm, goal),
            Program::Abs(_, _) | Program::Fix(_, _) => Err(TypeError::new(format!(
                "function term {eterm} used where an E-term is required"
            ))),
            other => Err(TypeError::new(format!(
                "{other} is not an E-term (branching terms cannot appear inside applications)"
            ))),
        }
    }

    fn infer_application(
        &mut self,
        env: &Environment,
        solver: &mut ConstraintSolver,
        eterm: &Program,
        goal: &RType,
    ) -> Result<(Environment, RType), TypeError> {
        // Flatten the application spine: head and argument list.
        let mut args = Vec::new();
        let mut head = eterm;
        while let Program::App(f, a) = head {
            args.push(a.as_ref());
            head = f.as_ref();
        }
        args.reverse();
        let Program::Var(head_name) = head else {
            return Err(TypeError::new(format!(
                "application head {head} must be a variable (β-normal form)"
            )));
        };
        let schema = env
            .lookup(head_name)
            .cloned()
            .ok_or_else(|| TypeError::new(format!("unbound function {head_name}")))?;
        let head_ty = solver.instantiate_schema(&schema);
        let (fargs, fret) = head_ty.uncurry();
        if args.len() > fargs.len() {
            return Err(TypeError::new(format!(
                "{head_name} applied to {} arguments but takes {}",
                args.len(),
                fargs.len()
            )));
        }

        let mut app_env = env.clone();
        let mut subst = Substitution::new();
        for ((formal, formal_ty), actual) in fargs.iter().zip(&args) {
            let expected = solver.resolve(&formal_ty.substitute(&subst));
            if expected.is_function() {
                // Higher-order argument (rule APPHO): the result type cannot
                // depend on it, so it is checked against the expected type.
                self.check(&app_env, solver, actual, &expected)?;
                continue;
            }
            let (arg_env, arg_ty) = self.infer(&app_env, solver, actual, &expected)?;
            let binder = self.fresh_name("a");
            app_env = arg_env;
            app_env.add_var(binder.clone(), arg_ty.clone());
            subst.insert(formal.clone(), Term::var(binder, arg_ty.sort()));
        }

        // Partial application: the remaining arguments stay abstracted.
        let remaining: Vec<(String, RType)> = fargs.iter().skip(args.len()).cloned().collect();
        let result = RType::fun_n(remaining, fret).substitute(&subst);
        if result.is_scalar() || matches!(goal, RType::Any | RType::Bot) || goal.is_function() {
            solver.subtype(
                &app_env,
                &result,
                goal,
                &mut self.smt,
                &format!("{head_name}(..)"),
            )?;
        }
        Ok((app_env, result))
    }
}

/// The Fig. 4 rule a checking-judgment frame dispatches to, for the
/// `check_step` trace event.
fn check_rule(program: &Program) -> &'static str {
    match program {
        Program::Abs(_, _) => "ABS",
        Program::Fix(_, _) => "FIX",
        Program::If(_, _, _) => "IF",
        Program::Match(_, _) => "MATCH",
        _ => "IE",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::Goal;
    use synquid_logic::Qualifier;
    use synquid_types::list_datatype;

    fn int_env() -> Environment {
        let mut env = Environment::new();
        env.add_qualifiers(Qualifier::standard(Sort::Int));
        env.add_var(
            "zero",
            RType::refined(BaseType::Int, Term::value_var(Sort::Int).eq(Term::int(0))),
        );
        env.add_var(
            "inc",
            RType::fun(
                "x",
                RType::int(),
                RType::refined(
                    BaseType::Int,
                    Term::value_var(Sort::Int).eq(Term::var("x", Sort::Int).plus(Term::int(1))),
                ),
            ),
        );
        env.add_var(
            "dec",
            RType::fun(
                "x",
                RType::int(),
                RType::refined(
                    BaseType::Int,
                    Term::value_var(Sort::Int).eq(Term::var("x", Sort::Int).minus(Term::int(1))),
                ),
            ),
        );
        env.add_var(
            "leq",
            RType::fun_n(
                vec![("x".into(), RType::int()), ("y".into(), RType::int())],
                RType::refined(
                    BaseType::Bool,
                    Term::value_var(Sort::Bool)
                        .iff(Term::var("x", Sort::Int).le(Term::var("y", Sort::Int))),
                ),
            ),
        );
        env
    }

    fn id_goal() -> Goal {
        Goal::new(
            "id",
            int_env(),
            Schema::monotype(RType::fun(
                "n",
                RType::int(),
                RType::refined(
                    BaseType::Int,
                    Term::value_var(Sort::Int).eq(Term::var("n", Sort::Int)),
                ),
            )),
        )
    }

    #[test]
    fn identity_checks_against_its_type() {
        let mut checker = TypeChecker::new();
        let program = Program::lambda("n", Program::var("n"));
        assert!(checker.check_goal(&id_goal(), &program).is_ok());
    }

    #[test]
    fn wrong_body_is_rejected() {
        let mut checker = TypeChecker::new();
        let program = Program::lambda("n", Program::var("zero"));
        let err = checker.check_goal(&id_goal(), &program).unwrap_err();
        assert!(err.message.contains("zero"));
    }

    #[test]
    fn literals_check_against_exact_types() {
        let mut checker = TypeChecker::new();
        let env = int_env();
        let ty = RType::refined(BaseType::Int, Term::value_var(Sort::Int).eq(Term::int(3)));
        assert!(checker
            .check_program(&env, &Program::IntLit(3), &ty)
            .is_ok());
        assert!(checker
            .check_program(&env, &Program::IntLit(4), &ty)
            .is_err());
        let bty = RType::refined(BaseType::Bool, Term::value_var(Sort::Bool).iff(Term::tt()));
        assert!(checker
            .check_program(&env, &Program::BoolLit(true), &bty)
            .is_ok());
        assert!(checker
            .check_program(&env, &Program::BoolLit(false), &bty)
            .is_err());
    }

    #[test]
    fn application_strengthens_through_components() {
        // inc (inc n) : {Int | ν = n + 2}
        let mut checker = TypeChecker::new();
        let env = {
            let mut e = int_env();
            e.add_var("n", RType::int());
            e
        };
        let two_more = RType::refined(
            BaseType::Int,
            Term::value_var(Sort::Int).eq(Term::var("n", Sort::Int).plus(Term::int(2))),
        );
        let good = Program::apply("inc", vec![Program::apply("inc", vec![Program::var("n")])]);
        assert!(checker.check_program(&env, &good, &two_more).is_ok());
        let bad = Program::apply("inc", vec![Program::var("n")]);
        assert!(checker.check_program(&env, &bad, &two_more).is_err());
    }

    #[test]
    fn conditional_uses_guard_refinement_as_path_condition() {
        // if leq n zero then zero else n  :  {Int | ν >= 0}
        let mut checker = TypeChecker::new();
        let env = {
            let mut e = int_env();
            e.add_var("n", RType::int());
            e
        };
        let program = Program::ite(
            Program::apply("leq", vec![Program::var("n"), Program::var("zero")]),
            Program::var("zero"),
            Program::var("n"),
        );
        assert!(checker.check_program(&env, &program, &RType::nat()).is_ok());
        // Swapping the branches breaks the check: in the "then" branch only
        // n ≤ 0 is known, so returning n does not give ν ≥ 0.
        let swapped = Program::ite(
            Program::apply("leq", vec![Program::var("n"), Program::var("zero")]),
            Program::var("n"),
            Program::var("zero"),
        );
        assert!(checker
            .check_program(&env, &swapped, &RType::nat())
            .is_err());
    }

    #[test]
    fn fig1_replicate_type_checks() {
        // The program of Fig. 1, checked against its refinement type.
        let mut env = int_env();
        env.add_datatype(list_datatype());
        let list_sort = Sort::data("List", vec![Sort::var("a")]);
        let len_v = Term::app("len", vec![Term::value_var(list_sort)], Sort::Int);
        let goal_ty = RType::fun_n(
            vec![("n".into(), RType::nat()), ("x".into(), RType::tyvar("a"))],
            RType::refined(
                BaseType::Data("List".into(), vec![RType::tyvar("a")]),
                len_v.eq(Term::var("n", Sort::Int)),
            ),
        );
        let goal = Goal::new("replicate", env, Schema::forall(vec!["a".into()], goal_ty));
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
        let program = Program::Fix(
            "replicate".into(),
            Box::new(Program::lambda("n", Program::lambda("x", body))),
        );
        let mut checker = TypeChecker::new();
        checker
            .check_goal(&goal, &program)
            .expect("Fig. 1 replicate should type-check");

        // A non-terminating variant (recursing on n instead of dec n) is
        // rejected by the termination-weakened recursive signature.
        let bad_body = Program::ite(
            Program::apply("leq", vec![Program::var("n"), Program::var("zero")]),
            Program::var("Nil"),
            Program::apply(
                "Cons",
                vec![
                    Program::var("x"),
                    Program::apply("replicate", vec![Program::var("n"), Program::var("x")]),
                ],
            ),
        );
        let bad = Program::Fix(
            "replicate".into(),
            Box::new(Program::lambda("n", Program::lambda("x", bad_body))),
        );
        let mut checker = TypeChecker::new();
        assert!(checker.check_goal(&goal, &bad).is_err());
    }

    #[test]
    fn match_checks_each_case_under_its_constructor_fact() {
        // is_empty as a match: Nil -> true | Cons h t -> false.
        let mut env = Environment::new();
        env.add_qualifiers(Qualifier::standard(Sort::Int));
        env.add_datatype(list_datatype());
        let list_sort = Sort::data("List", vec![Sort::var("a")]);
        env.add_var(
            "xs",
            RType::base(BaseType::Data("List".into(), vec![RType::tyvar("a")])),
        );
        let goal_ty = RType::refined(
            BaseType::Bool,
            Term::value_var(Sort::Bool).iff(
                Term::app("len", vec![Term::var("xs", list_sort)], Sort::Int).eq(Term::int(0)),
            ),
        );
        let program = Program::Match(
            Box::new(Program::var("xs")),
            vec![
                Case {
                    constructor: "Nil".into(),
                    binders: vec![],
                    body: Program::BoolLit(true),
                },
                Case {
                    constructor: "Cons".into(),
                    binders: vec!["h".into(), "t".into()],
                    body: Program::BoolLit(false),
                },
            ],
        );
        let mut checker = TypeChecker::new();
        assert!(checker.check_program(&env, &program, &goal_ty).is_ok());

        // Swapping the case bodies is a type error.
        let wrong = Program::Match(
            Box::new(Program::var("xs")),
            vec![
                Case {
                    constructor: "Nil".into(),
                    binders: vec![],
                    body: Program::BoolLit(false),
                },
                Case {
                    constructor: "Cons".into(),
                    binders: vec!["h".into(), "t".into()],
                    body: Program::BoolLit(true),
                },
            ],
        );
        let mut checker = TypeChecker::new();
        assert!(checker.check_program(&env, &wrong, &goal_ty).is_err());
    }

    #[test]
    fn missing_match_case_is_reported() {
        let mut env = Environment::new();
        env.add_datatype(list_datatype());
        env.add_var(
            "xs",
            RType::base(BaseType::Data("List".into(), vec![RType::tyvar("a")])),
        );
        let program = Program::Match(
            Box::new(Program::var("xs")),
            vec![Case {
                constructor: "Nil".into(),
                binders: vec![],
                body: Program::BoolLit(true),
            }],
        );
        let mut checker = TypeChecker::new();
        let err = checker
            .check_program(&env, &program, &RType::bool())
            .unwrap_err();
        assert!(err.message.contains("Cons"));
    }

    #[test]
    fn holes_are_rejected_up_front() {
        let mut checker = TypeChecker::new();
        let goal = id_goal();
        let program = Program::lambda("n", Program::Hole);
        let err = checker.check_goal(&goal, &program).unwrap_err();
        assert!(err.message.contains("hole"));
    }

    #[test]
    fn unbound_names_are_reported() {
        let mut checker = TypeChecker::new();
        let env = int_env();
        let err = checker
            .check_program(&env, &Program::var("nope"), &RType::int())
            .unwrap_err();
        assert!(err.message.contains("nope"));
    }
}
