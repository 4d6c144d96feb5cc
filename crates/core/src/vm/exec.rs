//! The stack-based executor.
//!
//! Runs a [`CompiledPlan`] against an [`Env`] under a [`Budget`],
//! producing exactly what [`eval_with`](crate::eval_with) produces — the
//! same trees, the same [`EvalStats`] counters, and the same error at the
//! same point when the budget runs out. That equivalence is the load-
//! bearing contract (the `vm_diff` suite pins it per corpus query), so
//! the machine is deliberately plain: one contiguous value stack of
//! trees with a stack of marks (the start of each list on it), a boolean
//! stack, a stack of loop frames over segments of the value stack, a
//! static slot array for query-bound variables, and a program counter
//! over the flat instruction sequence. No recursion: `for`/`let` loops,
//! quantifiers and descendant scans run on explicit stacks, so
//! evaluation depth is heap-bounded rather than call-stack-bounded.
//!
//! Nothing is allocated per instruction once the stacks have grown: a
//! list is a segment of the value stack, so concatenating two lists is
//! dropping a mark, a loop variable is an index into its frame's items,
//! and an axis step scans its bases by reference into one reused scratch
//! buffer, cloning only the matches. The only allocations are the ones
//! the result needs — each constructed node and its child vector.

use super::compile::CompiledPlan;
use super::ir::{OpCode, VarRef};
use crate::ast::EqMode;
use crate::semantics::{Budget, Env, EvalStats, XqError};
use cv_xtree::{Axis, NodeTest, Tree};
use std::slice::Iter;

/// Executes a compiled plan in `env` under `budget` — the VM counterpart
/// of [`eval_with`](crate::eval_with), byte- and counter-identical to it.
pub fn exec_with(
    plan: &CompiledPlan,
    env: &Env,
    budget: Budget,
) -> Result<(Vec<Tree>, EvalStats), XqError> {
    let mut m = Machine {
        meter: Meter {
            budget,
            stats: EvalStats::default(),
        },
        env,
        env_depth: env.depth(),
        locals: vec![0; plan.slots()],
        vals: Vec::new(),
        marks: Vec::new(),
        bools: Vec::new(),
        frames: Vec::new(),
        scratch: Vec::new(),
        walk: Vec::new(),
    };
    m.run(plan.instrs().ops())?;
    debug_assert!(m.bools.is_empty() && m.frames.is_empty());
    debug_assert_eq!(m.marks, [0], "a compiled query leaves exactly its result");
    Ok((m.vals, m.meter.stats))
}

/// Executes a compiled plan on input tree `t` (bound to `$root`) under the
/// default budget — the VM counterpart of [`eval_query`](crate::eval_query).
pub fn exec_query(plan: &CompiledPlan, t: &Tree) -> Result<Vec<Tree>, XqError> {
    exec_with(plan, &Env::with_root(t.clone()), Budget::default()).map(|(out, _)| out)
}

/// An open loop over the work items `vals[start..end]`; `next` is the
/// next item to bind. A `for`/`let` frame accumulates its output on the
/// value stack right above `end`; a quantifier frame accumulates nothing.
struct Frame {
    start: usize,
    next: usize,
    end: usize,
}

/// The budget and the counters it is charged against — apart from the
/// stacks, so a scan can charge while it borrows the value stack.
struct Meter {
    budget: Budget,
    stats: EvalStats,
}

impl Meter {
    fn step(&mut self) -> Result<(), XqError> {
        self.stats.steps += 1;
        // One shared charge path with the interpreter (cancel flag, then
        // deadline, then step cap) — cancellation is engine-agnostic
        // because both engines observe it at the same tick sites.
        self.budget.charge_step(self.stats.steps)
    }

    /// Charges `n` emitted items (the interpreter's `emit`) at once. The
    /// interpreter charges them one by one, but the item cap is the only
    /// check and it is monotone, so this fails exactly when one of those
    /// would.
    fn items(&mut self, n: usize) -> Result<(), XqError> {
        self.stats.items += n as u64;
        self.budget.charge_item(self.stats.items)
    }
}

struct Machine<'e> {
    meter: Meter,
    env: &'e Env,
    /// The caller's environment depth — static scope depths in `TickQ`
    /// offset from here, reproducing the interpreter's `max_env_depth`.
    env_depth: usize,
    /// Per slot, the index in `vals` of the item its binder bound.
    locals: Vec<usize>,
    /// Every list on the stack, back to back.
    vals: Vec<Tree>,
    /// Where each list in `vals` starts; the top list is
    /// `vals[marks.last()..]`.
    marks: Vec<usize>,
    bools: Vec<bool>,
    frames: Vec<Frame>,
    /// An axis step's matches, before they replace its bases.
    scratch: Vec<Tree>,
    /// The descendant scan's stack of child iterators, kept empty
    /// between steps only for its allocation (see [`recycle`]).
    walk: Vec<Iter<'static, Tree>>,
}

/// Empties `v` and hands its allocation back at another lifetime, so a
/// stack of borrowed iterators can outlive the borrow it was filled
/// under. Collecting a mapped `vec::IntoIter` into a vector of a
/// same-layout type reuses the source buffer (std's in-place iteration).
fn recycle<'b>(mut v: Vec<Iter<'_, Tree>>) -> Vec<Iter<'b, Tree>> {
    v.clear();
    v.into_iter().map(|_| unreachable!("emptied")).collect()
}

/// Scans `axis` from each of `bases` in document order, charging one
/// step per scanned node and one item per match, and appends the
/// matches to `out`. Only matches are cloned.
fn scan<'v>(
    bases: &'v [Tree],
    axis: Axis,
    test: &NodeTest,
    meter: &mut Meter,
    walk: &mut Vec<Iter<'v, Tree>>,
    out: &mut Vec<Tree>,
) -> Result<(), XqError> {
    let mut visit = |s: &Tree, meter: &mut Meter| -> Result<(), XqError> {
        meter.step()?;
        if test.matches(s.label()) {
            meter.items(1)?;
            out.push(s.clone());
        }
        Ok(())
    };
    for t in bases {
        match axis {
            Axis::SelfAxis => visit(t, meter)?,
            Axis::Child => {
                for c in t.children() {
                    visit(c, meter)?;
                }
            }
            Axis::Descendant | Axis::DescendantOrSelf => {
                if axis == Axis::DescendantOrSelf {
                    visit(t, meter)?;
                }
                // Preorder: a node, then its subtree, then its siblings.
                walk.push(t.children().iter());
                while let Some(level) = walk.last_mut() {
                    match level.next() {
                        Some(c) => {
                            visit(c, meter)?;
                            walk.push(c.children().iter());
                        }
                        None => {
                            walk.pop();
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

impl Machine<'_> {
    /// The tree a variable reference denotes.
    fn resolve(&self, r: &VarRef) -> Result<&Tree, XqError> {
        match r {
            VarRef::Local(slot, _) => Ok(&self.vals[self.locals[*slot as usize]]),
            VarRef::Free(v) => self
                .env
                .lookup(v)
                .ok_or_else(|| XqError::UnboundVariable(v.name().to_string())),
        }
    }

    /// Pushes a one-tree list.
    fn push_one(&mut self, t: Tree) {
        self.marks.push(self.vals.len());
        self.vals.push(t);
    }

    /// Pops the top list's mark: the list itself stays in `vals` from the
    /// returned index on.
    fn pop_mark(&mut self) -> usize {
        self.marks.pop().expect("list operand on the stack")
    }

    fn pop_bool(&mut self) -> bool {
        self.bools.pop().expect("boolean operand on the stack")
    }

    /// Binds the innermost frame's next item into `slot`; false once the
    /// frame is exhausted.
    fn bind_next(&mut self, slot: u16) -> bool {
        let frame = self.frames.last_mut().expect("open loop frame");
        if frame.next == frame.end {
            return false;
        }
        self.locals[slot as usize] = frame.next;
        frame.next += 1;
        true
    }

    /// Closes the innermost frame, dropping its items and everything
    /// above them.
    fn close_frame(&mut self) {
        let frame = self.frames.pop().expect("open loop frame");
        self.vals.truncate(frame.start);
    }

    fn tree_eq(a: &Tree, b: &Tree, mode: EqMode) -> Result<bool, XqError> {
        match mode {
            EqMode::Deep => Ok(a == b),
            EqMode::Atomic => Ok(a.label() == b.label()),
            EqMode::Mon => Err(XqError::BadEqualityMode),
        }
    }

    fn run(&mut self, ops: &[OpCode]) -> Result<(), XqError> {
        let mut pc = 0usize;
        while pc < ops.len() {
            match &ops[pc] {
                OpCode::TickQ(d) => {
                    self.meter.step()?;
                    let depth = &mut self.meter.stats.max_env_depth;
                    *depth = (*depth).max(self.env_depth + *d as usize);
                }
                OpCode::TickC => self.meter.step()?,
                OpCode::PushUnit => self.marks.push(self.vals.len()),
                OpCode::Load(r) => {
                    let t = self.resolve(r)?.clone();
                    self.meter.items(1)?;
                    self.push_one(t);
                }
                OpCode::MakeElem(a) => {
                    let start = self.pop_mark();
                    let t = Tree::node(a.clone(), self.vals.drain(start..));
                    self.meter.items(1)?;
                    self.push_one(t);
                }
                OpCode::Concat => {
                    // The two lists are already adjacent: drop the
                    // right one's mark and charge its trees.
                    let rest = self.pop_mark();
                    self.meter.items(self.vals.len() - rest)?;
                }
                OpCode::AxisStep(axis, test) => {
                    let start = *self.marks.last().expect("list operand on the stack");
                    let mut walk = recycle(std::mem::take(&mut self.walk));
                    scan(
                        &self.vals[start..],
                        *axis,
                        test,
                        &mut self.meter,
                        &mut walk,
                        &mut self.scratch,
                    )?;
                    self.walk = recycle(walk);
                    // The matches replace the bases; `scratch` keeps its
                    // capacity.
                    self.vals.truncate(start);
                    self.vals.append(&mut self.scratch);
                }
                OpCode::IterInit | OpCode::QuantInit => {
                    let start = self.pop_mark();
                    self.frames.push(Frame {
                        start,
                        next: start,
                        end: self.vals.len(),
                    });
                }
                OpCode::IterNext { slot, exit, .. } => {
                    if !self.bind_next(*slot) {
                        // The accumulated output replaces the items.
                        let frame = self.frames.pop().expect("open loop frame");
                        self.vals.drain(frame.start..frame.end);
                        self.marks.push(frame.start);
                        pc = *exit as usize;
                        continue;
                    }
                }
                OpCode::IterAccum { back } => {
                    // The body's result sits right above the accumulator.
                    let body = self.pop_mark();
                    self.meter.items(self.vals.len() - body)?;
                    pc = *back as usize;
                    continue;
                }
                OpCode::PushBool(b) => self.bools.push(*b),
                OpCode::CmpVars(x, y, mode) => {
                    let verdict = Self::tree_eq(self.resolve(x)?, self.resolve(y)?, *mode)?;
                    self.bools.push(verdict);
                }
                OpCode::CmpConst(x, a, mode) => {
                    // Against the constant leaf `<a/>`, without building it.
                    let tx = self.resolve(x)?;
                    let verdict = match mode {
                        EqMode::Deep => tx.is_leaf() && tx.label() == a,
                        EqMode::Atomic => tx.label() == a,
                        EqMode::Mon => return Err(XqError::BadEqualityMode),
                    };
                    self.bools.push(verdict);
                }
                OpCode::NonEmpty => {
                    let start = self.pop_mark();
                    self.bools.push(self.vals.len() > start);
                    self.vals.truncate(start);
                }
                OpCode::NotBool => {
                    let b = self.pop_bool();
                    self.bools.push(!b);
                }
                OpCode::JumpIfFalse(t) => {
                    if !self.pop_bool() {
                        pc = *t as usize;
                        continue;
                    }
                }
                OpCode::Jump(t) => {
                    pc = *t as usize;
                    continue;
                }
                OpCode::AndJump(t) => {
                    if *self.bools.last().expect("boolean operand") {
                        self.bools.pop();
                    } else {
                        pc = *t as usize;
                        continue;
                    }
                }
                OpCode::OrJump(t) => {
                    if *self.bools.last().expect("boolean operand") {
                        pc = *t as usize;
                        continue;
                    } else {
                        self.bools.pop();
                    }
                }
                OpCode::QuantNext {
                    slot, some, exit, ..
                } => {
                    if !self.bind_next(*slot) {
                        self.close_frame();
                        // Exhausted without a decision: `some` is
                        // false, `every` vacuously true.
                        self.bools.push(!*some);
                        pc = *exit as usize;
                        continue;
                    }
                }
                OpCode::QuantCheck { some, back, exit } => {
                    let verdict = self.pop_bool();
                    if verdict == *some {
                        // true decides `some`; false decides `every`.
                        self.close_frame();
                        self.bools.push(*some);
                        pc = *exit as usize;
                    } else {
                        pc = *back as usize;
                    }
                    continue;
                }
            }
            pc += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::compile_query;
    use crate::{eval_with, parse_query};
    use cv_xtree::parse_tree;

    fn both(src: &str, doc: &str, budget: Budget) {
        let q = parse_query(src).unwrap();
        let t = parse_tree(doc).unwrap();
        let env = Env::with_root(t);
        let want = eval_with(&q, &env, budget.clone());
        let got = exec_with(&compile_query(&q), &env, budget);
        match (&want, &got) {
            (Ok((wt, ws)), Ok((gt, gs))) => {
                assert_eq!(gt, wt, "{src}");
                assert_eq!(gs.steps, ws.steps, "{src}: steps");
                assert_eq!(gs.items, ws.items, "{src}: items");
                assert_eq!(gs.max_env_depth, ws.max_env_depth, "{src}: depth");
            }
            (Err(we), Err(ge)) => assert_eq!(ge, we, "{src}"),
            _ => panic!("{src}: interpreter {want:?} vs vm {got:?}"),
        }
    }

    #[test]
    fn vm_matches_interpreter_on_representative_queries() {
        let doc = "<r><a><b/><k/></a><b/><a/><k><a/></k></r>";
        for src in [
            "()",
            "<a/>",
            "$root",
            "$root/*",
            "$root//a",
            "($root/a, $root/b)",
            "<out>{ ($root/a, $root/b, $root/k) }</out>",
            "for $x in $root//a return <w>{ $x/* }</w>",
            "let $z := $root return for $x in $z/* return $x",
            "for $x in $root/* return for $y in $x/* return <p>{ $y }</p>",
            "if ($root = $root) then <eq/>",
            "if (some $x in $root/* satisfies $x =atomic <k/>) then <hit/>",
            "if (every $x in $root/* satisfies $x =atomic $x) then <all/>",
            "if (not($root/b) and $root/a) then <both/>",
            "if ($root/zzz or $root/a) then <or/>",
            "for $x in (for $w in $root/* where $w/b return $w) return <f>{ $x }</f>",
            "for $x in $root/a return for $x in $x/* return $x",
        ] {
            both(src, doc, Budget::default());
        }
    }

    #[test]
    fn budget_exhaustion_is_identical_to_the_interpreter() {
        let doc = "<r><a/><a/><a/><a/></r>";
        let src = "for $x in $root//* return for $y in $root//* return <t>{ $y }</t>";
        // Sweep tight budgets so the error point crosses every opcode.
        for max_steps in 0..60 {
            both(
                src,
                doc,
                Budget {
                    max_steps,
                    ..Budget::default()
                },
            );
        }
        for max_items in 0..40 {
            both(
                src,
                doc,
                Budget {
                    max_items,
                    ..Budget::default()
                },
            );
        }
    }

    /// Runs `src` on `doc` under every step cap and every item cap from
    /// zero up to one past what the unbounded run uses, so the error
    /// point crosses each charge site of each rewritten opcode.
    fn sweep_budgets(src: &str, doc: &str) {
        let q = parse_query(src).unwrap();
        let env = Env::with_root(parse_tree(doc).unwrap());
        let (_, full) = eval_with(&q, &env, Budget::default()).unwrap();
        for max_steps in 0..=full.steps + 1 {
            both(
                src,
                doc,
                Budget {
                    max_steps,
                    ..Budget::default()
                },
            );
        }
        for max_items in 0..=full.items + 1 {
            both(
                src,
                doc,
                Budget {
                    max_items,
                    ..Budget::default()
                },
            );
        }
    }

    fn run(src: &str, doc: &str) -> Vec<Tree> {
        let plan = compile_query(&parse_query(src).unwrap());
        exec_query(&plan, &parse_tree(doc).unwrap()).unwrap()
    }

    #[test]
    fn budget_sweeps_cross_every_rewritten_path() {
        let doc = "<r><a><b/><k/></a><b><a/></b><a><b><b/></b></a><k/></r>";
        for src in [
            // A child-axis name test under `where`.
            "for $x in $root/* where $x/b return <w>{ $x/b }</w>",
            // A descendant-or-self step.
            "<d>{ $root/a/descendant-or-self::b }</d>",
            "for $x in $root/descendant-or-self::* return $x/self::a",
            // Concat of two non-empty lists.
            "($root/a, $root//b)",
            // Quantifiers over an empty list.
            "if (some $x in $root/zzz satisfies $x = $x) then <s/>",
            "if (every $x in $root/zzz satisfies $x =atomic <q/>) then <e/>",
            // A constant comparison under `=deep`.
            "for $x in $root//a return if ($x =deep <a/>) then <leaf/>",
        ] {
            sweep_budgets(src, doc);
        }
    }

    #[test]
    fn deep_constant_comparison_checks_the_whole_tree() {
        let q = "for $x in $root/a return if ($x =deep <a/>) then <hit/>";
        assert!(run(q, "<r><a><b/></a></r>").is_empty());
        assert_eq!(run(q, "<r><a/></r>"), [Tree::leaf("hit")]);
        assert!(run(q, "<r><c/></r>").is_empty());
        let atomic = "for $x in $root/a return if ($x =atomic <a/>) then <hit/>";
        assert_eq!(run(atomic, "<r><a><b/></a></r>"), [Tree::leaf("hit")]);
    }

    #[test]
    fn recycle_keeps_the_walk_stacks_allocation() {
        let t = Tree::leaf("a");
        let mut walk = Vec::with_capacity(16);
        walk.push(t.children().iter());
        let walk: Vec<Iter<'static, Tree>> = recycle(walk);
        assert!(walk.is_empty());
        assert!(walk.capacity() >= 16);
    }

    #[test]
    fn unbound_and_mon_errors_match() {
        both("$nope", "<a/>", Budget::default());
        both("if ($nope = $root) then <x/>", "<a/>", Budget::default());
        // `=mon` has no surface syntax; build the AST directly.
        use crate::ast::{Cond, EqMode, Query};
        let q = Query::if_then(
            Cond::VarEq("root".into(), "root".into(), EqMode::Mon),
            Query::leaf("x"),
        );
        let env = Env::with_root(parse_tree("<a/>").unwrap());
        let want = eval_with(&q, &env, Budget::default()).unwrap_err();
        let got = exec_with(&compile_query(&q), &env, Budget::default()).unwrap_err();
        assert_eq!(got, want);
        assert_eq!(got, XqError::BadEqualityMode);
    }
}
