//! Lowering from the AST to `sofi_isa::Asm`.
//!
//! # Calling convention
//!
//! * `r0` is hardwired zero; `r13` is the frame pointer, `r14` (`sp`) the
//!   stack pointer, `r15` (`ra`) the link register.
//! * `r1`–`r4` are the expression window (caller-saved); `r5`–`r12` are a
//!   callee-saved pool for the most-used scalar locals. Under a hardening
//!   mode the pool shrinks to `r5`–`r9` so `r10`–`r12` stay free as
//!   mechanism scratch registers.
//! * The caller evaluates arguments left to right and pushes each on the
//!   stack (so argument `i` of `n` sits at `fp + 8 + 4*(n-1-i)` in the
//!   callee), then `jal`s and pops the arguments on return. Results come
//!   back in `r1`.
//! * Frame layout, descending from `fp`: saved `ra` at `fp+4`, caller's
//!   `fp` at `fp+0`, saved pool registers at `fp-4(j+1)`, then spill
//!   slots and local arrays.
//!
//! # Expression evaluation
//!
//! Expressions evaluate on a virtual value stack mapped onto the rotating
//! window `r1`–`r4`: the value at stack depth `d` lives in `r{1 + d%4}`.
//! Pushing a fifth value spills the register's previous occupant to the
//! machine stack; popping back below refills it. This keeps typical
//! expressions entirely in registers while making arbitrarily deep
//! expressions (the fuzz battery's speciality) correct, and it gives
//! compiled code the live-in-RAM data lifetimes that make fault-injection
//! comparisons interesting.
//!
//! # Hardening
//!
//! With [`Options::harden`] set, every *scalar global* is declared through
//! the corresponding `sofi-harden` word mechanism and every access is
//! routed through its checked load/store emitters. Arrays stay plain —
//! the word mechanisms protect single words — so hardened compiled
//! workloads mirror the hand-written benchmark pairs: protected state
//! variables over unprotected bulk data.

use crate::ast::*;
use crate::lex::{LangError, Span};
use sofi_harden::{HashDmrWord, ProtectedWord, Shield, TmrWord};
use sofi_isa::{Asm, DataLabel, Label, Program, Reg, MAX_RAM_BYTES};
use std::collections::HashMap;

/// Which word-protection mechanism to apply to scalar globals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Harden {
    /// Checksummed duplication (`sofi_harden::ProtectedWord`).
    SumDmr,
    /// Hash-compressed duplication (`sofi_harden::HashDmrWord`).
    HashDmr,
    /// Triple modular redundancy (`sofi_harden::TmrWord`).
    Tmr,
    /// The uniform-access wrapper in its protected configuration
    /// (`sofi_harden::Shield`).
    Shield,
}

impl Harden {
    /// All mechanisms, for test sweeps.
    pub const ALL: [Harden; 4] = [Harden::SumDmr, Harden::HashDmr, Harden::Tmr, Harden::Shield];

    /// Short name used in program names and reports.
    pub fn name(self) -> &'static str {
        match self {
            Harden::SumDmr => "sumdmr",
            Harden::HashDmr => "hashdmr",
            Harden::Tmr => "tmr",
            Harden::Shield => "shield",
        }
    }
}

/// Compilation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Protect scalar globals with this mechanism.
    pub harden: Option<Harden>,
    /// Bytes of RAM reserved for the call stack (top of RAM). Must be a
    /// multiple of 4.
    pub stack_bytes: u32,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            harden: None,
            stack_bytes: 512,
        }
    }
}

/// Compiles source text with default options.
pub fn compile(name: &str, src: &str) -> Result<Program, LangError> {
    compile_with(name, src, &Options::default())
}

/// Compiles source text with explicit options.
pub fn compile_with(name: &str, src: &str, opts: &Options) -> Result<Program, LangError> {
    let module = crate::parse::parse(src)?;
    compile_module(name, &module, opts)
}

/// Compiles an already-parsed module.
pub fn compile_module(name: &str, module: &Module, opts: &Options) -> Result<Program, LangError> {
    Cg::new(name, module, opts)?.run()
}

/// The expression window registers, in rotation order.
const SCRATCH: [Reg; 4] = [Reg::R1, Reg::R2, Reg::R3, Reg::R4];
/// The frame pointer.
const FP: Reg = Reg::R13;
/// Mechanism scratch registers (reserved only under hardening).
const MS1: Reg = Reg::R10;
const MS2: Reg = Reg::R11;
const MS3: Reg = Reg::R12;

/// Where a scalar global lives.
enum GlobalHome {
    Plain(DataLabel),
    Sum(ProtectedWord),
    Hash(HashDmrWord),
    Tmr(TmrWord),
    Shield(Shield),
}

impl GlobalHome {
    fn emit_load(&self, a: &mut Asm, dst: Reg) {
        match self {
            GlobalHome::Plain(l) => {
                a.lw(dst, Reg::R0, l.offset());
            }
            GlobalHome::Sum(w) => w.emit_load(a, dst, MS1, MS2),
            GlobalHome::Hash(w) => w.emit_load(a, dst, MS1, MS2, MS3),
            GlobalHome::Tmr(w) => w.emit_load(a, dst, MS1, MS2),
            GlobalHome::Shield(w) => w.emit_load(a, dst, MS1, MS2),
        }
    }

    fn emit_store(&self, a: &mut Asm, src: Reg) {
        match self {
            GlobalHome::Plain(l) => {
                a.sw(src, Reg::R0, l.offset());
            }
            GlobalHome::Sum(w) => w.emit_store(a, src, MS1),
            GlobalHome::Hash(w) => w.emit_store(a, src, MS1, MS2),
            GlobalHome::Tmr(w) => w.emit_store(a, src),
            GlobalHome::Shield(w) => w.emit_store(a, src, MS1),
        }
    }
}

/// A global slot: protected scalar or plain array.
enum GSlot {
    Scalar(GlobalHome),
    Array { label: DataLabel, elem: Elem },
}

/// Where a local lives within a function.
#[derive(Debug, Clone, Copy)]
enum Home {
    /// A callee-saved pool register.
    Reg(Reg),
    /// `fp + offset` (negative) spill slot or array base.
    Frame(i16),
    /// Parameter still in its caller-pushed slot at `fp + offset`.
    ArgSlot(i16),
}

/// One local variable discovered by the pre-pass.
struct LocalDecl {
    ty: Ty,
    home: Home,
}

struct FnInfo {
    label: Label,
    nparams: usize,
}

/// Per-function scope walker. The pre-pass and the emission pass both
/// walk the function body in the exact same order, so locals get
/// identical ids in both; the emission pass then looks homes up by id.
struct Scopes {
    map: Vec<HashMap<String, usize>>,
    next_id: usize,
}

impl Scopes {
    fn new() -> Scopes {
        Scopes {
            map: vec![HashMap::new()],
            next_id: 0,
        }
    }

    fn push(&mut self) {
        self.map.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.map.pop();
    }

    fn declare(&mut self, name: &str) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.map.last_mut().unwrap().insert(name.to_owned(), id);
        id
    }

    fn lookup(&self, name: &str) -> Option<usize> {
        self.map.iter().rev().find_map(|s| s.get(name)).copied()
    }
}

struct Cg<'m> {
    a: Asm,
    module: &'m Module,
    opts: Options,
    globals: HashMap<String, GSlot>,
    funcs: HashMap<String, FnInfo>,
    // Per-function state.
    locals: Vec<LocalDecl>,
    scopes: Scopes,
    depth: usize,
    epilogue: Label,
    /// (continue target, break target) for each enclosing loop.
    loops: Vec<(Label, Label)>,
}

impl<'m> Cg<'m> {
    fn new(name: &str, module: &'m Module, opts: &Options) -> Result<Cg<'m>, LangError> {
        if opts.stack_bytes == 0
            || !opts.stack_bytes.is_multiple_of(4)
            || opts.stack_bytes > MAX_RAM_BYTES
        {
            return Err(LangError::new(
                Span::SYNTH,
                format!("stack_bytes must be a positive multiple of 4 up to {MAX_RAM_BYTES}"),
            ));
        }
        let mut a = Asm::with_name(name);
        // Placeholder; replaced at the start of every function body.
        let epilogue = a.new_label();
        Ok(Cg {
            a,
            module,
            opts: *opts,
            globals: HashMap::new(),
            funcs: HashMap::new(),
            locals: Vec::new(),
            scopes: Scopes::new(),
            depth: 0,
            epilogue,
            loops: Vec::new(),
        })
    }

    fn run(mut self) -> Result<Program, LangError> {
        // Globals, in declaration order.
        for g in &self.module.globals {
            if self.globals.contains_key(&g.name) {
                return Err(LangError::new(
                    g.span,
                    format!("duplicate global `{}`", g.name),
                ));
            }
            let slot = match g.ty {
                Ty::Int => {
                    let home = match self.opts.harden {
                        None => GlobalHome::Plain(self.a.data_word(&g.name, g.init)),
                        Some(Harden::SumDmr) => {
                            GlobalHome::Sum(ProtectedWord::declare(&mut self.a, &g.name, g.init))
                        }
                        Some(Harden::HashDmr) => {
                            GlobalHome::Hash(HashDmrWord::declare(&mut self.a, &g.name, g.init))
                        }
                        Some(Harden::Tmr) => {
                            GlobalHome::Tmr(TmrWord::declare(&mut self.a, &g.name, g.init))
                        }
                        Some(Harden::Shield) => {
                            GlobalHome::Shield(Shield::declare(&mut self.a, &g.name, g.init, true))
                        }
                    };
                    GSlot::Scalar(home)
                }
                Ty::Array(elem, len) => {
                    let bytes = elem.size() * len;
                    let label = match (&g.array_init, elem) {
                        (ArrayInit::Zero, _) => {
                            self.a.data_align(elem.size());
                            self.a.data_space(&g.name, bytes)
                        }
                        (ArrayInit::Str(s), Elem::Byte) => {
                            let mut b = s.clone();
                            b.resize(len as usize, 0);
                            self.a.data_bytes(&g.name, &b)
                        }
                        (ArrayInit::Str(_), Elem::Int) => {
                            return Err(LangError::new(
                                g.span,
                                "string initializer on an int array",
                            ));
                        }
                        (ArrayInit::List(vals), Elem::Byte) => {
                            let mut b: Vec<u8> = vals.iter().map(|&v| v as u8).collect();
                            b.resize(len as usize, 0);
                            self.a.data_bytes(&g.name, &b)
                        }
                        (ArrayInit::List(vals), Elem::Int) => {
                            let mut w = vals.clone();
                            w.resize(len as usize, 0);
                            self.a.data_words(&g.name, &w)
                        }
                    };
                    GSlot::Array { label, elem }
                }
            };
            self.globals.insert(g.name.clone(), slot);
        }

        // The stack occupies the top of RAM, declared as data so the RAM
        // size (and thus the fault-space extent) includes it.
        self.a.data_align(4);
        let stack = self.a.data_space("__stack", self.opts.stack_bytes);
        let sp_init = stack.addr() + self.opts.stack_bytes;

        // Function labels up front so calls can be emitted in any order.
        for f in &self.module.funcs {
            if self.funcs.contains_key(&f.name) {
                return Err(LangError::new(
                    f.span,
                    format!("duplicate function `{}`", f.name),
                ));
            }
            if self.globals.contains_key(&f.name) {
                return Err(LangError::new(
                    f.span,
                    format!("`{}` is both a global and a function", f.name),
                ));
            }
            let label = self.a.new_named_label(&f.name);
            self.funcs.insert(
                f.name.clone(),
                FnInfo {
                    label,
                    nparams: f.params.len(),
                },
            );
        }
        let main = self
            .funcs
            .get("main")
            .ok_or_else(|| LangError::new(Span::SYNTH, "no `main` function"))?;
        if main.nparams != 0 {
            let f = self.module.funcs.iter().find(|f| f.name == "main").unwrap();
            return Err(LangError::new(f.span, "`main` must take no parameters"));
        }
        let main_label = main.label;

        // Entry stub.
        self.a.li(Reg::SP, sp_init as i32);
        self.a.call(main_label);
        self.a.halt(0);

        for f in &self.module.funcs {
            self.emit_func(f)?;
        }

        self.a
            .build()
            .map_err(|e| LangError::new(Span::SYNTH, format!("assembly failed: {e}")))
    }

    // ----- per-function ---------------------------------------------------

    /// The callee-saved pool available to locals.
    fn pool(&self) -> &'static [Reg] {
        if self.opts.harden.is_some() {
            &[Reg::R5, Reg::R6, Reg::R7, Reg::R8, Reg::R9]
        } else {
            &[
                Reg::R5,
                Reg::R6,
                Reg::R7,
                Reg::R8,
                Reg::R9,
                Reg::R10,
                Reg::R11,
                Reg::R12,
            ]
        }
    }

    fn emit_func(&mut self, f: &'m Func) -> Result<(), LangError> {
        // Pre-pass: discover locals and use counts.
        let mut pre = PrePass {
            scopes: Scopes::new(),
            locals: Vec::new(),
            funcs: &self.funcs,
            globals: &self.globals,
            hidden: 0,
        };
        for p in &f.params {
            if pre.scopes.lookup(p).is_some() {
                return Err(LangError::new(f.span, format!("duplicate parameter `{p}`")));
            }
            pre.scopes.declare(p);
            pre.locals.push((Ty::Int, 1));
        }
        pre.block(&f.body)?;
        let counts = pre.locals;

        // Assign homes: most-used scalars get pool registers.
        let pool = self.pool();
        let mut order: Vec<usize> = (0..counts.len())
            .filter(|&i| counts[i].0 == Ty::Int)
            .collect();
        order.sort_by_key(|&i| std::cmp::Reverse(counts[i].1));
        let in_pool: Vec<usize> = order.into_iter().take(pool.len()).collect();

        let nparams = f.params.len();
        let nsave = in_pool.len();
        let mut cursor: i32 = -(4 * nsave as i32);
        let mut locals = Vec::with_capacity(counts.len());
        for (id, (ty, _uses)) in counts.iter().enumerate() {
            let home = if let Some(j) = in_pool.iter().position(|&p| p == id) {
                Home::Reg(pool[j])
            } else if *ty == Ty::Int && id < nparams {
                Home::ArgSlot(arg_offset(nparams, id))
            } else {
                let bytes = match ty {
                    Ty::Int => 4,
                    Ty::Array(elem, len) => (elem.size() * len + 3) & !3,
                };
                cursor -= bytes as i32;
                Home::Frame(frame_offset(cursor, f.span)?)
            };
            locals.push(LocalDecl { ty: *ty, home });
        }
        let frame_below = (-cursor) as u32;

        // Prologue.
        let info = &self.funcs[&f.name];
        let label = info.label;
        self.a.bind(label);
        self.a.addi(Reg::SP, Reg::SP, -8);
        self.a.sw(Reg::RA, Reg::SP, 4);
        self.a.sw(FP, Reg::SP, 0);
        self.a.mv(FP, Reg::SP);
        if frame_below > 0 {
            let down = i16::try_from(-(frame_below as i64))
                .map_err(|_| LangError::new(f.span, "frame exceeds 32 KiB"))?;
            self.a.addi(Reg::SP, Reg::SP, down);
        }
        for (j, &id) in in_pool.iter().enumerate() {
            let _ = id;
            self.a.sw(pool[j], FP, -4 * (j as i16 + 1));
        }
        // Copy pool-allocated parameters out of their argument slots.
        for (id, l) in locals.iter().enumerate().take(nparams) {
            if let Home::Reg(r) = l.home {
                self.a.lw(r, FP, arg_offset(nparams, id));
            }
        }

        // Body.
        self.locals = locals;
        self.scopes = Scopes::new();
        for p in &f.params {
            self.scopes.declare(p);
        }
        self.depth = 0;
        self.epilogue = self.a.new_named_label(format!("{}__ret", f.name));
        self.loops.clear();
        let mut hidden = 0usize;
        self.emit_block(&f.body, &mut hidden)?;
        debug_assert_eq!(self.depth, 0);

        // Implicit `return 0` falling off the end.
        self.a.li(Reg::R1, 0);

        // Epilogue.
        let epilogue = self.epilogue;
        self.a.bind(epilogue);
        for (j, &id) in in_pool.iter().enumerate() {
            let _ = id;
            self.a.lw(pool[j], FP, -4 * (j as i16 + 1));
        }
        self.a.mv(Reg::SP, FP);
        self.a.lw(FP, Reg::SP, 0);
        self.a.lw(Reg::RA, Reg::SP, 4);
        self.a.addi(Reg::SP, Reg::SP, 8);
        self.a.ret();
        Ok(())
    }

    // ----- statements -----------------------------------------------------

    fn emit_block(&mut self, stmts: &'m [Stmt], hidden: &mut usize) -> Result<(), LangError> {
        self.scopes.push();
        for s in stmts {
            self.emit_stmt(s, hidden)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn emit_stmt(&mut self, s: &'m Stmt, hidden: &mut usize) -> Result<(), LangError> {
        debug_assert_eq!(self.depth, 0);
        match s {
            Stmt::Let { name, ty, init, .. } => {
                match ty {
                    Ty::Int => {
                        match init {
                            Some(e) => self.emit_expr(e)?,
                            None => {
                                let r = self.begin_push();
                                self.a.li(r, 0);
                            }
                        };
                        // Declared *after* the initializer, which sees the
                        // outer binding of the same name.
                        let id = self.scopes.declare(name);
                        let r = self.top_reg();
                        self.store_local(id, r);
                        self.end_pop();
                    }
                    Ty::Array(..) => {
                        let id = self.scopes.declare(name);
                        self.zero_array(id);
                    }
                }
                Ok(())
            }
            Stmt::Assign { name, value, span } => {
                self.emit_expr(value)?;
                let r = self.top_reg();
                if let Some(id) = self.scopes.lookup(name) {
                    if self.locals[id].ty != Ty::Int {
                        return Err(LangError::new(
                            *span,
                            format!("`{name}` is an array; assign elements"),
                        ));
                    }
                    self.store_local(id, r);
                } else {
                    match self.globals.get(name) {
                        Some(GSlot::Scalar(_)) => {
                            let GSlot::Scalar(home) = &self.globals[name] else {
                                unreachable!()
                            };
                            home.emit_store(&mut self.a, r);
                        }
                        Some(GSlot::Array { .. }) => {
                            return Err(LangError::new(
                                *span,
                                format!("`{name}` is an array; assign elements"),
                            ));
                        }
                        None => {
                            return Err(LangError::new(
                                *span,
                                format!("unknown variable `{name}`"),
                            ));
                        }
                    }
                }
                self.end_pop();
                Ok(())
            }
            Stmt::Store {
                name,
                index,
                value,
                span,
            } => {
                // Address first, value second, so the store needs no third
                // live register.
                self.emit_expr(index)?;
                let addr = self.top_reg();
                let elem = self.emit_elem_addr(name, addr, *span)?;
                self.emit_expr(value)?;
                let v = self.top_reg();
                match elem {
                    Elem::Byte => self.a.sb(v, addr, 0),
                    Elem::Int => self.a.sw(v, addr, 0),
                };
                self.end_pop();
                self.end_pop();
                Ok(())
            }
            Stmt::If { cond, then, els } => {
                self.emit_expr(cond)?;
                let c = self.top_reg();
                self.end_pop();
                let l_else = self.a.new_label();
                self.a.beq(c, Reg::R0, l_else);
                self.emit_block(then, hidden)?;
                if els.is_empty() {
                    self.a.bind(l_else);
                } else {
                    let l_end = self.a.new_label();
                    self.a.j(l_end);
                    self.a.bind(l_else);
                    self.emit_block(els, hidden)?;
                    self.a.bind(l_end);
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                let l_head = self.a.new_label();
                let l_exit = self.a.new_label();
                self.a.bind(l_head);
                self.emit_expr(cond)?;
                let c = self.top_reg();
                self.end_pop();
                self.a.beq(c, Reg::R0, l_exit);
                self.loops.push((l_head, l_exit));
                self.emit_block(body, hidden)?;
                self.loops.pop();
                self.a.j(l_head);
                self.a.bind(l_exit);
                Ok(())
            }
            Stmt::For {
                var, lo, hi, body, ..
            } => {
                // Both bounds evaluate once, in the enclosing scope (so a
                // bound may reference an outer binding of the loop-variable
                // name); the limit lives in a hidden local so the loop
                // variable is an ordinary (assignable) local.
                self.emit_expr(lo)?;
                self.emit_expr(hi)?;
                self.scopes.push();
                let var_id = self.scopes.declare(var);
                let limit_name = format!("$for{}", *hidden);
                *hidden += 1;
                let limit_id = self.scopes.declare(&limit_name);
                let hi_r = self.top_reg();
                self.store_local(limit_id, hi_r);
                self.end_pop();
                let lo_r = self.top_reg();
                self.store_local(var_id, lo_r);
                self.end_pop();

                let l_head = self.a.new_label();
                let l_cont = self.a.new_label();
                let l_exit = self.a.new_label();
                self.a.bind(l_head);
                let vr = self.load_local_push(var_id);
                let lr = self.load_local_push(limit_id);
                self.a.bge(vr, lr, l_exit);
                self.end_pop();
                self.end_pop();
                self.loops.push((l_cont, l_exit));
                self.emit_block(body, hidden)?;
                self.loops.pop();
                self.a.bind(l_cont);
                let vr = self.load_local_push(var_id);
                self.a.addi(vr, vr, 1);
                self.store_local(var_id, vr);
                self.end_pop();
                self.a.j(l_head);
                self.a.bind(l_exit);
                self.scopes.pop();
                Ok(())
            }
            Stmt::Return { value, .. } => {
                match value {
                    Some(e) => {
                        self.emit_expr(e)?;
                        debug_assert_eq!(self.top_reg(), Reg::R1);
                        self.end_pop();
                    }
                    None => {
                        self.a.li(Reg::R1, 0);
                    }
                }
                let epi = self.epilogue;
                self.a.j(epi);
                Ok(())
            }
            Stmt::Break(span) => {
                let &(_, l_exit) = self
                    .loops
                    .last()
                    .ok_or_else(|| LangError::new(*span, "`break` outside a loop"))?;
                self.a.j(l_exit);
                Ok(())
            }
            Stmt::Continue(span) => {
                let &(l_cont, _) = self
                    .loops
                    .last()
                    .ok_or_else(|| LangError::new(*span, "`continue` outside a loop"))?;
                self.a.j(l_cont);
                Ok(())
            }
            Stmt::Out(e, _) => {
                self.emit_expr(e)?;
                let r = self.top_reg();
                self.a.serial_out(r);
                self.end_pop();
                Ok(())
            }
            Stmt::Halt(code, _) => {
                self.a.halt(*code);
                Ok(())
            }
            Stmt::Expr(e) => {
                self.emit_expr(e)?;
                self.end_pop();
                Ok(())
            }
        }
    }

    /// Zero-fills a local array's frame slot.
    fn zero_array(&mut self, id: usize) {
        let Home::Frame(off) = self.locals[id].home else {
            unreachable!("arrays always live in the frame");
        };
        let Ty::Array(elem, len) = self.locals[id].ty else {
            unreachable!()
        };
        let bytes = (elem.size() * len + 3) & !3;
        if bytes <= 32 {
            for k in (0..bytes).step_by(4) {
                self.a.sw(Reg::R0, FP, off + k as i16);
            }
        } else {
            let p = self.begin_push();
            self.a.addi(p, FP, off);
            let end = self.begin_push();
            self.a.addi(end, FP, off + bytes as i16);
            let l = self.a.new_label();
            self.a.bind(l);
            self.a.sw(Reg::R0, p, 0);
            self.a.addi(p, p, 4);
            self.a.bne(p, end, l);
            self.end_pop();
            self.end_pop();
        }
    }

    // ----- expressions ----------------------------------------------------

    fn emit_expr(&mut self, e: &'m Expr) -> Result<(), LangError> {
        match e {
            Expr::Lit(v, _) => {
                let r = self.begin_push();
                self.a.li(r, *v as i32);
                Ok(())
            }
            Expr::Var(name, span) => {
                if let Some(id) = self.scopes.lookup(name) {
                    if self.locals[id].ty != Ty::Int {
                        return Err(LangError::new(
                            *span,
                            format!("`{name}` is an array, not a scalar"),
                        ));
                    }
                    self.load_local_push(id);
                    return Ok(());
                }
                match self.globals.get(name) {
                    Some(GSlot::Scalar(_)) => {
                        let r = self.begin_push();
                        let GSlot::Scalar(home) = &self.globals[name] else {
                            unreachable!()
                        };
                        home.emit_load(&mut self.a, r);
                        Ok(())
                    }
                    Some(GSlot::Array { .. }) => Err(LangError::new(
                        *span,
                        format!("`{name}` is an array, not a scalar"),
                    )),
                    None => Err(LangError::new(*span, format!("unknown variable `{name}`"))),
                }
            }
            Expr::Index { name, index, span } => {
                self.emit_expr(index)?;
                let r = self.top_reg();
                let elem = self.emit_elem_addr(name, r, *span)?;
                match elem {
                    Elem::Byte => self.a.lbu(r, r, 0),
                    Elem::Int => self.a.lw(r, r, 0),
                };
                Ok(())
            }
            Expr::Un { op, operand, .. } => {
                self.emit_expr(operand)?;
                let r = self.top_reg();
                match op {
                    UnOp::Neg => {
                        self.a.sub(r, Reg::R0, r);
                    }
                    UnOp::Not => {
                        self.a.sltu(r, Reg::R0, r);
                        self.a.xori(r, r, 1);
                    }
                    UnOp::BitNot => {
                        // `xori` zero-extends its immediate, so build -1 in
                        // the next window register instead.
                        let m = self.begin_push();
                        self.a.addi(m, Reg::R0, -1);
                        self.a.xor(r, r, m);
                        self.end_pop();
                    }
                }
                Ok(())
            }
            Expr::Bin { op, lhs, rhs, .. } => self.emit_bin(*op, lhs, rhs),
            Expr::Call { name, args, span } => self.emit_call(name, args, *span),
        }
    }

    fn emit_bin(&mut self, op: BinOp, lhs: &'m Expr, rhs: &'m Expr) -> Result<(), LangError> {
        // Short-circuit forms branch around the right-hand side.
        if op == BinOp::LogAnd || op == BinOp::LogOr {
            self.emit_expr(lhs)?;
            let ra = self.top_reg();
            self.a.sltu(ra, Reg::R0, ra); // normalize to 0/1
            let l_end = self.a.new_label();
            match op {
                BinOp::LogAnd => self.a.beq(ra, Reg::R0, l_end),
                _ => self.a.bne(ra, Reg::R0, l_end),
            };
            self.emit_expr(rhs)?;
            let rb = self.top_reg();
            self.a.sltu(rb, Reg::R0, rb);
            self.a.mv(ra, rb);
            // Spill bookkeeping stays on the fall-through path, matching
            // the pushes emitted while evaluating `rhs`.
            self.end_pop();
            self.a.bind(l_end);
            return Ok(());
        }

        self.emit_expr(lhs)?;
        self.emit_expr(rhs)?;
        let rb = self.top_reg();
        let ra = SCRATCH[(self.depth - 2) % 4];
        match op {
            BinOp::Add => self.a.add(ra, ra, rb),
            BinOp::Sub => self.a.sub(ra, ra, rb),
            BinOp::Mul => self.a.mul(ra, ra, rb),
            BinOp::And => self.a.and(ra, ra, rb),
            BinOp::Or => self.a.or(ra, ra, rb),
            BinOp::Xor => self.a.xor(ra, ra, rb),
            BinOp::Shl => self.a.sll(ra, ra, rb),
            BinOp::Sar => self.a.sra(ra, ra, rb),
            BinOp::Shr => self.a.srl(ra, ra, rb),
            BinOp::Lt => self.a.slt(ra, ra, rb),
            BinOp::Gt => self.a.slt(ra, rb, ra),
            BinOp::Le => self.a.slt(ra, rb, ra).xori(ra, ra, 1),
            BinOp::Ge => self.a.slt(ra, ra, rb).xori(ra, ra, 1),
            BinOp::Eq => self.a.xor(ra, ra, rb).sltu(ra, Reg::R0, ra).xori(ra, ra, 1),
            BinOp::Ne => self.a.xor(ra, ra, rb).sltu(ra, Reg::R0, ra),
            BinOp::LogAnd | BinOp::LogOr => unreachable!(),
        };
        self.end_pop();
        Ok(())
    }

    fn emit_call(&mut self, name: &str, args: &'m [Expr], span: Span) -> Result<(), LangError> {
        let info = self
            .funcs
            .get(name)
            .ok_or_else(|| LangError::new(span, format!("unknown function `{name}`")))?;
        if info.nparams != args.len() {
            return Err(LangError::new(
                span,
                format!(
                    "`{name}` expects {} arguments, got {}",
                    info.nparams,
                    args.len()
                ),
            ));
        }
        let target = info.label;
        let d = self.depth;
        let live = d.min(4);

        // Save the live window (deepest first, so value d-1 ends on top).
        for v in (d - live)..d {
            self.a.addi(Reg::SP, Reg::SP, -4);
            self.a.sw(SCRATCH[v % 4], Reg::SP, 0);
        }

        // Evaluate and push arguments left to right, each in a fresh
        // window.
        let saved_depth = self.depth;
        self.depth = 0;
        for arg in args {
            self.emit_expr(arg)?;
            debug_assert_eq!(self.top_reg(), Reg::R1);
            self.a.addi(Reg::SP, Reg::SP, -4);
            self.a.sw(Reg::R1, Reg::SP, 0);
            self.depth = 0;
        }
        self.depth = saved_depth;

        self.a.call(target);
        if !args.is_empty() {
            self.a.addi(Reg::SP, Reg::SP, 4 * args.len() as i16);
        }

        // Result into this value's window register, then restore the
        // shallower live values (value d-4, if any, stays spilled — that
        // is exactly the invariant for depth d+1).
        let dst = SCRATCH[d % 4];
        if dst != Reg::R1 {
            self.a.mv(dst, Reg::R1);
        }
        let reload = d.min(3);
        for k in 1..=reload {
            self.a.lw(SCRATCH[(d - k) % 4], Reg::SP, 4 * (k as i16 - 1));
        }
        if reload > 0 {
            self.a.addi(Reg::SP, Reg::SP, 4 * reload as i16);
        }
        self.depth = d + 1;
        Ok(())
    }

    /// Computes the byte address of `name[index]` in place: `r` holds the
    /// index on entry and the element address on exit. Returns the element
    /// kind.
    fn emit_elem_addr(&mut self, name: &str, r: Reg, span: Span) -> Result<Elem, LangError> {
        if let Some(id) = self.scopes.lookup(name) {
            let Ty::Array(elem, _) = self.locals[id].ty else {
                return Err(LangError::new(span, format!("`{name}` is not an array")));
            };
            let Home::Frame(off) = self.locals[id].home else {
                unreachable!()
            };
            if elem == Elem::Int {
                self.a.slli(r, r, 2);
            }
            self.a.add(r, r, FP);
            self.a.addi(r, r, off);
            return Ok(elem);
        }
        match self.globals.get(name) {
            Some(GSlot::Array { label, elem, .. }) => {
                if *elem == Elem::Int {
                    self.a.slli(r, r, 2);
                }
                self.a.addi(r, r, label.offset());
                Ok(*elem)
            }
            Some(GSlot::Scalar(_)) => {
                Err(LangError::new(span, format!("`{name}` is not an array")))
            }
            None => Err(LangError::new(span, format!("unknown array `{name}`"))),
        }
    }

    // ----- the rotating expression window ---------------------------------

    fn top_reg(&self) -> Reg {
        SCRATCH[(self.depth - 1) % 4]
    }

    /// Allocates the register for a new value at the current depth,
    /// spilling its previous occupant (value `depth-4`) if the window is
    /// full. Increments depth.
    fn begin_push(&mut self) -> Reg {
        let r = SCRATCH[self.depth % 4];
        if self.depth >= 4 {
            self.a.addi(Reg::SP, Reg::SP, -4);
            self.a.sw(r, Reg::SP, 0);
        }
        self.depth += 1;
        r
    }

    /// Pops the top value; if a spilled value now re-enters the window,
    /// refills its register from the stack.
    fn end_pop(&mut self) {
        self.depth -= 1;
        if self.depth >= 4 {
            let r = SCRATCH[self.depth % 4];
            self.a.lw(r, Reg::SP, 0);
            self.a.addi(Reg::SP, Reg::SP, 4);
        }
    }

    /// Pushes the value of scalar local `id` onto the window.
    fn load_local_push(&mut self, id: usize) -> Reg {
        let r = self.begin_push();
        match self.locals[id].home {
            Home::Reg(h) => {
                self.a.mv(r, h);
            }
            Home::Frame(off) | Home::ArgSlot(off) => {
                self.a.lw(r, FP, off);
            }
        }
        r
    }

    /// Stores `src` into scalar local `id` (does not touch the window).
    fn store_local(&mut self, id: usize, src: Reg) {
        match self.locals[id].home {
            Home::Reg(h) => {
                self.a.mv(h, src);
            }
            Home::Frame(off) | Home::ArgSlot(off) => {
                self.a.sw(src, FP, off);
            }
        }
    }
}

/// `fp`-relative offset of argument `i` of `n` (caller-pushed, leftmost
/// deepest).
fn arg_offset(n: usize, i: usize) -> i16 {
    8 + 4 * (n as i16 - 1 - i as i16)
}

fn frame_offset(cursor: i32, span: Span) -> Result<i16, LangError> {
    i16::try_from(cursor).map_err(|_| LangError::new(span, "frame exceeds 32 KiB"))
}

/// The pre-pass: walks a function body in emission order, assigning each
/// declaration an id and counting uses, and checking name resolution so
/// emission can't fail mid-function.
struct PrePass<'m> {
    scopes: Scopes,
    locals: Vec<(Ty, u32)>,
    funcs: &'m HashMap<String, FnInfo>,
    globals: &'m HashMap<String, GSlot>,
    hidden: usize,
}

impl<'m> PrePass<'m> {
    fn declare(&mut self, name: &str, ty: Ty) -> usize {
        let id = self.scopes.declare(name);
        debug_assert_eq!(id, self.locals.len());
        self.locals.push((ty, 1));
        id
    }

    fn use_of(&mut self, name: &str, span: Span) -> Result<(), LangError> {
        if let Some(id) = self.scopes.lookup(name) {
            self.locals[id].1 += 1;
            return Ok(());
        }
        if self.globals.contains_key(name) {
            return Ok(());
        }
        Err(LangError::new(span, format!("unknown variable `{name}`")))
    }

    fn block(&mut self, stmts: &'m [Stmt]) -> Result<(), LangError> {
        self.scopes.push();
        for s in stmts {
            self.stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn stmt(&mut self, s: &'m Stmt) -> Result<(), LangError> {
        match s {
            Stmt::Let { name, ty, init, .. } => {
                if let Some(e) = init {
                    self.expr(e)?;
                }
                self.declare(name, *ty);
                Ok(())
            }
            Stmt::Assign { name, value, span } => {
                self.expr(value)?;
                self.use_of(name, *span)
            }
            Stmt::Store {
                name,
                index,
                value,
                span,
            } => {
                self.expr(index)?;
                self.use_of(name, *span)?;
                self.expr(value)
            }
            Stmt::If { cond, then, els } => {
                self.expr(cond)?;
                self.block(then)?;
                self.block(els)
            }
            Stmt::While { cond, body } => {
                self.expr(cond)?;
                self.block(body)
            }
            Stmt::For {
                var, lo, hi, body, ..
            } => {
                self.expr(lo)?;
                self.expr(hi)?;
                self.scopes.push();
                let var_id = self.declare(var, Ty::Int);
                let limit_name = format!("$for{}", self.hidden);
                self.hidden += 1;
                let limit_id = self.declare(&limit_name, Ty::Int);
                // Head + increment touch both every iteration; weight them
                // like loop-carried uses so they win pool registers.
                self.locals[var_id].1 += 8;
                self.locals[limit_id].1 += 8;
                self.block(body)?;
                self.scopes.pop();
                Ok(())
            }
            Stmt::Return { value, .. } => {
                if let Some(e) = value {
                    self.expr(e)?;
                }
                Ok(())
            }
            Stmt::Break(_) | Stmt::Continue(_) | Stmt::Halt(..) => Ok(()),
            Stmt::Out(e, _) => self.expr(e),
            Stmt::Expr(e) => self.expr(e),
        }
    }

    fn expr(&mut self, e: &'m Expr) -> Result<(), LangError> {
        match e {
            Expr::Lit(..) => Ok(()),
            Expr::Var(name, span) => self.use_of(name, *span),
            Expr::Index { name, index, span } => {
                self.use_of(name, *span)?;
                self.expr(index)
            }
            Expr::Un { operand, .. } => self.expr(operand),
            Expr::Bin { lhs, rhs, .. } => {
                self.expr(lhs)?;
                self.expr(rhs)
            }
            Expr::Call { name, args, span } => {
                if !self.funcs.contains_key(name) {
                    return Err(LangError::new(*span, format!("unknown function `{name}`")));
                }
                for a in args {
                    self.expr(a)?;
                }
                Ok(())
            }
        }
    }
}
