//! Computation and storage components: ALU, register file, memories, cache.

use lss_netlist::{EventId, UserpointId};
use lss_sim::{BuildError, CompCtx, CompSpec, Component, Deps, SimError};
use lss_types::{Datum, Ty};

/// `corelib/alu.tar` — the overloaded ALU of §4.4: its ports are declared
/// `int|float` in LSS, and the *implementation family member* is selected
/// by the type the inference engine resolved, exactly as the paper
/// describes ("the BSL can specify type dependent code fragments and the
/// code generator can customize this code using the statically resolved
/// type information").
///
/// Ports: `a`, `b` (W lanes each), `res` (W lanes). Parameter `op`:
/// `"add" | "sub" | "mul"`.
pub struct Alu {
    a: usize,
    b: usize,
    res: usize,
    op: AluOp,
    /// Selected at build time from the resolved port type.
    float_impl: bool,
}

#[derive(Debug, Clone, Copy)]
enum AluOp {
    Add,
    Sub,
    Mul,
}

impl Alu {
    /// Combinational arithmetic, no state.
    pub const DEPS: Deps = Deps::STATELESS;

    /// Factory; fails on unsupported ops or port types.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        let op = match spec.str_param_or("op", "add")?.as_str() {
            "add" => AluOp::Add,
            "sub" => AluOp::Sub,
            "mul" => AluOp::Mul,
            other => {
                return Err(BuildError::new(format!(
                    "{}: unknown ALU op `{other}`",
                    spec.path
                )))
            }
        };
        let a = spec.port_index("a")?;
        let float_impl = match &spec.ports[a].ty {
            Ty::Int => false,
            Ty::Float => true,
            other => {
                return Err(BuildError::new(format!(
                    "{}: ALU overload family has no member for type {other}",
                    spec.path
                )))
            }
        };
        Ok(Box::new(Alu {
            a,
            b: spec.port_index("b")?,
            res: spec.port_index("res")?,
            op,
            float_impl,
        }))
    }

    fn eval_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        for lane in 0..ctx.width(self.res) {
            let (Some(x), Some(y)) = (ctx.input(self.a, lane), ctx.input(self.b, lane)) else {
                continue;
            };
            let result = if self.float_impl {
                let (Some(x), Some(y)) = (x.as_float(), y.as_float()) else {
                    return Err(SimError::new("float ALU received non-float data"));
                };
                Datum::Float(match self.op {
                    AluOp::Add => x + y,
                    AluOp::Sub => x - y,
                    AluOp::Mul => x * y,
                })
            } else {
                let (Some(x), Some(y)) = (x.as_int(), y.as_int()) else {
                    return Err(SimError::new("int ALU received non-int data"));
                };
                Datum::Int(match self.op {
                    AluOp::Add => x.wrapping_add(y),
                    AluOp::Sub => x.wrapping_sub(y),
                    AluOp::Mul => x.wrapping_mul(y),
                })
            };
            ctx.set_output(self.res, lane, result);
        }
        Ok(())
    }
}

impl Component for Alu {
    eval_body!();
}

/// `corelib/regfile.tar` — a polymorphic register file with a
/// use-customizable number of read and write ports (the §4.2 scalable
/// interface example).
///
/// Ports: `rd_addr` (int, R lanes), `rd_data` (data, R lanes, combinational
/// read), `wr_addr` (int, Wr lanes), `wr_data` (data, Wr lanes, written at
/// end of cycle). Parameter `nregs`.
pub struct RegFile {
    rd_addr: usize,
    rd_data: usize,
    wr_addr: usize,
    wr_data: usize,
    regs: Vec<Datum>,
}

impl RegFile {
    /// Reads are combinational; writes land at the end of the cycle.
    pub const DEPS: Deps = Deps::reading(&["rd_addr"]);

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        let nregs = spec.int_param_or("nregs", 32)?;
        if nregs <= 0 {
            return Err(BuildError::new(format!(
                "{}: nregs must be positive",
                spec.path
            )));
        }
        let rd_data = spec.port_index("rd_data")?;
        let default = Datum::default_for(&spec.ports[rd_data].ty);
        Ok(Box::new(RegFile {
            rd_addr: spec.port_index("rd_addr")?,
            rd_data,
            wr_addr: spec.port_index("wr_addr")?,
            wr_data: spec.port_index("wr_data")?,
            regs: vec![default; nregs as usize],
        }))
    }

    fn eval_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        for lane in 0..ctx.width(self.rd_data) {
            let Some(Datum::Int(addr)) = ctx.input(self.rd_addr, lane) else {
                continue;
            };
            if addr >= 0 && (addr as usize) < self.regs.len() {
                ctx.set_output(self.rd_data, lane, self.regs[addr as usize].clone());
            }
        }
        Ok(())
    }

    fn end_of_timestep_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        for lane in 0..ctx.width(self.wr_addr) {
            let (Some(Datum::Int(addr)), Some(value)) =
                (ctx.input(self.wr_addr, lane), ctx.input(self.wr_data, lane))
            else {
                continue;
            };
            if addr >= 0 && (addr as usize) < self.regs.len() {
                self.regs[addr as usize] = value;
            }
        }
        Ok(())
    }
}

impl Component for RegFile {
    eval_body!();
    end_of_timestep_body!();
}

/// `corelib/ram.tar` — a word-addressed data memory.
///
/// Ports: `addr` (int, W lanes), `wdata` (int, W lanes), `wen` (int, W
/// lanes; nonzero = write), `rdata` (int out, W lanes, combinational read).
/// Parameter `words`.
pub struct Ram {
    addr: usize,
    wdata: usize,
    wen: usize,
    rdata: usize,
    words: Vec<i64>,
}

impl Ram {
    /// Reads are combinational; writes land at the end of the cycle.
    pub const DEPS: Deps = Deps::reading(&["addr"]);

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        let words = spec.int_param_or("words", 1024)?;
        if words <= 0 {
            return Err(BuildError::new(format!(
                "{}: words must be positive",
                spec.path
            )));
        }
        Ok(Box::new(Ram {
            addr: spec.port_index("addr")?,
            wdata: spec.port_index("wdata")?,
            wen: spec.port_index("wen")?,
            rdata: spec.port_index("rdata")?,
            words: vec![0; words as usize],
        }))
    }

    fn index(&self, addr: i64) -> Option<usize> {
        let idx = addr.rem_euclid(self.words.len() as i64) as usize;
        Some(idx)
    }

    fn eval_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        for lane in 0..ctx.width(self.rdata) {
            let Some(Datum::Int(addr)) = ctx.input(self.addr, lane) else {
                continue;
            };
            if let Some(idx) = self.index(addr) {
                ctx.set_output(self.rdata, lane, Datum::Int(self.words[idx]));
            }
        }
        Ok(())
    }

    fn end_of_timestep_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        for lane in 0..ctx.width(self.addr) {
            let write = matches!(ctx.input(self.wen, lane), Some(Datum::Int(v)) if v != 0);
            if !write {
                continue;
            }
            let (Some(Datum::Int(addr)), Some(Datum::Int(value))) =
                (ctx.input(self.addr, lane), ctx.input(self.wdata, lane))
            else {
                continue;
            };
            if let Some(idx) = self.index(addr) {
                self.words[idx] = value;
            }
        }
        Ok(())
    }
}

impl Component for Ram {
    eval_body!();
    end_of_timestep_body!();
}

/// `corelib/memory.tar` — a fixed-latency backing store used as the bottom
/// of cache hierarchies: for every address request on `req` it answers the
/// access latency on `resp` the same cycle.
///
/// Parameter `lat` (cycles).
pub struct MemoryLat {
    req: usize,
    resp: usize,
    lat: i64,
}

impl MemoryLat {
    /// Answers the same cycle, no state.
    pub const DEPS: Deps = Deps::STATELESS;

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        Ok(Box::new(MemoryLat {
            req: spec.port_index("req")?,
            resp: spec.port_index("resp")?,
            lat: spec.int_param_or("lat", 100)?,
        }))
    }

    fn eval_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        for lane in 0..ctx.width(self.req) {
            if ctx.input(self.req, lane).is_some() {
                ctx.set_output(self.resp, lane, Datum::Int(self.lat));
            }
        }
        Ok(())
    }
}

impl Component for MemoryLat {
    eval_body!();
}

/// `corelib/cache.tar` — a set-associative latency-model cache.
///
/// For each address on `req[lane]` it answers the access latency on
/// `resp[lane]` the same cycle: `hit_lat` on a hit; on a miss,
/// `miss_penalty` plus the lower level's answer (`lower_req`/`lower_resp`,
/// if connected — use-based specialization decides this via the
/// `has_lower` parameter set by the corelib module body) or plus
/// `miss_lat` when the cache is the last level. Tags update at the end of
/// the cycle (LRU). Emits `hit(int)` and `miss(int)` events.
///
/// Parameters: `lines` (total), `assoc`, `block` (bytes), `hit_lat`,
/// `miss_lat`, `miss_penalty`. The replacement `policy` userpoint
/// `(setidx:int, ways:int => int)` overrides LRU victim choice.
pub struct Cache {
    req: usize,
    resp: usize,
    lower_req: usize,
    lower_resp: usize,
    has_lower: bool,
    sets: usize,
    assoc: usize,
    block: i64,
    hit_lat: i64,
    miss_lat: i64,
    miss_penalty: i64,
    /// True when the model supplied a non-empty replacement userpoint;
    /// the id itself is resolved in `init`.
    has_policy: bool,
    policy: Option<UserpointId>,
    hit_ev: Option<EventId>,
    miss_ev: Option<EventId>,
    /// tags[set][way] = (tag, lru counter).
    tags: Vec<Vec<(i64, u64)>>,
    tick: u64,
}

impl Cache {
    /// `req` drives `resp` combinationally, and `lower_resp` feeds back
    /// into `resp` as well. `lower_req` is a pure function of `req` — it
    /// never reads `lower_resp`, which is what makes the request/response
    /// pair with the next level a convergent handshake rather than a true
    /// zero-delay cycle.
    pub const DEPS: Deps = Deps {
        outputs: &[("resp", &["req", "lower_resp"]), ("lower_req", &["req"])],
        ..Deps::reading(&["req", "lower_resp"])
    };

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        let lines = spec.int_param_or("lines", 64)?.max(1);
        let assoc = spec.int_param_or("assoc", 2)?.max(1);
        let sets = (lines / assoc).max(1) as usize;
        Ok(Box::new(Cache {
            req: spec.port_index("req")?,
            resp: spec.port_index("resp")?,
            lower_req: spec.port_index("lower_req")?,
            lower_resp: spec.port_index("lower_resp")?,
            has_lower: spec.flag_param("has_lower", false)?,
            sets,
            assoc: assoc as usize,
            block: spec.int_param_or("block", 32)?.max(1),
            hit_lat: spec.int_param_or("hit_lat", 1)?,
            miss_lat: spec.int_param_or("miss_lat", 20)?,
            miss_penalty: spec.int_param_or("miss_penalty", 2)?,
            has_policy: spec
                .userpoints
                .get("policy")
                .map(|p| !p.source().trim().is_empty())
                .unwrap_or(false),
            policy: None,
            hit_ev: None,
            miss_ev: None,
            tags: vec![Vec::new(); sets],
            tick: 0,
        }))
    }

    fn set_and_tag(&self, addr: i64) -> (usize, i64) {
        let line = addr.div_euclid(self.block);
        (
            (line.rem_euclid(self.sets as i64)) as usize,
            line.div_euclid(self.sets as i64),
        )
    }

    fn lookup(&self, addr: i64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.tags[set].iter().any(|&(t, _)| t == tag)
    }

    fn eval_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        for lane in 0..ctx.width(self.req) {
            let Some(Datum::Int(addr)) = ctx.input(self.req, lane) else {
                continue;
            };
            if self.lookup(addr) {
                ctx.set_output(self.resp, lane, Datum::Int(self.hit_lat));
            } else {
                // Forward the miss to the lower level, if present.
                let lower = if self.has_lower {
                    ctx.set_output(self.lower_req, lane, Datum::Int(addr));
                    match ctx.input(self.lower_resp, lane) {
                        Some(Datum::Int(l)) => Some(l),
                        // Lower level hasn't answered yet this settle pass;
                        // leave resp unset, a re-evaluation will fill it.
                        _ => None,
                    }
                } else {
                    Some(self.miss_lat)
                };
                if let Some(lower) = lower {
                    ctx.set_output(self.resp, lane, Datum::Int(self.miss_penalty + lower));
                }
            }
        }
        Ok(())
    }

    fn end_of_timestep_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        for lane in 0..ctx.width(self.req) {
            let Some(Datum::Int(addr)) = ctx.input(self.req, lane) else {
                continue;
            };
            let (set, tag) = self.set_and_tag(addr);
            self.tick += 1;
            let tick = self.tick;
            if let Some(entry) = self.tags[set].iter_mut().find(|(t, _)| *t == tag) {
                entry.1 = tick;
                if let Some(ev) = self.hit_ev {
                    ctx.emit_by_id(ev, vec![Datum::Int(addr)]);
                }
                continue;
            }
            if let Some(ev) = self.miss_ev {
                ctx.emit_by_id(ev, vec![Datum::Int(addr)]);
            }
            if self.tags[set].len() < self.assoc {
                self.tags[set].push((tag, tick));
            } else {
                let victim = if let Some(policy) = self.policy {
                    let ways = self.tags[set].len() as i64;
                    let r = ctx.call_userpoint_by_id(
                        policy,
                        &[Datum::Int(set as i64), Datum::Int(ways)],
                    )?;
                    r.as_int().unwrap_or(0).rem_euclid(ways) as usize
                } else {
                    // LRU: smallest tick.
                    self.tags[set]
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, (_, t))| *t)
                        .map(|(i, _)| i)
                        .expect("set is non-empty")
                };
                self.tags[set][victim] = (tag, tick);
            }
        }
        Ok(())
    }
}

impl Component for Cache {
    fn init(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        if self.has_policy {
            self.policy = ctx.userpoint_id("policy");
        }
        self.hit_ev = ctx.event_id("hit");
        self.miss_ev = ctx.event_id("miss");
        Ok(())
    }

    eval_body!();
    end_of_timestep_body!();
}
