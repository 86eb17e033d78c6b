//! Chipyard-style designs: pipelined cores and SoC blocks generated from
//! a parametric in-order pipeline template (the TinyRocket flavor), plus
//! cache/NoC infrastructure blocks.

use crate::builder::Builder;
use rand::{rngs::StdRng, Rng, SeedableRng};
use syncircuit_graph::{CircuitGraph, NodeId, NodeType};

/// Parametric in-order pipelined core:
///
/// * fetch — PC register with branch redirect mux;
/// * decode — instruction field extraction (bit selects) and register
///   file read (mux trees);
/// * execute — ALU mux tree plus a multiplier;
/// * writeback — decoded write enables into the register file.
pub fn pipeline_core(
    name: &str,
    seed: u64,
    xlen: u32,
    regfile_logsize: u32,
    extra_stages: usize,
) -> CircuitGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Builder::new(name);

    let instr = b.input(32);
    let stall = b.input(1);

    // ---- fetch ----
    let pc_w = xlen.min(32);
    let four = b.constant(pc_w, 4);
    let pc = b.reg_placeholder(pc_w);
    let pc_plus = b.op2(NodeType::Add, pc_w, pc, four);
    let br_target = b.bits(instr, 0, pc_w.min(16));
    let br_target_w = {
        // widen by zero-shift to pc width
        let z = b.constant(pc_w, 0);
        b.op2(NodeType::Or, pc_w, br_target, z)
    };
    // branch taken when opcode matches and flag set (computed below,
    // placeholder via register to avoid comb cycle: branches resolve in
    // execute, one cycle later).
    let take_q = b.reg_placeholder(1);
    let pc_next = b.mux(take_q, br_target_w, pc_plus);
    let pc_held = b.mux(stall, pc, pc_next);
    b.drive_reg(pc, pc_held);

    // ---- decode ----
    let opcode = b.bits(instr, 0, 7);
    let rs1 = b.bits(instr, 15, regfile_logsize);
    let rs2 = b.bits(instr, 20, regfile_logsize);
    let rd = b.bits(instr, 7, regfile_logsize);
    let imm = b.bits(instr, 20, 12);

    let regfile_size = 1usize << regfile_logsize;
    // Register file cells (placeholders; written in writeback).
    let cells: Vec<NodeId> = (0..regfile_size).map(|_| b.reg_placeholder(xlen)).collect();

    let rs1_bits: Vec<NodeId> = (0..regfile_logsize).map(|i| b.bits(rs1, i, 1)).collect();
    let rs2_bits: Vec<NodeId> = (0..regfile_logsize).map(|i| b.bits(rs2, i, 1)).collect();
    let op_a = b.mux_tree(&rs1_bits, &cells);
    let op_b_raw = b.mux_tree(&rs2_bits, &cells);
    // immediate select
    let use_imm = b.bits(opcode, 5, 1);
    let imm_w = {
        let z = b.constant(xlen, 0);
        b.op2(NodeType::Or, xlen, imm, z)
    };
    let op_b = b.mux(use_imm, imm_w, op_b_raw);

    // Decode/execute pipeline registers.
    let a_q = b.reg(op_a);
    let b_q = b.reg(op_b);
    let rd_q = b.reg(rd);

    // ---- execute ----
    let add = b.op2(NodeType::Add, xlen, a_q, b_q);
    let sub = b.op2(NodeType::Sub, xlen, a_q, b_q);
    let and = b.op2(NodeType::And, xlen, a_q, b_q);
    let or = b.op2(NodeType::Or, xlen, a_q, b_q);
    let xor = b.op2(NodeType::Xor, xlen, a_q, b_q);
    let sl = b.op2(NodeType::Shl, xlen, a_q, b_q);
    let sr = b.op2(NodeType::Shr, xlen, a_q, b_q);
    let slt = b.op2(NodeType::Lt, xlen, a_q, b_q);
    let fun_bits: Vec<NodeId> = (0..3).map(|i| b.bits(opcode, i.min(6), 1)).collect();
    let alu = b.mux_tree(&fun_bits, &[add, sub, and, or, xor, sl, sr, slt]);

    let mul_w = xlen.min(32);
    let a_lo = b.bits(a_q, 0, mul_w.min(16));
    let b_lo = b.bits(b_q, 0, mul_w.min(16));
    let mul = b.op2(NodeType::Mul, mul_w, a_lo, b_lo);
    let is_mul = b.bits(opcode, 6, 1);
    let mul_wide = {
        let z = b.constant(xlen, 0);
        b.op2(NodeType::Or, xlen, mul, z)
    };
    let ex_result = b.mux(is_mul, mul_wide, alu);

    // Branch resolution (feeds fetch redirect through take_q).
    let zero = b.constant(xlen, 0);
    let cond = b.op2(NodeType::Eq, 1, ex_result, zero);
    let is_branch = b.bits(opcode, 4, 1);
    let take = b.op2(NodeType::And, 1, cond, is_branch);
    b.drive_reg(take_q, take);

    // Optional extra pipeline stages on the result path.
    let mut wb_val = ex_result;
    for _ in 0..extra_stages {
        wb_val = b.reg(wb_val);
    }
    let mut wb_rd = rd_q;
    for _ in 0..extra_stages {
        wb_rd = b.reg(wb_rd);
    }

    // ---- writeback ----
    let wb_en = {
        let w = b.bits(opcode, 2, 1);
        let ns = b.not(stall);
        b.op2(NodeType::And, 1, w, ns)
    };
    for (k, &cell) in cells.iter().enumerate() {
        let idx = b.constant(regfile_logsize, k as u64);
        let here = b.op2(NodeType::Eq, 1, wb_rd, idx);
        let we = b.op2(NodeType::And, 1, here, wb_en);
        let nv = b.mux(we, wb_val, cell);
        b.drive_reg(cell, nv);
    }

    // ---- observability ----
    b.output(pc);
    b.output(wb_val);
    let flag = b.op2(NodeType::Lt, 1, a_q, b_q);
    let flags = b.reg(flag);
    b.output(flags);
    // expose a random architectural register and a parity observation
    let probe = cells[rng.gen_range(0..regfile_size)];
    b.output(probe);
    let p0 = b.bits(wb_val, 0, 1);
    let items = [p0, take, cond];
    let obs = b.reduce(NodeType::Xor, &items);
    let obs_q = b.reg(obs);
    b.output(obs_q);

    b.finish()
}

/// Direct-mapped cache controller: tag compare, valid bits, hit counters
/// and an LRU-ish replacement counter.
pub fn cache_ctrl(name: &str, seed: u64, tag_bits: u32, index_bits: u32) -> CircuitGraph {
    let _ = seed;
    let mut b = Builder::new(name);
    let addr = b.input((tag_bits + index_bits).min(32));
    let req = b.input(1);

    let index = b.bits(addr, 0, index_bits);
    let tag = b.bits(addr, index_bits, tag_bits);

    let sets = 1usize << index_bits.min(3);
    let mut hits = Vec::new();
    for k in 0..sets {
        let kc = b.constant(index_bits, k as u64);
        let sel = b.op2(NodeType::Eq, 1, index, kc);
        let fill = b.op2(NodeType::And, 1, sel, req);
        // stored tag + valid bit
        let tag_cell = b.reg_en(fill, tag);
        let vcell = {
            let one = b.constant(1, 1);
            b.reg_en(fill, one)
        };
        let tmatch = b.op2(NodeType::Eq, 1, tag_cell, tag);
        let vmatch = b.op2(NodeType::And, 1, tmatch, vcell);
        let hit = b.op2(NodeType::And, 1, vmatch, sel);
        hits.push(hit);
    }
    let hit_any = b.reduce(NodeType::Or, &hits);
    let miss = {
        let nh = b.not(hit_any);
        b.op2(NodeType::And, 1, nh, req)
    };

    // hit/miss counters
    let cw = 12;
    for &(ev, _name) in &[(hit_any, "hits"), (miss, "misses")] {
        let c = b.reg_placeholder(cw);
        let one = b.constant(cw, 1);
        let inc = b.op2(NodeType::Add, cw, c, one);
        let n = b.mux(ev, inc, c);
        b.drive_reg(c, n);
        b.output(c);
    }
    b.output(hit_any);
    b.finish()
}

/// Round-robin NoC router arbiter with a crossbar of muxes.
pub fn noc_router(name: &str, seed: u64, ports: usize, flit_width: u32) -> CircuitGraph {
    let _ = seed;
    let ports = ports.clamp(2, 4);
    let mut b = Builder::new(name);
    let reqs: Vec<NodeId> = (0..ports).map(|_| b.input(1)).collect();
    let flits: Vec<NodeId> = (0..ports).map(|_| b.input(flit_width)).collect();

    // round-robin pointer
    let ptr_w = 2;
    let ptr = b.counter(ptr_w, 1);

    // grant: rotate priority by pointer (simplified: grant k when req[k]
    // and pointer == k, else fall back to fixed priority chain)
    let mut grants = Vec::new();
    for (k, &r) in reqs.iter().enumerate() {
        let kc = b.constant(ptr_w, (k % (1 << ptr_w)) as u64);
        let turn = b.op2(NodeType::Eq, 1, ptr, kc);
        let gr = b.op2(NodeType::And, 1, turn, r);
        grants.push(gr);
    }
    let any_turn = b.reduce(NodeType::Or, &grants);
    // fallback fixed priority
    let mut fallback = reqs[0];
    let mut chain = Vec::new();
    chain.push(fallback);
    for &r in &reqs[1..] {
        let nf = b.not(fallback);
        let g = b.op2(NodeType::And, 1, r, nf);
        chain.push(g);
        fallback = b.op2(NodeType::Or, 1, fallback, r);
    }
    let final_grants: Vec<NodeId> = grants
        .iter()
        .zip(&chain)
        .map(|(&g, &f)| {
            let nf = b.not(any_turn);
            let fb = b.op2(NodeType::And, 1, f, nf);
            b.op2(NodeType::Or, 1, g, fb)
        })
        .collect();

    // crossbar output: select the granted flit via priority muxes
    let mut data = flits[0];
    for k in 1..ports {
        data = b.mux(final_grants[k], flits[k], data);
    }
    let out_q = b.reg(data);
    let busy = b.reduce(NodeType::Or, &reqs);
    let busy_q = b.reg(busy);
    b.output(out_q);
    b.output(busy_q);
    for &g in &final_grants {
        b.output(g);
    }
    b.finish()
}

/// Vector lane: several parallel ALUs with per-lane accumulators.
pub fn vector_lane(name: &str, seed: u64, lanes: usize, width: u32) -> CircuitGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Builder::new(name);
    let en = b.input(1);
    let xs: Vec<NodeId> = (0..lanes).map(|_| b.input(width)).collect();
    let ys: Vec<NodeId> = (0..lanes).map(|_| b.input(width)).collect();

    let mut accs = Vec::new();
    for k in 0..lanes {
        let prod_w = (2 * width).min(32);
        let xl = b.bits(xs[k], 0, width.min(16));
        let yl = b.bits(ys[k], 0, width.min(16));
        let prod = b.op2(NodeType::Mul, prod_w, xl, yl);
        let acc = b.reg_placeholder(prod_w);
        let sum = b.op2(NodeType::Add, prod_w, acc, prod);
        let next = b.mux(en, sum, acc);
        b.drive_reg(acc, next);
        accs.push(acc);
        if rng.gen_bool(0.5) {
            b.output(acc);
        }
    }
    let total = b.reduce(NodeType::Add, &accs);
    let total_q = b.reg(total);
    b.output(total_q);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_core_valid_and_sized() {
        let g = pipeline_core("tinyrocket", 1, 16, 3, 1);
        assert!(g.is_valid(), "{:?}", g.validate());
        // regfile (8×16) + pipeline registers
        assert!(g.register_bits() >= 8 * 16);
        assert!(g.node_count() > 100);
    }

    #[test]
    fn infra_blocks_valid() {
        for g in [
            cache_ctrl("cc", 2, 8, 3),
            noc_router("nr", 3, 4, 16),
            vector_lane("vl", 4, 4, 8),
        ] {
            assert!(g.is_valid(), "{}: {:?}", g.name(), g.validate());
        }
    }

    #[test]
    fn core_scales_with_parameters() {
        let small = pipeline_core("s", 0, 8, 2, 0);
        let big = pipeline_core("b", 0, 32, 4, 3);
        assert!(big.node_count() > small.node_count());
        assert!(big.register_bits() > small.register_bits() * 3);
    }
}
