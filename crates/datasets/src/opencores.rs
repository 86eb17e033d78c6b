//! OpenCores-style designs: datapath blocks (UARTs, CRCs, FIFOs, ALUs,
//! timers, codecs) in the flavor of the IWLS 2005 benchmark set.

use crate::builder::Builder;
use rand::{rngs::StdRng, Rng, SeedableRng};
use syncircuit_graph::{CircuitGraph, NodeId, NodeType};

/// UART-like serial unit: baud-rate divider, RX shift register, ready
/// flag and a small mode FSM.
pub fn uart_like(name: &str, seed: u64, div_bits: u32, data_bits: u32) -> CircuitGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Builder::new(name);
    let rx = b.input(1);
    let enable = b.input(1);

    // Baud divider: free counter + tick compare.
    let div = b.counter(div_bits, 1);
    let limit = b.constant(div_bits, rng.gen_range(3..(1u64 << div_bits.min(8))));
    let tick = b.op2(NodeType::Eq, 1, div, limit);
    let sample = b.op2(NodeType::And, 1, tick, enable);

    // RX shift register sampled at baud ticks.
    let shift = b.reg_placeholder(data_bits);
    let low = b.bits(shift, 0, data_bits - 1);
    let shifted = b.concat(low, rx);
    let next = b.mux(sample, shifted, shift);
    b.drive_reg(shift, next);

    // Bit counter + frame-done flag.
    let cnt_w = 4;
    let cnt = b.reg_placeholder(cnt_w);
    let one = b.constant(cnt_w, 1);
    let inc = b.op2(NodeType::Add, cnt_w, cnt, one);
    let frame = b.constant(cnt_w, data_bits as u64 % 16);
    let done = b.op2(NodeType::Eq, 1, cnt, frame);
    let zero = b.constant(cnt_w, 0);
    let cnt_wrapped = b.mux(done, zero, inc);
    let cnt_next = b.mux(sample, cnt_wrapped, cnt);
    b.drive_reg(cnt, cnt_next);

    // Latched data + ready.
    let data_q = b.reg_en(done, shift);
    let ready = b.reg(done);
    b.output(data_q);
    b.output(ready);
    b.output(cnt);
    b.finish()
}

/// CRC/LFSR unit: Galois-style shift with XOR taps.
pub fn crc_like(name: &str, seed: u64, width: u32, num_taps: usize) -> CircuitGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Builder::new(name);
    let serial = b.input(1);
    let enable = b.input(1);

    let state = b.reg_placeholder(width);
    let msb = b.bits(state, width - 1, 1);
    let feedback = b.op2(NodeType::Xor, 1, msb, serial);

    // taps: state bits XORed with feedback before reinsertion
    let mut tap_bits: Vec<NodeId> = Vec::new();
    for _ in 0..num_taps.max(1) {
        let pos = rng.gen_range(0..width.saturating_sub(1).max(1));
        let bit = b.bits(state, pos, 1);
        let x = b.op2(NodeType::Xor, 1, bit, feedback);
        tap_bits.push(x);
    }
    let low = b.bits(state, 0, width - 1);
    let shifted = b.concat(low, feedback);
    // fold tap influence into low bits via XOR of a widened tap word
    let tapword = {
        let mut acc = tap_bits[0];
        for &t in &tap_bits[1..] {
            acc = b.op2(NodeType::Xor, 1, acc, t);
        }
        acc
    };
    let widened = {
        // place tapword at bit positions via shift by constant
        let sh = b.constant(width, rng.gen_range(1..width.max(2)) as u64);

        b.op2(NodeType::Shl, width, tapword, sh)
    };
    let mixed = b.op2(NodeType::Xor, width, shifted, widened);
    let next = b.mux(enable, mixed, state);
    b.drive_reg(state, next);

    b.output(state);
    let crc_ok = {
        let zero = b.constant(width, 0);
        b.op2(NodeType::Eq, 1, state, zero)
    };
    let crc_ok_q = b.reg(crc_ok);
    b.output(crc_ok_q);
    b.finish()
}

/// FIFO controller: read/write pointers, full/empty flags, and a small
/// register-bank storage with decoded write enables and a mux-tree read
/// port.
pub fn fifo_ctrl(name: &str, seed: u64, ptr_bits: u32, data_width: u32) -> CircuitGraph {
    let _ = seed; // structure is fully determined by the parameters
    let mut b = Builder::new(name);
    let push = b.input(1);
    let pop = b.input(1);
    let wdata = b.input(data_width);

    let depth = 1usize << ptr_bits;
    let one = b.constant(ptr_bits, 1);

    let wr = b.reg_placeholder(ptr_bits);
    let wr_inc = b.op2(NodeType::Add, ptr_bits, wr, one);
    let wr_next = b.mux(push, wr_inc, wr);
    b.drive_reg(wr, wr_next);

    let rd = b.reg_placeholder(ptr_bits);
    let rd_inc = b.op2(NodeType::Add, ptr_bits, rd, one);
    let rd_next = b.mux(pop, rd_inc, rd);
    b.drive_reg(rd, rd_next);

    let empty = b.op2(NodeType::Eq, 1, wr, rd);
    let diff = b.op2(NodeType::Sub, ptr_bits, wr, rd);
    let almost = b.constant(ptr_bits, (depth - 1) as u64);
    let full = b.op2(NodeType::Eq, 1, diff, almost);

    // Storage bank with decoded write enables.
    let mut bank = Vec::new();
    for k in 0..depth {
        let idx = b.constant(ptr_bits, k as u64);
        let here = b.op2(NodeType::Eq, 1, wr, idx);
        let we = b.op2(NodeType::And, 1, here, push);
        let cell = b.reg_en(we, wdata);
        bank.push(cell);
    }
    // Read port: mux tree over rd pointer bits.
    let sel_bits: Vec<NodeId> = (0..ptr_bits).map(|i| b.bits(rd, i, 1)).collect();
    let rdata = b.mux_tree(&sel_bits, &bank);
    let rdata_q = b.reg(rdata);

    b.output(rdata_q);
    b.output(full);
    b.output(empty);
    b.output(diff);
    b.finish()
}

/// ALU with an operation-select mux tree and registered operands/result.
pub fn alu_like(name: &str, seed: u64, width: u32) -> CircuitGraph {
    let _ = seed;
    let mut b = Builder::new(name);
    let a_in = b.input(width);
    let b_in = b.input(width);
    let op = b.input(3);

    let a = b.reg(a_in);
    let bb = b.reg(b_in);

    let add = b.op2(NodeType::Add, width, a, bb);
    let sub = b.op2(NodeType::Sub, width, a, bb);
    let and = b.op2(NodeType::And, width, a, bb);
    let or = b.op2(NodeType::Or, width, a, bb);
    let xor = b.op2(NodeType::Xor, width, a, bb);
    let shl = b.op2(NodeType::Shl, width, a, bb);
    let shr = b.op2(NodeType::Shr, width, a, bb);
    let ltw = b.op2(NodeType::Lt, width, a, bb);

    let sel_bits: Vec<NodeId> = (0..3).map(|i| b.bits(op, i, 1)).collect();
    let result = b.mux_tree(&sel_bits, &[add, sub, and, or, xor, shl, shr, ltw]);
    let result_q = b.reg(result);

    let zero = b.constant(width, 0);
    let is_zero = b.op2(NodeType::Eq, 1, result_q, zero);
    // Sticky zero flag: holds once set until the ALU is rebuilt — the
    // feedback register every real status unit has.
    let sticky = b.reg_placeholder(1);
    let sticky_next = b.op2(NodeType::Or, 1, sticky, is_zero);
    b.drive_reg(sticky, sticky_next);
    b.output(result_q);
    b.output(is_zero);
    b.output(sticky);
    b.finish()
}

/// Pipelined multiplier with accumulate mode.
pub fn mult_pipe(name: &str, seed: u64, width: u32, stages: usize) -> CircuitGraph {
    let _ = seed;
    let mut b = Builder::new(name);
    let x = b.input(width);
    let y = b.input(width);
    let acc_en = b.input(1);

    let xq = b.reg(x);
    let yq = b.reg(y);
    let prod = b.op2(NodeType::Mul, (2 * width).min(64), xq, yq);
    let stages_v = b.pipeline(prod, stages.max(1));
    let piped = *stages_v.last().expect("at least one stage");

    let acc_w = (2 * width).min(64);
    let acc = b.reg_placeholder(acc_w);
    let sum = b.op2(NodeType::Add, acc_w, acc, piped);
    let acc_next = b.mux(acc_en, sum, piped);
    b.drive_reg(acc, acc_next);

    b.output(acc);
    let ov = b.bits(acc, acc_w - 1, 1);
    b.output(ov);
    b.finish()
}

/// Timer/PWM unit: prescaler, main counter, compare match, PWM output.
pub fn timer_unit(name: &str, seed: u64, width: u32) -> CircuitGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Builder::new(name);
    let duty = b.input(width);
    let run = b.input(1);

    let pre_w = rng.gen_range(4..=6);
    let pre = b.counter(pre_w, 1);
    let pre_lim = b.constant(pre_w, rng.gen_range(1..(1 << pre_w)));
    let tick = b.op2(NodeType::Eq, 1, pre, pre_lim);
    let step = b.op2(NodeType::And, 1, tick, run);

    let one = b.constant(width, 1);
    let cnt = b.reg_placeholder(width);
    let inc = b.op2(NodeType::Add, width, cnt, one);
    let cnt_next = b.mux(step, inc, cnt);
    b.drive_reg(cnt, cnt_next);

    let pwm = b.op2(NodeType::Lt, 1, cnt, duty);
    let pwm_q = b.reg(pwm);
    let top = b.constant(width, (1u64 << width.min(63)) - 1);
    let wrap = b.op2(NodeType::Eq, 1, cnt, top);

    b.output(pwm_q);
    b.output(cnt);
    b.output(wrap);
    b.finish()
}

/// Gray-code encoder/decoder pair with registered interfaces.
pub fn gray_codec(name: &str, seed: u64, width: u32) -> CircuitGraph {
    let _ = seed;
    let mut b = Builder::new(name);
    let bin_in = b.input(width);
    let binq = b.reg(bin_in);

    // encode: gray = bin ^ (bin >> 1)
    let one = b.constant(width, 1);
    let half = b.op2(NodeType::Shr, width, binq, one);
    let gray = b.op2(NodeType::Xor, width, binq, half);
    let gray_q = b.reg(gray);

    // decode: prefix XOR over bits (chain)
    let mut bits: Vec<NodeId> = Vec::new();
    let mut prefix = b.bits(gray_q, width - 1, 1);
    bits.push(prefix);
    for i in (0..width - 1).rev() {
        let g = b.bits(gray_q, i, 1);
        prefix = b.op2(NodeType::Xor, 1, prefix, g);
        bits.push(prefix);
    }
    // reassemble: concat chain (MSB first in `bits`)
    let mut word = bits[0];
    for &bit in &bits[1..] {
        word = b.concat(word, bit);
    }
    let decoded_q = b.reg(word);

    let ok = b.op2(NodeType::Eq, 1, decoded_q, binq);
    // Mismatch counter (feedback register), as a self-checking codec
    // would carry.
    let err = b.not(ok);
    let cw = 8;
    let errs = b.reg_placeholder(cw);
    let one1 = b.constant(cw, 1);
    let bump = b.op2(NodeType::Add, cw, errs, one1);
    let errs_next = b.mux(err, bump, errs);
    b.drive_reg(errs, errs_next);
    b.output(gray_q);
    b.output(decoded_q);
    b.output(ok);
    b.output(errs);
    b.finish()
}

/// Checksum engine: XOR/ADD reduction trees over input words with an
/// accumulator register per lane.
pub fn checksum(name: &str, seed: u64, width: u32, lanes: usize) -> CircuitGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Builder::new(name);
    let en = b.input(1);
    let words: Vec<NodeId> = (0..lanes.max(2)).map(|_| b.input(width)).collect();

    let xsum = b.reduce(NodeType::Xor, &words);
    let asum = b.reduce(NodeType::Add, &words);

    let acc_x = b.reg_placeholder(width);
    let nx = b.op2(NodeType::Xor, width, acc_x, xsum);
    let nx_en = b.mux(en, nx, acc_x);
    b.drive_reg(acc_x, nx_en);

    let acc_a = b.reg_placeholder(width);
    let na = b.op2(NodeType::Add, width, acc_a, asum);
    let na_en = b.mux(en, na, acc_a);
    b.drive_reg(acc_a, na_en);

    let mixed = b.op2(NodeType::Xor, width, acc_x, acc_a);
    let rot = b.constant(width, rng.gen_range(1..width.max(2)) as u64);
    let swirled = b.op2(NodeType::Shr, width, mixed, rot);
    let sig = b.reg(swirled);

    b.output(acc_x);
    b.output(acc_a);
    b.output(sig);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_opencores_designs_valid() {
        let designs = [
            uart_like("u", 1, 6, 8),
            crc_like("c", 2, 16, 3),
            fifo_ctrl("f", 3, 3, 8),
            alu_like("a", 4, 16),
            mult_pipe("m", 5, 8, 2),
            timer_unit("t", 6, 12),
            gray_codec("g", 7, 8),
            checksum("k", 8, 16, 4),
        ];
        for g in &designs {
            assert!(g.is_valid(), "{}: {:?}", g.name(), g.validate());
            assert!(g.count_of_type(NodeType::Reg) >= 2, "{}", g.name());
            assert!(g.count_of_type(NodeType::Output) >= 2, "{}", g.name());
        }
    }

    #[test]
    fn fifo_bank_scales_with_ptr_bits() {
        let small = fifo_ctrl("f3", 0, 2, 8);
        let big = fifo_ctrl("f5", 0, 4, 8);
        assert!(big.count_of_type(NodeType::Reg) > small.count_of_type(NodeType::Reg) * 2);
    }
}
