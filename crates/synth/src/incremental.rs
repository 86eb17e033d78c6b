//! Dirty-cone incremental PCS evaluation (Phase 3 reward acceleration)
//! with a lock-striped, thread-shareable synthesis cache.
//!
//! The exact Phase-3 reward re-synthesizes the *whole design* for every
//! candidate swap ([`crate::passes::optimize`]), although one
//! atomic parent swap perturbs at most a handful of register cones. This
//! module decomposes the design-level PCS into per-cone synthesis
//! results and skips the work a swap cannot have changed at two levels:
//!
//! - **Per-apex memo (swap engine only).** [`ConeSynthCache::pcs_swap`]
//!   reads the parent-list stamps of a [`SwapGraph`]. A cone's members,
//!   key and area depend only on the parent lists of its apex and
//!   members and on node attributes, which swaps never change. So when
//!   the apex and every member still carry the stamps recorded with the
//!   cone's area, the view returns that area with no fan-in walk, key
//!   hash, shard lock or lookup. A swap rewrites two parent lists, so
//!   only the cones that contain its `j` or `q` fall through.
//! - **Structural memo table.** Every other cone query, and every query
//!   of the stateless [`ConeSynthCache::pcs`], walks the cone once,
//!   building its 128-bit structural key on the way, and looks the key
//!   up; only a new key pays for synthesis (cache miss).
//!
//! # One walk builds the cone and its key
//!
//! The walk is the reverse breadth-first search of
//! `syncircuit_graph::cone::fanin_cone_into`, stopping at (and
//! recording) `const` / `in` / `reg` boundary nodes, and it yields the
//! same members and boundary in the same order: a node takes its place
//! when it is first pushed, and in a FIFO queue first push is first pop.
//! While it walks, it feeds packed words to two independent
//! multiply-fold lanes, which give the two 64-bit words of the key.
//! Each node contributes its type, width and auxiliary value, each parent
//! slot its cone-local position and class, and each new boundary node its
//! kind, width and (for a constant) raw value. These are the fields the
//! cone circuit is built from. No field is truncated, and the word stream
//! decodes back into the cone, so two cones share a key only on a 128-bit
//! hash collision. The lanes do not depend on each other, so they run
//! side by side.
//!
//! # Sharing the warm state across workers
//!
//! The memo table lives in [`SharedConeSynthCache`]. It is lock-striped
//! into [`SHARD_COUNT`] = 16 shards: the key's first word picks the
//! shard by its low bits and the home slot by higher ones, and each
//! shard is one `Mutex`-guarded flat open-addressed array of (key, area)
//! entries. So concurrent workers, e.g. the threads of a
//! `generate_batch` fan-out, deduplicate cone synthesis *between
//! requests* instead of each re-synthesizing the same cones. Each worker owns a [`ConeSynthCache`] view: the shared table
//! behind an `Arc`, plus private tag-stamped scratch (observability mask,
//! the walk's visited marks, member/boundary lists and cone-local
//! positions), so warm queries stay **allocation-free** and never contend
//! on anything but the per-shard locks. Two workers racing on the same
//! cold key may both synthesize, but they insert the same bits (synthesis
//! is a pure function of the key), so results are byte-identical to a
//! sequential run regardless of scheduling; only the hit/miss counters
//! are schedule-dependent.
//!
//! A cache miss builds no standalone cone circuit: it pushes the cone's
//! boundary, members and apex straight from the host graph into the
//! thread's reusable synthesis scratch and runs the one fixpoint core
//! of [`crate::passes`] on it, *outside* the shard lock. The flat
//! netlist has the node order, parent order and area-summation order of
//! the circuit `syncircuit_graph::cone::cone_circuit_parts` would build,
//! so the area is the same bits (tested against that circuit).
//!
//! Long-lived serving processes bound the table with a per-shard entry
//! capacity (CLOCK / second-chance eviction, see
//! [`SharedConeSynthCache::with_capacity`]); because the
//! table memoizes a pure function of the structural key, bounding never
//! changes returned areas — an evicted cone is simply re-synthesized on
//! its next miss.
//!
//! The decomposed metric is deliberately *not* bit-identical to
//! whole-design PCS — global CSE can merge logic across cones, which no
//! cone-local scheme can observe — but it is deterministic,
//! self-consistent (warm cache ≡ cold cache ≡ shared cache,
//! property-tested), and preserves the two reward gradients Phase 3
//! needs (paper §VI):
//!
//! - **cone collapse** — a register cone that folds to a constant
//!   synthesizes to (near-)zero local area;
//! - **fan-out deadness** — a register whose value never reaches a
//!   primary output contributes nothing (global output-reachability
//!   mask, recomputed in O(V + E) per query — cheap next to synthesis).
//!
//! Score: `(Σ observed register-cone areas + Σ output-cone areas) /
//! node_count`, matching the whole-design PCS normalization.

use crate::passes::{with_scratch, SynthScratch};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use syncircuit_graph::fingerprint::splitmix64;
use syncircuit_graph::swap::SwapGraph;
use syncircuit_graph::{mask, CircuitGraph, Node, NodeId, NodeType};

/// Aggregate cache hit/miss/eviction counters of a cone-synthesis cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConeCacheStats {
    /// Cone synthesis results served from the cache.
    pub hits: u64,
    /// Cone synthesis runs actually executed.
    pub misses: u64,
    /// Memoized entries displaced by the CLOCK policy (always 0 for an
    /// unbounded table).
    pub evictions: u64,
    /// Cone areas that views reused from their per-apex memos
    /// ([`ConeSynthCache::pcs_swap`]). These queries never reach a
    /// shard, so they count as neither hits nor misses.
    pub reused: u64,
}

/// Per-shard counters of a [`SharedConeSynthCache`]
/// ([`SharedConeSynthCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConeShardStats {
    /// Cone synthesis results served from this shard.
    pub hits: u64,
    /// Cone synthesis runs this shard recorded as misses.
    pub misses: u64,
    /// Entries this shard displaced under capacity pressure.
    pub evictions: u64,
    /// Memoized cone entries currently stored in this shard.
    pub entries: usize,
    /// Heap bytes of this shard's table (0 until its first insert).
    pub bytes: usize,
}

/// A cone's 128-bit structural key. Word 0 picks the shard and the home
/// slot inside it; word 1 is only compared. Every hit compares both.
type ConeKey = [u64; 2];

/// Two independent multiply-fold lanes over one word stream; their
/// finished states are the two words of a [`ConeKey`]. Neither lane reads
/// the other, so the CPU overlaps their multiplies.
struct KeyLanes([u64; 2]);

impl KeyLanes {
    const SEED: [u64; 2] = [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344];
    const MUL: [u64; 2] = [0x9E37_79B9_7F4A_7C15, 0xD6E8_FEB8_6659_FD93];

    #[inline]
    fn push(&mut self, word: u64) {
        self.0[0] = fold_mul(self.0[0] ^ word, Self::MUL[0]);
        self.0[1] = fold_mul(self.0[1] ^ word, Self::MUL[1]);
    }

    fn finish(self) -> ConeKey {
        [splitmix64(self.0[0]), splitmix64(self.0[1])]
    }
}

/// The full 128-bit product of `x` and `k`, folded to 64 bits: every
/// output bit depends on every input bit.
#[inline]
fn fold_mul(x: u64, k: u64) -> u64 {
    let p = u128::from(x) * u128::from(k);
    p as u64 ^ (p >> 64) as u64
}

// Class of a reached node, in the low two bits of its reference word
// (`position << 3 | class`); bit 2 marks a node's last parent slot.
const APEX: u64 = 0;
const BOUNDARY: u64 = 1;
const MEMBER: u64 = 2;
/// Key word of a boundary node reached for the first time: its position
/// is the boundary count so far, so the word carries its kind (bit 3:
/// constant) and width (bits 4 and up) instead.
const NEW_BOUNDARY: u64 = 3;
const LAST_SLOT: u64 = 1 << 2;

/// Whether the walk stops at (and records) a node of type `ty`.
#[inline]
fn is_boundary(ty: NodeType) -> bool {
    matches!(ty, NodeType::Const | NodeType::Input | NodeType::Reg)
}

/// Tag-stamped scratch of the fused fan-in walk: per host node, the tag
/// of the walk that last reached it and its reference word (cone-local
/// position and class); the member list doubles as the FIFO queue.
#[derive(Debug, Default)]
struct ConeWalk {
    seen: Vec<u32>,
    word: Vec<u64>,
    tag: u32,
    members: Vec<NodeId>,
    boundary: Vec<NodeId>,
}

impl ConeWalk {
    /// Walks the fan-in cone of `apex` into `members` and `boundary`
    /// (see the module docs) and returns its structural key.
    fn walk(&mut self, g: &CircuitGraph, apex: NodeId) -> ConeKey {
        let n = g.node_count();
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.word.resize(n, 0);
        }
        self.tag = self.tag.wrapping_add(1);
        if self.tag == 0 {
            self.seen.fill(0);
            self.tag = 1;
        }
        self.members.clear();
        self.boundary.clear();
        self.seen[apex.index()] = self.tag;
        self.word[apex.index()] = APEX;
        let mut lanes = KeyLanes(KeyLanes::SEED);
        self.expand(g, apex, &mut lanes);
        let mut head = 0;
        while head < self.members.len() {
            let u = self.members[head];
            head += 1;
            self.expand(g, u, &mut lanes);
        }
        lanes.finish()
    }

    /// Feeds `u`'s words to `lanes` (type, width, flags, nonzero aux,
    /// then one word per parent slot) and reaches its unseen parents:
    /// boundary nodes are recorded, members queued.
    #[inline]
    fn expand(&mut self, g: &CircuitGraph, u: NodeId, lanes: &mut KeyLanes) {
        let node = g.node(u);
        let ps = g.parents(u);
        let aux = node.aux();
        lanes.push(
            node.ty() as u64
                | u64::from(node.width()) << 8
                | u64::from(ps.is_empty()) << 16
                | u64::from(aux != 0) << 17,
        );
        if aux != 0 {
            lanes.push(aux);
        }
        let tag = self.tag;
        for (slot, &p) in ps.iter().enumerate() {
            let last = if slot + 1 == ps.len() { LAST_SLOT } else { 0 };
            let i = p.index();
            if self.seen[i] == tag {
                lanes.push(self.word[i] | last);
                continue;
            }
            self.seen[i] = tag;
            let parent = g.node(p);
            if is_boundary(parent.ty()) {
                self.word[i] = (self.boundary.len() as u64) << 3 | BOUNDARY;
                self.boundary.push(p);
                let constant = parent.ty() == NodeType::Const;
                lanes.push(
                    NEW_BOUNDARY | last | u64::from(constant) << 3 | u64::from(parent.width()) << 4,
                );
                if constant {
                    lanes.push(parent.aux());
                }
            } else {
                self.word[i] = (self.members.len() as u64) << 3 | MEMBER;
                self.members.push(p);
                lanes.push(self.word[i] | last);
            }
        }
    }

    /// Loads the cone of the last [`walk`](ConeWalk::walk) (from `apex`)
    /// into `synth` as a flat netlist, node for node and slot for slot
    /// the circuit `syncircuit_graph::cone::cone_circuit_parts` builds:
    /// boundary constants keep their value (masked to their width) and
    /// other boundary nodes become inputs; members and the apex follow
    /// with cone-local parents; a non-sink apex then drives a fresh
    /// output port.
    fn load(&self, g: &CircuitGraph, apex: NodeId, synth: &mut SynthScratch) {
        synth.clear();
        for &b in &self.boundary {
            let node = g.node(b);
            let w = node.width();
            let leaf = match node.ty() {
                NodeType::Const => Node::with_aux(NodeType::Const, w, node.aux() & mask(w)),
                _ => Node::new(NodeType::Input, w),
            };
            synth.push(leaf, []);
        }
        let (nb, nm) = (self.boundary.len(), self.members.len());
        let local = |p: &NodeId| {
            let word = self.word[p.index()];
            let pos = (word >> 3) as usize;
            match word & 3 {
                APEX => nb + nm,
                BOUNDARY => pos,
                _ => nb + pos,
            }
        };
        for &m in self.members.iter().chain(std::iter::once(&apex)) {
            synth.push(*g.node(m), g.parents(m).iter().map(local));
        }
        let apex_node = g.node(apex);
        if !apex_node.ty().is_sink() {
            let port = Node::new(NodeType::Output, apex_node.width());
            synth.push(port, [nb + nm]);
        }
    }
}

/// Tag-stamped output-reachability mask (reverse BFS from all primary
/// outputs over parent edges, crossing registers); the stack buffer is
/// reused across queries.
#[derive(Debug, Default)]
struct ObservedScratch {
    seen: Vec<u32>,
    stamp: u32,
    stack: Vec<NodeId>,
}

impl ObservedScratch {
    /// Re-stamps the mask for `g`; afterwards `self.observed(id)` answers
    /// whether a primary output is reachable from `id`.
    fn mark(&mut self, g: &CircuitGraph) {
        let n = g.node_count();
        if self.seen.len() < n {
            self.seen.resize(n, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        let stamp = self.stamp;
        self.stack.clear();
        for (id, node) in g.iter() {
            if node.ty() == NodeType::Output {
                self.seen[id.index()] = stamp;
                self.stack.push(id);
            }
        }
        while let Some(u) = self.stack.pop() {
            for &p in g.parents(u) {
                if self.seen[p.index()] != stamp {
                    self.seen[p.index()] = stamp;
                    self.stack.push(p);
                }
            }
        }
    }

    fn observed(&self, id: NodeId) -> bool {
        self.seen[id.index()] == self.stamp
    }
}

/// What a view last computed for one apex under a swap engine: the
/// parent-list stamps of the apex and its members, and the cone's area.
#[derive(Debug, Default)]
struct ConeMemo {
    /// The apex, then each member, with the stamp of its parent list
    /// (empty: no record yet).
    stamped: Vec<(NodeId, u64)>,
    area: f64,
}

impl ConeMemo {
    /// The recorded area, if every recorded node still carries its
    /// recorded stamp. The apex is compared first: a match means
    /// `stamps` belongs to the engine (or a clone of it) the record was
    /// taken from, so the member ids are in range.
    fn reuse(&self, stamps: &[u64]) -> Option<f64> {
        let unchanged = |&(id, stamp): &(NodeId, u64)| stamps[id.index()] == stamp;
        (!self.stamped.is_empty() && self.stamped.iter().all(unchanged)).then_some(self.area)
    }

    fn record(&mut self, apex: NodeId, members: &[NodeId], stamps: &[u64], area: f64) {
        let cone = std::iter::once(&apex).chain(members);
        self.stamped.clear();
        self.stamped
            .extend(cone.map(|&id| (id, stamps[id.index()])));
        self.area = area;
    }
}

/// Stripe count of every [`SharedConeSynthCache`]: a power of two, so
/// the low bits of a key's first word pick its shard.
pub const SHARD_COUNT: usize = 16;

/// Low bits of a key's first word set aside for the shard choice (which
/// reads the lowest four); the home slot inside a shard comes from the
/// bits above them.
const SHARD_BITS: u32 = 16;

/// One memoized cone.
#[derive(Clone, Copy, Debug)]
struct Entry {
    key: ConeKey,
    area: f64,
}

impl Entry {
    /// Filler for empty slots; only the state bits say a slot is empty.
    const VACANT: Entry = Entry {
        key: [0; 2],
        area: 0.0,
    };
}

/// State bits of a slot, two per slot and 32 slots per word. Emptiness
/// lives here rather than in the entry, so every key value can be
/// stored and none marks an empty slot.
const OCCUPIED: u64 = 1;
/// The CLOCK reference bit: set by hits and inserts, cleared by the hand.
const REFERENCED: u64 = 2;

/// Slots a table allocates on its first insert.
const MIN_SLOTS: usize = 8;

/// What publishing a synthesized area into a shard did.
enum Published {
    /// The key was already present (a racer won); its stored area.
    Already(f64),
    /// Stored in a fresh slot (shard grew by one entry).
    Grew,
    /// Stored by displacing the CLOCK victim (entry count unchanged).
    Evicted,
}

/// The mutex-guarded part of one lock stripe: an open-addressed,
/// linear-probing array of (key, area) entries plus two state bits per
/// slot (occupied, referenced). It allocates nothing until its first
/// insert and doubles when an insert would fill more than 7/8 of its
/// slots. With `capacity == 0` it grows without bound; otherwise it holds
/// at most `capacity` entries and an insert into a full table first
/// evicts the CLOCK victim, whose slot is closed by backward-shift
/// deletion (no tombstones).
#[derive(Debug, Default)]
struct ShardTable {
    entries: Vec<Entry>,
    states: Vec<u64>,
    len: usize,
    /// The CLOCK hand: a slot index.
    hand: usize,
}

impl ShardTable {
    /// Home slot of `key`: bits of word 0 above the shard bits.
    #[inline]
    fn home(&self, key: &ConeKey) -> usize {
        (key[0] >> SHARD_BITS) as usize & (self.entries.len() - 1)
    }

    #[inline]
    fn state(&self, i: usize) -> u64 {
        self.states[i / 32] >> (2 * (i % 32)) & 3
    }

    #[inline]
    fn set_state(&mut self, i: usize, bits: u64) {
        let shift = 2 * (i % 32);
        let word = &mut self.states[i / 32];
        *word = *word & !(3 << shift) | bits << shift;
    }

    #[inline]
    fn occupied(&self, i: usize) -> bool {
        self.state(i) & OCCUPIED != 0
    }

    /// Slot holding `key`, probing from its home to the first empty slot.
    fn find(&self, key: &ConeKey) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.entries.len() - 1;
        let mut i = self.home(key);
        while self.occupied(i) {
            if self.entries[i].key == *key {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// The empty slot that ends the probe of an absent `key`.
    fn vacant(&self, key: &ConeKey) -> usize {
        let mask = self.entries.len() - 1;
        let mut i = self.home(key);
        while self.occupied(i) {
            i = (i + 1) & mask;
        }
        i
    }

    /// Looks `key` up, setting its reference bit on a hit.
    fn get(&mut self, key: &ConeKey) -> Option<f64> {
        let i = self.find(key)?;
        self.set_state(i, OCCUPIED | REFERENCED);
        Some(self.entries[i].area)
    }

    /// Publishes `key → area`, evicting the CLOCK victim when the table
    /// holds `capacity` entries. New entries start referenced, so they
    /// survive one full hand sweep before becoming eviction candidates.
    fn publish(&mut self, key: ConeKey, area: f64, capacity: usize) -> Published {
        if let Some(first) = self.get(&key) {
            return Published::Already(first);
        }
        let evict = capacity != 0 && self.len >= capacity;
        if evict {
            self.evict();
        } else if (self.len + 1) * 8 > self.entries.len() * 7 {
            self.grow();
        }
        let i = self.vacant(&key);
        self.entries[i] = Entry { key, area };
        self.set_state(i, OCCUPIED | REFERENCED);
        self.len += 1;
        if evict {
            Published::Evicted
        } else {
            Published::Grew
        }
    }

    /// Doubles the slot count (or allocates the first [`MIN_SLOTS`]) and
    /// re-inserts every entry with its state bits.
    fn grow(&mut self) {
        let slots = (self.entries.len() * 2).max(MIN_SLOTS);
        let grown = ShardTable {
            entries: vec![Entry::VACANT; slots],
            states: vec![0; slots.div_ceil(32)],
            len: self.len,
            hand: 0,
        };
        let old = std::mem::replace(self, grown);
        for (i, entry) in old.entries.iter().enumerate() {
            if old.occupied(i) {
                let j = self.vacant(&entry.key);
                self.entries[j] = *entry;
                self.set_state(j, old.state(i));
            }
        }
    }

    /// Second chance: clears reference bits under the hand until an
    /// unreferenced entry comes up, and removes it (terminates within two
    /// sweeps, since a full table holds at least one entry).
    fn evict(&mut self) {
        let mask = self.entries.len() - 1;
        loop {
            let i = self.hand;
            let state = self.state(i);
            if state == OCCUPIED {
                self.remove(i);
                return;
            }
            self.set_state(i, state & OCCUPIED);
            self.hand = (i + 1) & mask;
        }
    }

    /// Empties slot `hole` by backward-shift deletion: each later entry
    /// of the probe run whose home does not lie cyclically in
    /// `(hole, its slot]` moves back into the hole, so every remaining
    /// entry stays reachable from its home without tombstones.
    fn remove(&mut self, mut hole: usize) {
        let mask = self.entries.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            if !self.occupied(j) {
                break;
            }
            let home = self.home(&self.entries[j].key);
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.entries[hole] = self.entries[j];
                self.set_state(hole, self.state(j));
                hole = j;
            }
        }
        self.set_state(hole, 0);
        self.len -= 1;
    }

    /// Heap bytes of the entry array and the state bits.
    fn bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Entry>()
            + self.states.capacity() * std::mem::size_of::<u64>()
    }
}

/// One lock stripe: the flat memo table plus lock-free counters.
/// `entries` and `bytes` mirror the table's entry count and heap bytes,
/// so telemetry reads ([`SharedConeSynthCache::stats`]) never take the
/// table lock.
#[derive(Debug, Default)]
struct Shard {
    table: Mutex<ShardTable>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    entries: AtomicUsize,
    bytes: AtomicUsize,
}

impl Shard {
    /// Locks this shard's table, recovering a poisoned lock. The table
    /// memoizes a pure function of the key, so a shard whose invariants
    /// may have been broken by a panic mid-update is simply emptied:
    /// entries are recomputable work, never state, and an empty shard
    /// returns byte-identical areas (misses re-synthesize).
    fn lock_table(&self) -> MutexGuard<'_, ShardTable> {
        self.table.lock().unwrap_or_else(|poisoned| {
            self.table.clear_poison();
            let mut guard = poisoned.into_inner();
            *guard = ShardTable::default();
            self.entries.store(0, Ordering::Relaxed);
            self.bytes.store(0, Ordering::Relaxed);
            guard
        })
    }
}

/// Lock-striped, thread-shareable memo table of per-cone synthesis
/// results.
///
/// Keys are 128-bit structural cone keys (see the module docs), and
/// every hit compares both words. The first word picks one of the
/// [`SHARD_COUNT`] shards by its low bits and the home slot inside the
/// shard by bits the shard choice does not use. Values are a pure
/// function of the key, so concurrent insertion races are benign: every
/// racer computes identical bits, and publishing keeps the first.
///
/// Each shard is one flat open-addressed array of (key, area) entries
/// plus two state bits per slot (occupied, referenced). It is empty (no
/// heap bytes) until its first insert and doubles as it fills.
///
/// Workers never hold a shard lock while synthesizing — a miss releases
/// the lock, synthesizes the cone in place, and re-locks to publish.
///
/// # Bounding
///
/// A per-shard capacity ([`SharedConeSynthCache::with_capacity`])
/// caps residency: past it, inserts displace a CLOCK / second-chance
/// victim (hits set a reference bit; the sweeping hand evicts the first
/// unreferenced entry). Because the table memoizes a **pure function**
/// of the structural key, eviction can only cause re-synthesis — never a
/// different area — so a bounded table returns byte-identical results to
/// an unbounded one (property-tested in
/// `syncircuit-core/tests/bounded_cache_equivalence.rs`). Capacity `0`
/// means unbounded (the long-lived-process default before serving
/// budgets existed).
///
/// The hit/miss/eviction counters are pure telemetry and never influence
/// the returned areas. Per-shard entry counts and table bytes are
/// mirrored in lock-free atomics, so reading
/// [`SharedConeSynthCache::stats`] never contends with serving workers on
/// the shard locks.
#[derive(Debug)]
pub struct SharedConeSynthCache {
    shards: [Shard; SHARD_COUNT],
    /// Per-shard entry capacity (`0` = unbounded).
    capacity: usize,
    /// Cone areas that views reused from their memos (table-wide: memo
    /// hits never reach a shard).
    reused: AtomicU64,
}

impl Default for SharedConeSynthCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedConeSynthCache {
    /// Unbounded shared cache.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Shared cache with a per-shard entry capacity. `capacity == 0`
    /// means unbounded; otherwise each shard holds at most `capacity`
    /// memoized cones and further inserts evict a CLOCK / second-chance
    /// victim. Bounding never changes returned areas (the table memoizes
    /// a pure function of the key) — it only trades recall for a
    /// residency ceiling of [`SHARD_COUNT`] `× capacity` entries. No
    /// shard allocates its table before its first insert, whatever the
    /// capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        SharedConeSynthCache {
            shards: Default::default(),
            capacity,
            reused: AtomicU64::new(0),
        }
    }

    /// Number of lock stripes ([`SHARD_COUNT`]).
    pub fn shard_count(&self) -> usize {
        SHARD_COUNT
    }

    /// Per-shard entry capacity (`0` = unbounded).
    pub fn per_shard_capacity(&self) -> usize {
        self.capacity
    }

    /// Per-shard hit/miss/eviction/entry/byte counters, in shard order.
    ///
    /// Lock-free: every field is read from per-shard atomics (entry
    /// counts and table bytes are mirrored on every insert), so telemetry
    /// polling never contends with serving workers.
    ///
    /// Under concurrency the hit/miss counters are schedule-dependent
    /// (two workers racing on one cold key may record two misses); the
    /// memoized areas never are.
    pub fn stats(&self) -> Vec<ConeShardStats> {
        self.shards
            .iter()
            .map(|s| ConeShardStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                evictions: s.evictions.load(Ordering::Relaxed),
                entries: s.entries.load(Ordering::Relaxed),
                bytes: s.bytes.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Hit/miss/eviction counters summed over all shards, plus the
    /// table-wide count of cones that views reused from their memos.
    pub fn total_stats(&self) -> ConeCacheStats {
        let mut total = ConeCacheStats {
            reused: self.reused.load(Ordering::Relaxed),
            ..ConeCacheStats::default()
        };
        for s in self.shards.iter() {
            total.hits += s.hits.load(Ordering::Relaxed);
            total.misses += s.misses.load(Ordering::Relaxed);
            total.evictions += s.evictions.load(Ordering::Relaxed);
        }
        total
    }

    /// Total memoized cone entries over all shards (lock-free; the
    /// counts are mirrored in per-shard atomics on every insert).
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.entries.load(Ordering::Relaxed))
            .sum()
    }

    /// Total heap bytes of the shard tables (lock-free, mirrored like
    /// [`entries`](SharedConeSynthCache::entries)); 0 before the first
    /// insert.
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.bytes.load(Ordering::Relaxed))
            .sum()
    }

    /// Adds one `pcs_swap` call's count of reused cones.
    fn add_reused(&self, count: u64) {
        if count > 0 {
            self.reused.fetch_add(count, Ordering::Relaxed);
        }
    }

    fn shard(&self, key: &ConeKey) -> &Shard {
        &self.shards[key[0] as usize % SHARD_COUNT]
    }

    /// Memoized area for `key`, synthesizing with `synth` on a miss.
    /// `synth` runs outside the shard lock.
    fn area_or_insert(&self, key: ConeKey, synth: impl FnOnce() -> f64) -> f64 {
        let shard = self.shard(&key);
        if let Some(a) = shard.lock_table().get(&key) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return a;
        }
        shard.misses.fetch_add(1, Ordering::Relaxed);
        let a = synth();
        let mut table = shard.lock_table();
        match table.publish(key, a, self.capacity) {
            Published::Already(first) => first,
            Published::Grew => {
                shard.entries.store(table.len, Ordering::Relaxed);
                shard.bytes.store(table.bytes(), Ordering::Relaxed);
                a
            }
            Published::Evicted => {
                shard.evictions.fetch_add(1, Ordering::Relaxed);
                a
            }
        }
    }
}

/// Per-worker view of a [`SharedConeSynthCache`]: the shared memo table
/// behind an `Arc` plus private tag-stamped scratch, so warm queries
/// are allocation-free and scratch never crosses threads.
///
/// Keys are 128-bit structural keys of the cone, built *in the host
/// graph* by the same walk that collects the cone (boundary kinds,
/// member attributes, cone-local wiring). A miss synthesizes the cone in
/// place from the host graph as well, on the thread's synthesis scratch,
/// so no query ever builds a cone circuit. Identical cones — across
/// queries, registers, requests, workers, or even designs — share one
/// synthesis result.
///
/// A private evaluator ([`ConeSynthCache::new`]) owns a fresh shared
/// table; fan-out callers clone one `Arc` into
/// [`ConeSynthCache::with_shared`] per worker.
///
/// Under a swap engine ([`ConeSynthCache::pcs_swap`]) the view also
/// keeps one private memo per apex: the parent-list stamps of the apex
/// and its members, and the cone's area. A few KB per view.
#[derive(Debug)]
pub struct ConeSynthCache {
    shared: Arc<SharedConeSynthCache>,
    walk: ConeWalk,
    observed: ObservedScratch,
    /// Per-apex memo, indexed by the apex's [`NodeId::index`].
    memo: Vec<ConeMemo>,
    /// Memo reuses of the running `pcs_swap` call.
    reused: u64,
}

impl Default for ConeSynthCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ConeSynthCache {
    /// Evaluator with a private, unbounded table.
    pub fn new() -> Self {
        Self::with_shared(Arc::new(SharedConeSynthCache::new()))
    }

    /// Worker view over an existing shared table.
    pub fn with_shared(shared: Arc<SharedConeSynthCache>) -> Self {
        ConeSynthCache {
            shared,
            walk: ConeWalk::default(),
            observed: ObservedScratch::default(),
            memo: Vec::new(),
            reused: 0,
        }
    }

    /// The shared memo table this view feeds.
    pub fn shared(&self) -> &Arc<SharedConeSynthCache> {
        &self.shared
    }

    /// Aggregate cache statistics of the underlying shared table.
    pub fn stats(&self) -> ConeCacheStats {
        self.shared.total_stats()
    }

    /// Incremental cone-decomposed PCS of `g` (larger ⇒ less redundancy).
    ///
    /// Deterministic in `g` alone: the cache only memoizes a pure
    /// function of cone structure, so a warm evaluator returns exactly
    /// what a cold one would — and a shared evaluator exactly what a
    /// private one would, regardless of what other workers inserted.
    pub fn pcs(&mut self, g: &CircuitGraph) -> f64 {
        self.sweep(g, None)
    }

    /// [`ConeSynthCache::pcs`] of the engine's current graph, bit for
    /// bit, reusing the area of every cone whose apex and members still
    /// carry the parent-list stamps recorded with it (see the module
    /// docs). Reused cones are counted in [`ConeCacheStats::reused`].
    pub fn pcs_swap(&mut self, sg: &SwapGraph) -> f64 {
        let pcs = self.sweep(sg.graph(), Some(sg.stamps()));
        self.shared.add_reused(std::mem::take(&mut self.reused));
        pcs
    }

    /// The one register/output sweep behind both entry points; `stamps`
    /// enables the per-apex memo.
    fn sweep(&mut self, g: &CircuitGraph, stamps: Option<&[u64]>) -> f64 {
        let n = g.node_count();
        if n == 0 {
            return 0.0;
        }
        if stamps.is_some() && self.memo.len() < n {
            self.memo.resize_with(n, ConeMemo::default);
        }
        self.observed.mark(g);
        let mut area = 0.0;
        for (id, node) in g.iter() {
            if node.ty() != NodeType::Reg {
                continue;
            }
            if !self.observed.observed(id) {
                continue; // fan-out dead: synthesis would sweep it
            }
            area += self.cone_area(g, id, stamps);
        }
        for (id, node) in g.iter() {
            if node.ty() == NodeType::Output {
                area += self.cone_area(g, id, stamps);
            }
        }
        area / n as f64
    }

    /// Memoized post-synthesis area of the fan-in cone of `apex`. With
    /// `stamps`, an unchanged cone returns its memo; otherwise one walk
    /// collects the cone and its key, and a new key synthesizes the cone
    /// in place, loaded from the host graph into this thread's synthesis
    /// scratch.
    fn cone_area(&mut self, g: &CircuitGraph, apex: NodeId, stamps: Option<&[u64]>) -> f64 {
        if let Some(stamps) = stamps {
            if let Some(area) = self.memo[apex.index()].reuse(stamps) {
                self.reused += 1;
                return area;
            }
        }
        let key = self.walk.walk(g, apex);
        let walk = &self.walk;
        let area = self.shared.area_or_insert(key, || {
            with_scratch(|synth| {
                walk.load(g, apex, synth);
                synth.area()
            })
        });
        if let Some(stamps) = stamps {
            self.memo[apex.index()].record(apex, &self.walk.members, stamps, area);
        }
        area
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alive_and_dead() -> (CircuitGraph, CircuitGraph) {
        // alive: xor(i1, i2) → reg → out. dead: xor(i, i) → reg → out.
        let mut alive = CircuitGraph::new("alive");
        let i1 = alive.add_node(NodeType::Input, 8);
        let i2 = alive.add_node(NodeType::Input, 8);
        let x = alive.add_node(NodeType::Xor, 8);
        let r = alive.add_node(NodeType::Reg, 8);
        let o = alive.add_node(NodeType::Output, 8);
        alive.set_parents(x, &[i1, i2]).unwrap();
        alive.set_parents(r, &[x]).unwrap();
        alive.set_parents(o, &[r]).unwrap();

        let mut dead = CircuitGraph::new("dead");
        let i = dead.add_node(NodeType::Input, 8);
        let i2 = dead.add_node(NodeType::Input, 8);
        let x = dead.add_node(NodeType::Xor, 8);
        let r = dead.add_node(NodeType::Reg, 8);
        let o = dead.add_node(NodeType::Output, 8);
        let _ = i2;
        dead.set_parents(x, &[i, i]).unwrap();
        dead.set_parents(r, &[x]).unwrap();
        dead.set_parents(o, &[r]).unwrap();
        (alive, dead)
    }

    #[test]
    fn orders_cone_collapse() {
        let (alive, dead) = alive_and_dead();
        let mut ev = ConeSynthCache::new();
        assert!(ev.pcs(&alive) > ev.pcs(&dead));
    }

    #[test]
    fn fanout_dead_register_scores_lower() {
        // observed: in → reg → out. unobserved: in → reg, out ← in.
        let mut obs = CircuitGraph::new("obs");
        let i = obs.add_node(NodeType::Input, 8);
        let r = obs.add_node(NodeType::Reg, 8);
        let o = obs.add_node(NodeType::Output, 8);
        obs.set_parents(r, &[i]).unwrap();
        obs.set_parents(o, &[r]).unwrap();

        let mut dead = CircuitGraph::new("deadfan");
        let i = dead.add_node(NodeType::Input, 8);
        let r = dead.add_node(NodeType::Reg, 8);
        let o = dead.add_node(NodeType::Output, 8);
        dead.set_parents(r, &[i]).unwrap();
        dead.set_parents(o, &[i]).unwrap();

        let mut ev = ConeSynthCache::new();
        assert!(ev.pcs(&obs) > ev.pcs(&dead));
    }

    #[test]
    fn warm_cache_matches_cold_cache() {
        let (alive, dead) = alive_and_dead();
        let mut warm = ConeSynthCache::new();
        let w1 = warm.pcs(&alive);
        let w2 = warm.pcs(&dead);
        let w3 = warm.pcs(&alive);
        let mut cold = ConeSynthCache::new();
        assert_eq!(cold.pcs(&alive), w1);
        let mut cold = ConeSynthCache::new();
        assert_eq!(cold.pcs(&dead), w2);
        assert_eq!(w1, w3, "re-evaluation must be exact");
    }

    #[test]
    fn repeated_queries_hit_cache() {
        let (alive, _) = alive_and_dead();
        let mut ev = ConeSynthCache::new();
        ev.pcs(&alive);
        let misses_after_first = ev.stats().misses;
        ev.pcs(&alive);
        assert_eq!(
            ev.stats().misses,
            misses_after_first,
            "second query is all hits"
        );
        assert!(ev.stats().hits > 0);
    }

    #[test]
    fn shared_cone_structure_shares_entries() {
        // Two registers with identical cones: one synthesis, one hit.
        let mut g = CircuitGraph::new("twin");
        let i = g.add_node(NodeType::Input, 8);
        let n1 = g.add_node(NodeType::Not, 8);
        let n2 = g.add_node(NodeType::Not, 8);
        let r1 = g.add_node(NodeType::Reg, 8);
        let r2 = g.add_node(NodeType::Reg, 8);
        let o1 = g.add_node(NodeType::Output, 8);
        let o2 = g.add_node(NodeType::Output, 8);
        g.set_parents(n1, &[i]).unwrap();
        g.set_parents(n2, &[i]).unwrap();
        g.set_parents(r1, &[n1]).unwrap();
        g.set_parents(r2, &[n2]).unwrap();
        g.set_parents(o1, &[r1]).unwrap();
        g.set_parents(o2, &[r2]).unwrap();
        let mut ev = ConeSynthCache::new();
        ev.pcs(&g);
        assert!(
            ev.stats().hits >= 1,
            "structurally identical cones must share a cache entry: {:?}",
            ev.stats()
        );
    }

    #[test]
    fn empty_graph_scores_zero() {
        let mut ev = ConeSynthCache::new();
        assert_eq!(ev.pcs(&CircuitGraph::new("empty")), 0.0);
    }

    #[test]
    fn scratch_reuse_is_stable_over_many_queries() {
        // Warm queries ride entirely on tag-stamped scratch; a thousand
        // alternating evaluations must stay bit-identical to the first.
        let (alive, dead) = alive_and_dead();
        let mut ev = ConeSynthCache::new();
        let a0 = ev.pcs(&alive);
        let d0 = ev.pcs(&dead);
        let cold_misses = ev.stats().misses;
        for _ in 0..1000 {
            assert_eq!(ev.pcs(&alive).to_bits(), a0.to_bits());
            assert_eq!(ev.pcs(&dead).to_bits(), d0.to_bits());
        }
        let s = ev.stats();
        assert_eq!(s.misses, cold_misses, "only the cold queries synthesize");
    }

    #[test]
    fn shared_views_match_private_evaluators() {
        // Worker views over one shared table return exactly what private
        // evaluators do, even when another view already warmed the key.
        let (alive, dead) = alive_and_dead();
        let mut private = ConeSynthCache::new();
        let a0 = private.pcs(&alive);
        let d0 = private.pcs(&dead);

        let shared = Arc::new(SharedConeSynthCache::new());
        let mut w1 = ConeSynthCache::with_shared(shared.clone());
        let mut w2 = ConeSynthCache::with_shared(shared.clone());
        assert_eq!(w1.pcs(&alive).to_bits(), a0.to_bits());
        // w2 rides entirely on w1's entries …
        let misses_before = shared.total_stats().misses;
        assert_eq!(w2.pcs(&alive).to_bits(), a0.to_bits());
        assert_eq!(shared.total_stats().misses, misses_before, "w2 is all hits");
        // … and fresh keys still synthesize identically.
        assert_eq!(w2.pcs(&dead).to_bits(), d0.to_bits());
    }

    #[test]
    fn shard_striping_covers_multiple_shards() {
        let shared = Arc::new(SharedConeSynthCache::new());
        assert_eq!(shared.shard_count(), SHARD_COUNT);
        let mut ev = ConeSynthCache::with_shared(shared.clone());
        // A handful of distinct cones lands entries across shards.
        let mut rng_widths = [2u32, 4, 8, 16, 24, 32, 48, 64];
        rng_widths.reverse();
        for w in rng_widths {
            let mut g = CircuitGraph::new("probe");
            let i = g.add_node(NodeType::Input, w);
            let r = g.add_node(NodeType::Reg, w);
            let o = g.add_node(NodeType::Output, w);
            g.set_parents(r, &[i]).unwrap();
            g.set_parents(o, &[r]).unwrap();
            ev.pcs(&g);
        }
        let stats = shared.stats();
        assert_eq!(stats.len(), SHARD_COUNT);
        let populated = stats.iter().filter(|s| s.entries > 0).count();
        assert!(
            populated >= 2,
            "striping should spread 16 keys over shards: {stats:?}"
        );
        let entries: usize = stats.iter().map(|s| s.entries).sum();
        assert_eq!(entries, shared.entries());
    }

    /// The masked-counter fixture: a self-feeding counter behind a
    /// constant that needs masking (pushed unmasked; `cone_circuit_parts`
    /// masks it), read through a bit-select by an output (a sink apex).
    fn masked_counter() -> CircuitGraph {
        let mut g = CircuitGraph::new("masked_counter");
        let c = g.push_node(Node::with_aux(NodeType::Const, 4, 0xFF));
        let r = g.add_node(NodeType::Reg, 4);
        let s = g.add_node(NodeType::Add, 4);
        let b = g.add_bit_select(2, 1);
        let o = g.add_node(NodeType::Output, 2);
        g.set_parents(s, &[r, c]).unwrap();
        g.set_parents(r, &[s]).unwrap();
        g.set_parents(b, &[r]).unwrap();
        g.set_parents(o, &[b]).unwrap();
        g
    }

    /// The fixture, then 300 random circuits of 6 to 75 nodes.
    fn walk_fixtures() -> impl Iterator<Item = CircuitGraph> {
        use rand::{rngs::StdRng, SeedableRng};
        use syncircuit_graph::testing::random_circuit_with_size;
        let mut rng = StdRng::seed_from_u64(0x5EED_C0DE);
        std::iter::once(masked_counter())
            .chain((0..300).map(move |k| random_circuit_with_size(&mut rng, 6 + k % 70)))
    }

    /// Which of (self-feeding register, constant boundary, bit-select
    /// member, sink apex) the cone of `apex` shows.
    fn cone_shapes(g: &CircuitGraph, apex: NodeId, walk: &ConeWalk) -> [bool; 4] {
        let ty = g.ty(apex);
        let self_feeding = ty == NodeType::Reg
            && (g.parents(apex).contains(&apex)
                || walk.members.iter().any(|&m| g.parents(m).contains(&apex)));
        [
            self_feeding,
            walk.boundary.iter().any(|&b| g.ty(b) == NodeType::Const),
            walk.members.iter().any(|&m| g.ty(m) == NodeType::BitSelect),
            ty.is_sink(),
        ]
    }

    /// Runs `check` on the walk of every register and output cone of the
    /// fixture and the random circuits, and asserts that the fixture
    /// alone, and the random circuits together, show every cone shape.
    fn for_each_walked_cone(mut check: impl FnMut(&CircuitGraph, NodeId, &ConeWalk)) {
        let mut walk = ConeWalk::default();
        let mut covered = [false; 4];
        for (k, g) in walk_fixtures().enumerate() {
            for (apex, node) in g.iter() {
                if !matches!(node.ty(), NodeType::Reg | NodeType::Output) {
                    continue;
                }
                walk.walk(&g, apex);
                check(&g, apex, &walk);
                for (all, one) in covered.iter_mut().zip(cone_shapes(&g, apex, &walk)) {
                    *all |= one;
                }
            }
            if k == 0 {
                assert_eq!(covered, [true; 4], "the fixture covers every cone shape");
                covered = [false; 4];
            }
        }
        assert_eq!(covered, [true; 4], "random circuits cover every cone shape");
    }

    #[test]
    fn fused_walk_matches_fanin_cone_order() {
        use syncircuit_graph::cone::{fanin_cone_into, ConeScratch};
        let mut cone = ConeScratch::new();
        for_each_walked_cone(|g, apex, walk| {
            let (members, boundary) = fanin_cone_into(g, apex, &mut cone);
            assert_eq!(
                walk.members,
                members,
                "{}: members of the {apex} cone",
                g.name()
            );
            assert_eq!(
                walk.boundary,
                boundary,
                "{}: boundary of the {apex} cone",
                g.name()
            );
        });
    }

    #[test]
    fn in_place_miss_path_matches_standalone_cone_circuits() {
        // Loads every register and output cone in place and checks the
        // flat netlist and its area against the standalone cone circuit.
        use crate::passes::optimized_area;
        use syncircuit_graph::cone::cone_circuit_parts;
        let mut synth = SynthScratch::default();
        for_each_walked_cone(|g, apex, walk| {
            walk.load(g, apex, &mut synth);
            let oracle = cone_circuit_parts(g, apex, &walk.members, &walk.boundary).circuit;
            assert_eq!(synth.len(), oracle.node_count(), "{}: node count", g.name());
            for (id, want) in oracle.iter() {
                let (got, parents) = synth.node(id.index());
                assert_eq!(got, *want, "{}: node {id} of the {apex} cone", g.name());
                let want_parents: Vec<usize> =
                    oracle.parents(id).iter().map(|p| p.index()).collect();
                assert_eq!(
                    parents,
                    want_parents.as_slice(),
                    "{}: parents of {id}",
                    g.name()
                );
            }
            let in_place = synth.area();
            let standalone = optimized_area(&oracle);
            assert_eq!(
                in_place.to_bits(),
                standalone.to_bits(),
                "{}: area of the {apex} cone",
                g.name()
            );
        });
    }

    /// A chain of `len` NOT gates feeding a register: every length is a
    /// structurally distinct cone, so `probe(0..n)` yields `n` distinct
    /// cache keys.
    fn probe(len: usize) -> CircuitGraph {
        let mut g = CircuitGraph::new("probe");
        let mut prev = g.add_node(NodeType::Input, 8);
        for _ in 0..len {
            let n = g.add_node(NodeType::Not, 8);
            g.set_parents(n, &[prev]).unwrap();
            prev = n;
        }
        let r = g.add_node(NodeType::Reg, 8);
        let o = g.add_node(NodeType::Output, 8);
        g.set_parents(r, &[prev]).unwrap();
        g.set_parents(o, &[r]).unwrap();
        g
    }

    /// `count` probes whose register cones all key into one stripe,
    /// shortest chains first. Their output cones share one key (an
    /// output fed by an 8-bit register), so a per-shard capacity below
    /// `count` churns that stripe as it would a one-stripe table.
    fn probes_in_one_stripe(count: usize) -> Vec<CircuitGraph> {
        let mut walk = ConeWalk::default();
        let mut stripe = |len: usize| {
            let g = probe(len);
            let reg = g.nodes_of_type(NodeType::Reg)[0];
            walk.walk(&g, reg)[0] as usize % SHARD_COUNT
        };
        let target = stripe(0);
        (0..)
            .filter(|&len| stripe(len) == target)
            .take(count)
            .map(probe)
            .collect()
    }

    /// Whether every shard holds at most `capacity` entries.
    fn within(shared: &SharedConeSynthCache, capacity: usize) -> bool {
        shared.stats().iter().all(|s| s.entries <= capacity)
    }

    #[test]
    fn bounded_cache_matches_unbounded_bit_for_bit() {
        // Eight cones in one 2-entry stripe under heavy churn must return
        // exactly what the unbounded table does — eviction only costs
        // work.
        let unbounded = Arc::new(SharedConeSynthCache::new());
        let bounded = Arc::new(SharedConeSynthCache::with_capacity(2));
        assert_eq!(bounded.per_shard_capacity(), 2);
        let mut u = ConeSynthCache::with_shared(unbounded.clone());
        let mut b = ConeSynthCache::with_shared(bounded.clone());
        let graphs = probes_in_one_stripe(8);
        for _round in 0..3 {
            for g in &graphs {
                assert_eq!(u.pcs(g).to_bits(), b.pcs(g).to_bits());
            }
        }
        assert!(within(&bounded, 2), "capacity holds: {:?}", bounded.stats());
        let s = bounded.total_stats();
        assert!(s.evictions > 0, "churn must evict: {s:?}");
        assert_eq!(
            unbounded.total_stats().evictions,
            0,
            "unbounded table never evicts"
        );
    }

    #[test]
    fn clock_eviction_prefers_unreferenced_slots() {
        // With capacity 3 and hits keeping two keys referenced, churn
        // through fresh keys must leave the hot keys resident more often
        // than not: re-query them and require zero new misses when they
        // were just re-referenced back-to-back.
        let shared = Arc::new(SharedConeSynthCache::with_capacity(3));
        let mut ev = ConeSynthCache::with_shared(shared.clone());
        let probes = probes_in_one_stripe(6);
        let hot = &probes[0];
        ev.pcs(hot); // resident, referenced
        let misses_warm = shared.total_stats().misses;
        ev.pcs(hot);
        assert_eq!(
            shared.total_stats().misses,
            misses_warm,
            "immediate re-query hits"
        );
        // Churn far past capacity, then confirm the table still answers
        // every key correctly (exactness under displacement).
        let mut cold = ConeSynthCache::new();
        for g in &probes {
            assert_eq!(ev.pcs(g).to_bits(), cold.pcs(g).to_bits());
        }
        assert!(shared.total_stats().evictions > 0, "the stripe churns");
        assert!(within(&shared, 3));
    }

    #[test]
    fn entry_counters_are_lock_free_mirrors() {
        // stats()/entries() must agree with the locked maps.
        let shared = Arc::new(SharedConeSynthCache::with_capacity(2));
        let mut ev = ConeSynthCache::with_shared(shared.clone());
        for g in &probes_in_one_stripe(7) {
            ev.pcs(g);
        }
        let stats = shared.stats();
        let mirrored: usize = stats.iter().map(|s| s.entries).sum();
        assert_eq!(mirrored, shared.entries());
        assert_eq!(check_tables(&shared), mirrored);
        assert!((1..=4).contains(&mirrored), "within 2 shards x 2 slots");
    }

    #[test]
    fn poisoned_shard_recovers_by_clearing() {
        let shared = Arc::new(SharedConeSynthCache::new());
        let mut ev = ConeSynthCache::with_shared(shared.clone());
        let g = probe(2);
        let before = ev.pcs(&g);
        assert!(shared.entries() > 0);
        // Poison every shard: panic while holding all their map locks.
        let poisoner = shared.clone();
        assert!(std::panic::catch_unwind(move || {
            let _guards: Vec<_> = poisoner
                .shards
                .iter()
                .map(|s| s.table.lock().unwrap())
                .collect();
            panic!("poison the cone shards");
        })
        .is_err());
        // The next query recovers by clearing the shard — memo entries
        // are recomputable work — and re-synthesizes byte-identically.
        let after = ev.pcs(&g);
        assert_eq!(before.to_bits(), after.to_bits());
        assert!(
            shared.entries() > 0,
            "entry mirror re-tracks after the clear"
        );
        assert_eq!(
            shared.entries(),
            shared.stats().iter().map(|s| s.entries).sum::<usize>()
        );
    }

    /// Walks `view` along random `try_apply` / `undo` / `apply_replay`
    /// writes on a random circuit, checking after every write that
    /// `pcs_swap` equals a stateless `pcs` of the same graph bit for bit.
    fn check_swap_walk(view: &mut ConeSynthCache, seed: u64) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use syncircuit_graph::testing::random_circuit_with_size;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_circuit_with_size(&mut rng, 16 + (seed % 24) as usize);
        let mut reference = ConeSynthCache::new();
        let mut sg = SwapGraph::new(g);
        let mut applied = Vec::new();
        for _ in 0..80 {
            match rng.gen_range(0..4) {
                0 | 1 => {
                    let edges: Vec<_> = sg.graph().edges().collect();
                    let a = edges[rng.gen_range(0..edges.len())];
                    let b = edges[rng.gen_range(0..edges.len())];
                    applied.extend(sg.try_apply(a.from, a.to, b.from, b.to));
                }
                2 => {
                    if let Some(d) = applied.pop() {
                        sg.undo(&d);
                    }
                }
                _ => {
                    if let Some(d) = applied.last() {
                        sg.undo(d);
                        sg.apply_replay(d);
                    }
                }
            }
            assert_eq!(
                view.pcs_swap(&sg).to_bits(),
                reference.pcs(sg.graph()).to_bits(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn pcs_swap_matches_pcs_along_random_swaps() {
        // One private view walks several designs in turn, so its memo
        // sees node ids of earlier engines; shared tables add workers
        // walking overlapping designs at once.
        let mut private = ConeSynthCache::new();
        for seed in 0..6 {
            check_swap_walk(&mut private, seed);
        }
        assert!(private.stats().reused > 0, "the memo must be exercised");
        for workers in [1u64, 2, 4, 8] {
            let shared = Arc::new(SharedConeSynthCache::new());
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let shared = shared.clone();
                    scope.spawn(move || {
                        let mut view = ConeSynthCache::with_shared(shared);
                        for seed in w..w + 3 {
                            check_swap_walk(&mut view, seed);
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn reused_cones_are_counted() {
        let (alive, _) = alive_and_dead();
        let sg = SwapGraph::new(alive);
        let counted = Arc::new(SharedConeSynthCache::new());
        let mut a = ConeSynthCache::with_shared(counted.clone());
        let first = a.pcs_swap(&sg).to_bits();
        for _ in 0..2 {
            assert_eq!(a.pcs_swap(&sg).to_bits(), first);
        }
        // Two cones (register and output): the first call synthesizes
        // both, the next two reuse both without reaching a shard.
        let expected = ConeCacheStats {
            hits: 0,
            misses: 2,
            evictions: 0,
            reused: 4,
        };
        assert_eq!(counted.total_stats(), expected);
    }

    #[test]
    fn concurrent_workers_agree_with_sequential() {
        // Interleaved alive/dead queries over one shared table must
        // reproduce the private evaluator bit-for-bit.
        let threads = stress_workers();
        let (alive, dead) = alive_and_dead();
        let mut private = ConeSynthCache::new();
        let a0 = private.pcs(&alive).to_bits();
        let d0 = private.pcs(&dead).to_bits();
        let shared = Arc::new(SharedConeSynthCache::new());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut view = ConeSynthCache::with_shared(shared.clone());
                    for _ in 0..50 {
                        assert_eq!(view.pcs(&alive).to_bits(), a0);
                        assert_eq!(view.pcs(&dead).to_bits(), d0);
                    }
                });
            }
        });
        // All four distinct cone keys are memoized exactly once each in
        // the table (raced duplicates collapse via or_insert).
        assert!(shared.entries() >= 2);
    }

    /// Locks every shard of `shared` and checks each table against its
    /// mirrors and its own invariants: every stored entry is found from
    /// its home, and `len` counts the occupied slots. Returns the live
    /// entry count.
    fn check_tables(shared: &SharedConeSynthCache) -> usize {
        let mut live = 0;
        for (s, shard) in shared.shards.iter().zip(shared.stats()) {
            let table = s.table.lock().unwrap();
            let occupied = (0..table.entries.len()).filter(|&i| table.occupied(i));
            for i in occupied.clone() {
                assert_eq!(
                    table.find(&table.entries[i].key),
                    Some(i),
                    "slot {i} unreachable"
                );
            }
            assert_eq!(occupied.count(), table.len);
            assert_eq!(shard.entries, table.len, "entries mirror");
            assert_eq!(shard.bytes, table.bytes(), "bytes mirror");
            live += table.len;
        }
        assert_eq!(live, shared.entries());
        live
    }

    /// A distinct area per key, so a hit on the wrong entry shows.
    fn area_of(key: ConeKey) -> f64 {
        (key[0] ^ key[1].rotate_left(17)) as f64
    }

    #[test]
    fn both_key_words_are_compared() {
        // Word 0 picks shard and slot; two keys that agree in it must
        // still be two entries, each returning its own area.
        let shared = SharedConeSynthCache::new();
        let a = [0x0123_4567_89AB_CDEF, 1];
        let b = [0x0123_4567_89AB_CDEF, 2];
        assert_eq!(shared.area_or_insert(a, || 1.5), 1.5);
        assert_eq!(shared.area_or_insert(b, || 2.5), 2.5, "b is not a's entry");
        assert_eq!(shared.entries(), 2);
        let hit = || -> f64 { panic!("a stored key must hit") };
        assert_eq!(shared.area_or_insert(a, hit), 1.5);
        assert_eq!(shared.area_or_insert(b, hit), 2.5);
        assert_eq!(shared.total_stats().hits, 2);
        check_tables(&shared);
    }

    #[test]
    fn the_zero_key_is_an_ordinary_key() {
        // Emptiness lives in the state bits: an empty slot, whose entry
        // is all zero, must not answer the all-zero key, and that key
        // must be stored like any other. The first key shares the zero
        // key's stripe and home slot, so its table is allocated.
        let shared = SharedConeSynthCache::new();
        assert_eq!(shared.area_or_insert([0x50, 6], || 1.0), 1.0);
        assert_eq!(shared.area_or_insert([0, 0], || 2.0), 2.0, "a miss");
        let hit = || -> f64 { panic!("the zero key must be stored") };
        assert_eq!(shared.area_or_insert([0, 0], hit), 2.0);
        assert_eq!(check_tables(&shared), 2);
    }

    #[test]
    fn flat_table_matches_a_map_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::cell::Cell;
        use std::collections::HashMap;
        let mut rng = StdRng::seed_from_u64(0xF1A7);
        // Random keys, plus runs that share word 0 (one home slot, and so
        // long probe runs for backward shifts to close) or its slot bits.
        let mut pool: Vec<ConeKey> = (0..160).map(|_| [rng.gen(), rng.gen()]).collect();
        for k in 0..48u64 {
            pool.push([0xABCD_0000_0000_0003, k]);
            pool.push([(k << 40) | 0x5, rng.gen()]);
        }
        pool.push([0, 0]);
        let stripe_bits = SHARD_COUNT as u64 - 1;
        for capacity in [0usize, 1, 2, 3, 64] {
            // Every key routed into stripe 0 (its low bits cleared), so
            // one table sees them all; then keys spread over the stripes.
            for one_stripe in [true, false] {
                let shared = SharedConeSynthCache::with_capacity(capacity);
                let mut model: HashMap<ConeKey, f64> = HashMap::new();
                for step in 0..4000 {
                    let [w0, w1] = pool[rng.gen_range(0..pool.len())];
                    let key = if one_stripe {
                        [w0 & !stripe_bits, w1]
                    } else {
                        [w0, w1]
                    };
                    let missed = Cell::new(false);
                    let got = shared.area_or_insert(key, || {
                        missed.set(true);
                        area_of(key)
                    });
                    let first = !model.contains_key(&key);
                    let want = *model.entry(key).or_insert_with(|| area_of(key));
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "step {step}: area of {key:x?}"
                    );
                    if capacity == 0 {
                        assert_eq!(
                            missed.get(),
                            first,
                            "step {step}: unbounded misses only new keys"
                        );
                    }
                    let live = check_tables(&shared);
                    if capacity > 0 {
                        for s in shared.stats() {
                            assert!(s.entries <= capacity, "cap {capacity}: {s:?}");
                        }
                    } else {
                        assert_eq!(live, model.len(), "unbounded keeps every key");
                    }
                }
                let stats = shared.total_stats();
                if capacity == 0 {
                    assert_eq!(stats.evictions, 0, "unbounded never evicts");
                    assert_eq!(stats.misses as usize, model.len(), "one miss per key");
                    for key in model.keys() {
                        shared.area_or_insert(*key, || panic!("unbounded lost {key:x?}"));
                    }
                } else if capacity < 64 {
                    assert!(
                        stats.evictions > 0,
                        "cap {capacity} (one stripe: {one_stripe}) must churn"
                    );
                }
            }
        }
    }

    /// Worker count of the threaded tests: 4 by default; the CI
    /// threaded-stress step raises it via SYNCIRCUIT_STRESS_WORKERS.
    fn stress_workers() -> usize {
        std::env::var("SYNCIRCUIT_STRESS_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(4)
    }

    #[test]
    fn racing_publishers_keep_the_first_area() {
        // Every worker misses the same cold key (the barrier holds them
        // all inside synthesis), then publishes its own area: all must
        // return the area published first, stored once.
        let workers = stress_workers();
        for capacity in [0, 1] {
            let shared = SharedConeSynthCache::with_capacity(capacity);
            let key = [0x00DD_BA11_C0FF_EE00, 7];
            let barrier = std::sync::Barrier::new(workers);
            let got: Vec<f64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let (shared, barrier) = (&shared, &barrier);
                        scope.spawn(move || {
                            shared.area_or_insert(key, || {
                                barrier.wait();
                                w as f64
                            })
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(
                got.iter().all(|&a| a == got[0]),
                "one area for all: {got:?}"
            );
            assert_eq!(
                shared.area_or_insert(key, || -1.0),
                got[0],
                "the stored area"
            );
            let stats = shared.total_stats();
            assert_eq!(stats.misses as usize, workers);
            assert_eq!(stats.evictions, 0);
            assert_eq!(check_tables(&shared), 1, "one entry, mirrored exactly");
        }
    }

    #[test]
    fn tables_allocate_nothing_before_the_first_insert() {
        // A capacity no table could hold: still no table bytes until a
        // cone is stored.
        let shared = SharedConeSynthCache::with_capacity(usize::MAX);
        assert_eq!(shared.bytes(), 0);
        assert!(shared
            .stats()
            .iter()
            .all(|s| s.bytes == 0 && s.entries == 0));
        let shared = Arc::new(shared);
        let mut ev = ConeSynthCache::with_shared(shared.clone());
        let (alive, _) = alive_and_dead();
        assert_eq!(
            ev.pcs(&alive).to_bits(),
            ConeSynthCache::new().pcs(&alive).to_bits()
        );
        let populated = shared.stats().iter().filter(|s| s.bytes > 0).count();
        assert!(populated > 0 && populated <= shared.entries());
        assert_eq!(
            shared.bytes(),
            populated * (MIN_SLOTS * std::mem::size_of::<Entry>() + std::mem::size_of::<u64>()),
            "each touched shard holds its first slots only"
        );
        check_tables(&shared);
    }
}
