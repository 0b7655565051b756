//! Equivalence of the batched lattice path with the per-mask path:
//! [`SafeBound::bound_subsets`] must return, for every mask, exactly
//! `bound_with_session(&query.induced(mask))` — bit for bit, errors
//! included — over random queries (cyclic, self-joins, undeclared join
//! columns, tables without statistics) and random mask lists
//! (disconnected, duplicated, empty, bits past the last relation), with a
//! statistics hot swap in the middle of each sequence.

use proptest::prelude::*;
use safebound_core::{BoundSession, EstimateError, SafeBound, SafeBoundBuilder, SafeBoundConfig};
use safebound_query::{CmpOp, Predicate, Query, RelationRef};
use safebound_storage::{Catalog, Column, DataType, Field, Schema, Table, Value};

/// `dim` (PK `id`) with two fact tables referencing it (`fact.fk`,
/// `ev.fk`), so a relation can receive propagations from several
/// neighbours. `skew` varies the data between the two builds of a run.
fn catalog(skew: i64) -> Catalog {
    let mut c = Catalog::new();
    let names = [
        "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet",
    ];
    c.add_table(Table::new(
        "dim",
        Schema::new(vec![
            Field::not_null("id", DataType::Int),
            Field::new("w", DataType::Int),
            Field::new("name", DataType::Str),
        ]),
        vec![
            Column::from_ints((0..10).map(Some)),
            Column::from_ints((0..10).map(|i| Some((i + skew) % 4))),
            Column::from_strs(names.map(Some)),
        ],
    ));
    let (mut fk, mut a, mut efk, mut b) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for v in 0i64..10 {
        for r in 0..(24 / (v + 1) + skew) {
            fk.push(Some(v));
            a.push(Some((r + v) % 8));
        }
        for r in 0..((v * 3 + skew) % 7 + 1) {
            efk.push(Some((v + r) % 12)); // some dangling keys
            b.push(Some(r % 6));
        }
    }
    c.add_table(Table::new(
        "fact",
        Schema::new(vec![
            Field::new("fk", DataType::Int),
            Field::new("a", DataType::Int),
        ]),
        vec![Column::from_ints(fk), Column::from_ints(a)],
    ));
    c.add_table(Table::new(
        "ev",
        Schema::new(vec![
            Field::new("fk", DataType::Int),
            Field::new("b", DataType::Int),
        ]),
        vec![Column::from_ints(efk), Column::from_ints(b)],
    ));
    c.declare_primary_key("dim", "id");
    c.declare_foreign_key("fact", "fk", "dim", "id");
    c.declare_foreign_key("ev", "fk", "dim", "id");
    c
}

/// SplitMix64: the query generator's deterministic stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// The join column a table offers (`ghost` has no statistics at all).
fn key_col(table: &str, rng: &mut Rng) -> &'static str {
    match table {
        "dim" => "id",
        "fact" if rng.chance(20) => "a", // undeclared join column
        "ev" if rng.chance(20) => "b",
        "ghost" => "g",
        _ => "fk",
    }
}

fn leaf(table: &str, rng: &mut Rng) -> Predicate {
    let int = |rng: &mut Rng, hi: u64| Value::Int(rng.below(hi) as i64);
    match (table, rng.below(5)) {
        ("dim", 0) => Predicate::Eq("w".into(), int(rng, 5)),
        ("dim", 1) => Predicate::Like(
            "name".into(),
            ["%a%", "%lph%", "ch%", "%o", "%zz%"][rng.below(5) as usize].into(),
        ),
        ("dim", 2) => Predicate::In("w".into(), vec![int(rng, 5), int(rng, 5)]),
        ("dim", _) => Predicate::Cmp("id".into(), CmpOp::Lt, int(rng, 12)),
        ("fact", 0) => Predicate::Eq("a".into(), int(rng, 9)),
        ("fact", 1) => Predicate::Between("a".into(), int(rng, 9), int(rng, 9)),
        ("fact", 2) => Predicate::In("a".into(), vec![int(rng, 9), int(rng, 9), int(rng, 9)]),
        ("fact", _) => Predicate::Cmp("a".into(), CmpOp::Ge, int(rng, 9)),
        ("ev", 0 | 1) => Predicate::Eq("b".into(), int(rng, 7)),
        ("ev", _) => Predicate::Cmp("b".into(), CmpOp::Le, int(rng, 7)),
        _ => Predicate::Eq("g".into(), int(rng, 3)),
    }
}

fn predicate(table: &str, rng: &mut Rng) -> Predicate {
    match rng.below(4) {
        0 => Predicate::And(vec![leaf(table, rng), leaf(table, rng)]),
        1 => Predicate::Or(vec![leaf(table, rng), leaf(table, rng)]),
        _ => leaf(table, rng),
    }
}

/// A random query of 1–6 relations: a random spanning structure plus
/// extra edges (cycles and parallel edges), self-joins through aliases,
/// and a predicate on most relations. With `ghost`, one relation may
/// reference a table without statistics.
fn random_query(rng: &mut Rng, ghost: bool) -> Query {
    let mut q = Query::new();
    let n = 1 + rng.below(6) as usize;
    for i in 0..n {
        let mut table = ["dim", "fact", "ev"][rng.below(3) as usize];
        if ghost && rng.chance(15) {
            table = "ghost";
        }
        q.add_relation(RelationRef::aliased(table, &format!("r{i}")));
    }
    let link = |q: &mut Query, l: usize, r: usize, rng: &mut Rng| {
        let (tl, tr) = (q.relations[l].table.clone(), q.relations[r].table.clone());
        let (cl, cr) = (key_col(&tl, rng), key_col(&tr, rng));
        q.add_join(l, cl, r, cr);
    };
    for r in 1..n {
        if rng.chance(85) {
            let l = rng.below(r as u64) as usize;
            link(&mut q, l, r, rng);
        }
    }
    for _ in 0..rng.below(3) {
        let (l, r) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
        if l != r {
            link(&mut q, l, r, rng);
        }
    }
    for rel in 0..n {
        if rng.chance(70) {
            let table = q.relations[rel].table.clone();
            q.add_predicate(rel, predicate(&table, rng));
        }
    }
    q
}

fn random_masks(rng: &mut Rng, n: usize) -> Vec<u64> {
    let full = (1u64 << n) - 1;
    let mut masks: Vec<u64> = (0..1 + rng.below(12)).map(|_| rng.next() & full).collect();
    masks.push(full);
    if rng.chance(30) {
        masks.push(masks[0]); // duplicate
    }
    if rng.chance(20) {
        masks.push(full | 1 << 40); // bits past the last relation
    }
    masks
}

/// `bound_subsets` against the per-mask reference, bit for bit.
fn assert_equivalent(
    sb: &SafeBound,
    q: &Query,
    masks: &[u64],
    batched: &mut BoundSession,
    reference: &mut BoundSession,
) -> Result<(), TestCaseError> {
    let mut out = Vec::new();
    sb.bound_subsets(q, masks, batched, &mut out);
    prop_assert_eq!(out.len(), masks.len());
    for (&mask, got) in masks.iter().zip(&out) {
        let want = sb.bound_with_session(&q.induced(mask), reference);
        match (got, &want) {
            (Ok(g), Ok(w)) => prop_assert!(
                g.to_bits() == w.to_bits(),
                "mask {mask:#b}: batched {g} vs per-mask {w}\n{q:?}"
            ),
            _ => prop_assert!(got == &want, "mask {mask:#b}: {got:?} vs {want:?}\n{q:?}"),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn bound_subsets_matches_per_mask_bounds(seed in any::<u64>()) {
        let sb = SafeBound::build(&catalog(0), SafeBoundConfig::test_small());
        let mut rng = Rng(seed);
        // Small shape capacity: topology entries churn through the LRU
        // mid-call as well as across calls.
        let mut batched = BoundSession::with_shape_capacity(1 + rng.below(12) as usize);
        let mut reference = BoundSession::new();
        for step in 0..6 {
            if step == 3 {
                let stats = SafeBoundBuilder::new(SafeBoundConfig::test_small()).build(&catalog(2));
                sb.swap_stats(stats);
            }
            let q = random_query(&mut rng, step % 2 == 1);
            let masks = random_masks(&mut rng, q.num_relations());
            assert_equivalent(&sb, &q, &masks, &mut batched, &mut reference)?;
        }
    }
}

#[test]
fn unknown_table_fails_only_its_masks() {
    let sb = SafeBound::build(&catalog(0), SafeBoundConfig::test_small());
    let mut q = Query::new();
    let d = q.add_relation(RelationRef::new("dim"));
    let f = q.add_relation(RelationRef::new("fact"));
    let g = q.add_relation(RelationRef::new("ghost"));
    q.add_join(f, "fk", d, "id");
    q.add_join(g, "g", d, "id");
    q.add_predicate(d, Predicate::Eq("w".into(), Value::Int(1)));
    let masks = [0b011, 0b100, 0b111, 0b001, 0b110];
    let mut out = Vec::new();
    sb.bound_subsets(&q, &masks, &mut BoundSession::new(), &mut out);
    let unknown = Err(EstimateError::UnknownTable("ghost".into()));
    assert_eq!(out[1], unknown);
    assert_eq!(out[2], unknown);
    assert_eq!(out[4], unknown);
    let mut reference = BoundSession::new();
    for i in [0, 3] {
        let want = sb.bound_with_session(&q.induced(masks[i]), &mut reference);
        assert_eq!(
            out[i].as_ref().map(|b| b.to_bits()),
            want.as_ref().map(|b| b.to_bits())
        );
    }
}
