//! Property-based tests of the spatial substrate invariants.

use std::collections::BTreeSet;

use proptest::prelude::*;

use crate::{CellIndex, Joc, Quadtree, SpatialTemporalDivision, TimeSlots};
use seeker_trace::{DatasetBuilder, GeoPoint, Poi, PoiId, Timestamp, UserId, UserPair};

fn arb_pois(max: usize) -> impl Strategy<Value = Vec<Poi>> {
    proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..max).prop_map(|pts| {
        pts.into_iter()
            .enumerate()
            .map(|(i, (lat, lon))| Poi::new(PoiId::new(i as u32), GeoPoint::new(lat, lon), 10.0))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every POI ends up in exactly one grid and per-grid counts partition
    /// the POI set.
    #[test]
    fn quadtree_partitions_pois(pois in arb_pois(120), sigma in 1usize..40) {
        let qt = Quadtree::build(&pois, sigma);
        let mut counts = vec![0usize; qt.n_grids()];
        for p in &pois {
            let g = qt.locate(p.center).expect("poi inside region");
            counts[g] += 1;
        }
        let built: Vec<usize> = (0..qt.n_grids()).map(|g| qt.grid_poi_count(g)).collect();
        prop_assert_eq!(counts, built);
        let total: usize = (0..qt.n_grids()).map(|g| qt.grid_poi_count(g)).sum();
        prop_assert_eq!(total, pois.len());
    }

    /// Coarser sigma never yields more grids.
    #[test]
    fn quadtree_monotone_in_sigma(pois in arb_pois(100), sigma in 2usize..20) {
        let fine = Quadtree::build(&pois, sigma);
        let coarse = Quadtree::build(&pois, sigma * 4);
        prop_assert!(coarse.n_grids() <= fine.n_grids());
    }

    /// Grid bounding boxes contain their members.
    #[test]
    fn grid_bboxes_contain_members(pois in arb_pois(80), sigma in 1usize..10) {
        let qt = Quadtree::build(&pois, sigma);
        let members = qt.grid_members(&pois);
        for (g, list) in members.iter().enumerate() {
            let bb = qt.grid_bbox(g);
            for &pid in list {
                prop_assert!(bb.contains(pois[pid.index()].center));
            }
        }
    }

    /// Time slots tile the interval: consecutive slot starts differ by the
    /// slot length and every in-range instant maps to exactly one slot.
    #[test]
    fn time_slots_tile(origin in -1000i64..1000, span_days in 1.0f64..200.0, tau in 0.25f64..30.0) {
        let o = Timestamp::from_secs(origin * 86_400);
        let e = Timestamp::from_secs(o.as_secs() + (span_days * 86_400.0) as i64);
        let slots = TimeSlots::new(o, e, tau);
        for j in 0..slots.n_slots() {
            prop_assert_eq!(slots.slot_of(slots.slot_start(j)), Some(j));
            if j > 0 {
                let gap = slots.slot_start(j).delta_secs(slots.slot_start(j - 1));
                prop_assert_eq!(gap, slots.slot_secs());
            }
        }
        prop_assert_eq!(slots.slot_of(e).is_some(), true, "end instant covered");
    }

    /// σ-capacity (§IV-A): no leaf grid holds more than σ POIs. (The depth
    /// cap only overrides this for exactly co-located points, which the
    /// continuous coordinate strategy never produces.)
    #[test]
    fn quadtree_leaves_respect_sigma(pois in arb_pois(150), sigma in 1usize..30) {
        let qt = Quadtree::build(&pois, sigma);
        for g in 0..qt.n_grids() {
            prop_assert!(
                qt.grid_poi_count(g) <= sigma,
                "grid {} holds {} POIs > sigma {}", g, qt.grid_poi_count(g), sigma
            );
        }
    }

    /// Definition 4: in every cell, joint occurrences cannot exceed either
    /// side's own check-in count — `n_ab <= min(n_a, n_b)`.
    #[test]
    fn joc_cells_bounded_by_min_side(n_checkins in 2usize..80, split in 0usize..80, seed in any::<u64>()) {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = DatasetBuilder::new("prop");
        let pois: Vec<_> = (0..8)
            .map(|i| b.add_poi(GeoPoint::new(i as f64, -(i as f64)), 10.0))
            .collect();
        for i in 0..n_checkins {
            let user = if i < split.min(n_checkins) { 1u64 } else { 2u64 };
            let poi = pois[rng.gen_range(0..pois.len())];
            b.add_checkin(user, poi, Timestamp::from_secs(rng.gen_range(0..86_400 * 30)));
        }
        b.min_checkins(0);
        let ds = b.build().unwrap();
        if ds.n_users() < 2 {
            return Ok(());
        }
        let std = SpatialTemporalDivision::build(&ds, 4, 7.0).unwrap();
        let ta = ds.trajectory(seeker_trace::UserId::new(0));
        let tb = ds.trajectory(seeker_trace::UserId::new(1));
        let joc = Joc::build(&std, ta, tb);
        for ((g, s), c) in joc.iter() {
            prop_assert!(
                c.n_ab <= c.n_a.min(c.n_b),
                "cell ({}, {}): n_ab {} > min(n_a {}, n_b {})", g, s, c.n_ab, c.n_a, c.n_b
            );
        }
    }

    /// JOC totals equal trajectory lengths for arbitrary trajectory splits.
    #[test]
    fn joc_totals_match(n_checkins in 2usize..60, split in 0usize..60, seed in any::<u64>()) {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = DatasetBuilder::new("prop");
        let pois: Vec<_> = (0..10)
            .map(|i| b.add_poi(GeoPoint::new(i as f64, i as f64), 10.0))
            .collect();
        for i in 0..n_checkins {
            let user = if i < split.min(n_checkins) { 1u64 } else { 2u64 };
            let poi = pois[rng.gen_range(0..pois.len())];
            b.add_checkin(user, poi, Timestamp::from_secs(rng.gen_range(0..86_400 * 30)));
        }
        b.min_checkins(0);
        let ds = b.build().unwrap();
        if ds.n_users() == 0 || ds.n_checkins() == 0 {
            return Ok(());
        }
        let std = SpatialTemporalDivision::build(&ds, 4, 7.0).unwrap();
        let empty: &[seeker_trace::CheckIn] = &[];
        let (ta, tb) = if ds.n_users() == 2 {
            (ds.trajectory(seeker_trace::UserId::new(0)), ds.trajectory(seeker_trace::UserId::new(1)))
        } else {
            (ds.trajectory(seeker_trace::UserId::new(0)), empty)
        };
        let joc = Joc::build(&std, ta, tb);
        let t = joc.totals();
        prop_assert_eq!(t.n_a as usize, ta.len());
        prop_assert_eq!(t.n_b as usize, tb.len());
        // n_ab is bounded by the smaller side's distinct POIs in any cell.
        prop_assert!(t.n_ab as usize <= ta.len().min(tb.len().max(ta.len())));
        // Dense and sparse encodings agree in nnz.
        let nnz_dense = joc.to_dense().iter().filter(|&&v| v != 0.0).count();
        prop_assert_eq!(nnz_dense, joc.sparse_log1p().len());
    }

    /// Candidate pairs ∪ residue partitions the pair universe *exactly*:
    /// the candidate list is sorted and duplicate-free, contains precisely
    /// the pairs sharing ≥ 1 STD cell, and its complement (the residue)
    /// covers everything else — no pair is lost or double-counted.
    #[test]
    fn candidate_pairs_partition_universe(
        n_users in 2usize..10,
        n_checkins in 2usize..60,
        seed in any::<u64>(),
    ) {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = DatasetBuilder::new("prop");
        let pois: Vec<_> = (0..6)
            .map(|i| b.add_poi(GeoPoint::new(i as f64 * 5.0, -(i as f64) * 5.0), 10.0))
            .collect();
        for _ in 0..n_checkins {
            let user = rng.gen_range(0..n_users) as u64;
            let poi = pois[rng.gen_range(0..pois.len())];
            b.add_checkin(user, poi, Timestamp::from_secs(rng.gen_range(0..86_400 * 30)));
        }
        b.min_checkins(0);
        let ds = b.build().unwrap();
        if ds.n_checkins() == 0 || ds.n_users() < 2 {
            return Ok(());
        }
        let std = SpatialTemporalDivision::build(&ds, 2, 3.0).unwrap();
        let candidates = CellIndex::build(&ds, &std).candidate_pairs();

        // Sorted, duplicate-free.
        prop_assert!(candidates.windows(2).all(|w| w[0] < w[1]));

        // Ground truth straight from the definition.
        let mut cells: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); ds.n_users()];
        for c in ds.checkins() {
            if let Some((g, s)) = std.cell_of(c) {
                cells[c.user.index()].insert(std.flat_index(g, s));
            }
        }
        let candidate_set: BTreeSet<UserPair> = candidates.iter().copied().collect();
        prop_assert_eq!(candidate_set.len(), candidates.len());
        let n = ds.n_users() as u32;
        let mut covered = 0usize;
        for a in 0..n {
            for b in (a + 1)..n {
                let pair = UserPair::new(UserId::new(a), UserId::new(b));
                let share = cells[a as usize].intersection(&cells[b as usize]).next().is_some();
                // Membership is exact, so candidates ∪ complement is the
                // whole universe with an empty intersection.
                prop_assert_eq!(candidate_set.contains(&pair), share);
                covered += 1;
            }
        }
        let total = ds.n_users() * (ds.n_users() - 1) / 2;
        prop_assert_eq!(covered, total);
        let residue = total - candidates.len();
        prop_assert_eq!(candidates.len() + residue, total);
    }

    /// Shard ranges partition the index domain: contiguous, in order, every
    /// index covered exactly once, balanced to within one item.
    #[test]
    fn shard_ranges_partition_domain(n_items in 0usize..5000, n_shards in 0usize..200) {
        let ranges = crate::shard_ranges(n_items, n_shards);
        prop_assert_eq!(ranges.len(), n_shards.max(1));
        let mut next = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, next);
            prop_assert!(r.end >= r.start);
            next = r.end;
        }
        prop_assert_eq!(next, n_items);
        let min = ranges.iter().map(std::ops::Range::len).min().unwrap();
        let max = ranges.iter().map(std::ops::Range::len).max().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// Sharded candidate enumeration emits every cell-sharing pair exactly
    /// once (strictly sorted output ⇒ no pair came from two shards) and
    /// matches the unsharded reference for any shard count.
    #[test]
    fn sharded_candidates_match_reference(
        n_users in 2usize..12,
        n_checkins in 2usize..80,
        n_shards in 1usize..70,
        seed in any::<u64>(),
    ) {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = DatasetBuilder::new("prop");
        let pois: Vec<_> = (0..6)
            .map(|i| b.add_poi(GeoPoint::new(i as f64 * 5.0, -(i as f64) * 5.0), 10.0))
            .collect();
        for _ in 0..n_checkins {
            let user = rng.gen_range(0..n_users) as u64;
            let poi = pois[rng.gen_range(0..pois.len())];
            b.add_checkin(user, poi, Timestamp::from_secs(rng.gen_range(0..86_400 * 30)));
        }
        b.min_checkins(0);
        let ds = b.build().unwrap();
        if ds.n_checkins() == 0 || ds.n_users() < 2 {
            return Ok(());
        }
        let std = SpatialTemporalDivision::build(&ds, 2, 3.0).unwrap();
        let index = CellIndex::build(&ds, &std);
        let reference = index.candidate_pairs();
        let sharded = index.candidate_pairs_sharded(n_shards);
        // No pair emitted by two shards: the sharded path never dedups, so a
        // double emission would survive the final sort as a duplicate.
        prop_assert!(sharded.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(sharded, reference);
    }
}
