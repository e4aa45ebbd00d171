//! The [`Dataset`] container: users, POIs, check-ins and the ground-truth
//! social graph, with dense renumbered identifiers.
//!
//! A dataset only grows after construction, by check-ins appended in place
//! ([`Dataset::append`]). Builders take raw (external)
//! user/POI identifiers, renumber them densely and validate structural
//! invariants, so every downstream crate can index arrays with
//! [`UserId::index`] / [`PoiId::index`] without hashing.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::{Result, TraceError};
use crate::sorted::merge_sorted_by_key;
use crate::types::{CheckIn, GeoPoint, Poi, PoiId, Timestamp, UserId, UserPair};

/// Geographic bounding box of a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Minimum latitude (south edge).
    pub min_lat: f64,
    /// Minimum longitude (west edge).
    pub min_lon: f64,
    /// Maximum latitude (north edge).
    pub max_lat: f64,
    /// Maximum longitude (east edge).
    pub max_lon: f64,
}

impl BoundingBox {
    /// Whether `p` lies within the box (inclusive).
    pub fn contains(&self, p: GeoPoint) -> bool {
        p.lat >= self.min_lat
            && p.lat <= self.max_lat
            && p.lon >= self.min_lon
            && p.lon <= self.max_lon
    }

    /// Grows the box by a small epsilon so boundary points stay strictly
    /// inside; used by spatial indexes that half-open their cells.
    pub fn inflated(&self, eps: f64) -> BoundingBox {
        BoundingBox {
            min_lat: self.min_lat - eps,
            min_lon: self.min_lon - eps,
            max_lat: self.max_lat + eps,
            max_lon: self.max_lon + eps,
        }
    }
}

/// An immutable check-in dataset with ground-truth friendships.
///
/// Check-ins are stored sorted by `(user, time)`; per-user trajectories
/// (Definition 3) are contiguous slices.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    name: String,
    pois: Vec<Poi>,
    checkins: Vec<CheckIn>,
    /// Per-user `(start, end)` ranges into `checkins`.
    user_spans: Vec<(u32, u32)>,
    friendships: BTreeSet<UserPair>,
    adjacency: Vec<Vec<UserId>>,
}

impl Dataset {
    /// A short human-readable name (e.g. `"synth-gowalla"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of users (dense id space `0..n_users`).
    pub fn n_users(&self) -> usize {
        self.user_spans.len()
    }

    /// Number of POIs (dense id space `0..n_pois`).
    pub fn n_pois(&self) -> usize {
        self.pois.len()
    }

    /// Total number of check-ins.
    pub fn n_checkins(&self) -> usize {
        self.checkins.len()
    }

    /// Number of ground-truth friendship links.
    pub fn n_links(&self) -> usize {
        self.friendships.len()
    }

    /// All POIs, indexable by [`PoiId::index`].
    pub fn pois(&self) -> &[Poi] {
        &self.pois
    }

    /// The POI with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this dataset.
    pub fn poi(&self, id: PoiId) -> &Poi {
        &self.pois[id.index()]
    }

    /// All check-ins, sorted by `(user, time)`.
    pub fn checkins(&self) -> &[CheckIn] {
        &self.checkins
    }

    /// Iterator over all user ids.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.user_spans.len() as u32).map(UserId::new)
    }

    /// The trajectory of `user`: their check-ins sorted by time.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn trajectory(&self, user: UserId) -> &[CheckIn] {
        let (s, e) = self.user_spans[user.index()];
        &self.checkins[s as usize..e as usize]
    }

    /// Number of check-ins reported by `user`.
    pub fn checkin_count(&self, user: UserId) -> usize {
        let (s, e) = self.user_spans[user.index()];
        (e - s) as usize
    }

    /// Whether `a` and `b` are friends in the ground truth.
    pub fn are_friends(&self, a: UserId, b: UserId) -> bool {
        a != b && self.friendships.contains(&UserPair::new(a, b))
    }

    /// Ground-truth friends of `user`.
    pub fn friends_of(&self, user: UserId) -> &[UserId] {
        &self.adjacency[user.index()]
    }

    /// Iterator over all ground-truth friendship pairs.
    pub fn friendships(&self) -> impl Iterator<Item = UserPair> + '_ {
        self.friendships.iter().copied()
    }

    /// The set of distinct POIs visited by `user`.
    pub fn visited_pois(&self, user: UserId) -> BTreeSet<PoiId> {
        self.trajectory(user).iter().map(|c| c.poi).collect()
    }

    /// Per-user visited-POI sets for the whole dataset.
    ///
    /// Computing these once up front is much cheaper than repeated
    /// [`Dataset::visited_pois`] calls in pair-quadratic loops.
    pub fn all_visited_pois(&self) -> Vec<BTreeSet<PoiId>> {
        self.users().map(|u| self.visited_pois(u)).collect()
    }

    /// Number of distinct co-location POIs (Definition 4) shared by the pair.
    pub fn colocation_count(&self, a: UserId, b: UserId) -> usize {
        let pa = self.visited_pois(a);
        let pb = self.visited_pois(b);
        pa.intersection(&pb).count()
    }

    /// Geographic bounding box over all POIs.
    ///
    /// Returns `None` for a dataset with no POIs.
    pub fn bounding_box(&self) -> Option<BoundingBox> {
        let first = self.pois.first()?;
        let mut bb = BoundingBox {
            min_lat: first.center.lat,
            min_lon: first.center.lon,
            max_lat: first.center.lat,
            max_lon: first.center.lon,
        };
        for p in &self.pois {
            bb.min_lat = bb.min_lat.min(p.center.lat);
            bb.min_lon = bb.min_lon.min(p.center.lon);
            bb.max_lat = bb.max_lat.max(p.center.lat);
            bb.max_lon = bb.max_lon.max(p.center.lon);
        }
        Some(bb)
    }

    /// Time range `(earliest, latest)` over all check-ins.
    ///
    /// Returns `None` for a dataset with no check-ins.
    pub fn time_range(&self) -> Option<(Timestamp, Timestamp)> {
        let mut it = self.checkins.iter();
        let first = it.next()?;
        let mut lo = first.time;
        let mut hi = first.time;
        for c in it {
            lo = lo.min(c.time);
            hi = hi.max(c.time);
        }
        Some((lo, hi))
    }

    /// Returns a copy of this dataset with a replaced check-in collection,
    /// re-sorted and re-indexed. Users, POIs and friendships are preserved.
    ///
    /// This is the hook used by the obfuscation mechanisms (hiding/blurring),
    /// which perturb check-ins but leave the ground truth untouched.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Invalid`] if any check-in references an unknown
    /// user or POI.
    pub fn with_checkins(&self, checkins: Vec<CheckIn>) -> Result<Dataset> {
        // Validate first, format after: the scan loops stay allocation-free
        // and the error message is built once, outside them.
        if let Some(c) = checkins.iter().find(|c| c.user.index() >= self.n_users()) {
            return Err(TraceError::Invalid(format!(
                "check-in references unknown user {}",
                c.user
            )));
        }
        if let Some(c) = checkins.iter().find(|c| c.poi.index() >= self.n_pois()) {
            return Err(TraceError::Invalid(format!("check-in references unknown poi {}", c.poi)));
        }
        let (checkins, user_spans) = sort_and_span(checkins, self.n_users());
        Ok(Dataset {
            name: self.name.clone(),
            pois: self.pois.clone(),
            checkins,
            user_spans,
            friendships: self.friendships.clone(),
            adjacency: self.adjacency.clone(),
        })
    }

    /// Appends `batch` to the check-in collection, in place.
    ///
    /// The result is *defined* to equal `with_checkins(existing ++ batch)`
    /// as a value: appending is a pure dataset-growth operation, and users,
    /// POIs and friendships are untouched. The sorted batch is merged into
    /// the check-ins from the back, so only the check-ins after the first
    /// user the batch touches move, and only the spans from that user on are
    /// rewritten. Nothing else is copied.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Invalid`] if any check-in in `batch` references
    /// an unknown user or POI. The whole batch is validated before anything
    /// changes, so on error the dataset is unchanged.
    pub fn append(&mut self, batch: &[CheckIn]) -> Result<()> {
        if let Some(c) = batch.iter().find(|c| c.user.index() >= self.n_users()) {
            return Err(TraceError::Invalid(format!(
                "check-in references unknown user {}",
                c.user
            )));
        }
        if let Some(c) = batch.iter().find(|c| c.poi.index() >= self.n_pois()) {
            return Err(TraceError::Invalid(format!("check-in references unknown poi {}", c.poi)));
        }
        let Some(first) = batch.iter().map(|c| c.user).min() else { return Ok(()) };
        let key = |c: &CheckIn| (c.user, c.time, c.poi);
        let mut incoming = batch.to_vec();
        incoming.sort_by_key(key);
        // Equal keys are equal check-ins, so the merge's tie order changes
        // no value.
        merge_sorted_by_key(&mut self.checkins, &incoming, key);
        // Re-span from the first touched user on; an empty trajectory keeps
        // the `(0, 0)` span `sort_and_span` gives it.
        let mut at = self.checkins.partition_point(|c| c.user < first);
        let mut added = incoming.iter().peekable();
        for u in first.index()..self.n_users() {
            let (start, end) = self.user_spans[u];
            let mut len = (end - start) as usize;
            while added.next_if(|c| c.user.index() == u).is_some() {
                len += 1;
            }
            self.user_spans[u] = if len == 0 { (0, 0) } else { (at as u32, (at + len) as u32) };
            at += len;
        }
        Ok(())
    }

    /// Reassembles a dataset from exact parts, bypassing the builder's
    /// sparse-user filtering and raw-id renumbering.
    ///
    /// This is the snapshot-restore constructor: [`DatasetBuilder`] cannot
    /// round-trip an arbitrary dataset (it renumbers ids and drops users
    /// below its check-in floor), so persisted snapshots rebuild through
    /// here. `friendships` may be empty — a serving-side target dataset
    /// carries no ground truth.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Invalid`] if a check-in or friendship references
    /// an id outside `0..n_users` / the POI table.
    pub fn from_parts(
        name: impl Into<String>,
        n_users: usize,
        pois: Vec<Poi>,
        checkins: Vec<CheckIn>,
        friendships: impl IntoIterator<Item = UserPair>,
    ) -> Result<Dataset> {
        if let Some(c) = checkins.iter().find(|c| c.user.index() >= n_users) {
            return Err(TraceError::Invalid(format!(
                "check-in references unknown user {}",
                c.user
            )));
        }
        if let Some(c) = checkins.iter().find(|c| c.poi.index() >= pois.len()) {
            return Err(TraceError::Invalid(format!("check-in references unknown poi {}", c.poi)));
        }
        let mut edges = BTreeSet::new();
        for pair in friendships {
            if pair.hi().index() >= n_users {
                return Err(TraceError::Invalid(format!(
                    "friendship references unknown user {pair}"
                )));
            }
            edges.insert(pair);
        }
        let (checkins, user_spans) = sort_and_span(checkins, n_users);
        let adjacency = build_adjacency(&edges, n_users);
        Ok(Dataset { name: name.into(), pois, checkins, user_spans, friendships: edges, adjacency })
    }

    /// The induced sub-dataset on `users`: keeps only their check-ins and the
    /// friendships among them, renumbering users densely in the order given.
    ///
    /// POIs are kept as-is (the POI id space is shared, which lets spatial
    /// divisions built on the full dataset be reused).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Invalid`] if `users` contains duplicates or an
    /// out-of-range id.
    pub fn induced_subset(&self, users: &[UserId], name: &str) -> Result<Dataset> {
        let mut remap: BTreeMap<UserId, UserId> = BTreeMap::new();
        for (i, &u) in users.iter().enumerate() {
            if u.index() >= self.n_users() {
                return Err(TraceError::Invalid(format!("unknown user {u}")));
            }
            if remap.insert(u, UserId::new(i as u32)).is_some() {
                return Err(TraceError::Invalid(format!("duplicate user {u} in subset")));
            }
        }
        let mut checkins = Vec::new();
        for (&old, &new) in &remap {
            for c in self.trajectory(old) {
                checkins.push(CheckIn::new(new, c.poi, c.time));
            }
        }
        let mut friendships = BTreeSet::new();
        for pair in &self.friendships {
            if let (Some(&a), Some(&b)) = (remap.get(&pair.lo()), remap.get(&pair.hi())) {
                friendships.insert(UserPair::new(a, b));
            }
        }
        let n = users.len();
        let (checkins, user_spans) = sort_and_span(checkins, n);
        let adjacency = build_adjacency(&friendships, n);
        Ok(Dataset {
            name: name.to_string(),
            pois: self.pois.clone(),
            checkins,
            user_spans,
            friendships,
            adjacency,
        })
    }
}

fn sort_and_span(mut checkins: Vec<CheckIn>, n_users: usize) -> (Vec<CheckIn>, Vec<(u32, u32)>) {
    checkins.sort_by_key(|c| (c.user, c.time, c.poi));
    let mut spans = vec![(0u32, 0u32); n_users];
    let mut i = 0usize;
    while i < checkins.len() {
        let u = checkins[i].user;
        let start = i;
        while i < checkins.len() && checkins[i].user == u {
            i += 1;
        }
        spans[u.index()] = (start as u32, i as u32);
    }
    // Users with zero check-ins get an empty span at offset 0; make the empty
    // span positionally consistent so slicing is always valid.
    (checkins, spans)
}

fn build_adjacency(friendships: &BTreeSet<UserPair>, n_users: usize) -> Vec<Vec<UserId>> {
    let mut adj = vec![Vec::new(); n_users];
    for pair in friendships {
        adj[pair.lo().index()].push(pair.hi());
        adj[pair.hi().index()].push(pair.lo());
    }
    for list in &mut adj {
        list.sort_unstable();
    }
    adj
}

/// Incremental builder for [`Dataset`], accepting raw external identifiers.
///
/// External user and POI ids (arbitrary `u64`s, as found in SNAP dumps) are
/// renumbered densely in first-seen order at [`DatasetBuilder::build`] time.
///
/// ```
/// use seeker_trace::{DatasetBuilder, GeoPoint, Timestamp};
///
/// let mut b = DatasetBuilder::new("demo");
/// let p = b.add_poi(GeoPoint::new(10.0, 20.0), 50.0);
/// b.add_checkin(100, p, Timestamp::from_secs(0));
/// b.add_checkin(100, p, Timestamp::from_secs(60));
/// b.add_checkin(200, p, Timestamp::from_secs(30));
/// b.add_checkin(200, p, Timestamp::from_secs(90));
/// b.add_friendship(100, 200);
/// let ds = b.build()?;
/// assert_eq!(ds.n_users(), 2);
/// assert_eq!(ds.n_links(), 1);
/// # Ok::<(), seeker_trace::TraceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    name: String,
    pois: Vec<Poi>,
    raw_checkins: Vec<(u64, PoiId, Timestamp)>,
    raw_edges: Vec<(u64, u64)>,
    min_checkins: usize,
}

impl DatasetBuilder {
    /// Creates an empty builder for a dataset called `name`.
    ///
    /// By default users with fewer than 2 check-ins are dropped, mirroring
    /// the paper's preprocessing ("we exclude users who never check in or
    /// only check in once"); see [`DatasetBuilder::min_checkins`].
    pub fn new(name: impl Into<String>) -> Self {
        DatasetBuilder {
            name: name.into(),
            pois: Vec::new(),
            raw_checkins: Vec::new(),
            raw_edges: Vec::new(),
            min_checkins: 2,
        }
    }

    /// Sets the minimum number of check-ins a user must have to be kept.
    ///
    /// Users below the threshold are removed together with their check-ins
    /// and incident ground-truth edges.
    pub fn min_checkins(&mut self, min: usize) -> &mut Self {
        self.min_checkins = min;
        self
    }

    /// Registers a POI and returns its dense id.
    pub fn add_poi(&mut self, center: GeoPoint, radius_m: f64) -> PoiId {
        let id = PoiId::new(self.pois.len() as u32);
        self.pois.push(Poi::new(id, center, radius_m));
        id
    }

    /// Records a check-in of external user `raw_user` at `poi`.
    pub fn add_checkin(&mut self, raw_user: u64, poi: PoiId, time: Timestamp) -> &mut Self {
        self.raw_checkins.push((raw_user, poi, time));
        self
    }

    /// Records a ground-truth friendship between two external user ids.
    ///
    /// Self-loops and duplicates are silently dropped at build time; edges
    /// touching users that end up filtered out are dropped as well.
    pub fn add_friendship(&mut self, raw_a: u64, raw_b: u64) -> &mut Self {
        self.raw_edges.push((raw_a, raw_b));
        self
    }

    /// Number of check-ins recorded so far.
    pub fn checkin_count(&self) -> usize {
        self.raw_checkins.len()
    }

    /// Finalizes the dataset: filters sparse users, renumbers ids densely and
    /// validates invariants.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Invalid`] if a check-in references a POI id that
    /// was never registered.
    pub fn build(&self) -> Result<Dataset> {
        for &(_, poi, _) in &self.raw_checkins {
            if poi.index() >= self.pois.len() {
                return Err(TraceError::Invalid(format!(
                    "check-in references unregistered poi {poi}"
                )));
            }
        }
        // Count check-ins per raw user, then keep users meeting the floor.
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for &(u, _, _) in &self.raw_checkins {
            *counts.entry(u).or_insert(0) += 1;
        }
        let mut remap: BTreeMap<u64, UserId> = BTreeMap::new();
        for (&raw, &n) in &counts {
            if n >= self.min_checkins {
                let id = UserId::new(remap.len() as u32);
                remap.insert(raw, id);
            }
        }
        let n_users = remap.len();
        let mut checkins = Vec::with_capacity(self.raw_checkins.len());
        for &(raw, poi, time) in &self.raw_checkins {
            if let Some(&u) = remap.get(&raw) {
                checkins.push(CheckIn::new(u, poi, time));
            }
        }
        let mut friendships = BTreeSet::new();
        for &(a, b) in &self.raw_edges {
            if a == b {
                continue;
            }
            if let (Some(&ua), Some(&ub)) = (remap.get(&a), remap.get(&b)) {
                friendships.insert(UserPair::new(ua, ub));
            }
        }
        let (checkins, user_spans) = sort_and_span(checkins, n_users);
        let adjacency = build_adjacency(&friendships, n_users);
        Ok(Dataset {
            name: self.name.clone(),
            pois: self.pois.clone(),
            checkins,
            user_spans,
            friendships,
            adjacency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        let mut b = DatasetBuilder::new("t");
        let p0 = b.add_poi(GeoPoint::new(0.0, 0.0), 10.0);
        let p1 = b.add_poi(GeoPoint::new(1.0, 1.0), 10.0);
        for (u, p, t) in [
            (10u64, p0, 5i64),
            (10, p1, 1),
            (20, p0, 2),
            (20, p0, 8),
            (30, p1, 3),
            (30, p1, 4),
            (40, p0, 9), // single check-in: filtered out
        ] {
            b.add_checkin(u, p, Timestamp::from_secs(t));
        }
        b.add_friendship(10, 20);
        b.add_friendship(20, 30);
        b.add_friendship(10, 40); // 40 filtered, edge dropped
        b.add_friendship(10, 10); // self loop dropped
        b.build().unwrap()
    }

    #[test]
    fn builder_filters_sparse_users_and_dangling_edges() {
        let ds = small();
        assert_eq!(ds.n_users(), 3);
        assert_eq!(ds.n_checkins(), 6);
        assert_eq!(ds.n_links(), 2);
    }

    #[test]
    fn trajectories_are_time_sorted_and_contiguous() {
        let ds = small();
        for u in ds.users() {
            let traj = ds.trajectory(u);
            assert!(!traj.is_empty());
            assert!(traj.windows(2).all(|w| w[0].time <= w[1].time));
            assert!(traj.iter().all(|c| c.user == u));
        }
        let total: usize = ds.users().map(|u| ds.checkin_count(u)).sum();
        assert_eq!(total, ds.n_checkins());
    }

    #[test]
    fn friendship_queries_are_symmetric() {
        let ds = small();
        let (a, b) = (UserId::new(0), UserId::new(1));
        assert_eq!(ds.are_friends(a, b), ds.are_friends(b, a));
        assert!(!ds.are_friends(a, a));
    }

    #[test]
    fn adjacency_matches_edge_set() {
        let ds = small();
        for pair in ds.friendships().collect::<Vec<_>>() {
            assert!(ds.friends_of(pair.lo()).contains(&pair.hi()));
            assert!(ds.friends_of(pair.hi()).contains(&pair.lo()));
        }
        let degree_sum: usize = ds.users().map(|u| ds.friends_of(u).len()).sum();
        assert_eq!(degree_sum, 2 * ds.n_links());
    }

    #[test]
    fn visited_pois_and_colocations() {
        let ds = small();
        // user 0 (raw 10) visited both pois; user 1 (raw 20) only p0.
        assert_eq!(ds.visited_pois(UserId::new(0)).len(), 2);
        assert_eq!(ds.colocation_count(UserId::new(0), UserId::new(1)), 1);
        assert_eq!(ds.colocation_count(UserId::new(1), UserId::new(2)), 0);
        let all = ds.all_visited_pois();
        assert_eq!(all.len(), ds.n_users());
        assert_eq!(all[0].len(), 2);
    }

    #[test]
    fn bounding_box_covers_all_pois() {
        let ds = small();
        let bb = ds.bounding_box().unwrap();
        for p in ds.pois() {
            assert!(bb.contains(p.center));
        }
        let bigger = bb.inflated(0.5);
        assert!(bigger.min_lat < bb.min_lat && bigger.max_lon > bb.max_lon);
    }

    #[test]
    fn time_range_spans_checkins() {
        let ds = small();
        let (lo, hi) = ds.time_range().unwrap();
        assert_eq!(lo, Timestamp::from_secs(1));
        assert_eq!(hi, Timestamp::from_secs(8));
    }

    #[test]
    fn with_checkins_replaces_and_validates() {
        let ds = small();
        let mut cs = ds.checkins().to_vec();
        cs.truncate(3);
        let ds2 = ds.with_checkins(cs).unwrap();
        assert_eq!(ds2.n_checkins(), 3);
        assert_eq!(ds2.n_links(), ds.n_links());
        // Unknown poi rejected.
        let bad = vec![CheckIn::new(UserId::new(0), PoiId::new(99), Timestamp::from_secs(0))];
        assert!(ds.with_checkins(bad).is_err());
    }

    #[test]
    fn append_equals_with_checkins_rebuild() {
        let ds = small();
        let batch = vec![
            CheckIn::new(UserId::new(2), PoiId::new(0), Timestamp::from_secs(7)),
            CheckIn::new(UserId::new(0), PoiId::new(1), Timestamp::from_secs(1)), // tie on key
            CheckIn::new(UserId::new(1), PoiId::new(1), Timestamp::from_secs(100)),
        ];
        let mut appended = ds.clone();
        appended.append(&batch).unwrap();
        let mut all = ds.checkins().to_vec();
        all.extend_from_slice(&batch);
        assert_eq!(appended, ds.with_checkins(all).unwrap());
        // Unknown ids rejected, dataset untouched.
        let before = appended.clone();
        let ghost = CheckIn::new(UserId::new(99), PoiId::new(0), Timestamp::from_secs(0));
        assert!(appended.append(&[batch[0], ghost]).is_err());
        let ghost = CheckIn::new(UserId::new(0), PoiId::new(99), Timestamp::from_secs(0));
        assert!(appended.append(&[batch[0], ghost]).is_err());
        assert_eq!(appended, before);
        // Empty append is the identity.
        appended.append(&[]).unwrap();
        assert_eq!(appended, before);
    }

    #[test]
    fn from_parts_round_trips_exactly() {
        let ds = small();
        let rt = Dataset::from_parts(
            ds.name(),
            ds.n_users(),
            ds.pois().to_vec(),
            ds.checkins().to_vec(),
            ds.friendships(),
        )
        .unwrap();
        assert_eq!(rt.n_users(), ds.n_users());
        assert_eq!(rt.checkins(), ds.checkins());
        assert_eq!(rt.n_links(), ds.n_links());
        // Zero-check-in users survive (no builder filtering).
        let sparse = Dataset::from_parts("sparse", 3, ds.pois().to_vec(), Vec::new(), []).unwrap();
        assert_eq!(sparse.n_users(), 3);
        assert_eq!(sparse.trajectory(UserId::new(2)), &[]);
        // Out-of-range ids rejected.
        assert!(Dataset::from_parts(
            "bad",
            1,
            ds.pois().to_vec(),
            vec![CheckIn::new(UserId::new(1), PoiId::new(0), Timestamp::from_secs(0))],
            [],
        )
        .is_err());
        assert!(Dataset::from_parts(
            "bad",
            1,
            ds.pois().to_vec(),
            Vec::new(),
            [UserPair::new(UserId::new(0), UserId::new(5))],
        )
        .is_err());
    }

    #[test]
    fn induced_subset_renumbers_and_keeps_internal_edges() {
        let ds = small();
        let sub = ds.induced_subset(&[UserId::new(1), UserId::new(2)], "sub").unwrap();
        assert_eq!(sub.n_users(), 2);
        // Edge (1,2) survives as (0,1) in the subset.
        assert_eq!(sub.n_links(), 1);
        assert!(sub.are_friends(UserId::new(0), UserId::new(1)));
        // Check-ins survive under new ids.
        assert_eq!(sub.n_checkins(), 4);
        // Errors on duplicates and unknown users.
        assert!(ds.induced_subset(&[UserId::new(0), UserId::new(0)], "x").is_err());
        assert!(ds.induced_subset(&[UserId::new(9)], "x").is_err());
    }

    #[test]
    fn empty_dataset_edge_cases() {
        let ds = DatasetBuilder::new("empty").build().unwrap();
        assert_eq!(ds.n_users(), 0);
        assert!(ds.bounding_box().is_none());
        assert!(ds.time_range().is_none());
        assert_eq!(ds.users().count(), 0);
    }

    #[test]
    fn build_rejects_unregistered_poi() {
        let mut b = DatasetBuilder::new("bad");
        b.add_checkin(1, PoiId::new(0), Timestamp::from_secs(0));
        assert!(b.build().is_err());
    }

    #[test]
    fn min_checkins_zero_keeps_everyone() {
        let mut b = DatasetBuilder::new("all");
        let p = b.add_poi(GeoPoint::new(0.0, 0.0), 1.0);
        b.add_checkin(5, p, Timestamp::from_secs(0));
        b.min_checkins(0);
        let ds = b.build().unwrap();
        assert_eq!(ds.n_users(), 1);
        assert_eq!(ds.n_checkins(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A dataset over `n_users` users and three POIs whose users `0..n`
    /// hold the given `(user, poi, time)` check-ins, some with none.
    fn dataset(n_users: usize, raw: &[(u32, u32, i64)]) -> Dataset {
        let pois = (0..3).map(|i| Poi::new(PoiId::new(i), GeoPoint::new(0.0, 0.0), 10.0)).collect();
        Dataset::from_parts("p", n_users, pois, checkins(raw), []).unwrap()
    }

    fn checkins(raw: &[(u32, u32, i64)]) -> Vec<CheckIn> {
        raw.iter()
            .map(|&(u, p, t)| CheckIn::new(UserId::new(u), PoiId::new(p), Timestamp::from_secs(t)))
            .collect()
    }

    fn arb_checkins(n_users: u32, max: usize) -> impl Strategy<Value = Vec<(u32, u32, i64)>> {
        proptest::collection::vec((0..n_users, 0..3u32, 0..6i64), 0..max)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Appending equals rebuilding from the concatenation, as a value:
        /// check-ins, spans (empty ones too), POIs and friendships.
        #[test]
        fn append_equals_rebuild(
            existing in arb_checkins(8, 24),
            batches in proptest::collection::vec(arb_checkins(8, 8), 1..4),
        ) {
            let mut ds = dataset(8, &existing);
            let mut all = checkins(&existing);
            for batch in &batches {
                let batch = checkins(batch);
                ds.append(&batch).unwrap();
                all.extend_from_slice(&batch);
                prop_assert_eq!(&ds, &ds.with_checkins(all.clone()).unwrap());
            }
        }

        /// A batch naming an unknown user or POI anywhere leaves the dataset
        /// as it was.
        #[test]
        fn rejected_append_changes_nothing(
            existing in arb_checkins(8, 24),
            batch in arb_checkins(8, 8),
            at in 0usize..8,
            unknown_user in any::<bool>(),
        ) {
            let mut ds = dataset(8, &existing);
            let before = ds.clone();
            let mut batch = checkins(&batch);
            let bad = if unknown_user {
                CheckIn::new(UserId::new(8), PoiId::new(0), Timestamp::from_secs(0))
            } else {
                CheckIn::new(UserId::new(0), PoiId::new(3), Timestamp::from_secs(0))
            };
            batch.insert(at.min(batch.len()), bad);
            prop_assert!(ds.append(&batch).is_err());
            prop_assert_eq!(&ds, &before);
        }
    }
}
