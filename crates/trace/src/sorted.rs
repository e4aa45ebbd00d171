//! In-place growth of sorted vectors: the one merge behind every structure
//! that grows by small sorted batches (a dataset's check-ins, a pair index,
//! an incremental session's pair universe).

/// Merges `new`, sorted by `key`, into `v`, sorted by `key`, in place.
///
/// Afterwards `v` is sorted by `key` and each element of `new` sits after
/// every old element with an equal key, as a stable sort of `v ++ new`
/// would put it. The merge runs from the back, so only the old elements
/// after the first insertion point move, each once, and nothing else is
/// copied.
///
/// ```
/// use seeker_trace::merge_sorted_by_key;
///
/// let mut v = vec![(1, 'a'), (3, 'a'), (5, 'a')];
/// merge_sorted_by_key(&mut v, &[(3, 'b'), (6, 'b')], |x| x.0);
/// assert_eq!(v, [(1, 'a'), (3, 'a'), (3, 'b'), (5, 'a'), (6, 'b')]);
/// ```
pub fn merge_sorted_by_key<T: Copy, K: Ord>(v: &mut Vec<T>, new: &[T], key: impl Fn(&T) -> K) {
    let Some(&fill) = new.first() else { return };
    let mut i = v.len();
    v.resize(i + new.len(), fill);
    // `v[i..w]` is the gap the remaining new elements fill.
    let mut w = v.len();
    for x in new.iter().rev() {
        let k = key(x);
        let at = v[..i].partition_point(|y| key(y) <= k);
        let gap = w - i;
        v.copy_within(at..i, at + gap);
        (i, w) = (at, at + gap - 1);
        v[w] = *x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The merge equals a stable sort of the concatenation.
        #[test]
        fn merge_equals_a_stable_sort(
            mut old in proptest::collection::vec((0u8..8, 0u8..4), 0..24),
            mut new in proptest::collection::vec((0u8..8, 4u8..8), 0..12),
        ) {
            old.sort_by_key(|x| x.0);
            new.sort_by_key(|x| x.0);
            let mut expected = old.clone();
            expected.extend_from_slice(&new);
            expected.sort_by_key(|x| x.0);
            merge_sorted_by_key(&mut old, &new, |x| x.0);
            prop_assert_eq!(old, expected);
        }
    }
}
