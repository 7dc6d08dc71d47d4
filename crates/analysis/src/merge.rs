//! Per-name state folded over a campaign without hashing: a scan writes
//! each day in `(domain_id, is_www)` order, so a day meets the names
//! already seen as one sorted merge, and a membership probe into an
//! ascending id list is a cursor that moves forward.

/// Per-key state, ascending by key, folded one day at a time. A day
/// whose keys are not ascending is stable-sorted first, so a key that
/// repeats within a day is folded once per row, in scan order — what a
/// map keyed by the same key would have seen.
pub(crate) struct Tracks<T, R = ()> {
    /// Ascending by key, one entry per key seen so far.
    tracks: Vec<(u64, T)>,
    /// Keys first seen on the day being merged, ascending; reused.
    fresh: Vec<(u64, T)>,
    /// The day being merged by [`Tracks::merge_day`], in key order;
    /// reused.
    day: Vec<(u64, R)>,
}

impl<T, R> Default for Tracks<T, R> {
    fn default() -> Self {
        Tracks { tracks: Vec::new(), fresh: Vec::new(), day: Vec::new() }
    }
}

impl<T: Copy + Default, R: Copy> Tracks<T, R> {
    /// Fold each of one day's `(key, row)` pairs into its key's state (a
    /// new key starts at `T::default()`). The buffers grow once, from
    /// the rows' upper size bound, to the longest day.
    pub(crate) fn merge_day(
        &mut self,
        rows: impl Iterator<Item = (u64, R)>,
        mut fold: impl FnMut(&mut T, R),
    ) {
        let mut day = std::mem::take(&mut self.day);
        let (least, most) = rows.size_hint();
        day.clear();
        day.reserve(most.unwrap_or(least));
        day.extend(rows);
        if !day.windows(2).all(|w| w[0].0 <= w[1].0) {
            day.sort_by_key(|&(key, _)| key);
        }
        self.merge_sorted(&day, |&(key, _)| key, |state, &(_, row)| fold(state, row));
        self.day = day;
    }
}

impl<T: Copy + Default, R> Tracks<T, R> {
    /// Fold each of one day's `rows`, already ascending by `key` (a
    /// repeated key's rows in scan order), into its key's state: the
    /// merge [`Tracks::merge_day`] runs once it has sorted a day, for a
    /// caller that holds the day sorted in a buffer of its own.
    pub(crate) fn merge_sorted<S>(
        &mut self,
        rows: &[S],
        key: impl Fn(&S) -> u64,
        mut fold: impl FnMut(&mut T, &S),
    ) {
        self.fresh.reserve(rows.len());
        let mut at = 0;
        for row in rows {
            let key = key(row);
            while at < self.tracks.len() && self.tracks[at].0 < key {
                at += 1;
            }
            if let Some((_, state)) = self.tracks.get_mut(at).filter(|t| t.0 == key) {
                fold(state, row);
                continue;
            }
            // A new key's repeats, next in key order, find it at the end.
            if self.fresh.last().is_none_or(|t| t.0 != key) {
                self.fresh.push((key, T::default()));
            }
            let last = self.fresh.len() - 1;
            fold(&mut self.fresh[last].1, row);
        }
        // Two ascending runs with no key in common: merge from the back.
        let mut old = self.tracks.len();
        self.tracks.extend_from_slice(&self.fresh);
        for slot in (0..self.tracks.len()).rev() {
            let Some(&newest) = self.fresh.last() else { break };
            if old > 0 && self.tracks[old - 1].0 > newest.0 {
                old -= 1;
                self.tracks[slot] = self.tracks[old];
            } else {
                self.tracks[slot] = newest;
                self.fresh.pop();
            }
        }
    }

    /// Every key seen and its state, ascending by key.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, (u64, T)> {
        self.tracks.iter()
    }
}

/// Membership in an ascending id list for probes that mostly ascend: a
/// probe moves the cursor forward, one below the last re-seeks.
pub(crate) struct IdCursor<'a> {
    ids: &'a [u32],
    /// Every id before it is below the last probe.
    at: usize,
}

impl<'a> IdCursor<'a> {
    pub(crate) fn new(ids: &'a [u32]) -> IdCursor<'a> {
        IdCursor { ids, at: 0 }
    }

    pub(crate) fn contains(&mut self, id: u32) -> bool {
        if self.at > 0 && self.ids[self.at - 1] >= id {
            self.at = self.ids.partition_point(|&x| x < id);
        }
        while self.at < self.ids.len() && self.ids[self.at] < id {
            self.at += 1;
        }
        self.ids.get(self.at) == Some(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counting rows per key through the merge equals counting them in a
    /// map, whatever the order and repetition of keys within a day.
    #[test]
    fn tracks_fold_every_row_like_a_map() {
        let days: [&[u64]; 4] = [&[5, 1, 5, 9], &[], &[0, 1, 2, 9, 9, u64::MAX], &[9, 3, 3, 0]];
        let mut tracks: Tracks<(usize, u64), u64> = Tracks::default();
        let mut map = std::collections::BTreeMap::new();
        for (d, keys) in days.iter().enumerate() {
            let rows = keys.iter().enumerate().map(|(i, &key)| (key, (d * 10 + i) as u64));
            for (key, row) in rows.clone() {
                let e: &mut (usize, u64) = map.entry(key).or_default();
                *e = (e.0 + 1, row);
            }
            // The last row in scan order is the one a key keeps.
            tracks.merge_day(rows, |t, row| *t = (t.0 + 1, row));
        }
        let got: Vec<(u64, (usize, u64))> = tracks.iter().copied().collect();
        let want: Vec<(u64, (usize, u64))> = map.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn cursor_answers_probes_in_any_order() {
        let ids = [2u32, 3, 7, 100, u32::MAX];
        let mut cursor = IdCursor::new(&ids);
        let probes = [0u32, 2, 2, 3, 50, 7, 100, u32::MAX, 1, 3, u32::MAX, 99];
        for id in probes {
            assert_eq!(cursor.contains(id), ids.contains(&id), "probe {id}");
        }
        assert!(!IdCursor::new(&[]).contains(0));
    }
}
