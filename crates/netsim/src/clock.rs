//! Virtual time: a monotonically advancing simulated clock plus a civil
//! calendar so longitudinal scans can be reported against real dates
//! (the paper's measurement runs 2023-05-08 → 2024-03-31).

use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// Seconds of simulated time since the simulation epoch.
///
/// This is the coarse, calendar-facing unit (TTLs, scan days, signature
/// validity windows). Sub-second effects — RTTs, retransmit timers —
/// use [`TimeMs`]; the clock itself keeps millisecond state internally,
/// so seconds are always a floor of the true virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// Add seconds.
    pub fn plus(self, secs: u64) -> Timestamp {
        Timestamp(self.0 + secs)
    }

    /// Seconds elapsed since `earlier` (saturating).
    pub fn since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Whole days since the epoch.
    pub fn day(self) -> u64 {
        self.0 / 86_400
    }

    /// Whole hours since the epoch.
    pub fn hour(self) -> u64 {
        self.0 / 3_600
    }

    /// This instant at millisecond resolution.
    pub fn as_millis(self) -> TimeMs {
        TimeMs(self.0 * 1_000)
    }
}

/// Milliseconds of simulated time since the simulation epoch — the
/// fine-grained counterpart of [`Timestamp`], so sub-second RTTs and
/// retransmit deadlines are representable in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeMs(pub u64);

impl TimeMs {
    /// Add milliseconds.
    pub fn plus(self, ms: u64) -> TimeMs {
        TimeMs(self.0 + ms)
    }

    /// Milliseconds elapsed since `earlier` (saturating).
    pub fn since(self, earlier: TimeMs) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Whole seconds since the epoch (floor).
    pub fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// The enclosing coarse [`Timestamp`] (floor to whole seconds).
    pub fn to_timestamp(self) -> Timestamp {
        Timestamp(self.as_secs())
    }
}

impl From<Timestamp> for TimeMs {
    fn from(t: Timestamp) -> TimeMs {
        t.as_millis()
    }
}

/// A shared, manually advanced simulation clock.
///
/// All components (resolver caches, ECH rotation, scanners) read the same
/// clock; tests advance it explicitly, making every timing effect
/// deterministic and instant. State is kept in milliseconds so the
/// event-loop resolution backend can advance virtual time by sub-second
/// RTT steps; the seconds-facing API floors.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_ms: Arc<Mutex<TimeMs>>,
}

impl SimClock {
    /// A clock at the epoch.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current simulated time (whole seconds, floored).
    pub fn now(&self) -> Timestamp {
        self.now_ms.lock().to_timestamp()
    }

    /// Current simulated time at millisecond resolution.
    pub fn now_ms(&self) -> TimeMs {
        *self.now_ms.lock()
    }

    /// Advance by `secs` seconds and return the new time.
    pub fn advance(&self, secs: u64) -> Timestamp {
        let mut t = self.now_ms.lock();
        *t = t.plus(secs * 1_000);
        t.to_timestamp()
    }

    /// Advance by `ms` milliseconds and return the new fine-grained time.
    pub fn advance_ms(&self, ms: u64) -> TimeMs {
        let mut t = self.now_ms.lock();
        *t = t.plus(ms);
        *t
    }

    /// Advance by whole days.
    pub fn advance_days(&self, days: u64) -> Timestamp {
        self.advance(days * 86_400)
    }

    /// Jump to an absolute time; panics if it would move backwards
    /// (virtual time is monotonic by construction). The guard is at
    /// millisecond granularity: setting to the current whole second
    /// after sub-second time has elapsed within it is rejected too.
    pub fn set(&self, t: Timestamp) {
        self.set_ms(t.as_millis());
    }

    /// Jump to an absolute millisecond time; panics if it would move
    /// backwards. Setting to the current instant is a no-op.
    pub fn set_ms(&self, t: TimeMs) {
        let mut now = self.now_ms.lock();
        assert!(t >= *now, "SimClock cannot move backwards ({:?} -> {:?})", *now, t);
        *now = t;
    }
}

/// A civil-calendar date used for reporting longitudinal results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CivilDate {
    /// Four-digit year.
    pub year: i32,
    /// Month, 1–12.
    pub month: u32,
    /// Day of month, 1–31.
    pub day: u32,
}

impl CivilDate {
    /// Construct, validating ranges loosely.
    pub fn new(year: i32, month: u32, day: u32) -> CivilDate {
        assert!((1..=12).contains(&month) && (1..=31).contains(&day));
        CivilDate { year, month, day }
    }

    /// Days since 1970-01-01 (Howard Hinnant's `days_from_civil`).
    pub fn days_from_civil(self) -> i64 {
        let y = if self.month <= 2 { self.year - 1 } else { self.year } as i64;
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400;
        let m = self.month as i64;
        let d = self.day as i64;
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        era * 146_097 + doe - 719_468
    }

    /// Inverse of [`CivilDate::days_from_civil`].
    pub fn from_days(z: i64) -> CivilDate {
        let z = z + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097;
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
        CivilDate { year: (if m <= 2 { y + 1 } else { y }) as i32, month: m, day: d }
    }

    /// The date `n` days later.
    pub fn plus_days(self, n: i64) -> CivilDate {
        CivilDate::from_days(self.days_from_civil() + n)
    }

    /// Signed day difference `self - other`.
    pub fn diff_days(self, other: CivilDate) -> i64 {
        self.days_from_civil() - other.days_from_civil()
    }
}

impl fmt::Display for CivilDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// Maps simulation day numbers to civil dates, anchored at a start date.
///
/// Day 0 of the simulation corresponds to `start`; the paper's study
/// anchors at 2023-05-08.
#[derive(Debug, Clone, Copy)]
pub struct Calendar {
    start: CivilDate,
}

impl Calendar {
    /// The paper's measurement start date.
    pub fn paper() -> Calendar {
        Calendar { start: CivilDate::new(2023, 5, 8) }
    }

    /// A calendar anchored at an arbitrary date.
    pub fn anchored(start: CivilDate) -> Calendar {
        Calendar { start }
    }

    /// The civil date of simulation day `day`.
    pub fn date_of_day(&self, day: u64) -> CivilDate {
        self.start.plus_days(day as i64)
    }

    /// The simulation day number of a civil date (None if before start).
    pub fn day_of_date(&self, date: CivilDate) -> Option<u64> {
        let d = date.diff_days(self.start);
        if d < 0 {
            None
        } else {
            Some(d as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let c = SimClock::new();
        assert_eq!(c.now(), Timestamp(0));
        c.advance(10);
        let shared = c.clone();
        shared.advance(5);
        assert_eq!(c.now(), Timestamp(15));
        c.advance_days(2);
        assert_eq!(c.now().day(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot move backwards")]
    fn clock_rejects_backwards_set() {
        let c = SimClock::new();
        c.advance(100);
        c.set(Timestamp(50));
    }

    #[test]
    #[should_panic(expected = "cannot move backwards")]
    fn clock_rejects_backwards_set_ms() {
        let c = SimClock::new();
        c.advance_ms(1_500);
        c.set_ms(TimeMs(1_499));
    }

    #[test]
    #[should_panic(expected = "cannot move backwards")]
    fn clock_rejects_subsecond_rewind_via_seconds_set() {
        // 2.3 s of virtual time have elapsed; jumping to "second 2"
        // would silently lose 300 ms, so the ms-granularity guard trips
        // even though the seconds-facing `now()` also reads 2.
        let c = SimClock::new();
        c.advance_ms(2_300);
        assert_eq!(c.now(), Timestamp(2));
        c.set(Timestamp(2));
    }

    #[test]
    fn millisecond_path_floors_to_seconds() {
        let c = SimClock::new();
        c.advance_ms(2_999);
        assert_eq!(c.now(), Timestamp(2));
        assert_eq!(c.now_ms(), TimeMs(2_999));
        c.advance(1);
        assert_eq!(c.now_ms(), TimeMs(3_999));
        c.set_ms(TimeMs(3_999)); // setting to "now" is a no-op
        c.set_ms(TimeMs(10_000));
        assert_eq!(c.now(), Timestamp(10));
    }

    #[test]
    fn timems_conversions() {
        let t = Timestamp(7);
        assert_eq!(t.as_millis(), TimeMs(7_000));
        assert_eq!(TimeMs::from(t), TimeMs(7_000));
        assert_eq!(TimeMs(7_450).as_secs(), 7);
        assert_eq!(TimeMs(7_450).to_timestamp(), Timestamp(7));
        assert_eq!(TimeMs(100).plus(20), TimeMs(120));
        assert_eq!(TimeMs(120).since(TimeMs(100)), 20);
        assert_eq!(TimeMs(100).since(TimeMs(120)), 0);
    }

    #[test]
    fn civil_round_trip() {
        for (y, m, d) in [
            (1970, 1, 1),
            (2000, 2, 29),
            (2023, 5, 8),
            (2023, 8, 1),
            (2023, 10, 5),
            (2024, 2, 29),
            (2024, 3, 31),
        ] {
            let date = CivilDate::new(y, m, d);
            assert_eq!(CivilDate::from_days(date.days_from_civil()), date);
        }
        assert_eq!(CivilDate::new(1970, 1, 1).days_from_civil(), 0);
    }

    #[test]
    fn paper_calendar_landmarks() {
        let cal = Calendar::paper();
        assert_eq!(cal.date_of_day(0), CivilDate::new(2023, 5, 8));
        // Tranco source change: 2023-08-01 is day 85.
        assert_eq!(cal.day_of_date(CivilDate::new(2023, 8, 1)), Some(85));
        // Cloudflare ECH kill switch: 2023-10-05 is day 150.
        assert_eq!(cal.day_of_date(CivilDate::new(2023, 10, 5)), Some(150));
        // Study end: 2024-03-31 is day 328.
        assert_eq!(cal.day_of_date(CivilDate::new(2024, 3, 31)), Some(328));
        assert_eq!(cal.day_of_date(CivilDate::new(2023, 1, 1)), None);
    }

    #[test]
    fn date_display() {
        assert_eq!(CivilDate::new(2023, 5, 8).to_string(), "2023-05-08");
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp(3600 * 25);
        assert_eq!(t.day(), 1);
        assert_eq!(t.hour(), 25);
        assert_eq!(t.plus(10).since(t), 10);
        assert_eq!(t.since(t.plus(10)), 0);
    }
}
