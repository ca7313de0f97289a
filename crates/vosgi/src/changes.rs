//! A fixed-capacity log of the names that writes touched.

use std::borrow::Borrow;

/// How many distinct names a [`ChangeLog`] holds before it overflows.
pub const CHANGE_LOG_CAPACITY: usize = 8;

/// The names whose state the writes since the last
/// [`clear`](Self::clear) may have changed, held inline: up to
/// [`CHANGE_LOG_CAPACITY`] distinct names and, past that, only the fact that
/// the log overflowed, after which a reader must assume that any name
/// changed. Logging a name clones its handle — a reference count, for a
/// shared name — and allocates nothing.
#[derive(Debug, Clone)]
pub struct ChangeLog<T> {
    names: [Option<T>; CHANGE_LOG_CAPACITY],
    len: usize,
    overflowed: bool,
}

impl<T> Default for ChangeLog<T> {
    fn default() -> Self {
        ChangeLog {
            names: [const { None }; CHANGE_LOG_CAPACITY],
            len: 0,
            overflowed: false,
        }
    }
}

impl<T: Borrow<str>> ChangeLog<T> {
    /// Logs `name`, unless it is logged already or the log has
    /// overflowed.
    pub fn log(&mut self, name: T) {
        let name_str: &str = name.borrow();
        if self.overflowed || self.names().is_some_and(|mut n| n.any(|n| n == name_str)) {
            return;
        }
        match self.names.get_mut(self.len) {
            Some(slot) => {
                *slot = Some(name);
                self.len += 1;
            }
            None => self.overflowed = true,
        }
    }

    /// The names logged, each once, in the order they were first logged;
    /// `None` once the log has overflowed.
    pub fn names(&self) -> Option<impl Iterator<Item = &str>> {
        let logged = self.names[..self.len].iter().flatten();
        (!self.overflowed).then(|| logged.map(|n| n.borrow()))
    }

    /// Forgets every name, and the overflow. A log that logged nothing is
    /// left as it is, unwritten.
    #[inline]
    pub fn clear(&mut self) {
        if self.len == 0 && !self.overflowed {
            return;
        }
        self.names[..self.len].iter_mut().for_each(|n| *n = None);
        self.len = 0;
        self.overflowed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_log_keeps_each_name_once_until_it_overflows() {
        let mut log = ChangeLog::<Arc<str>>::default();
        let names: Vec<Arc<str>> = (0..=CHANGE_LOG_CAPACITY)
            .map(|i| format!("i{i}").into())
            .collect();
        log.log(Arc::clone(&names[0]));
        log.log(Arc::clone(&names[0]));
        assert!(log.names().unwrap().eq(["i0"]));
        for name in &names[1..CHANGE_LOG_CAPACITY] {
            log.log(Arc::clone(name));
        }
        assert_eq!(log.names().unwrap().count(), CHANGE_LOG_CAPACITY);
        log.log(Arc::clone(&names[3]));
        assert!(log.names().is_some(), "a name logged already takes no room");
        log.log(Arc::clone(&names[CHANGE_LOG_CAPACITY]));
        assert!(log.names().is_none(), "one name too many overflows");
        log.clear();
        assert_eq!(log.names().unwrap().count(), 0);
        assert!(names.iter().all(|n| Arc::strong_count(n) == 1), "released");
    }
}
