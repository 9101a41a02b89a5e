//! Name interning for tasks and signals.
//!
//! Analyses work over dense integer ids; this table is the single place that
//! remembers what those ids were called in the source program, so every
//! diagnostic can be rendered in the user's own vocabulary.

use crate::{SignalId, TaskId};
use std::collections::HashMap;

/// Interned names for the tasks and signals of one program.
///
/// A *signal* is a `(receiving task, message type)` pair; two entries of the
/// same message name directed at different tasks are distinct signals.
#[derive(Clone, Debug, Default)]
pub struct Symbols {
    tasks: Vec<String>,
    task_by_name: HashMap<String, TaskId>,
    signals: Vec<SignalInfo>,
    signal_by_key: HashMap<(TaskId, String), SignalId>,
}

/// What is known about one signal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignalInfo {
    /// The task that accepts this signal.
    pub receiver: TaskId,
    /// The message-type name (the Ada entry name).
    pub message: String,
}

impl Symbols {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Symbols::default()
    }

    /// Intern a task name, returning its id (existing id if already known).
    pub fn intern_task(&mut self, name: &str) -> TaskId {
        if let Some(&id) = self.task_by_name.get(name) {
            return id;
        }
        let id = TaskId(u32::try_from(self.tasks.len()).expect("too many tasks"));
        self.tasks.push(name.to_owned());
        self.task_by_name.insert(name.to_owned(), id);
        id
    }

    /// Intern the signal `(receiver, message)`, returning its id.
    pub fn intern_signal(&mut self, receiver: TaskId, message: &str) -> SignalId {
        let key = (receiver, message.to_owned());
        if let Some(&id) = self.signal_by_key.get(&key) {
            return id;
        }
        let id = SignalId(u32::try_from(self.signals.len()).expect("too many signals"));
        self.signals.push(SignalInfo {
            receiver,
            message: message.to_owned(),
        });
        self.signal_by_key.insert(key, id);
        id
    }

    /// Look up a task id by name.
    #[must_use]
    pub fn task(&self, name: &str) -> Option<TaskId> {
        self.task_by_name.get(name).copied()
    }

    /// Look up a signal id by receiver and message name.
    #[must_use]
    pub fn signal(&self, receiver: TaskId, message: &str) -> Option<SignalId> {
        self.signal_by_key
            .get(&(receiver, message.to_owned()))
            .copied()
    }

    /// The name of `task`, or a synthetic `t<k>` if out of range.
    #[must_use]
    pub fn task_name(&self, task: TaskId) -> &str {
        self.tasks
            .get(task.index())
            .map_or("<unknown task>", String::as_str)
    }

    /// The metadata of `signal`, if known.
    #[must_use]
    pub fn signal_info(&self, signal: SignalId) -> Option<&SignalInfo> {
        self.signals.get(signal.index())
    }

    /// A `receiver.message` rendering of `signal`.
    #[must_use]
    pub fn signal_name(&self, signal: SignalId) -> String {
        match self.signal_info(signal) {
            Some(info) => format!("{}.{}", self.task_name(info.receiver), info.message),
            None => format!("{signal}"),
        }
    }

    /// Number of interned tasks.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of interned signals.
    #[must_use]
    pub fn num_signals(&self) -> usize {
        self.signals.len()
    }

    /// Iterate over `(SignalId, info)` pairs in id order.
    pub fn iter_signals(&self) -> impl Iterator<Item = (SignalId, &SignalInfo)> {
        self.signals
            .iter()
            .enumerate()
            .map(|(i, info)| (SignalId(i as u32), info))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut syms = Symbols::new();
        let a = syms.intern_task("producer");
        let b = syms.intern_task("consumer");
        assert_ne!(a, b);
        assert_eq!(syms.intern_task("producer"), a);
        assert_eq!(syms.num_tasks(), 2);
    }

    #[test]
    fn signals_are_keyed_by_receiver_and_message() {
        let mut syms = Symbols::new();
        let t0 = syms.intern_task("a");
        let t1 = syms.intern_task("b");
        let s0 = syms.intern_signal(t0, "go");
        let s1 = syms.intern_signal(t1, "go");
        let s2 = syms.intern_signal(t0, "stop");
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
        assert_eq!(syms.intern_signal(t0, "go"), s0);
        assert_eq!(syms.signal(t0, "go"), Some(s0));
        assert_eq!(syms.signal_name(s1), "b.go");
    }

    #[test]
    fn lookup_misses_return_none() {
        let syms = Symbols::new();
        assert!(syms.task("nope").is_none());
        assert_eq!(syms.task_name(TaskId(9)), "<unknown task>");
    }

    #[test]
    fn iteration_orders_match_ids() {
        let mut syms = Symbols::new();
        let x = syms.intern_task("x");
        let y = syms.intern_task("y");
        syms.intern_signal(y, "b");
        syms.intern_signal(x, "a");
        let names: Vec<_> = syms
            .iter_signals()
            .map(|(s, _)| syms.signal_name(s))
            .collect();
        assert_eq!(names, ["y.b", "x.a"]);
    }
}
