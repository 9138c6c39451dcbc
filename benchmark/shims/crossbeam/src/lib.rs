//! Stand-in for the one `crossbeam` item the workspace uses:
//! `channel::bounded`, here `std::sync::mpsc::sync_channel`. Only
//! `collector::stream` (not on the benchmark's path) names it.

pub mod channel {
    pub use std::sync::mpsc::Receiver;

    /// `std`'s bounded sender is already `Clone`, which is all
    /// `collector::stream` asks of crossbeam's.
    pub type Sender<T> = std::sync::mpsc::SyncSender<T>;

    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::sync_channel(capacity)
    }
}
