//! Error types for the USF layer.

use std::any::Any;
use std::fmt;

/// Errors reported by the USF framework.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsfError {
    /// The instance has been shut down.
    ShutDown,
    /// A spawned thread panicked; the payload's `Display` is captured when possible.
    ThreadPanicked(String),
    /// A configuration value was invalid (e.g. an unparsable environment variable).
    InvalidConfig(String),
    /// A channel operation failed because the peer endpoints were dropped.
    ChannelClosed,
    /// A timed operation expired.
    Timeout,
}

impl fmt::Display for UsfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsfError::ShutDown => write!(f, "USF instance has been shut down"),
            UsfError::ThreadPanicked(msg) => write!(f, "spawned thread panicked: {msg}"),
            UsfError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            UsfError::ChannelClosed => write!(f, "channel closed"),
            UsfError::Timeout => write!(f, "operation timed out"),
        }
    }
}

impl std::error::Error for UsfError {}

/// The message of a panic payload as `catch_unwind` or a join returns it: the `&str` or
/// `String` it was raised with, else `"<non-string panic payload>"`.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, UsfError>;
