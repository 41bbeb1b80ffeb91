//! [`Text`]: the owned string a recorded event carries.

use std::fmt::{self, Write as _};
use std::ops::Deref;

/// Longest owned text kept inside the one allocation: with its length
/// byte and the variant tag the repr fills 24 bytes, the smallest block
/// the allocator hands out anyway.
const INLINE: usize = 22;

/// An immutable owned string one machine word wide that derefs to `str`:
/// note keys and values and rendered payloads in a
/// [`TraceEvent`](crate::TraceEvent).
///
/// Any length is allowed. A `&'static str` is kept by reference and text
/// of at most 22 bytes inline, in one allocation each — as many as a
/// `String` of it costs; longer owned text costs a second allocation.
/// Comparing with a `str` reads the bytes without re-validating them.
///
/// # Examples
///
/// ```
/// use sfs_asys::Text;
///
/// let key = Text::from("retx");
/// let val = Text::from(17u64.to_string());
/// assert!(key == *"retx");
/// assert_eq!(val.parse::<u64>(), Ok(17));
/// assert_eq!(Text::from(String::from("a longer value than inline text")).len(), 31);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Text(Box<Repr>);

#[derive(Clone)]
enum Repr {
    Static(&'static str),
    /// The first `len` bytes of the array, copied from whole `str`s.
    Inline(u8, [u8; INLINE]),
    Heap(Box<str>),
}

impl Repr {
    fn bytes(&self) -> &[u8] {
        match self {
            Repr::Static(s) => s.as_bytes(),
            Repr::Inline(len, bytes) => &bytes[..usize::from(*len)],
            Repr::Heap(s) => s.as_bytes(),
        }
    }
}

impl PartialEq for Repr {
    fn eq(&self, other: &Self) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for Repr {}

fn inline_str(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("inline text is copied from whole strs")
}

/// Renders into an inline buffer until it overflows, then into a `String`.
struct Render {
    len: usize,
    bytes: [u8; INLINE],
    long: Option<String>,
}

impl fmt::Write for Render {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if let Some(long) = &mut self.long {
            long.push_str(s);
            return Ok(());
        }
        let end = self.len + s.len();
        if let Some(dst) = self.bytes.get_mut(self.len..end) {
            dst.copy_from_slice(s.as_bytes());
            self.len = end;
        } else {
            let mut long = String::with_capacity(end.max(2 * INLINE));
            long.push_str(inline_str(&self.bytes[..self.len]));
            long.push_str(s);
            self.long = Some(long);
        }
        Ok(())
    }
}

impl Text {
    /// The text as a `str`; the same as dereferencing.
    pub fn as_str(&self) -> &str {
        self
    }

    /// Renders formatting arguments, as `format!` would, without the
    /// intermediate `String` when the result fits inline.
    ///
    /// # Panics
    ///
    /// If a formatting implementation returns an error, as `format!` does.
    pub(crate) fn render(args: fmt::Arguments<'_>) -> Text {
        let mut out = Render {
            len: 0,
            bytes: [0; INLINE],
            long: None,
        };
        out.write_fmt(args)
            .expect("a formatting implementation returned an error unexpectedly");
        Text(Box::new(match out.long {
            Some(long) => Repr::Heap(long.into_boxed_str()),
            None => Repr::Inline(out.len as u8, out.bytes),
        }))
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        match &*self.0 {
            Repr::Static(s) => s,
            Repr::Inline(len, bytes) => inline_str(&bytes[..usize::from(*len)]),
            Repr::Heap(s) => s,
        }
    }
}

impl From<&'static str> for Text {
    fn from(s: &'static str) -> Self {
        Text(Box::new(Repr::Static(s)))
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        let mut bytes = [0; INLINE];
        Text(Box::new(match bytes.get_mut(..s.len()) {
            Some(dst) => {
                dst.copy_from_slice(s.as_bytes());
                Repr::Inline(s.len() as u8, bytes)
            }
            None => Repr::Heap(s.into_boxed_str()),
        }))
    }
}

impl PartialEq<str> for Text {
    fn eq(&self, other: &str) -> bool {
        self.0.bytes() == other.as_bytes()
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_word_and_every_repr_reads_back() {
        assert_eq!(std::mem::size_of::<Text>(), std::mem::size_of::<usize>());
        assert_eq!(
            std::mem::size_of::<Option<Text>>(),
            std::mem::size_of::<usize>()
        );
        assert!(std::mem::size_of::<Repr>() <= 24);
        let long = "ü".repeat(INLINE);
        for s in ["", "quorum", "exactly twenty-two b.", "ü中", long.as_str()] {
            let owned = Text::from(s.to_string());
            assert_eq!(&*owned, s);
            assert!(owned == *s);
            let rendered = Text::render(format_args!("{s}"));
            assert_eq!(&*rendered, s);
            assert_eq!(owned, rendered);
        }
        assert_eq!(Text::from("k"), Text::from("k".to_string()));
        assert_ne!(Text::from("k"), Text::from("kk"));
    }

    #[test]
    fn render_spills_past_the_inline_buffer() {
        let t = Text::render(format_args!("{}-{}-{}", "a".repeat(20), "bb", "c"));
        assert_eq!(&*t, format!("{}-bb-c", "a".repeat(20)));
        let max = Text::render(format_args!("{}", u64::MAX));
        assert_eq!(max.to_string(), u64::MAX.to_string());
        assert_eq!(format!("{:?}", Text::from("a\"b")), "\"a\\\"b\"");
    }
}
