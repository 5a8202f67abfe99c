//! Validated binary images, shared between machines and interned per
//! process.
//!
//! Loading validates the whole image (a full [`encode::decode`]) before
//! anything runs — rejecting malformed binaries is part of the
//! architecture's contract. A fleet session, though, is rebuilt from its
//! snapshot on every slice, and the snapshot carries the same image each
//! time. So a validated [`Image`] is kept in a small bounded table, and
//! a later load of *exactly* the same words (and symbols) shares it
//! instead of validating again:
//!
//! * a lookup hits only on word-for-word equality of the code and
//!   row-for-row equality of the symbol table — never on a hash alone;
//! * only images that passed validation are ever inserted, so a bad image
//!   is re-validated (and refused) on every load;
//! * a poisoned table lock is a miss, never a panic.
//!
//! Everything else a load or restore checks still runs every time.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use zarf_asm::encode;
use zarf_core::prim::FIRST_USER_INDEX;
use zarf_core::Word;

use crate::machine::HwError;

/// How many distinct validated images a process keeps.
pub(crate) const INTERN_CAPACITY: usize = 32;

/// The process-wide table [`Hw::load_with`](crate::Hw::load_with) and
/// snapshot restore resolve through.
pub(crate) static IMAGES: Interner = Interner::new(INTERN_CAPACITY);

thread_local! {
    /// Full validations run on this thread (tests read it to prove that
    /// repeated loads of one image hit the table).
    static VALIDATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Load-time metadata for one item.
#[derive(Debug)]
pub(crate) struct ItemMeta {
    pub(crate) arity: usize,
    pub(crate) locals: usize,
    pub(crate) is_con: bool,
    pub(crate) body_off: usize,
    pub(crate) name: Option<String>,
}

/// A binary image that passed validation, with its item table and
/// retained symbols. Immutable once built; machines share it.
#[derive(Debug)]
pub(crate) struct Image {
    pub(crate) code: Arc<[Word]>,
    pub(crate) items: Vec<ItemMeta>,
    pub(crate) names: HashMap<String, u32>,
    /// `names` as `(identifier, name)` rows, identifier-sorted: what a
    /// snapshot records, and the symbol half of the intern key.
    pub(crate) symbols: Vec<(u32, String)>,
}

impl Image {
    /// Fully validate `words` and build the item table from the headers.
    fn validate(words: &[Word]) -> Result<Vec<ItemMeta>, HwError> {
        VALIDATIONS.with(|n| n.set(n.get() + 1));
        encode::decode(words).map_err(HwError::Load)?;
        // A successful decode guarantees the header scan stays in bounds.
        let count = words[1] as usize;
        let mut items = Vec::with_capacity(count);
        let mut pos = 2;
        for _ in 0..count {
            let fp = words[pos];
            let body_len = words[pos + 1] as usize;
            items.push(ItemMeta {
                arity: ((fp >> 16) & 0xFF) as usize,
                locals: (fp & 0xFFFF) as usize,
                is_con: fp >> 31 == 1,
                body_off: pos + 2,
                name: None,
            });
            pos += 2 + body_len;
        }
        Ok(items)
    }

    /// Attach symbols to validated code, applying the rows in order (a
    /// later row for the same name or item wins).
    fn with_symbols(code: Arc<[Word]>, mut items: Vec<ItemMeta>, rows: &[(u32, String)]) -> Image {
        let mut names = HashMap::with_capacity(rows.len());
        for (id, name) in rows {
            names.insert(name.clone(), *id);
            if let Some(meta) = id
                .checked_sub(FIRST_USER_INDEX)
                .and_then(|i| items.get_mut(i as usize))
            {
                meta.name = Some(name.clone());
            }
        }
        let mut symbols: Vec<(u32, String)> =
            names.iter().map(|(n, &id)| (id, n.clone())).collect();
        symbols.sort();
        Image {
            code,
            items,
            names,
            symbols,
        }
    }
}

/// A bounded table of validated images, least recently used first.
#[derive(Debug)]
pub(crate) struct Interner {
    capacity: usize,
    images: Mutex<Vec<Arc<Image>>>,
}

impl Interner {
    pub(crate) const fn new(capacity: usize) -> Self {
        Interner {
            capacity,
            images: Mutex::new(Vec::new()),
        }
    }

    /// The validated image of `words` carrying `symbols`: shared from the
    /// table on an exact match, otherwise validated and inserted.
    pub(crate) fn resolve(
        &self,
        words: &[Word],
        symbols: &[(u32, String)],
    ) -> Result<Arc<Image>, HwError> {
        if let Ok(mut images) = self.images.lock() {
            if let Some(pos) = images
                .iter()
                .position(|im| *im.code == *words && im.symbols == symbols)
            {
                let image = images.remove(pos);
                images.push(Arc::clone(&image));
                return Ok(image);
            }
        }
        let items = Image::validate(words)?;
        let image = Arc::new(Image::with_symbols(words.into(), items, symbols));
        if let Ok(mut images) = self.images.lock() {
            if images.len() >= self.capacity {
                images.remove(0);
            }
            images.push(Arc::clone(&image));
        }
        Ok(image)
    }

    /// Images currently held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.images.lock().map(|images| images.len()).unwrap_or(0)
    }
}

/// Full validations run on the calling thread so far.
#[cfg(test)]
pub(crate) fn validations_on_this_thread() -> u64 {
    VALIDATIONS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{read_sections, SectionWriter, SnapshotError};
    use crate::{Hw, HwConfig};
    use zarf_asm::{lower, parse};
    use zarf_core::io::NullPorts;

    /// A program whose image no other test loads: `main` builds a list
    /// whose head is `seed`.
    fn image(seed: i32) -> Vec<Word> {
        let src = format!(
            "con Nil\ncon Cons head tail\nfun main =\n let e = Nil in\n let l = Cons {seed} e in\n result l\n"
        );
        encode::encode(&lower(&parse(&src).unwrap()).unwrap()).unwrap()
    }

    /// `words` with one code word replaced so that it no longer decodes.
    fn corrupted(words: &[Word]) -> Vec<Word> {
        (2..words.len())
            .rev()
            .map(|i| {
                let mut bad = words.to_vec();
                bad[i] = 0xFFFF_FFFF;
                bad
            })
            .find(|bad| encode::decode(bad).is_err())
            .unwrap()
    }

    /// Snapshot bytes of a machine that ran `words`' `main` and kept the
    /// result as a root.
    fn snapshot_of(words: &[Word]) -> Vec<u8> {
        let mut hw = Hw::load(words).unwrap();
        let v = hw.run(&mut NullPorts).unwrap();
        hw.push_root(v);
        hw.hibernate().unwrap()
    }

    #[test]
    fn rehydrates_validate_an_image_once() {
        let words = image(7_001);
        let before = validations_on_this_thread();
        let mut bytes = snapshot_of(&words);
        for _ in 0..100 {
            bytes = Hw::rehydrate(&bytes, HwConfig::default())
                .unwrap()
                .hibernate()
                .unwrap();
        }
        assert_eq!(validations_on_this_thread() - before, 1);
    }

    #[test]
    fn a_tampered_code_word_is_refused_after_the_valid_image_was_interned() {
        let words = image(7_002);
        let bytes = snapshot_of(&words);
        // Replace the code section with a corrupted image and re-seal
        // every section's CRC, so only validation can catch it.
        let bad = corrupted(&words);
        let mut code = (bad.len() as u32).to_le_bytes().to_vec();
        for w in &bad {
            code.extend_from_slice(&w.to_le_bytes());
        }
        let mut writer = SectionWriter::new();
        for (tag, payload) in read_sections(&bytes).unwrap() {
            writer.section(tag, if tag == 1 { &code } else { payload });
        }
        let tampered = writer.finish();
        let err = Hw::rehydrate(&tampered, HwConfig::default()).unwrap_err();
        assert!(matches!(err, SnapshotError::Load(_)), "{err:?}");
        // The genuine snapshot still restores.
        assert!(Hw::rehydrate(&bytes, HwConfig::default()).is_ok());
    }

    #[test]
    fn a_failed_validation_is_never_cached() {
        let bad = corrupted(&image(7_003));
        let before = validations_on_this_thread();
        assert!(matches!(Hw::load(&bad), Err(HwError::Load(_))));
        assert!(matches!(Hw::load(&bad), Err(HwError::Load(_))));
        assert_eq!(validations_on_this_thread() - before, 2);
    }

    #[test]
    fn the_table_stays_bounded_and_evicts_the_least_recently_used() {
        let table = Interner::new(4);
        let images: Vec<Vec<Word>> = (0..10).map(|i| image(7_100 + i)).collect();
        for words in &images {
            table.resolve(words, &[]).unwrap();
            assert!(table.len() <= 4);
        }
        assert_eq!(table.len(), 4);
        let before = validations_on_this_thread();
        // The newest image hits; the oldest was evicted and validates again.
        table.resolve(&images[9], &[]).unwrap();
        assert_eq!(validations_on_this_thread(), before);
        table.resolve(&images[0], &[]).unwrap();
        assert_eq!(validations_on_this_thread(), before + 1);
        assert_eq!(table.len(), 4);
    }

    #[test]
    fn a_poisoned_table_is_a_miss_not_a_panic() {
        let table = Interner::new(4);
        let words = image(7_005);
        let poison = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = table.images.lock();
                panic!("poison the table lock");
            })
            .join()
        });
        assert!(poison.is_err() && table.images.is_poisoned());
        let before = validations_on_this_thread();
        table.resolve(&words, &[]).unwrap();
        table.resolve(&words, &[]).unwrap();
        assert_eq!(validations_on_this_thread() - before, 2);
        assert!(table.resolve(&corrupted(&words), &[]).is_err());
    }

    #[test]
    fn symbols_are_part_of_the_key() {
        let table = Interner::new(4);
        let words = image(7_004);
        let plain = table.resolve(&words, &[]).unwrap();
        let rows = vec![(FIRST_USER_INDEX + 2, "main".to_string())];
        let named = table.resolve(&words, &rows).unwrap();
        assert!(!Arc::ptr_eq(&plain, &named));
        assert_eq!(named.names.get("main"), Some(&(FIRST_USER_INDEX + 2)));
        assert!(plain.names.is_empty());
        assert!(Arc::ptr_eq(&named, &table.resolve(&words, &rows).unwrap()));
    }
}
