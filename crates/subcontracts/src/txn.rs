//! The *txn* subcontract: another §8.4 future direction, implemented.
//!
//! "Another is to transfer control information for atomic transactions at
//! the subcontract level." A client thread opens a transaction scope; every
//! invocation on a txn object made inside the scope piggybacks the
//! transaction identifier, which the server-side subcontract publishes to
//! the servant and records in a journal — the raw material a transaction
//! coordinator needs, flowing entirely through subcontract control regions.

use std::cell::Cell;
use std::sync::Arc;

use parking_lot::Mutex;
use spring_buf::CommBuffer;
use spring_kernel::{DoorError, DoorId};
use subcontract::{
    export_door, Call, Dispatch, DomainCtx, DoorRepr, DoorSubcontract, Result, ScId, SpringObj,
};

// Why two thread-locals and not a field of the call: a door call shuttles the
// caller's thread into the server and back, so between `replace` and the
// restore below nothing else can run on the thread except calls nested
// inside this one — and each of those restores what it replaced on its way
// out. Thread scope is therefore exactly call scope, on both sides. Pinned
// by `a_nested_outgoing_call_leaves_the_serving_scope_as_it_found_it` in
// tests/extensions.rs. (A servant that hands work to another thread takes
// `current_txn()` with it by value, as it would any argument.)
thread_local! {
    /// The transaction the current thread is working under (0 = none).
    /// Written by [`TxnScope`], read by `preamble` on the same thread.
    static CLIENT_TXN: Cell<u64> = const { Cell::new(0) };
    /// The transaction of the call currently being served on this thread.
    /// Written and restored by the serve step around `dispatch`.
    static SERVER_TXN: Cell<u64> = const { Cell::new(0) };
}

/// Opens a transaction scope on the current thread; invocations on txn
/// objects inside the scope carry the identifier. Closing restores the
/// previous scope (scopes nest).
pub struct TxnScope {
    previous: u64,
}

impl TxnScope {
    /// Enters transaction `id` on this thread.
    pub fn begin(id: u64) -> TxnScope {
        TxnScope {
            previous: CLIENT_TXN.with(|c| c.replace(id)),
        }
    }
}

impl Drop for TxnScope {
    fn drop(&mut self) {
        CLIENT_TXN.with(|c| c.set(self.previous));
    }
}

/// The transaction identifier of the call currently being served (what a
/// transactional servant consults), or 0 outside a transaction.
pub fn current_txn() -> u64 {
    SERVER_TXN.with(Cell::get)
}

/// A record of operations observed under transactions, per exported object.
#[derive(Debug, Default)]
pub struct TxnJournal {
    entries: Mutex<Vec<(u64, u32)>>,
}

impl TxnJournal {
    /// All `(transaction, operation)` pairs recorded so far.
    pub fn entries(&self) -> Vec<(u64, u32)> {
        self.entries.lock().clone()
    }

    /// Operations recorded under one transaction.
    pub fn ops_in(&self, txn: u64) -> Vec<u32> {
        self.entries
            .lock()
            .iter()
            .filter(|(t, _)| *t == txn)
            .map(|(_, op)| *op)
            .collect()
    }
}

/// The txn subcontract (client and server side).
#[derive(Debug, Default)]
pub struct Txn;

impl Txn {
    /// The identifier carried in txn objects' marshalled form.
    pub const ID: ScId = ScId::from_name("txn");

    /// Creates the subcontract instance to register in a domain.
    pub fn new() -> Arc<Txn> {
        Arc::new(Txn)
    }

    /// Exports an object whose calls carry transaction identifiers,
    /// returning the object together with its server-side journal.
    pub fn export_with_journal(
        ctx: &Arc<DomainCtx>,
        disp: Arc<dyn Dispatch>,
    ) -> Result<(SpringObj, Arc<TxnJournal>)> {
        let journal = Arc::new(TxnJournal::default());
        let log = journal.clone();
        // Server-side txn code: reads the control region, journals the call,
        // and publishes the transaction for the servant.
        let control = move |call: &mut Call<'_>, disp: &dyn Dispatch| {
            let txn = call
                .args
                .get_u64()
                .map_err(|e| DoorError::Handler(format!("bad txn control: {e}")))?;
            let op = call
                .args
                .peek_u32()
                .map_err(|e| DoorError::Handler(format!("bad txn request: {e}")))?;
            if txn != 0 {
                log.entries.lock().push((txn, op));
            }
            let previous = SERVER_TXN.with(|c| c.replace(txn));
            let result = call.dispatch(disp);
            SERVER_TXN.with(|c| c.set(previous));
            result
        };
        let obj = export_door(ctx, "txn.serve", Self::ID, disp, control, |_| {
            Ok(|door| DoorRepr::of(door, ()))
        })?;
        Ok((obj, journal))
    }
}

/// The whole client half: the representation is just the door (the
/// transaction comes from the calling thread's scope), so all this
/// subcontract declares is the control region it writes.
impl DoorSubcontract for Txn {
    const ID: ScId = Txn::ID;
    const NAME: &'static str = "txn";
    type State = ();

    fn preamble(&self, _obj: &SpringObj, call: &mut CommBuffer) -> Result<()> {
        // Transfer the thread's transaction in the control region (§8.4).
        call.put_u64(CLIENT_TXN.with(Cell::get));
        Ok(())
    }

    fn get(&self, _ctx: &Arc<DomainCtx>, _door: DoorId, _buf: &mut CommBuffer) -> Result<()> {
        Ok(())
    }

    fn fork(&self, _ctx: &Arc<DomainCtx>, _state: &()) -> Result<()> {
        Ok(())
    }
}
