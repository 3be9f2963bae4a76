//! The callback channel: how a server calls back the clients that
//! registered with it (DESIGN.md §5.20). The coherent cache's invalidation
//! broadcast and pub/sub's delivery both run over it; what they send
//! through it, and when, stays theirs.
//!
//! The channel makes four decisions, each once:
//!
//! * **Receiver** — an [`Inbox`] owns the one callback door all of a
//!   receiver's registrations share (minted on first use, deleted with the
//!   inbox), mints their nonces from its own counter and routes an
//!   incoming `count, (nonce, extra)…` address list to its targets
//!   ([`Inbox::split`]), replying with the nonces it no longer knows.
//! * **Requests** — [`Inbox::request`] ships `nonce + a copy of the
//!   callback door` after the subcontract's own leading bytes;
//!   [`read_request`] is its reader on the serving side. The copy is under
//!   a [`Landed`] guard at both ends, so a call that never lands or a
//!   request that does not parse leaves no identifier behind.
//! * **Key** — a registration is `(token, nonce)`: the kernel token of the
//!   callback door names the receiver (one per [`Inbox`], so one per
//!   destination link), the nonce names the registration within it. Every
//!   inbox counts from 1, so nonces collide across receivers by
//!   construction and no request may name a registration by nonce alone.
//! * **Sender table** — a [`Link`] per token holds one door, the
//!   registrations behind it and the run of failed callbacks;
//!   [`Link::settle`] reads an outcome into reaped, counted or dead.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;
use spring_buf::{BufError, CommBuffer};
use spring_kernel::{CallCtx, Domain, DoorError, DoorHandler, DoorId, Message};
use subcontract::{DomainCtx, Landed, Result, SpringError};

type DoorResult<T> = std::result::Result<T, DoorError>;

/// What runs behind an inbox's door: the subcontract's note handler.
type Serve<T> = Box<dyn Fn(&Inbox<T>, Message) -> DoorResult<Message> + Send + Sync>;

/// The receiving end: one callback door, and nonce → target behind it.
pub(crate) struct Inbox<T> {
    domain: Domain,
    serve: Serve<T>,
    /// The callback door and its kernel token, once minted.
    door: Mutex<Option<(DoorId, u64)>>,
    next_nonce: AtomicU64,
    targets: Mutex<HashMap<u64, T>>,
}

/// The handler behind the callback door. It must not keep the inbox alive:
/// the inbox owns the door.
struct InboxDoor<T>(Weak<Inbox<T>>);

impl<T: Send + Sync + 'static> DoorHandler for InboxDoor<T> {
    fn invoke(&self, _cctx: &CallCtx, msg: Message) -> DoorResult<Message> {
        let inbox = self
            .0
            .upgrade()
            .ok_or_else(|| DoorError::Handler("callback inbox gone".into()))?;
        (inbox.serve)(&inbox, msg)
    }
}

impl<T: Clone + Send + Sync + 'static> Inbox<T> {
    /// An inbox in `ctx`'s domain whose door hands every note to `serve`.
    pub(crate) fn new(
        ctx: &Arc<DomainCtx>,
        serve: impl Fn(&Inbox<T>, Message) -> DoorResult<Message> + Send + Sync + 'static,
    ) -> Arc<Inbox<T>> {
        Arc::new(Inbox {
            domain: ctx.domain().clone(),
            serve: Box::new(serve),
            door: Mutex::new(None),
            next_nonce: AtomicU64::new(1),
            targets: Mutex::new(HashMap::new()),
        })
    }

    /// The callback door and its token, minting the door on first use.
    fn door(self: &Arc<Self>) -> Result<(DoorId, u64)> {
        let mut slot = self.door.lock();
        if let Some(pair) = *slot {
            return Ok(pair);
        }
        let handler = Arc::new(InboxDoor(Arc::downgrade(self)));
        let door = Landed::adopt(&self.domain, self.domain.create_door(handler)?);
        let token = self.domain.door_token(door.id())?;
        Ok(*slot.insert((door.keep(), token)))
    }

    /// The callback door's kernel token (None until the first request).
    pub(crate) fn token(&self) -> Option<u64> {
        (*self.door.lock()).map(|(_, token)| token)
    }

    /// Routes a fresh nonce to `target`.
    pub(crate) fn insert(&self, target: T) -> u64 {
        let nonce = self.next_nonce.fetch_add(1, Ordering::Relaxed);
        self.targets.lock().insert(nonce, target);
        nonce
    }

    /// Forgets `nonce`; a note that still addresses it reports it stale.
    pub(crate) fn remove(&self, nonce: u64) -> Option<T> {
        self.targets.lock().remove(&nonce)
    }

    /// Nonces currently routed.
    pub(crate) fn len(&self) -> usize {
        self.targets.lock().len()
    }

    /// Sends `call` (the subcontract's leading bytes) to `to` with `nonce`
    /// and a copy of the callback door appended, and returns the reply. The
    /// kernel validates the target before it moves any identifier, so after
    /// a failed call the copy may still be ours: the guard deletes it
    /// (slots are never reused, so deleting one that did move is harmless).
    pub(crate) fn request(
        self: &Arc<Self>,
        to: DoorId,
        mut call: CommBuffer,
        nonce: u64,
    ) -> Result<CommBuffer> {
        let door = Landed::copy_of(&self.domain, self.door()?.0)?;
        call.put_u64(nonce);
        call.put_door(door.id());
        let reply = self.domain.call(to, call.into_message())?;
        door.keep();
        Ok(CommBuffer::from_message(reply))
    }

    /// Reads the address list [`put_addresses`] wrote (`extra` reads what
    /// follows each nonce) into the targets it names and the reply to send:
    /// the list of nonces this inbox does not know, which the sender reaps.
    /// Nothing is returned, so no target is touched, unless the whole list
    /// parses; the wire's count bounds the loop and sizes nothing.
    pub(crate) fn split<E>(
        &self,
        note: &mut CommBuffer,
        extra: impl Fn(&mut CommBuffer) -> std::result::Result<E, BufError>,
    ) -> DoorResult<(Vec<(T, E)>, Message)> {
        let bad = |e: BufError| DoorError::Handler(format!("bad callback address list: {e}"));
        let count = note.get_seq_len(8).map_err(bad)?;
        let mut hit = Vec::new();
        let mut stale = Vec::new();
        let targets = self.targets.lock();
        for _ in 0..count {
            let nonce = note.get_u64().map_err(bad)?;
            let extra = extra(note).map_err(bad)?;
            match targets.get(&nonce) {
                Some(target) => hit.push((target.clone(), extra)),
                None => stale.push(nonce),
            }
        }
        let mut reply = CommBuffer::pooled();
        reply.put_seq_len(stale.len());
        for nonce in stale {
            reply.put_u64(nonce);
        }
        Ok((hit, reply.into_message()))
    }
}

impl<T> Drop for Inbox<T> {
    fn drop(&mut self) {
        if let Some((door, _)) = self.door.get_mut().take() {
            let _ = self.domain.delete_door(door);
        }
    }
}

/// Writes the address list of a note: `count, (nonce, extra)…`.
pub(crate) fn put_addresses<E>(
    note: &mut CommBuffer,
    list: impl ExactSizeIterator<Item = (u64, E)>,
    extra: impl Fn(&mut CommBuffer, E),
) {
    note.put_seq_len(list.len());
    for (nonce, e) in list {
        note.put_u64(nonce);
        extra(note, e);
    }
}

/// The stale list of a note's reply. A truncated or over-counted list names
/// nothing: half a list is no evidence against the registrations in it.
fn stale_list(reply: Message) -> Vec<u64> {
    let mut reply = CommBuffer::from_message(reply);
    let Ok(count) = reply.get_seq_len(8) else {
        return Vec::new();
    };
    (0..count)
        .map(|_| reply.get_u64())
        .collect::<std::result::Result<_, _>>()
        .unwrap_or_default()
}

/// A request as the serving side reads it: which registration, over which
/// link, and the carried copy of the callback door (deleted unless a
/// [`Link`] keeps it).
pub(crate) struct Request<'a> {
    pub(crate) nonce: u64,
    pub(crate) token: u64,
    door: Landed<'a>,
}

/// Reads what [`Inbox::request`] appended. The request must carry exactly
/// one door; whatever fails, every identifier that landed with it is
/// deleted.
pub(crate) fn read_request<'a>(
    domain: &'a Domain,
    args: &mut CommBuffer,
    what: &str,
) -> DoorResult<Request<'a>> {
    let parsed = (|| -> Result<Request<'a>> {
        if args.door_count() != 1 {
            return Err(SpringError::Remote(
                "expected exactly one callback door".into(),
            ));
        }
        let nonce = args.get_u64()?;
        let door = Landed::take(domain, args)?;
        let token = domain.door_token(door.id())?;
        Ok(Request { nonce, token, door })
    })();
    parsed.map_err(|e| {
        for door in args.drain_doors() {
            let _ = domain.delete_door(door);
        }
        DoorError::Handler(format!("{what}: {e}"))
    })
}

/// The sending end's record of one link: the registrations of one receiver
/// and the one door that reaches them all.
pub(crate) struct Link<S> {
    pub(crate) door: DoorId,
    /// Consecutive `Comm` failures; any success, or the receiver
    /// registering again, ends the run.
    fails: u32,
    pub(crate) subs: HashMap<u64, S>,
}

/// What one callback's outcome cost a link.
pub(crate) struct Settled {
    /// Registrations removed: the stale ones a reply listed, or all of
    /// them when the link is dead.
    pub(crate) dropped: usize,
    /// The link is written off: nothing behind its door will answer.
    pub(crate) dead: bool,
}

impl<S> Link<S> {
    /// The first registration over a link: keeps the carried door.
    pub(crate) fn open(req: Request<'_>, sub: S) -> Link<S> {
        Link {
            door: req.door.keep(),
            fails: 0,
            subs: HashMap::from([(req.nonce, sub)]),
        }
    }

    /// A registration (or re-registration) over a link already open: the
    /// link has its door, so the carried copy is deleted.
    pub(crate) fn join(&mut self, req: Request<'_>, sub: S) {
        self.fails = 0;
        self.subs.insert(req.nonce, sub);
    }

    /// Accounts for one callback over this link. `Ok` ends the run of
    /// failures and reaps the registrations the reply lists as stale;
    /// `Comm` is transient until `limit` in a row; any other error means
    /// the receiver is gone, and so are its registrations.
    pub(crate) fn settle(&mut self, outcome: DoorResult<Message>, limit: u32) -> Settled {
        let before = self.subs.len();
        let dead = match outcome {
            Ok(reply) => {
                self.fails = 0;
                for nonce in stale_list(reply) {
                    self.subs.remove(&nonce);
                }
                false
            }
            Err(DoorError::Comm(_)) => {
                self.fails += 1;
                self.fails >= limit
            }
            Err(_) => true,
        };
        if dead {
            self.subs.clear();
        }
        Settled {
            dropped: before - self.subs.len(),
            dead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spring_kernel::Kernel;

    struct Nop;
    impl DoorHandler for Nop {
        fn invoke(&self, _cctx: &CallCtx, msg: Message) -> DoorResult<Message> {
            Ok(msg)
        }
    }

    fn live_ids(kernel: &Kernel) -> u64 {
        let s = kernel.stats();
        s.ids_issued - s.ids_deleted
    }

    /// A link with registrations 1..=3 behind a real door.
    fn link_of_three(domain: &Domain) -> Link<()> {
        Link {
            door: domain.create_door(Arc::new(Nop)).unwrap(),
            fails: 0,
            subs: HashMap::from([(1, ()), (2, ()), (3, ())]),
        }
    }

    fn stale_reply(count: u32, nonces: &[u64]) -> Message {
        let mut reply = CommBuffer::new();
        reply.put_u32(count);
        for n in nonces {
            reply.put_u64(*n);
        }
        reply.into_message()
    }

    #[test]
    fn a_truncated_or_over_counted_stale_list_reaps_nothing() {
        let kernel = Kernel::new("t");
        let mut link = link_of_three(&kernel.create_domain("server"));
        // Claims three nonces, carries one: the prefix is not believed.
        let settled = link.settle(Ok(stale_reply(3, &[1])), 8);
        assert_eq!((settled.dropped, settled.dead), (0, false));
        // Cut in the middle of its second nonce.
        let mut cut = stale_reply(2, &[1, 2]);
        cut.bytes.truncate(cut.bytes.len() - 3);
        assert_eq!(link.settle(Ok(cut), 8).dropped, 0);
        // A count no reply could hold, and no reply bytes at all.
        assert_eq!(link.settle(Ok(stale_reply(u32::MAX, &[1])), 8).dropped, 0);
        assert_eq!(link.settle(Ok(Message::new()), 8).dropped, 0);
        assert_eq!(link.subs.len(), 3);
        // The well-formed list reaps what it names and skips strangers.
        assert_eq!(link.settle(Ok(stale_reply(2, &[1, 99])), 8).dropped, 1);
        assert!(!link.subs.contains_key(&1) && link.subs.len() == 2);
    }

    #[test]
    fn settle_prunes_at_the_limit_or_at_once_and_ok_resets_the_run() {
        let kernel = Kernel::new("t");
        let mut link = link_of_three(&kernel.create_domain("server"));
        let lost = || Err(DoorError::Comm("lost".into()));
        for _ in 0..2 {
            assert!(!link.settle(lost(), 3).dead);
        }
        // An Ok in between: the next run starts from nothing.
        assert!(!link.settle(Ok(stale_reply(0, &[])), 3).dead);
        for _ in 0..2 {
            let settled = link.settle(lost(), 3);
            assert_eq!((settled.dropped, settled.dead), (0, false));
        }
        // Exactly the third consecutive failure writes the link off.
        let settled = link.settle(lost(), 3);
        assert_eq!((settled.dropped, settled.dead), (3, true));
        assert!(link.subs.is_empty());

        // Any other error means nobody is there: dead on the first.
        let mut link = link_of_three(&kernel.create_domain("other"));
        let settled = link.settle(Err(DoorError::Revoked), 3);
        assert_eq!((settled.dropped, settled.dead), (3, true));
    }

    #[test]
    fn an_address_list_longer_than_its_bytes_touches_no_target() {
        let kernel = Kernel::new("t");
        let ctx = DomainCtx::new(kernel.create_domain("receiver"));
        let inbox = Inbox::new(&ctx, |_, msg| Ok(msg));
        let known = inbox.insert(7u32);

        // A count far past the bytes is refused before the loop runs (a
        // vector sized by it would be 64 GiB).
        let mut note = CommBuffer::new();
        note.put_u32(u32::MAX);
        note.put_u64(known);
        let refused = inbox.split(&mut note, CommBuffer::get_u64);
        assert!(matches!(refused, Err(DoorError::Handler(_))));

        // A count the byte check lets through but the entries do not fill:
        // the first entry names a live target, which must not come back.
        let mut note = CommBuffer::new();
        put_addresses(&mut note, [(known, 0u64)].into_iter(), CommBuffer::put_u64);
        let mut bytes = note.into_message().bytes;
        bytes[0] = 2;
        let mut note = CommBuffer::from_message(Message::from_bytes(bytes));
        let refused = inbox.split(&mut note, CommBuffer::get_u64);
        assert!(matches!(refused, Err(DoorError::Handler(_))));

        // The same list with an honest count routes, and reports the
        // stranger back.
        let mut note = CommBuffer::new();
        let list = [(known, 5u64), (99, 6)];
        put_addresses(&mut note, list.into_iter(), CommBuffer::put_u64);
        let (hit, reply) = inbox.split(&mut note, CommBuffer::get_u64).unwrap();
        assert_eq!(hit, vec![(7u32, 5u64)]);
        assert_eq!(stale_list(reply), vec![99]);
    }

    #[test]
    fn a_request_with_zero_or_two_doors_leaves_no_identifier_behind() {
        let kernel = Kernel::new("t");
        let domain = kernel.create_domain("server");
        let door = domain.create_door(Arc::new(Nop)).unwrap();
        let baseline = live_ids(&kernel);

        let mut none = CommBuffer::new();
        none.put_u64(1);
        assert!(read_request(&domain, &mut none, "test").is_err());
        assert_eq!(live_ids(&kernel), baseline);

        let mut two = CommBuffer::new();
        two.put_u64(1);
        two.put_door(domain.copy_door(door).unwrap());
        two.put_door(domain.copy_door(door).unwrap());
        assert_eq!(live_ids(&kernel), baseline + 2);
        assert!(read_request(&domain, &mut two, "test").is_err());
        assert_eq!(live_ids(&kernel), baseline);

        // One door, but the nonce before it is cut short.
        let mut cut = CommBuffer::new();
        cut.put_door(domain.copy_door(door).unwrap());
        assert!(read_request(&domain, &mut cut, "test").is_err());
        assert_eq!(live_ids(&kernel), baseline);

        // The well-formed request hands its door over under guard: kept by
        // the link that opens on it, deleted with one that only joins.
        let request = |nonce: u64| {
            let mut args = CommBuffer::new();
            args.put_u64(nonce);
            args.put_door(domain.copy_door(door).unwrap());
            read_request(&domain, &mut args, "test").unwrap()
        };
        let first = request(1);
        assert_eq!(first.token, domain.door_token(door).unwrap());
        let mut link = Link::open(first, ());
        link.join(request(2), ());
        assert_eq!(live_ids(&kernel), baseline + 1);
        assert_eq!(link.subs.len(), 2);
    }
}
